"""Executable verification of the energy lower bounds.

The convex-combination identity behind the half-weight coupling bound is
checked in exact rational arithmetic (coefficient-by-coefficient, all
denominators small), while the linear-growth bounds for the coupling and
boundary energies are checked numerically on random samples and a coarse
structured grid.

The energies come from ``environment``: the boundary margins from
``boundary_core_vec``, the coupling margins from the tree steps of
``_tree_ops`` (the letter rule of ``tree_letter`` written as a sum of cell
terms).  The exact identity folds the same tree steps over rational linear
forms, so it certifies exactly the arithmetic the float scan runs.  Both
bound checks share one scan driver, ``_scan``: uniform points, then the
grid, then any extra points, in blocks sized for the L2 cache, each block
reduced to one margin per point by the check's own minimum over its
letters.  The uniform points are streamed: each coordinate reads its slice
of the one seeded stream through its own copy of the generator, jumped
ahead to the slice (O'Neill's PCG ``advance``), so a scan holds a fixed
working set of about 2 MB whatever its sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ladderlab.environment import boundary_core_vec, h_exp1, h_linear, middle_energy
from ladderlab.ladder import (ETA_MAX, TREE_STATES, InputRefused, LadderError, check_choice, check_int,
                              check_real, check_weight)
from ladderlab.rng import RngSpec

PAIRS = [(t, t2) for t in TREE_STATES for t2 in TREE_STATES if (t, t2) != ("A", "B")]
# the bound cases that ``ladderlab verify`` and criterion c06 check: (a, eta) and (a, side)
MIDDLE_CASES = tuple((a, eta) for a in (0.8, 1.0, 5.0) for eta in (-0.25, 0.0, 0.25))
BOUNDARY_CASES = tuple((a, side) for a in (0.75, 1.0) for side in ("left", "right"))
_GRID_RADIUS = 30.0  # half-width of the structured grid of every scan

__all__ = [
    "MinorantCertificate",
    "BoundReport",
    "minorant_certificate",
    "verify_linear_minorant",
    "check_middle_bound",
    "check_boundary_bound",
    "gamma_derivatives",
    "gamma_derivative_fd_errors",
    "middle_growth_rate",
    "boundary_growth_rate",
]


def middle_growth_rate(a: float) -> float:
    """Linear growth rate of the coupling energy: min(a - 1/2, 1) / 16."""
    return min(check_weight(a, 0.5) - 0.5, 1.0) / 16.0


def boundary_growth_rate(a: float) -> float:
    """Linear growth rate of the boundary energies: min(a - 3/4, 1/6) / 2."""
    return 0.5 * min(check_weight(a, 0.75) - 0.75, 1.0 / 6.0)


@dataclass(frozen=True)
class MinorantCertificate:
    """Exact convex-combination and dual weights for one tree-state pair."""

    t: str
    t2: str
    alpha_lo: Fraction
    beta_lo: Fraction
    gamma_lo: Fraction
    alpha_hi: Fraction
    beta_hi: Fraction
    gamma_hi: Fraction
    kappa_lo: Fraction
    kappa_hi: Fraction
    kappa_lo2: Fraction
    kappa_hi2: Fraction

    def all_ten(self) -> tuple[Fraction, ...]:
        return (
            self.alpha_lo, self.beta_lo, self.gamma_lo,
            self.alpha_hi, self.beta_hi, self.gamma_hi,
            self.kappa_lo, self.kappa_hi, self.kappa_lo2, self.kappa_hi2,
        )


def minorant_certificate(t: str, t2: str) -> MinorantCertificate:
    """Closed-form solution of the dual linear program, in exact rationals."""
    t, t2 = (check_choice(c, "tree letter", TREE_STATES) for c in (t, t2))
    if (t, t2) == ("A", "B"):
        raise InputRefused("the pair (A, B) carries infinite energy; nothing to certify")

    def ind(cond: bool) -> Fraction:
        return Fraction(1 if cond else 0)

    alpha_lo = Fraction(1, 10) * (
        ind(t2 == "A") - ind(t2 == "B") + ind(t2 == "C")
        - ind(t == "A" and t2 == "D") + ind(t == "B" and t2 == "D") + ind(t == "C" and t2 == "D")
    ) + Fraction(1, 5) * (
        3 + ind(t == "A") - ind(t == "B") - 2 * ind(t == "C") + ind(t == "C" and t2 == "B")
    )
    beta_lo = Fraction(1, 10) * (
        ind(t2 == "B") - ind(t2 == "A") - 3 * ind(t2 == "C") + ind(t == "A" and t2 == "D")
    ) + Fraction(1, 5) * (
        2 - ind(t == "A") + ind(t == "B") - ind(t == "B" and t2 == "A") + ind(t == "C" and t2 == "B")
        + ind(t == "A" and t2 == "C") - ind(t == "B" and t2 == "C") - ind(t == "B" and t2 == "D")
    )
    gamma_lo = 1 - alpha_lo - beta_lo
    alpha_hi = Fraction(4, 5) + Fraction(4, 5) * ind(t == "A") - alpha_lo
    beta_hi = Fraction(2, 5) + Fraction(4, 5) * ind(t2 == "B") - beta_lo
    gamma_hi = 1 - alpha_hi - beta_hi
    kappa_lo = Fraction(1, 4) * (
        1 + ind(t == "C" and t2 == "B") - ind(t2 == "B")
        - ind(t == "A" and t2 == "D") - Fraction(1, 2) * ind(t == "D" and t2 == "D")
    )
    kappa_hi = Fraction(1, 4) - kappa_lo
    kappa_lo2 = Fraction(1, 4) * (
        1 - ind(t2 == "B") - ind(t == "A") + ind(t == "B" and t2 == "B")
        + ind(t == "C" and t2 == "B") + ind(t == "A" and t2 == "C")
    ) + Fraction(1, 8) * (ind(t == "A" and t2 == "D") - ind(t2 == "D"))
    kappa_hi2 = Fraction(1, 4) - kappa_lo2

    coeff = MinorantCertificate(
        t=t, t2=t2,
        alpha_lo=alpha_lo, beta_lo=beta_lo, gamma_lo=gamma_lo,
        alpha_hi=alpha_hi, beta_hi=beta_hi, gamma_hi=gamma_hi,
        kappa_lo=kappa_lo, kappa_hi=kappa_hi, kappa_lo2=kappa_lo2, kappa_hi2=kappa_hi2,
    )
    if any(v < 0 for v in coeff.all_ten()):
        raise LadderError(f"negative certificate coefficient for pair ({t}, {t2})")
    if alpha_lo + beta_lo + gamma_lo != 1 or alpha_hi + beta_hi + gamma_hi != 1:
        raise LadderError(f"convex weights for ({t}, {t2}) do not sum to 1")
    if kappa_lo + kappa_hi != Fraction(1, 4) or kappa_lo2 + kappa_hi2 != Fraction(1, 4):
        raise LadderError(f"dual weights for ({t}, {t2}) do not sum to 1/4")
    return coeff


# variables of the linear identity, in a fixed order
_VARS = ("xlo", "xhi", "xlo2", "xhi2", "z", "gamma")


def _linear_identity_residuals(c: MinorantCertificate) -> dict[str, Fraction]:
    """Coefficients of LHS - RHS of the dual identity, one per variable.

    LHS is the convex minorant of the log-sum terms plus linear and tree
    pieces minus a quarter separation, at half initial weight; RHS is the
    kappa-weighted combination of the four cell fields.  The rung variable
    w is eliminated via w = gamma + u' - u.  The tree piece folds the steps
    of ``_TREE_OPS`` over the coefficient vectors of the cell terms.
    """
    half = Fraction(1, 2)
    # one exact coordinate vector over _VARS per variable
    xlo, xhi, xlo2, xhi2, z, gamma = np.eye(len(_VARS), dtype=int) * Fraction(1)
    u, u2 = half * (xlo + xhi), half * (xlo2 + xhi2)
    w = gamma + u2 - u
    # K: (5/4) [ alpha (xlo + w/2) + beta (xlo2 - w/2) + gamma z + bars ],
    # then the linear piece at a = 1/2: -(u + u' + z)
    lhs = Fraction(5, 4) * (
        c.alpha_lo * (xlo + half * w) + c.beta_lo * (xlo2 - half * w) + c.gamma_lo * z
        + c.alpha_hi * (xhi + half * w) + c.beta_hi * (xhi2 - half * w) + c.gamma_hi * z
    ) - (u + u2 + z)
    # tree piece: the float scan's steps over the vectors of its cell terms
    terms = {"lo": half * xlo, "hi": half * xhi, "lo2": half * xlo2, "hi2": half * xhi2,
             "z": z, "hw": half * w, "hu": half * u, "hu2": half * u2}
    for op, name in _TREE_OPS[c.t + c.t2]:
        lhs = op(lhs, terms[name])
    # minus a quarter separation
    lhs = lhs - Fraction(1, 4) * gamma
    rhs = c.kappa_lo * xlo + c.kappa_hi * xhi + c.kappa_lo2 * xlo2 + c.kappa_hi2 * xhi2
    return dict(zip(_VARS, lhs - rhs))


@dataclass
class BoundReport:
    """Outcome of one sampled bound check."""

    name: str
    samples: int
    min_margin: float
    worst_point: dict = field(default_factory=dict)
    passed: bool = True
    details: dict = field(default_factory=dict)


def verify_linear_minorant() -> BoundReport:
    """Check the dual identity for all 15 admissible pairs, exactly.

    Any nonzero residual raises; the report records per-pair residuals.
    """
    residuals = {}
    for t, t2 in PAIRS:
        c = minorant_certificate(t, t2)
        res = _linear_identity_residuals(c)
        residuals[t + t2] = {v: str(r) for v, r in res.items()}
        for v, r in res.items():
            if r != 0:
                raise LadderError(f"identity residual {r} on variable {v} for pair ({t}, {t2})")
    return BoundReport(
        name="minorant",
        samples=len(PAIRS) * len(_VARS),
        min_margin=0.0,
        passed=True,
        details={"residuals": residuals},
    )


# ---------------------------------------------------------------------------
# vectorized energy pieces (blocks of sample points)

# Points per block of the bound scans.  A block's coordinates, cell terms and
# margins are about twenty arrays of 64 KB, which fit a 2 MB L2 cache while
# the letter pairs run over them.
_BLOCK = 1 << 13


def _uniform_blocks(rng: RngSpec, samples: int, radius: float, dims: int):
    """``samples`` uniform points of the radius box in ``dims`` coordinates,
    in blocks of at most ``_BLOCK``: coordinate d is draws d * samples ..
    (d + 1) * samples - 1 of ``rng.generator()``, the values of one
    ``uniform(-radius, radius, size=samples)`` call per coordinate.  Each
    coordinate draws from its own copy of the generator's PCG64, advanced
    by d * samples (``uniform`` takes one 64-bit draw per value), so no
    coordinate is ever drawn whole."""
    state = rng.generator().bit_generator.state
    gens = []
    for d in range(dims):
        bits = np.random.PCG64()
        bits.state = state
        gens.append(np.random.Generator(bits.advance(d * samples)))
    for lo in range(0, samples, _BLOCK):
        size = min(_BLOCK, samples - lo)
        yield [g.uniform(-radius, radius, size=size) for g in gens]


def _extra_blocks(extra_points, dims: int):
    """``extra_points`` (one array per coordinate) in blocks of at most
    ``_BLOCK``, as views; anything but ``dims`` finite 1-D float arrays of
    one length is refused, before the scan starts."""
    try:
        points = [np.asarray(p, dtype=float) for p in extra_points]
    except (TypeError, ValueError) as exc:
        raise InputRefused(f"extra_points: {exc}") from None
    if (len(points) != dims or any(p.ndim != 1 or p.size != points[0].size for p in points)
            or not all(np.isfinite(p).all() for p in points)):
        raise InputRefused(f"extra_points must be {dims} finite 1-D arrays of one length, got "
                           f"shapes {[p.shape for p in points]}")
    return ([p[lo:lo + _BLOCK] for p in points] for lo in range(0, points[0].size, _BLOCK))


def _grid_blocks(radius: float, step: float, dims: int):
    """The grid ``axis^dims`` with ``axis = arange(-radius, radius + step/2,
    step)``, in C order (first coordinate slowest), in blocks of at most
    ``_BLOCK`` points; the whole grid is never built.  The product of the
    trailing axes that fits a block is built once, tiled over as many
    leading-axis points as fit, and the leading coordinates are filled per
    block."""
    axis = np.arange(-radius, radius + 0.5 * step, step)
    n = axis.size
    inner = dims
    while inner > 0 and n ** inner > _BLOCK:
        inner -= 1
    lead = dims - inner
    size, count = n ** inner, n ** lead
    per = min(_BLOCK // size, count)  # leading-axis points per block
    trailing = [np.tile(g.reshape(-1), per)
                for g in np.meshgrid(*([axis] * inner), indexing="ij")]
    for start in range(0, count, per):
        stop = min(start + per, count)
        leading = np.unravel_index(np.arange(start, stop), (n,) * lead) if lead else ()
        yield ([np.repeat(axis[i], size) for i in leading]
               + [g[:(stop - start) * size] for g in trailing])


def _cell_terms(points) -> dict:
    """The cell means u and u' of the points and the terms the tree pieces
    add: half of each field, z, w/2, u/2 and u'/2."""
    xlo, xhi, z, gamma, xlo2, xhi2 = points
    u = 0.5 * (xlo + xhi)
    u2 = 0.5 * (xlo2 + xhi2)
    w = gamma + u2 - u
    return {"u": u, "u2": u2, "lo": 0.5 * xlo, "hi": 0.5 * xhi, "lo2": 0.5 * xlo2,
            "hi2": 0.5 * xhi2, "z": z, "hw": 0.5 * w, "hu": 0.5 * u, "hu2": 0.5 * u2}


def _tree_ops(t: str, t2: str) -> list:
    """The tree piece of a letter pair as (np.add or np.subtract, term)
    steps from zero: the C/D halves of both cells first, then the A/B terms
    of the left and of the right cell (``tree_letter`` with the rung terms
    z - w/2 and z + w/2).  The float scan and the exact identity
    (``_linear_identity_residuals``) both run these steps."""
    add, sub = np.add, np.subtract
    ops = []
    if t in "CD":
        ops.append((add, "lo" if t == "C" else "hi"))
    if t2 in "CD":
        ops.append((add, "lo2" if t2 == "C" else "hi2"))
    if t == "A":
        ops += [(add, "z"), (sub, "hw"), (sub, "hu")]
    elif t == "B":
        ops.append((add, "hu"))
    if t2 == "A":
        ops.append((add, "hu2"))
    elif t2 == "B":
        ops += [(add, "z"), (add, "hw"), (sub, "hu2")]
    return ops


_TREE_OPS = {t + t2: _tree_ops(t, t2) for t in TREE_STATES for t2 in TREE_STATES}


def _tree_piece_vec(terms, t: str, t2: str, out=None):
    """Tree piece of the letter pair (t, t2) from the terms of
    ``_cell_terms``, summed from zero in the order of ``_tree_ops`` (every
    pair starts with an addition)."""
    (_, first), *rest = _TREE_OPS[t + t2]
    out = np.add(0.0, terms[first], out=out)
    for op, name in rest:
        op(out, terms[name], out=out)
    return out


def _middle_base_vec(points, terms, a: float, eta: float, rate: float):
    """Tree-independent part of margin: everything except the tree piece."""
    xlo, xhi, z, gamma, xlo2, xhi2 = points
    u, u2, hw = terms["u"], terms["u2"], terms["hw"]
    h_ln = 0.5 * (3.0 * a + 1.0) * (
        np.logaddexp(np.logaddexp(xlo + hw, xlo2 - hw), z)
        + np.logaddexp(np.logaddexp(xhi + hw, xhi2 - hw), z)
    )
    with np.errstate(over="ignore"):
        exp1 = h_exp1(np.exp(-xlo), np.exp(-xhi), np.exp(-xlo2), np.exp(-xhi2))
    rhs = rate * (np.abs(xlo) + np.abs(xhi) + np.abs(z) + np.abs(gamma) + np.abs(xlo2) + np.abs(xhi2))
    return h_ln + h_linear(u, u2, z, a) + exp1 - eta * gamma - rhs


def _scan(name: str, details: dict, block_min, per_point: int, dims: int,
          samples: int, rng: RngSpec | None, radius: float, grid_step: float,
          extra_points: np.ndarray | None = None) -> BoundReport:
    """Scan a bound's margin over ``samples`` uniform points of the radius
    box in ``dims`` coordinates, the step grid of ``_GRID_RADIUS`` (none when
    ``grid_step`` is 0) and ``extra_points``, in that order and in blocks of
    at most ``_BLOCK`` points.

    ``block_min(points)`` returns the block's margins, minimized over the
    check's ``per_point`` letters (or letter pairs), and ``label(k)``, the
    worst-point entry naming the first letter that attains the minimum at
    point k.  Ties go to the first point in scan order.  ``samples`` in the
    report counts point-letter evaluations.  A NaN margin raises, naming
    its point; a margin below -1e-6 raises; the check passes when the
    minimum stays above -1e-9 (floating-point slack).

    The uniform points are streamed by ``_uniform_blocks``, one block at a
    time, and the grid by ``_grid_blocks``: the scan holds one block of
    points and the check's arrays over it, whatever ``samples`` is.  A
    non-integer or negative ``samples``, a ``radius`` that is not finite and
    positive and a ``grid_step`` that is NaN, negative or infinite are
    refused before any point is drawn."""
    samples = check_int(samples, "samples", 0)
    radius = check_real(radius, "radius", 0.0, strict=True)
    grid_step = check_real(grid_step, "grid_step", 0.0)
    sources = [("uniform", _uniform_blocks(rng or RngSpec(0), samples, radius, dims))]
    if grid_step > 0:
        sources.append(("grid", _grid_blocks(_GRID_RADIUS, grid_step, dims)))
    if extra_points is not None:
        sources.append(("extra", _extra_blocks(extra_points, dims)))
    min_margin = math.inf
    worst = {}
    total = 0
    for origin, blocks in sources:
        for points in blocks:
            margins, label = block_min(points)
            total += per_point * margins.size
            k = int(np.argmin(margins))  # the first NaN, if there is one
            if math.isnan(margins[k]):
                raise LadderError(f"{name}: NaN margin at {origin} point "
                                  f"{[float(p[k]) for p in points]}")
            if margins[k] < min_margin:
                min_margin = float(margins[k])
                worst = {**label(k), "point": [float(p[k]) for p in points], "origin": origin}
    if min_margin < -1e-6:
        raise LadderError(f"{name} violated: margin {min_margin} at {worst}")
    return BoundReport(name=name, samples=total, min_margin=min_margin, worst_point=worst,
                       passed=min_margin >= -1e-9, details=details)


def check_middle_bound(
    samples: int,
    a: float,
    eta: float,
    rng: RngSpec | None = None,
    radius: float = 50.0,
    grid_step: float = 5.0,
    extra_points: np.ndarray | None = None,
) -> BoundReport:
    """Sampled verification that the coupling energy (sign term removed)
    grows at least linearly with the closed-form rate.

    The margin (energy minus rate times the l1 norm) is scanned by ``_scan``
    for all 15 letter pairs.  Per block the tree-free part and the cell
    terms are computed once, the 15 tree pieces are folded into one array by
    an elementwise minimum, and the part is added once: rounding is
    monotone, so this is the minimum over the pairs of the per-pair margins,
    bit for bit.  At the worst point, ties go to the first pair in ``PAIRS``
    order.  The report records the minimum margin; below -1e-6 raises.
    """
    eta = check_real(eta, "coupling eta", -ETA_MAX, ETA_MAX)
    rate = middle_growth_rate(a)

    def block_min(points):
        terms = _cell_terms(points)
        base = _middle_base_vec(points, terms, a, eta, rate)
        tree = _tree_piece_vec(terms, *PAIRS[0])
        piece = np.empty_like(tree)
        for t, t2 in PAIRS[1:]:
            np.minimum(tree, _tree_piece_vec(terms, t, t2, out=piece), out=tree)
        margins = np.add(base, tree, out=tree)

        def label(k):
            at_k = {name: v[k:k + 1] for name, v in terms.items()}
            return {"pair": next(t + t2 for t, t2 in PAIRS
                                 if base[k] + _tree_piece_vec(at_k, t, t2)[0] == margins[k])}
        return margins, label

    return _scan(f"middle-bound a={a} eta={eta}", {"rate": rate}, block_min,
                 len(PAIRS), 6, samples, rng, radius, grid_step, extra_points)


def check_boundary_bound(
    samples: int,
    a: float,
    side: str,
    rng: RngSpec | None = None,
    radius: float = 50.0,
    grid_step: float = 5.0,
) -> BoundReport:
    """Sampled verification of the boundary energy lower bounds.

    At ``a = 3/4`` the quarter-slope bound (energy minus its exponential
    part at least z/4) is checked; for larger finite ``a`` the linear-growth
    bound with the closed-form rate, whose gate refuses any other ``a``.
    The uniform points and the grid are scanned by ``_scan``; per block the
    exponential part and the l1 term are computed once and the four letter
    margins folded by an elementwise minimum.  At the worst point, ties go to
    the first letter.
    """
    check_choice(side, "side", ("left", "right"))
    at_critical = a == 0.75
    rate = None if at_critical else boundary_growth_rate(a)

    def block_min(points):
        xlo, xhi, z = points
        cores = [boundary_core_vec(xlo, xhi, z, t, a, side) for t in range(len(TREE_STATES))]
        if at_critical:
            # the exponential part cancels exactly; no overflow possible
            margins = [core - 0.25 * z for core in cores]
        else:
            with np.errstate(over="ignore"):
                h_exp = 0.25 * (np.exp(-xlo) + np.exp(-xhi)) + 0.5 * np.exp(-z)
            l1 = rate * (np.abs(xlo) + np.abs(xhi) + np.abs(z))
            margins = [core + h_exp - l1 for core in cores]
        folded = np.minimum.reduce(margins)

        def label(k):
            return {"state": next(t for t, m in zip(TREE_STATES, margins) if m[k] == folded[k])}
        return folded, label

    return _scan(f"boundary-bound a={a} side={side}",
                 {"rate": rate if rate is not None else "z/4 at a=3/4"}, block_min,
                 len(TREE_STATES), 3, samples, rng, radius, grid_step)


# ---------------------------------------------------------------------------
# derivatives of the coupling energy along the sign-mismatch shift


def gamma_derivatives(
    xlo: float, xhi: float, ss: int, t: int,
    z: float, gamma: float,
    xlo2: float, xhi2: float, ss2: int, t2: int,
    a: float, gamma_shift: float,
) -> tuple[float, float]:
    """First and second derivative of the zero-coupling energy along the
    shift that moves the separation only when the signs disagree; the
    fields as in ``middle_energy``, without its ``eta``."""
    gamma_shift = check_real(gamma_shift, "gamma_shift", -1.0, 1.0)
    if ss == ss2:
        return 0.0, 0.0
    if t == 0 and t2 == 1:
        return 0.0, 0.0  # infinite plateau: constant in the shift
    u = 0.5 * (xlo + xhi)
    u2 = 0.5 * (xlo2 + xhi2)
    w = gamma + gamma_shift + u2 - u
    coef = 0.5 * (3.0 * a + 1.0)
    d1 = 0.0
    d2 = 0.0
    for lo, lo2 in ((xlo, xlo2), (xhi, xhi2)):
        arr = np.array([lo + 0.5 * w, lo2 - 0.5 * w, z])
        m = arr.max()
        p = np.exp(arr - m)
        p /= p.sum()
        slope = 0.5 * (p[0] - p[1])
        d1 += coef * slope
        d2 += coef * (0.25 * (p[0] + p[1]) - slope * slope)
    # tree term: linear in w
    if t == 0:
        d1 += -0.5
    if t2 == 1:
        d1 += 0.5
    # sign-interaction term (signs disagree here, so the product is -1)
    if 0.5 * abs(w) - z < 690.0:
        d1 += 0.25 * (math.exp(0.5 * w - z) - math.exp(-0.5 * w - z))
        d2 += 0.125 * (math.exp(0.5 * w - z) + math.exp(-0.5 * w - z))
    else:
        d1 += math.copysign(math.inf, w)
        d2 += math.inf
    return d1, d2


def gamma_derivative_fd_errors(gen: np.random.Generator, count: int,
                               a_range: tuple[float, float] | None = None) -> tuple[float, float]:
    """Largest relative errors of the first and second ``gamma_derivatives``
    against central finite differences (step 1e-4) of the zero-coupling
    energy, over ``count`` random triples whose signs disagree.  Each draw
    takes the letter pair, the fields of the -1 cell, of the +1 cell and of
    the rung (normal with scale 2), the shift (uniform on [-1, 1]) and, if
    ``a_range`` is given, a (uniform on it; otherwise a = 1) from ``gen`` in
    that order.  An error is |d - fd| / max(1, |fd|)."""
    h = 1e-4
    worst1 = worst2 = 0.0
    for _ in range(count):
        t, t2 = (TREE_STATES.index(c) for c in PAIRS[gen.integers(len(PAIRS))])
        xlo, xhi, xlo2, xhi2, z, gamma = (gen.normal(scale=2) for _ in range(6))
        g = float(gen.uniform(-1, 1))
        a = 1.0 if a_range is None else float(gen.uniform(*a_range))
        d1, d2 = gamma_derivatives(xlo, xhi, -1, t, z, gamma, xlo2, xhi2, 1, t2, a, g)

        def f(shift):
            return middle_energy(xlo, xhi, -1, t, z, gamma + shift, xlo2, xhi2, 1, t2, a, 0.0)

        fd1 = (f(g + h) - f(g - h)) / (2 * h)
        fd2 = (f(g + h) - 2 * f(g) + f(g - h)) / (h * h)
        worst1 = np.maximum(worst1, abs(d1 - fd1) / max(1, abs(fd1)))  # a NaN error stays NaN
        worst2 = np.maximum(worst2, abs(d2 - fd2) / max(1, abs(fd2)))
    return float(worst1), float(worst2)
