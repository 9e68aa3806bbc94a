"""Random-environment density, spin coordinates and local energies.

Everything here is computed in log space.  Sums of exponentials go through
stable log-sum-exp helpers, and a genuinely infinite energy (the forbidden
adjacent ``AB`` tree states) is the dedicated value ``math.inf``; finite
energies whose exponentials would overflow double precision saturate to
``inf`` as well, so comparisons and sums stay well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ladderlab.ladder import (
    LOWER,
    RUNGS,
    TREE_STATES,
    UPPER,
    EdgeWeights,
    InputRefused,
    LadderError,
    SpanningTreeCode,
    build,
    check_choice,
    check_int,
    check_weight,
    check_weights,
    cycle_form,
    indices_from_mask,
    tree_decode,
)

INF = math.inf
_EXP_CAP = 700.0  # math.exp overflows just above 709

__all__ = [
    "SpinConfig",
    "EnvironmentPoint",
    "log_phi",
    "scaling_law_residual",
    "h_total",
    "psi_forward",
    "psi_inverse",
    "log_jacobian",
    "gibbs_identity_residual",
    "gibbs_identity_sweep",
    "coupling_parts",
    "middle_energy",
    "left_energy",
    "right_energy",
    "tree_letter",
    "boundary_core_vec",
]


def _exp(v: float) -> float:
    if v > _EXP_CAP:
        return INF
    return math.exp(v)


def _lse2(x: float, y: float) -> float:
    m = x if x >= y else y
    if m == -INF:
        return -INF
    return m + math.log(math.exp(x - m) + math.exp(y - m))


_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# scalar local energies (hot path: plain floats, tree states as ints 0..3)
#
# The coupling energy across an inner rung is the sum, in this order, of its
# parts h_ln, h_linear, h_tree, h_exp1, h_exp2 and -eta * gamma, assembled by
# ``coupling_parts`` from u = (xlo + xhi)/2, e^{-x} and w = gamma + u2 - u, so
# the sampler can cache them and recompute only the parts a move changes.
# ``coupling_parts`` writes out the one-line parts in the floating-point
# order of ``h_linear``, ``h_exp1`` and ``tree_letter`` below, which the
# bound scan and the transfer kernels call on arrays.


def h_linear(u: float, u2: float, z: float, a: float) -> float:
    return -(a + 0.5) * (u + u2 + z)


def tree_letter(t: int, xlo, xhi, u, r, joined: int):
    """Tree-letter energy of one cell beside a rung with rung term ``r``: C and D
    weigh half the lower or upper field, the letter ``joined`` (A left of the
    rung, B right of it) weighs ``r - u/2`` and the other of A and B ``u/2``.

    The letter rule of every energy: the fields may be floats (the sampler)
    or broadcasting NumPy arrays (bound scans and transfer kernels)."""
    if t == 2:
        return 0.5 * xlo
    if t == 3:
        return 0.5 * xhi
    return r - 0.5 * u if t == joined else 0.5 * u


def h_tree(t: int, xlo: float, xhi: float, u: float, z: float, w: float,
           t2: int, xlo2: float, xhi2: float, u2: float) -> float:
    """The tree letters' part: ``tree_letter`` of the left cell with the
    rung term z - w/2 (joined letter A) plus that of the right cell with
    z + w/2 (joined letter B), its branches written out."""
    if t == 2:
        tr = 0.5 * xlo
    elif t == 3:
        tr = 0.5 * xhi
    elif t == 0:
        tr = z - 0.5 * w - 0.5 * u
    else:
        tr = 0.5 * u
    if t2 == 2:
        return tr + 0.5 * xlo2
    if t2 == 3:
        return tr + 0.5 * xhi2
    if t2 == 1:
        return tr + (z + 0.5 * w - 0.5 * u2)
    return tr + 0.5 * u2


def h_exp1(elo: float, ehi: float, elo2: float, ehi2: float) -> float:
    """Field part from the four cell exponentials e^{-xlo}, e^{-xhi}, ..."""
    return 0.25 * (elo + ehi + elo2 + ehi2)


def h_exp2(w: float, z: float, ss_prod: float) -> float:
    """Sign-interaction energy: half of (s e^{w/4} - s' e^{-w/4})^2 e^{-z}.

    Evaluated through logs so the square never produces inf - inf.
    """
    m = 0.25 * abs(w)
    if ss_prod > 0:
        if m == 0.0:
            return 0.0
        logq = m + math.log1p(-math.exp(-2.0 * m))
    else:
        logq = m + math.log1p(math.exp(-2.0 * m))
    v = 2.0 * logq - z - _LN2
    return INF if v > _EXP_CAP else math.exp(v)  # _exp, written out


def coupling_parts(xlo: float, xhi: float, u: float, elo: float, ehi: float,
                   xlo2: float, xhi2: float, u2: float, elo2: float, ehi2: float,
                   z: float, gamma: float, ss_prod: int, t: int, t2: int, a: float, eta: float):
    """``(w, h_ln, h_linear, h_tree, h_exp1, h_exp2, total)`` of the coupling
    across one inner rung, from the cell values u, e^{-xlo} and e^{-xhi} of
    both cells and the product of their signs.  The log part is (3a + 1)/2
    times a three-way log-sum-exp per rail, each written out (max shift,
    then the log of the shifted exponentials); ``h_linear``, ``h_tree``,
    ``h_exp1`` and the total, the parts summed in that order, are written
    out too, in those functions' floating-point order."""
    w = gamma + u2 - u
    hw = 0.5 * w
    x, y = xlo + hw, xlo2 - hw
    m = x if x >= y else y
    if z > m:
        m = z
    lse_lo = -INF if m == -INF else m + math.log(math.exp(x - m) + math.exp(y - m) + math.exp(z - m))
    x, y = xhi + hw, xhi2 - hw
    m = x if x >= y else y
    if z > m:
        m = z
    lse_hi = -INF if m == -INF else m + math.log(math.exp(x - m) + math.exp(y - m) + math.exp(z - m))
    ln = 0.5 * (3.0 * a + 1.0) * (lse_lo + lse_hi)
    lin = -(a + 0.5) * (u + u2 + z)
    if t == 2:
        tr = 0.5 * xlo
    elif t == 3:
        tr = 0.5 * xhi
    elif t == 0:
        tr = z - hw - 0.5 * u
    else:
        tr = 0.5 * u
    if t2 == 2:
        tr += 0.5 * xlo2
    elif t2 == 3:
        tr += 0.5 * xhi2
    elif t2 == 1:
        tr += z + hw - 0.5 * u2
    else:
        tr += 0.5 * u2
    e1 = 0.25 * (elo + ehi + elo2 + ehi2)
    e2 = h_exp2(w, z, ss_prod)
    return w, ln, lin, tr, e1, e2, ln + lin + tr + e1 + e2 - eta * gamma


def middle_energy(
    xlo: float, xhi: float, ss: int, t: int,
    z: float, gamma: float,
    xlo2: float, xhi2: float, ss2: int, t2: int,
    a: float, eta: float,
) -> float:
    """Coupling energy between neighboring cells across one inner rung;
    infinite on the forbidden tree pair (A, B)."""
    if t == 0 and t2 == 1:
        return INF
    return coupling_parts(xlo, xhi, 0.5 * (xlo + xhi), _exp(-xlo), _exp(-xhi),
                          xlo2, xhi2, 0.5 * (xlo2 + xhi2), _exp(-xlo2), _exp(-xhi2),
                          z, gamma, ss * ss2, t, t2, a, eta)[6]


def left_energy(z0: float, xlo: float, xhi: float, t: int, a: float) -> float:
    """Boundary energy binding the left rung to the first cell."""
    u = 0.5 * (xlo + xhi)
    h_ln = a * _lse2(xhi, z0) + (a + 0.5) * (_lse2(xlo, z0) - u - z0)
    h_exp = 0.25 * (_exp(-xlo) + _exp(-xhi)) + 0.5 * _exp(-z0)
    return h_ln + tree_letter(t, xlo, xhi, u, z0, 1) + h_exp + 0.25 * u


def right_energy(xlo: float, xhi: float, t: int, zn: float, a: float) -> float:
    """Boundary energy binding the last cell to the right rung."""
    u = 0.5 * (xlo + xhi)
    h_ln = (a + 0.5) * (_lse2(xlo, zn) + _lse2(xhi, zn) - u - zn)
    h_exp = 0.25 * (_exp(-xlo) + _exp(-xhi)) + 0.5 * _exp(-zn)
    return h_ln + tree_letter(t, xlo, xhi, u, zn, 0) + h_exp - 0.25 * u


def boundary_core_vec(xlo, xhi, z, t: int, a: float, side: str):
    """Boundary energy of ``left_energy`` (``side='left'``, ``z`` the left
    rung field) or ``right_energy`` (``side='right'``) without its
    exponential part, for broadcasting arrays: the log-sum part, the tree
    letter ``t`` and the quarter slope in u, summed in that order."""
    u = 0.5 * (xlo + xhi)
    if side == "left":
        h_ln = a * np.logaddexp(xhi, z) + (a + 0.5) * (np.logaddexp(xlo, z) - u - z)
        return h_ln + tree_letter(t, xlo, xhi, u, z, 1) + 0.25 * u
    h_ln = (a + 0.5) * (np.logaddexp(xlo, z) + np.logaddexp(xhi, z) - u - z)
    return h_ln + tree_letter(t, xlo, xhi, u, z, 0) - 0.25 * u


# ---------------------------------------------------------------------------
# configurations and the total energy


@dataclass(frozen=True)
class SpinConfig:
    """One spin-chain configuration.

    ``z0``/``zn`` are the boundary fields, ``xlo``/``xhi``/``sigma``/``t`` the
    per-cell fields (length n), ``z``/``gamma`` the inner-rung fields
    (length n-1).  ``t`` is a word over ``ABCD``; configurations with an
    adjacent ``AB`` are representable but carry infinite energy.
    """

    z0: float
    xlo: np.ndarray
    xhi: np.ndarray
    sigma: np.ndarray
    t: str
    z: np.ndarray
    gamma: np.ndarray
    zn: float

    def __post_init__(self):
        object.__setattr__(self, "t", "".join(check_choice(c, "tree letter", TREE_STATES) for c in self.t))
        for name, dtype in (("xlo", float), ("xhi", float), ("sigma", np.int8), ("z", float), ("gamma", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.xlo.size
        if n < 1 or self.xhi.size != n or self.sigma.size != n or len(self.t) != n:
            raise InputRefused("cell field arrays must share a common length n >= 1")
        if self.z.size != n - 1 or self.gamma.size != n - 1:
            raise InputRefused("rung field arrays must have length n - 1")
        if not np.all(np.abs(self.sigma) == 1):
            raise InputRefused("sign fields must be +1 or -1")

    @property
    def n(self) -> int:
        return self.xlo.size

    def admissible(self) -> bool:
        return "AB" not in self.t

    # derived fields
    def u(self) -> np.ndarray:
        return 0.5 * (self.xlo + self.xhi)

    def w(self) -> np.ndarray:
        u = self.u()
        return self.gamma + u[1:] - u[:-1]

    def y(self) -> np.ndarray:
        out = np.empty(self.n)
        out[0] = -self.z0
        if self.n > 1:
            out[1:] = -self.z0 - np.cumsum(self.w())
        return out


@dataclass(frozen=True)
class EnvironmentPoint:
    """Edge weights with unit left rung, auxiliary cell variables, tree code."""

    x: EdgeWeights
    y: np.ndarray
    code: SpanningTreeCode

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if self.x.values[0] != 1.0:
            raise LadderError("environment weights must have left rung weight exactly 1")
        n = self.x.n
        if y.size != n or self.code.n != n:
            raise LadderError("weights, y and code must agree on n")
        if np.any(y == 0.0):
            raise LadderError("auxiliary variables y must be nonzero")

    @property
    def n(self) -> int:
        return self.x.n


def h_total(omega: SpinConfig, a: float, deform_j: int = 0) -> float:
    """Total chain energy; the first ``deform_j`` couplings lose the
    separation term (coupling 0 instead of 1/4)."""
    n = omega.n
    deform_j = check_int(deform_j, "deform_j", 0, n - 1)
    t = [TREE_STATES.index(c) for c in omega.t]
    total = left_energy(omega.z0, float(omega.xlo[0]), float(omega.xhi[0]), t[0], a)
    for i in range(n - 1):
        eta = 0.0 if i < deform_j else 0.25
        total += middle_energy(
            float(omega.xlo[i]), float(omega.xhi[i]), int(omega.sigma[i]), t[i],
            float(omega.z[i]), float(omega.gamma[i]),
            float(omega.xlo[i + 1]), float(omega.xhi[i + 1]), int(omega.sigma[i + 1]), t[i + 1],
            a, eta,
        )
        if total == INF:
            return INF
    total += right_energy(float(omega.xlo[n - 1]), float(omega.xhi[n - 1]), t[n - 1], omega.zn, a)
    return total


# ---------------------------------------------------------------------------
# density and the change of variables


def log_phi(x: EdgeWeights | np.ndarray, y: Sequence[float], code: SpanningTreeCode | str, a: float) -> float:
    """Log of the unnormalized environment density (normalizer never applied)."""
    x = check_weights(x)
    check_weight(a)
    if not isinstance(code, SpanningTreeCode):
        code = SpanningTreeCode(code)
    n = (x.size - 1) // 3
    if code.n != n:
        raise LadderError(f"code length {code.n} does not match weights with n={n}")
    y = np.asarray(y, dtype=float)
    graph = build(n)
    logx = np.log(x)
    out = (a - 1.5) * float(np.sum(logx))
    out += sum(logx[e] for e in indices_from_mask(tree_decode(code)))
    vals = x.tolist()
    logv = np.log([sum(vals[e] for e, _ in incident) for incident in graph.incident])
    out -= (a + 0.5) * logv[graph.vertex(0, 1)] + a * logv[graph.vertex(0, 2)]
    for i in range(1, n):
        out -= 0.5 * (3.0 * a + 1.0) * (logv[graph.vertex(i, 1)] + logv[graph.vertex(i, 2)])
    out -= (a + 0.5) * (logv[graph.vertex(n, 1)] + logv[graph.vertex(n, 2)])
    out -= 0.5 * cycle_form(x, y)
    return float(out)


def scaling_law_residual(gen: np.random.Generator, count: int) -> float:
    """Largest relative residual of the density scaling law over ``count``
    random draws: scaling the weights by ``c`` and ``y`` by ``sqrt(c)``
    shifts ``log_phi`` (all-``D`` tree code) by ``-(3.5 n + 1) log c``.
    Each draw takes ``n``, the weights, ``y``, ``c`` and ``a`` from ``gen``
    in that order; residuals are relative to ``max(1, |base|)``.  Contract:
    below 1e-12."""
    worst = 0.0
    for _ in range(count):
        n = int(gen.integers(1, 6))
        vals = gen.uniform(0.1, 5.0, size=3 * n + 1)
        y = gen.normal(size=n)
        c = float(gen.uniform(0.05, 20.0))
        a = float(gen.uniform(0.76, 3.0))
        base = log_phi(vals, y, "D" * n, a)
        scaled = log_phi(c * vals, math.sqrt(c) * y, "D" * n, a)
        drop = -(3.5 * n + 1.0) * math.log(c)
        worst = np.maximum(worst, abs(scaled - base - drop) / max(1.0, abs(base)))  # a NaN stays NaN
    return float(worst)


def psi_forward(omega: SpinConfig) -> EnvironmentPoint:
    """Spin coordinates to environment weights (left rung pinned to 1)."""
    if not omega.admissible():
        raise LadderError("configuration with adjacent AB has no environment image")
    yfield = omega.y()
    # math.exp per entry (np.exp can differ in the last bit)
    vals = np.empty(3 * omega.n + 1)
    vals[LOWER] = [*map(math.exp, omega.xlo + yfield)]
    vals[UPPER] = [*map(math.exp, omega.xhi + yfield)]
    vals[RUNGS] = [1.0, *map(math.exp, omega.z + 0.5 * (yfield[:-1] + yfield[1:])),
                   math.exp(omega.zn + yfield[-1])]
    yvec = omega.sigma * np.exp(0.5 * yfield)
    return EnvironmentPoint(
        x=EdgeWeights(vals),
        y=yvec,
        code=SpanningTreeCode(omega.t),
    )


def psi_inverse(point: EnvironmentPoint) -> SpinConfig:
    """Environment weights back to spin coordinates."""
    v, y = point.x.values, point.y
    lo, hi, rungs = v[LOWER], v[UPPER], v[RUNGS]
    y2 = y * y

    def logs(q):
        return np.array([*map(math.log, q)])

    xlo, xhi = logs(lo / y2), logs(hi / y2)
    sigma = np.where(y > 0, 1, -1).astype(np.int8)
    z0 = -math.log(y2[0])
    z = logs(rungs[1:-1] / abs(y[:-1] * y[1:]))
    zn = math.log(rungs[-1] / y2[-1])
    gamma = 0.5 * (logs(lo[:-1] / lo[1:]) + logs(hi[:-1] / hi[1:]))
    omega = SpinConfig(z0=z0, xlo=xlo, xhi=xhi, sigma=sigma, t=point.code.states, z=z, gamma=gamma, zn=zn)
    # internal consistency: the reconstructed chain centers match 2 ln|y|
    yfield = omega.y()
    if not np.allclose(yfield, np.log(y2), rtol=1e-8, atol=1e-8):
        raise LadderError("inconsistent environment point: y does not match the weight ratios")
    return omega


def log_jacobian(omega: SpinConfig) -> float:
    """Log volume distortion of the spin-to-weights map at ``omega``."""
    if not omega.admissible():
        raise LadderError("configuration with adjacent AB is outside the chart")
    n = omega.n
    yfield = omega.y()
    out = -n * math.log(2.0)
    out += float(np.sum(0.5 * yfield + (omega.xlo + yfield) + (omega.xhi + yfield)))
    for i in range(n - 1):
        out += omega.z[i] + 0.5 * (yfield[i] + yfield[i + 1])
    out += omega.zn + yfield[n - 1]
    return out


def gibbs_identity_residual(omega: SpinConfig, a: float) -> float:
    """Residual of the exact change-of-variables identity tying the weight
    density to the chain energy; contract: ``|residual| < 1e-9`` for all
    admissible configurations."""
    if not omega.admissible():
        raise LadderError("both sides are infinite on adjacent AB; residual undefined")
    point = psi_forward(omega)
    lhs = -log_phi(point.x, point.y, point.code, a) - log_jacobian(omega)
    rhs = h_total(omega, a, 0) + omega.n * math.log(2.0)
    return lhs - rhs


def gibbs_identity_sweep(gen: np.random.Generator, per_combo: int) -> float:
    """Largest |``gibbs_identity_residual``| over ``per_combo`` random admissible
    configurations for each n in (1, 2, 5) and a in (0.8, 1, 2).  Each draw takes
    the tree word (redrawn until it has no adjacent ``AB``), z0, xlo, xhi, sigma,
    z, gamma and zn from ``gen`` in that order, the real fields normal with
    scale 2.5.  Contract: below 1e-9."""
    worst = 0.0
    for n in (1, 2, 5):
        for a in (0.8, 1.0, 2.0):
            for _ in range(per_combo):
                while True:
                    t = "".join(gen.choice(list(TREE_STATES), size=n))
                    if "AB" not in t:
                        break
                omega = SpinConfig(
                    z0=gen.normal(scale=2.5), xlo=gen.normal(scale=2.5, size=n),
                    xhi=gen.normal(scale=2.5, size=n), sigma=gen.choice([-1, 1], size=n),
                    t=t, z=gen.normal(scale=2.5, size=n - 1),
                    gamma=gen.normal(scale=2.5, size=n - 1), zn=gen.normal(scale=2.5),
                )
                worst = np.maximum(worst, abs(gibbs_identity_residual(omega, a)))  # a NaN stays NaN
    return float(worst)
