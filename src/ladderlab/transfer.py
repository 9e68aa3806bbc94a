"""Discretized transfer-operator numerics for the spin chain.

The cell state space (two real fields, a sign, a tree letter) is
discretized with composite Gauss-Legendre panels on a truncated box; the
coupling kernel integrates the middle energy over the rung fields with its
own quadrature.  Matrices are stored in the quadrature-weighted
("square-root") form S = diag(sqrt(w)) k diag(sqrt(w)), so inner products
of weighted vectors are plain dot products and the operator and its adjoint
act by plain matrix products (``vecmat``, ``matvec``).

S is never stored dense.  Its block between tree letters t, t2 and signs
s, s2 is diag(left[t]) C[t == A, t2 == B, s == s2] diag(right[t2]): eight
nx²×nx² cores C (the two A->B cores vanish) and one side profile per
letter on each side.  A product groups the input by the A (resp. B) flag
and the sign, so it costs twelve core products, one per non-zero core and
sign row, against 64 dense blocks.

Swapping the lower and upper rails of both cells leaves every core
unchanged, C[(i, k), (j, l)] = C[(k, i), (l, j)]: the cores are Gram sums
of one cell-pair table per rail, and only the side profiles (letters C and
D) tell the rails apart.  So each core keeps its rows (i, k) with i <= k
only, nx(nx+1)/2 of the nx² rows (``_half_rows``), about a sixteenth of
the dense bytes in all; the row (k, i) is the row (i, k) with the columns
(j, l) -> (l, j) swapped.  Assembly computes only those rows: per lower
field i one matrix product of every core's weighted table columns (i, .)
with the table columns (i.., .), added straight into the stored rows, so
it holds the cores plus one slab of the table and no nx²×nx² temporary.
The products multiply the stored rows once for the direct and once for
the mirrored half of the state space.

No energy is written out here: the side profiles take the tree letter from
``environment.tree_letter`` with a zero rung term (the cores carry the rung
term of the letters A and B), and the boundary vectors integrate
``environment.boundary_core_vec`` plus its exponential part over the
boundary rung field.

The cores are weighted Gram sums over the rung nodes of one cell-pair
table.  The shift rule is symmetric bit for bit, so the nodes come in
mirror pairs (z, w), (z, -w): the row at -w adds to the core with letter
flags (p, q, s) what the row at w adds, at coupling -eta, to the core with
flags (q, p, s), with the cell pair (i, j) -> (j, i) swapped on both
sides.  The table is built for the w > 0 nodes only; at eta = 0 the
mirrored half is then a transposed copy of the other core, folded in
place at the end, which halves the products as well.  Rows whose weight
is exactly 0 (the sign-mismatch factor underflows for z below about -6)
are left out of the products, and nodes without an exact mirror are
summed directly.

The shift-weighted ("gamma") kernel is built only from the plain kernel at
the same grid, a and eta: its cores are the w-weighted Gram sums plus the
commutator of the plain cores with the mean cell field, and its side
profiles are the plain operator's own arrays.

Chain brackets are one contraction: a prefix from the left boundary by
``vecmat``, a suffix from the right one by ``matvec``, met at one kernel
(``chain_expectation``, n products for an n-cell chain).  The
separation-moment profile pairs every prefix with every suffix.

The leading eigen-triple comes from power iteration on S and its adjoint,
each stopped once its relative eigen-residual falls below 1e-13.  The
second eigenvalue comes from power iteration with the leading pair
projected out, stopped once the eigen-residual of its Rayleigh quotient
falls below 1e-10 (capped at 2000 products); on the default grid λ3/λ2 is
about 0.65, so that takes about 55 products.  Both residuals and the
product counts are reported (Saad, Numerical Methods for Large Eigenvalue
Problems, 2nd ed., 2011, ch. 4).

Two numerical devices matter here.  First, the shift variable is
integrated on nodes scaled per rung-field node: the sign-interaction
factor concentrates on a shift window of width exp(z/2) as z drops, so a
fixed shift grid cannot resolve it, while a z-scaled one does.  Second,
the sign factors are evaluated through hyperbolic half-angle identities;
the naive difference of exponentials loses all precision exactly in that
narrow-window regime.

Truncation radii are justified by per-axis decay rates of the energy,
which are sharper than the single uniform linear-growth rate; the uniform
rate gives an absurdly conservative box and is reported for reference
only.  All spectral statements are empirical: accuracy is assessed by
refinement (doubling every node count), never certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from ladderlab.certificates import middle_growth_rate
from ladderlab.environment import boundary_core_vec, tree_letter
from ladderlab.ladder import LadderError

__all__ = [
    "GridParams",
    "TransferGrid",
    "OperatorMatrix",
    "EigenTriple",
    "TransferContext",
    "build_grid",
    "assemble_kernel",
    "leading_triple",
    "boundary_vector",
    "chain_expectation",
    "sigma_moment_profile",
    "symmetry_defect",
    "axis_rates",
]

_STATE_BLOCKS = 8  # four tree letters times two signs


def axis_rates(a: float, eta_max: float = 0.25) -> dict:
    """Per-axis exponential decay rates of the coupling integrand.

    Worst case over tree letters, signs and couplings up to ``eta_max``.
    The negative cell side decays double-exponentially and is handled
    separately.
    """
    if not a > 0.5:
        raise LadderError(f"kernel truncation needs a > 1/2, got a={a}")
    return {
        "x_plus": 0.5 * (3 * a + 1) - 0.5 * (a + 0.5) - 0.25 - 0.5 * eta_max,
        "z_plus": (3 * a + 1) - (a + 0.5),
        "z_minus": a - 0.5,
        "w": 0.5 * (3 * a + 1) - 0.5 - eta_max,
        "x_minus_gain": 0.75 + 0.5 * eta_max,  # linear growth the tail must beat
    }


@dataclass(frozen=True)
class GridParams:
    """Node counts and truncation boxes for the operator discretization.

    The cell axis splits into a core panel (where the measure concentrates)
    and a decay-tail panel; same for the rung field axis.  The shift axis
    uses reference nodes on [-1, 1] stretched per rung node.
    """

    nx_core: int = 12
    nx_tail: int = 8
    x_lo: float = -5.5
    x_break: float = 4.0
    x_hi: float = 24.0
    nz_core: int = 40
    nz_tail: int = 12
    z_lo: float = -42.0
    z_break: float = -8.0
    z_hi: float = 10.0
    nv: int = 40
    w_half: float = 17.0
    w_core: float = 9.0
    nzb: int = 96
    zb_lo: float = -10.0
    zb_hi: float = 26.0
    eps: float = 1e-8

    @property
    def nx(self) -> int:
        return self.nx_core + self.nx_tail

    @property
    def nz(self) -> int:
        return self.nz_core + self.nz_tail

    def doubled(self) -> "GridParams":
        return replace(
            self,
            nx_core=2 * self.nx_core, nx_tail=2 * self.nx_tail,
            nz_core=2 * self.nz_core, nz_tail=2 * self.nz_tail,
            nv=2 * self.nv, nzb=2 * self.nzb,
        )


def _panel_gauss(panels) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = [], []
    for lo, hi, count in panels:
        if hi <= lo or count < 1:
            raise LadderError(f"bad quadrature panel ({lo}, {hi}, {count})")
        n, w = np.polynomial.legendre.leggauss(count)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * n)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class TransferGrid:
    """Discretization of the cell state space plus rung quadrature.

    State index layout: ``((t * 2 + s) * nx + i) * nx + k`` with tree letter
    t (0..3 for A..D), sign slot s (0 for +1, 1 for -1), lower-field node i
    and upper-field node k.  The shift nodes are symmetric about 0 and the
    two cell axes share one node set, so the letter-swap reflection is
    exactly representable on the grid.
    """

    params: GridParams
    a: float
    x_nodes: np.ndarray
    x_weights: np.ndarray
    z_nodes: np.ndarray
    z_weights: np.ndarray
    v_nodes: np.ndarray  # shift reference nodes on [-1, 1]
    v_weights: np.ndarray
    zb_nodes: np.ndarray
    zb_weights: np.ndarray
    conservative_radius: float
    tail_report: dict

    @property
    def nx(self) -> int:
        return self.params.nx

    @property
    def size(self) -> int:
        return _STATE_BLOCKS * self.nx * self.nx

    def shift_halfwidth(self, z: np.ndarray) -> np.ndarray:
        """Half width of the shift window at rung field value z."""
        p = self.params
        ratio = p.w_half / p.w_core - 1.0
        return p.w_half / (1.0 + ratio * np.exp(-0.5 * z))

    @cached_property
    def sqrt_w(self) -> np.ndarray:
        cell = np.sqrt(np.outer(self.x_weights, self.x_weights)).reshape(-1)
        return np.tile(cell, _STATE_BLOCKS)


def build_grid(params: GridParams | None = None, a: float = 1.0,
               eta_max: float = 0.25) -> TransferGrid:
    """Build the discretization and validate the truncation against the
    per-axis decay rates; too-small radii are rejected with the minimal
    admissible radius in the message."""
    params = params or GridParams()
    if params.nx < 8 or params.nz < 8 or params.nv < 8:
        raise LadderError("need at least 8 nodes per continuous axis")
    eps = params.eps
    budget = math.log(1.0 / eps) + 2.0  # two extra e-folds of safety
    rates = axis_rates(a, eta_max)
    required = {
        "x_hi": budget / rates["x_plus"],
        "z_hi": budget / rates["z_plus"],
        "z_lo": -budget / rates["z_minus"],
        "w_half": budget / rates["w"],
        "zb_hi": budget / a,
    }
    # double-exponential sides: the quarter (resp. half) exponential must
    # beat the worst linear gain
    x = 1.0
    while 0.25 * math.exp(x) < budget + rates["x_minus_gain"] * x:
        x += 0.05
    required["x_lo"] = -x
    x = 1.0
    while 0.5 * math.exp(x) < budget + x:
        x += 0.05
    required["zb_lo"] = -x
    problems = []
    for key, need in required.items():
        have = getattr(params, key)
        if key.endswith("_lo"):
            if have > need:
                problems.append(f"{key} <= {need:.2f}")
        elif have < need:
            problems.append(f"{key} >= {need:.2f}")
    if problems:
        raise LadderError("truncation too small for eps=%g; need %s" % (eps, ", ".join(problems)))
    if not params.x_lo < params.x_break < params.x_hi:
        raise LadderError("cell panel break must sit inside the box")
    if not params.z_lo < params.z_break < params.z_hi:
        raise LadderError("rung panel break must sit inside the box")
    x_nodes, x_weights = _panel_gauss([
        (params.x_lo, params.x_break, params.nx_core),
        (params.x_break, params.x_hi, params.nx_tail),
    ])
    z_nodes, z_weights = _panel_gauss([
        (params.z_lo, params.z_break, params.nz_tail),
        (params.z_break, params.z_hi, params.nz_core),
    ])
    v_nodes, v_weights = np.polynomial.legendre.leggauss(params.nv)
    zb_nodes, zb_weights = _panel_gauss([(params.zb_lo, params.zb_hi, params.nzb)])
    return TransferGrid(
        params=params, a=a,
        x_nodes=x_nodes, x_weights=x_weights,
        z_nodes=z_nodes, z_weights=z_weights,
        v_nodes=v_nodes, v_weights=v_weights,
        zb_nodes=zb_nodes, zb_weights=zb_weights,
        conservative_radius=math.log(1.0 / eps) / middle_growth_rate(a),
        tail_report={"required": required, "rates": rates, "eps": eps},
    )


_A, _B = 0, 1  # tree-letter indices of A and B
_OTHERS = {key: [t for t in range(4) if t != key] for key in (_A, _B)}
# (row letter is A, column letter is B, signs agree) for the cores that do
# not vanish: an A cell is never followed by a B cell
_CORES = tuple((is_a, is_b, same) for is_a in (0, 1) for is_b in (0, 1) for same in (0, 1)
               if not (is_a and is_b))
_RUNG_CHUNK = 512  # rows per slab of the cell-pair table during assembly


class _HalfRows(NamedTuple):
    """Index arrays of the half-row core layout on an nx-node cell axis.

    Stored row r is the cell (lower[r], upper[r]) with lower <= upper, in
    ``np.triu_indices(nx)`` order; ``up[r]`` is its flat cell index and
    ``mirror[r]`` that of the swapped cell (upper[r], lower[r]), equal on
    the diagonal, where ``off`` is 0 (1 elsewhere).  ``swap`` permutes all
    nx² cells (i, k) -> (k, i), so the full core row ``mirror[r]`` is
    ``core[r, swap]``."""

    lower: np.ndarray
    upper: np.ndarray
    up: np.ndarray
    mirror: np.ndarray
    off: np.ndarray
    swap: np.ndarray


@cache
def _half_rows(nx: int) -> _HalfRows:
    lower, upper = np.triu_indices(nx)
    half = _HalfRows(lower=lower, upper=upper, up=lower * nx + upper, mirror=upper * nx + lower,
                     off=(lower != upper).astype(float),
                     swap=np.arange(nx * nx).reshape(nx, nx).T.reshape(-1))
    for arr in half:  # shared by every caller
        arr.flags.writeable = False
    return half


@dataclass(frozen=True)
class OperatorMatrix:
    """Discretized coupling operator in square-root-weighted, factorized form.

    Block (t, s; t2, s2) of the weighted matrix S is
    ``diag(left[t]) @ C[t == A, t2 == B, s == s2] @ diag(right[t2])``:
    eight ``nx²×nx²`` cores C, of which the two A->B cores are zero, and one
    side profile per tree letter on each side.  ``sym`` holds the rows
    (i, k), i <= k, of each core (see ``_half_rows``): the other rows are
    the same with the column cells swapped, so the cores take about a
    sixteenth of the bytes of the dense S.  ``vecmat`` and ``matvec`` are
    the only products (``apply_right`` is ``vecmat`` on function values);
    ``block_row`` materializes S one state block of rows at a time, for
    ``dense()`` in tests and for the raw kernel rows of ``kernel_rows``.
    Raw kernel values are S divided by ``grid.sqrt_w`` on both sides.
    """

    grid: TransferGrid
    a: float
    eta: float
    tag: str  # "one" for the plain kernel, "gamma" for the shift-weighted one
    sym: np.ndarray  # half-row cores, shape (2, 2, 2, nx(nx+1)/2, nx²), square-root weighted
    left: np.ndarray  # side profiles of the row letter, shape (4, nx²)
    right: np.ndarray  # side profiles of the column letter, shape (4, nx²)

    @property
    def size(self) -> int:
        return self.grid.size

    def vecmat(self, v: np.ndarray) -> np.ndarray:
        """``v @ S`` for weighted vectors of shape (size,) or (m, size)."""
        return _block_product(v, self.sym, self.left, _A, self.right, _B, adjoint=False)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``S @ v`` (the adjoint product, ``v @ S.T``), same shapes."""
        return _block_product(v, self.sym, self.right, _B, self.left, _A, adjoint=True)

    def full_core(self, is_a: int, is_b: int, same: int) -> np.ndarray:
        """Core ``C[is_a, is_b, same]`` with all nx² rows."""
        half = _half_rows(self.grid.nx)
        core = self.sym[is_a, is_b, same]
        full = np.empty((core.shape[1], core.shape[1]))
        full[half.mirror] = core[:, half.swap]
        full[half.up] = core
        return full

    def block_row(self, block: int) -> np.ndarray:
        """Rows of S for the state block ``block = 2 t + s`` (tree letter t,
        sign slot s), shape (nx², size)."""
        t, s = divmod(block, 2)
        nxx = self.left.shape[1]
        cores = {(is_b, same): self.full_core(int(t == _A), is_b, same)
                 for is_b in (0, 1) for same in (0, 1)}
        rows = np.empty((nxx, self.size))
        for col in range(_STATE_BLOCKS):
            t2, s2 = divmod(col, 2)
            np.multiply(cores[int(t2 == _B), int(s == s2)], self.right[t2],
                        out=rows[:, col * nxx:(col + 1) * nxx])
        rows *= self.left[t][:, None]
        return rows

    def dense(self) -> np.ndarray:
        """The weighted matrix S, shape (size, size)."""
        return np.concatenate([self.block_row(b) for b in range(_STATE_BLOCKS)])

    def hs_norm(self) -> float:
        """Discrete Hilbert-Schmidt norm (exact in the weighted form), summed
        core by core: each core meets every letter pair of its group and two
        sign pairs, and its mirrored rows count with their own row profiles
        against the swapped column profiles."""
        half = _half_rows(self.grid.nx)
        left2, right2 = self.left**2, self.right**2
        rows = (left2[_OTHERS[_A]].sum(axis=0), left2[_A])
        cols = (right2[_OTHERS[_B]].sum(axis=0), right2[_B])
        total = 0.0
        for is_a, is_b, same in _CORES:
            r, c = rows[is_a], cols[is_b]
            sq = self.sym[is_a, is_b, same]**2
            weighted = np.stack([r[half.up], r[half.mirror] * half.off]) @ sq
            total += 2.0 * float((weighted * np.stack([c, c[half.swap]])).sum())
        return math.sqrt(total)

    def kernel_rows(self):
        """Raw kernel values k(state, state'), one state block of rows
        (shape (nx², size)) at a time."""
        sw = self.grid.sqrt_w
        nxx = self.left.shape[1]
        for b in range(_STATE_BLOCKS):
            rows = self.block_row(b)
            rows /= sw[b * nxx:(b + 1) * nxx, None]
            rows /= sw
            yield rows

    def apply_right(self, f: np.ndarray) -> np.ndarray:
        """Function values of (f K), the operator acting from the right."""
        sw = self.grid.sqrt_w
        return self.vecmat(f * sw) / sw


def _block_product(v: np.ndarray, sym: np.ndarray, p_in: np.ndarray, key_in: int,
                   p_out: np.ndarray, key_out: int, adjoint: bool) -> np.ndarray:
    """``v @ S`` (``S @ v`` if ``adjoint``) for S with blocks ``diag(p_in[t])
    C[t == key_in, t2 == key_out, s == s2] diag(p_out[t2])`` (the roles of
    the two letter flags and of the core's rows and columns trade places if
    ``adjoint``), from the half-row cores ``sym``.

    The input is scaled by its profiles and summed over the letters other
    than ``key_in``.  Its direct and mirrored halves are stacked once, so
    each non-zero core multiplies both halves and both sign rows at once:
    for ``v @ S`` the stored rows take the input at the cells ``up`` and the
    mirrored rows (diagonal left out) the input at ``mirror``, and the
    mirrored half of the result comes out with its cells swapped; for
    ``S @ v`` the stored rows meet the input and the swapped input, and the
    two halves of the result land on the cells ``up`` and ``mirror``.  The
    result is scaled by the output profiles."""
    nxx = p_in.shape[1]
    half = _half_rows(math.isqrt(nxx))
    x = v.reshape(-1, 4, 2, nxx) * p_in[:, None, :]
    m = x.shape[0]
    groups = (x[:, _OTHERS[key_in]].sum(axis=1).reshape(2 * m, nxx),
              x[:, key_in].reshape(2 * m, nxx))
    if adjoint:
        stacks = [np.concatenate([g, g[:, half.swap]]) for g in groups]
    else:
        stacks = [np.concatenate([g[:, half.up], g[:, half.mirror] * half.off]) for g in groups]
    # (direct or mirrored half, vector, output letter is key_out, sign, cell)
    out = np.zeros((2, m, 2, 2, half.up.size if adjoint else nxx))
    for is_a, is_b, same in _CORES:
        f_in, f_out = (is_b, is_a) if adjoint else (is_a, is_b)
        core = sym[is_a, is_b, same]
        prod = (stacks[f_in] @ (core.T if adjoint else core)).reshape(2, m, 2, -1)
        out[:, :, f_out] += prod if same else prod[:, :, ::-1]
    if adjoint:
        y = np.empty((m, 2, 2, nxx))
        y[..., half.mirror] = out[1]
        y[..., half.up] = out[0]
    else:
        y = out[0] + out[1][..., half.swap]
    letter = [int(t == key_out) for t in range(4)]
    return (y[:, letter] * p_out[:, None, :]).reshape(v.shape)


def _side_profiles(grid: TransferGrid, a: float, eta: float, primed: bool) -> np.ndarray:
    """Per-letter cell prefactors, shape (4, nx * nx)."""
    x = grid.x_nodes
    xlo = x[:, None]
    xhi = x[None, :]
    u = 0.5 * (xlo + xhi)
    base = (a + 0.5) * u - 0.25 * (np.exp(-xlo) + np.exp(-xhi))
    base = base + (-1.0 if primed else 1.0) * eta * u
    # the letter energy with a zero rung term; the cores carry the rung term
    return np.stack([np.exp(base - tree_letter(t, xlo, xhi, u, 0.0, int(primed))).reshape(-1)
                     for t in range(4)])


def _rung_nodes(grid: TransferGrid):
    """Flattened (z, w) quadrature with the z-scaled shift window."""
    nv = grid.params.nv
    z = np.repeat(grid.z_nodes, nv)
    halfw = grid.shift_halfwidth(z)
    w = np.tile(grid.v_nodes, grid.z_nodes.size) * halfw
    qw = np.repeat(grid.z_weights, nv) * np.tile(grid.v_weights, grid.z_nodes.size) * halfw
    return z, w, qw


def _sign_factors(z: np.ndarray, w: np.ndarray):
    """exp(-sign-interaction energy) for agreeing and differing signs.

    Half-angle identities keep these exact where the naive difference of
    exponentials cancels catastrophically.
    """
    ez = np.exp(-z)
    quarter = 0.25 * w
    agree = np.exp(-2.0 * ez * np.sinh(quarter) ** 2)
    differ = np.exp(-2.0 * ez * np.cosh(quarter) ** 2)
    return agree, differ


def _mirror_pairs(grid: TransferGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rung-node indices (as in ``_rung_nodes``) of the mirror pairs: the
    nodes at (z, w > 0), their partners at (z, -w), and the nodes without a
    partner.  A pair needs shift nodes and weights that mirror bit for bit
    (Gauss-Legendre rules do), so both nodes carry the same z, |w| and
    quadrature weight exactly."""
    v, vw = grid.v_nodes.tolist(), grid.v_weights.tolist()
    index = {node: k for k, node in enumerate(zip(v, vw))}
    pos = [k for k in range(len(v)) if v[k] > 0 and (-v[k], vw[k]) in index]
    neg = [index[(-v[k], vw[k])] for k in pos]
    single = sorted(set(range(len(v))) - set(pos) - set(neg))
    start = len(v) * np.arange(grid.z_nodes.size)[:, None]
    return tuple((start + np.array(ks, dtype=int)).reshape(-1) for ks in (pos, neg, single))


def _cell_pair_table(x: np.ndarray, z: np.ndarray, w: np.ndarray, a: float) -> np.ndarray:
    """Cell-pair factor of the rung integrand per rung node, shape
    (len(z), nx²): row n holds ``exp(-(3a+1)/2 lse(x_i + w/2, x_j - w/2, z))``
    at cell pair (i, j).  The row at -w is the row at w with i and j swapped.

    It is evaluated as ``(e^(x_i + w/2) + e^(x_j - w/2) + e^z)^(-(3a+1)/2)``
    from per-node exponentials, one power per entry.  The sum is not shifted
    by its largest exponent: its exponents stay below x_hi + w_half/2, far
    from overflow, whereas the shifted sum raised to the power overflows
    once (3a+1)/2 (x_hi - x_lo) passes about 709 (a near 16 on the preset
    boxes)."""
    table = (np.exp(x[None, :, None] + 0.5 * w[:, None, None])
             + np.exp(x[None, None, :] - 0.5 * w[:, None, None]))
    table += np.exp(z)[:, None, None]
    table **= -0.5 * (3 * a + 1)
    return table.reshape(z.size, -1)


def _add_products(outs: list[np.ndarray], table: np.ndarray, coefs: np.ndarray) -> None:
    """Add to ``outs[c]`` the half rows of the core whose Gram form is
    ``table.T @ diag(coefs[:, c]) @ table``, one core per column of ``coefs``.

    The table is indexed by the cell pair (i, j) of one rail, so the core
    row (i, k), column (j, l) is the sum over rows n of coef[n] table[n, (i,
    j)] table[n, (k, l)].  For each lower field i the columns table[:, (i,
    .)] of every core, scaled by that core's coefficients, are stacked side
    by side and multiplied once with table[:, (i.., .)]; each core's share
    of the product holds its stored rows (i, k), k >= i, with the j and k
    axes swapped, and is added to them in place."""
    nx = math.isqrt(table.shape[1])
    cells = table.reshape(-1, nx, nx)
    start = 0
    for i in range(nx):
        width = nx - i
        stack = (coefs[:, :, None] * cells[:, i, None, :]).reshape(table.shape[0], -1)
        prod = (stack.T @ table[:, i * nx:]).reshape(len(outs), nx, width, nx)
        for out, part in zip(outs, prod):
            block = out[start:start + width].reshape(width, nx, nx)
            block += part.transpose(1, 0, 2)
        start += width


def _fold_mirrors(out: np.ndarray, sign: float, half: _HalfRows) -> None:
    """Add the share of the mirrored rung nodes at eta = 0, given the sums
    over their partners in ``out`` (half-row cores before the cell weights).

    The node at (z, -w) adds to core (is_a, is_b, same) the transpose of
    what its partner at (z, w) adds to core (is_b, is_a, same), times
    ``sign`` (the parity of the weight in w): on the pre-fold values, each
    core R gains ``sign * T(P)`` of its partner P, and the cores with equal
    letter flags are their own partners.  T maps a half-row core to the half
    rows of its transpose: ``T[:, up] = P[:, up].T`` and ``T[:, mirror] =
    P[:, mirror].T`` off the diagonal cells, whose columns take the ``up``
    value.

    The half rows of lower field i are a (nx - i, nx, nx) view over the
    column cells, in which the ``up`` columns of lower field j are
    ``[:, j, j:]`` and its off-diagonal mirror columns ``[:, j+1:, j]``, so
    every read and write is a slice or stride view.  Block (i, j) of R takes
    its update from block (j, i) of P: each pair of lower fields reads its
    blocks before it writes them, and no other pair touches them.  The
    mirror columns go first: their update reads the ``up`` columns of the
    diagonal cells, which the ``up`` pass changes.  One update covers both
    ``same`` flags, and the A->B cores stay untouched zero pages."""
    nx = math.isqrt(half.swap.size)
    starts = np.concatenate([[0], np.cumsum(np.arange(nx, 0, -1))]).tolist()

    def blocks(cores):  # per lower field i, its half rows as a (.., nx - i, nx, nx) view
        return [cores[..., lo:hi, :].reshape(cores.shape[:-2] + (hi - lo, nx, nx))
                for lo, hi in zip(starts[:-1], starts[1:])]

    flat = out.reshape((4,) + out.shape[2:])  # letter flags (is_a, is_b) at 2 is_a + is_b
    groups = ((blocks(flat[0]), blocks(flat[0])), (blocks(flat[1:3]), blocks(flat[2:0:-1])))
    add = np.add if sign > 0 else np.subtract  # x - y is x + (-y) bit for bit
    passes = ((lambda b, i, j: b[i][..., j + 1:, j], lambda b, i, j: b[j][..., 1:, i:, i]),
              (lambda b, i, j: b[i][..., j, j:], lambda b, i, j: b[j][..., i, i:]))
    for dst_view, src_view in passes:
        for dst, src in groups:
            for i in range(nx):
                for j in range(i, nx):
                    t1, s1 = dst_view(dst, i, j), src_view(src, i, j)
                    if i == j:  # overlapping operands: NumPy buffers the source
                        add(t1, s1.swapaxes(-1, -2), out=t1)
                        continue
                    t2, s2 = dst_view(dst, j, i), src_view(src, j, i)
                    pre = s2.copy()  # t1 shares its cells with s2
                    add(t1, s1.swapaxes(-1, -2), out=t1)
                    add(t2, pre.swapaxes(-1, -2), out=t2)


def _core_sums(grid: TransferGrid, a: float, eta: float, power: int) -> np.ndarray:
    """Cores of the kernel whose rung integrand carries the extra factor
    ``w**power``, square-root weighted.

    The integrand factorizes into one cell-pair table (lower and upper
    fields share a node set), per-node sign and tree factors and the side
    profiles; per rung node the cores are weighted Gram sums of the table.
    The table is built one slab of rung nodes at a time, so the doubled
    grid never holds it whole, and each slab's products go straight into
    the half-row accumulators (``_add_products``): per lower field one
    matrix product of all cores' weighted columns with the table, so no
    nx²×nx² temporary is built.

    Rung nodes come in mirror pairs (z, w), (z, -w), and the table is built
    for the w > 0 partner only: the row at -w is the row at w with the cell
    pair swapped, c_a and c_b trade places and the sign factors are even in
    w.  At eta = 0 the coefficients of the row at -w are those of its
    partner in the core with the letter flags swapped, so the sums run over
    the w > 0 nodes alone and ``_fold_mirrors`` adds the mirrored half in
    place at the end; otherwise the mirrored rows (the column-permuted
    table, no exp or power) join each slab's products with their own
    coefficients.  Nodes without an exact mirror are summed directly.
    Cores whose coefficients vanish on the same rows share one product
    over the other rows: ``differ`` underflows for z below about -6, which
    drops about 40% of the rows of the three sign-mismatch cores."""
    nx = grid.nx
    z, w, qw = _rung_nodes(grid)
    rho = qw * np.exp((a + 0.5) * z + eta * w)
    c_a = np.exp(-(z - 0.5 * w))  # extra factor when the left letter is A
    c_b = np.exp(-(z + 0.5 * w))  # extra factor when the right letter is B
    agree, differ = _sign_factors(z, w)
    coefs = {(is_a, is_b, same): rho * (c_a if is_a else 1.0) * (c_b if is_b else 1.0)
             * (agree if same else differ) for is_a, is_b, same in _CORES}
    half = _half_rows(nx)
    sums = np.zeros((2, 2, 2, half.up.size, nx * nx))
    groups: dict[bytes, tuple[np.ndarray, list]] = {}  # cores by their non-zero rows
    for key, coef in coefs.items():
        live = coef != 0.0
        groups.setdefault(live.tobytes(), (live, []))[1].append((sums[key], coef * w ** power))

    def add_slab(nodes, mirrors):
        table = _cell_pair_table(grid.x_nodes, z[nodes], w[nodes], a)
        if mirrors is not None:
            nodes = np.concatenate([nodes, mirrors])
            table = np.concatenate([table, table[:, half.swap]])
        for live, targets in groups.values():
            use = np.flatnonzero(live[nodes])
            if use.size == 0:
                continue
            if use[-1] - use[0] + 1 == use.size:  # one run of rows: a view, no copy
                use = slice(use[0], use[-1] + 1)
            _add_products([out for out, _ in targets], table[use],
                          np.stack([coef[nodes[use]] for _, coef in targets], axis=1))

    def add_rows(rows, mirrors):
        step = _RUNG_CHUNK if mirrors is None else _RUNG_CHUNK // 2
        for lo in range(0, rows.size, step):
            add_slab(rows[lo:lo + step], None if mirrors is None else mirrors[lo:lo + step])

    pos, neg, single = _mirror_pairs(grid)
    fold = eta == 0.0
    add_rows(pos, None if fold else neg)
    if fold:
        _fold_mirrors(sums, (-1.0) ** power, half)
    add_rows(single, None)
    cell_w = np.sqrt(np.outer(grid.x_weights, grid.x_weights)).reshape(-1)
    for key in _CORES:  # the A->B cores stay untouched zero pages
        sums[key] *= cell_w[half.up][:, None]
        sums[key] *= cell_w[None, :]
    return sums


def assemble_kernel(grid: TransferGrid, a: float, eta: float, tag: str = "one",
                    plain: OperatorMatrix | None = None) -> OperatorMatrix:
    """Assemble the factorized coupling operator on the grid.

    ``tag='gamma'`` weights the integrand with the separation variable:
    shift plus mean-field difference, i.e. the shift-weighted kernel plus
    the commutator with the per-state mean field.  It is built from the
    plain operator at the same (grid, a, eta), passed as ``plain``: the
    commutator reads its cores, and the side profiles are its own.
    """
    if not -0.25 <= eta <= 0.25:
        raise LadderError(f"eta={eta} outside [-1/4, 1/4]")
    if tag not in ("one", "gamma"):
        raise LadderError(f"unknown kernel tag {tag!r}")
    if tag == "one":
        return OperatorMatrix(grid=grid, a=a, eta=eta, tag=tag, sym=_core_sums(grid, a, eta, 0),
                              left=_side_profiles(grid, a, eta, primed=False),
                              right=_side_profiles(grid, a, eta, primed=True))
    if plain is None or (plain.tag, plain.grid, plain.a, plain.eta) != ("one", grid, a, eta):
        raise LadderError("the gamma kernel needs the plain operator at its grid, a and eta")
    sym = _core_sums(grid, a, eta, 1)
    x = grid.x_nodes
    u = 0.5 * (x[:, None] + x[None, :]).reshape(-1)  # mean cell field
    rows = u[_half_rows(grid.nx).up][:, None]
    for key in _CORES:  # diagonal profiles commute with diag(u)
        sym[key] += rows * plain.sym[key] - plain.sym[key] * u[None, :]
    return OperatorMatrix(grid=grid, a=a, eta=eta, tag=tag, sym=sym,
                          left=plain.left, right=plain.right)


@dataclass(frozen=True)
class EigenTriple:
    """Leading eigenvalue with left/right eigenfunction values on the grid.

    ``left`` and ``right`` are the weighted eigenvectors divided by
    ``grid.sqrt_w``, i.e. function values: a pairing of the two, or of
    either with a weighted vector, must multiply them by ``sqrt_w`` again.
    With ``l = left * sqrt_w`` and ``r = right * sqrt_w``, ``l @ r == 1``
    and ``<l, K_gamma r> / (value * <l, r>)`` is the bulk mean of gamma (on
    the default grid at a = 1, eta = 1/4: 0.7235; the same pairing of the
    unweighted ``left``/``right`` reads 0.605).

    ``gap`` is the modulus ratio |λ2|/λ1 (the convergence factor of the
    power iteration), not a difference of eigenvalues; ``gap_residual`` is
    the relative eigen-residual of the λ2 estimate and ``gap_iterations``
    the products it took.  ``iterations`` counts the left and right power
    iterations."""

    value: float
    left: np.ndarray
    right: np.ndarray
    residual_left: float
    residual_right: float
    gap: float
    iterations: int
    gap_residual: float
    gap_iterations: int


_TOL, _MAX_ITER = 1e-13, 20_000  # stop rule of the leading power iterations
_GAP_TOL, _GAP_MAX_ITER = 1e-10, 2_000  # stop rule of the second-eigenvalue iteration


def _power_iteration(product, u: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """Power iteration from ``u``; stops once ||u S - λ u|| / λ < ``_TOL``
    for the unit iterate u and λ = ||u S|| (at most ``_MAX_ITER`` products)."""
    u = u / np.linalg.norm(u)
    for it in range(1, _MAX_ITER + 1):
        v = product(u)
        lam = float(np.linalg.norm(v))
        resid = float(np.linalg.norm(v - lam * u)) / lam
        if resid < _TOL:
            break
        u = v / lam
    return u, lam, resid, it


def leading_triple(op: OperatorMatrix, seed: int = 0) -> EigenTriple:
    """Leading eigen-triple by power iteration on the operator and its
    adjoint (stopped by ``_TOL``), then the second eigenvalue by power
    iteration on the operator with the leading pair projected out, stopped
    once the Rayleigh quotient's eigen-residual falls below ``_GAP_TOL`` (at
    most ``_GAP_MAX_ITER`` products)."""
    if op.tag != "one":
        raise LadderError("eigen-triples are defined for the plain kernel only")
    gen = np.random.default_rng(seed)
    u_left, lam_l, res_l, it_l = _power_iteration(op.vecmat, gen.uniform(0.5, 1.5, size=op.size))
    u_right, lam_r, res_r, it_r = _power_iteration(op.matvec, gen.uniform(0.5, 1.5, size=op.size))
    if res_l > _TOL * 100 or res_r > _TOL * 100:
        raise LadderError(
            f"power iteration stalled: residuals {res_l:.2e}/{res_r:.2e} after "
            f"{it_l}/{it_r} iterations"
        )
    lam = 0.5 * (lam_l + lam_r)
    if lam <= 0:
        raise LadderError("nonpositive leading eigenvalue")
    u_left = np.abs(u_left)  # the leading eigenvector has one sign
    u_right = np.abs(u_right)
    u_right = u_right / float(u_left @ u_right)

    # second eigenvalue: x S with the spectral projector u_right u_left^T removed
    x = gen.standard_normal(op.size)
    x -= u_left * float(x @ u_right)
    x /= np.linalg.norm(x)
    for gap_it in range(1, _GAP_MAX_ITER + 1):
        y = op.vecmat(x)
        y -= u_left * float(y @ u_right)
        lam2 = float(x @ y)
        gap_res = float(np.linalg.norm(y - lam2 * x)) / abs(lam2)
        if gap_res < _GAP_TOL:
            break
        x = y / np.linalg.norm(y)
    sw = op.grid.sqrt_w
    return EigenTriple(
        value=lam,
        left=u_left / sw,
        right=u_right / sw,
        residual_left=res_l,
        residual_right=res_r,
        gap=abs(lam2) / lam,
        iterations=it_l + it_r,
        gap_residual=gap_res,
        gap_iterations=gap_it,
    )


def boundary_vector(grid: TransferGrid, a: float, side: str) -> np.ndarray:
    """Boundary closure vector: the boundary energy integrated over its
    rung field, at every grid state (sign-independent)."""
    if side not in ("left", "right"):
        raise LadderError(f"side must be left or right, got {side!r}")
    if not a > 0.75:
        raise LadderError(f"boundary vectors need a > 3/4, got a={a}")
    x = grid.x_nodes
    xlo = x[:, None, None]
    xhi = x[None, :, None]
    zb = grid.zb_nodes[None, None, :]
    h_exp = 0.25 * (np.exp(-xlo) + np.exp(-xhi)) + 0.5 * np.exp(-zb)
    out = np.empty((4, 2, grid.nx * grid.nx))  # letter, sign, cell
    for t in range(4):
        out[t] = (np.exp(-(boundary_core_vec(xlo, xhi, zb, t, a, side) + h_exp))
                  @ grid.zb_weights).reshape(-1)
    out = out.reshape(-1)
    if np.any(out <= 0):
        raise LadderError("boundary vector must be strictly positive")
    return out


def _scaled_images(v: np.ndarray, products) -> tuple[list[np.ndarray], list[float]]:
    """``v`` and its images under the successive ``products``, each image
    divided by its max norm, with the cumulative log scales (0.0 for ``v``).
    A vanishing image raises."""
    vecs, logs = [v], [0.0]
    for product in products:
        u = product(vecs[-1])
        scale = float(np.max(np.abs(u)))
        if scale == 0.0:
            raise LadderError("vanishing bracket: grid pathology")
        u /= scale
        vecs.append(u)
        logs.append(logs[-1] + math.log(scale))
    return vecs, logs


class TransferContext:
    """Grid, kernels and boundary vectors bundled for the chain formulas."""

    def __init__(self, grid: TransferGrid, a: float):
        self.grid = grid
        self.a = a
        self._ops: dict = {}

    def op(self, eta: float, tag: str = "one") -> OperatorMatrix:
        key = (round(eta, 12), tag)
        if key not in self._ops:
            plain = self.op(eta) if tag == "gamma" else None
            self._ops[key] = assemble_kernel(self.grid, self.a, eta, tag, plain=plain)
        return self._ops[key]

    @cached_property
    def gl_u(self) -> np.ndarray:
        return boundary_vector(self.grid, self.a, "left") * self.grid.sqrt_w

    @cached_property
    def gr_u(self) -> np.ndarray:
        return boundary_vector(self.grid, self.a, "right") * self.grid.sqrt_w


def chain_expectation(ctx: TransferContext, n: int, j: int, i: int,
                      tag: str = "gamma") -> float:
    """Mean of the rung observable at position ``i`` under the chain with
    ``j`` relaxed couplings, evaluated by operator products.

    The chain's n - 1 kernels K_1..K_{n-1} (coupling 0 on the first ``j``,
    1/4 on the rest) meet the boundary vectors on both sides; the mean is
    (P K_mid S) / (P K_i S) with the prefix P = gl K_1..K_{i-1}, the suffix
    S = K_{i+1}..K_{n-1} gr and K_mid the ``tag`` kernel at K_i's coupling:
    n products in all.  The images are scaled by their max norms on the way,
    which the ratio cancels; with ``tag='one'`` K_mid is K_i and the ratio is
    exactly 1."""
    if not (1 <= i <= n - 1 and 0 <= j <= n - 1 and n >= 2):
        raise LadderError(f"need 1 <= i < n and 0 <= j < n, got n={n}, j={j}, i={i}")
    ops = [ctx.op(0.0 if m <= j else 0.25) for m in range(1, n)]
    k_i = ops[i - 1]
    k_mid = ctx.op(k_i.eta, tag)
    prefix = _scaled_images(ctx.gl_u, [op.vecmat for op in ops[:i - 1]])[0][-1]
    suffix = _scaled_images(ctx.gr_u, [op.matvec for op in reversed(ops[i:])])[0][-1]
    den = float(k_i.vecmat(prefix) @ suffix)
    if den == 0.0:
        raise LadderError("vanishing bracket: grid pathology")
    return float(k_mid.vecmat(prefix) @ suffix) / den


def sigma_moment_profile(ctx: TransferContext, n: int) -> np.ndarray:
    """log separation moment for every j in 0..n-1, in one pass: the mean of
    the exponential separation weight over the first j rungs is
    exp(profile[j])."""
    if n < 1:
        raise LadderError(f"need n >= 1, got n={n}")
    pre_vecs, pre_logs = _scaled_images(ctx.gl_u, [ctx.op(0.0).vecmat] * (n - 1))
    suf_vecs, suf_logs = _scaled_images(ctx.gr_u, [ctx.op(0.25).matvec] * (n - 1))
    out = np.empty(n)
    for j in range(n):
        val = float(pre_vecs[j] @ suf_vecs[n - 1 - j])
        out[j] = pre_logs[j] + suf_logs[n - 1 - j] + math.log(val)
    return out - out[0]


def symmetry_defect(ctx: TransferContext, seed: int = 0) -> dict:
    """Normalized pairing of the shift-weighted kernel with the symmetric
    eigenfunctions; zero in the continuum at zero coupling, so the grid
    value measures solver plus discretization error.  The quarter-coupling
    analogue is reported as a nonzero control."""
    sw = ctx.grid.sqrt_w
    pairings = []  # (triple, raw pairing, normalized pairing) at eta = 0, 1/4
    for eta in (0.0, 0.25):
        triple = leading_triple(ctx.op(eta), seed=seed)
        u_left, u_right = triple.left * sw, triple.right * sw
        kg = ctx.op(eta, "gamma")
        raw = float(kg.vecmat(u_left) @ u_right)
        pairings.append((triple, raw, abs(raw) / (np.linalg.norm(u_left) * kg.hs_norm()
                                                  * np.linalg.norm(u_right))))
    (triple0, raw0, defect), (_, _, control) = pairings
    return {
        "defect": float(defect),
        "raw_pairing": raw0,
        "control_quarter": float(control),
        "eigenvalue": triple0.value,
        "gap": triple0.gap,
        "residual": max(triple0.residual_left, triple0.residual_right),
    }
