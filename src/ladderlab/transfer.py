"""Discretized transfer-operator numerics for the spin chain.

The cell state space (two real fields, a sign, a tree letter) is
discretized with composite Gauss-Legendre panels on a truncated box; the
coupling kernel integrates the middle energy over the rung fields with its
own quadrature.  Matrices are stored in the quadrature-weighted
("square-root") form S = diag(sqrt(w)) k diag(sqrt(w)), so inner products
of weighted vectors are plain dot products and the operator and its adjoint
act by plain matrix products (``vecmat``, ``matvec``).

A kernel's coupling eta enters its energy as -eta * gamma: eta = 1/4 is the
undeformed environment (every coupling of ``h_total(deform_j=0)``) and
eta = 0 the deformation (the couplings a sampler's ``deform_j`` relaxes).

S is never stored dense.  Its block between tree letters t, t2 and signs
s, s2 is diag(left[t]) C[t == A, t2 == B, s == s2] diag(right[t2]): six
nx²×nx² cores C (an A cell is never followed by a B cell, so the A->B
cores vanish and are not stored) and one side profile per letter on each
side.  A product groups the input by the A (resp. B) flag and the sign, so
it costs twelve core products, one per core and sign row, against 64 dense
blocks.

Swapping the lower and upper rails of both cells leaves every core
unchanged, C[(i, k), (j, l)] = C[(k, i), (l, j)]: the cores are Gram sums
of one cell-pair table per rail, and only the side profiles (letters C and
D) tell the rails apart.  So each core keeps its rows (i, k) with i <= k
only, nx(nx+1)/2 of the nx² rows (``_half_rows``); the row (k, i) is the
row (i, k) with the columns (j, l) -> (l, j) swapped.  Assembly computes
only those rows: per lower field i one matrix product of several cores'
weighted table columns (i, .) with the table columns (i.., .), added
straight into the stored rows, so it holds the cores plus one slab of the
table and no nx²×nx² temporary.  The products multiply the stored rows
once for the direct and once for the mirrored half of the state space.

The B-column cores C[0, 1, s] are stored as their transposes: a half-row
partner P with C[0, 1, s] = σ P[s]ᵀ, σ = +1 for the plain and -1 for the
shift-weighted kernel, which the products read in the other orientation.
At eta = 0 the letter-swap reflection makes C[0, 1, s] = σ C[1, 0, s]ᵀ,
so where the grid represents it exactly (every shift node mirrored, or
unpaired at w = 0) P is the stored C[1, 0] itself: four stored cores,
about a 32nd of the dense bytes.  Elsewhere P is assembled: six cores.

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
sides.  The table is built for the w > 0 nodes only and multiplied once as
built and once with its cell pairs swapped.  At eta = 0 the mirrored half
of C[0, 0] is its own transpose, folded in place at the end, so C[0, 0]
skips the swapped products.  Rows whose weight is exactly 0 (the
sign-mismatch factor underflows for z below about -6) are left out of the
products, and nodes without an exact mirror are summed directly.

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
from ladderlab.ladder import ETA_MAX, InputRefused, LadderError, check_coupling, check_int, check_weight

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
    "log_mass",
    "chain_expectation",
    "sigma_moment_profile",
    "symmetry_defect",
    "axis_rates",
]

_STATE_BLOCKS = 8  # four tree letters times two signs


def axis_rates(a: float) -> dict:
    """Per-axis exponential decay rates of the coupling integrand.

    Worst case over tree letters, signs and couplings |eta| <= 1/4.
    The negative cell side decays double-exponentially and is handled
    separately.
    """
    check_weight(a, 0.5)
    return {
        "x_plus": 0.5 * (3 * a + 1) - 0.5 * (a + 0.5) - 0.25 - 0.5 * ETA_MAX,
        "z_plus": (3 * a + 1) - (a + 0.5),
        "z_minus": a - 0.5,
        "w": 0.5 * (3 * a + 1) - 0.5 - ETA_MAX,
        "x_minus_gain": 0.75 + 0.5 * ETA_MAX,  # linear growth the tail must beat
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


_NODE_COUNTS = ("nx_core", "nx_tail", "nz_core", "nz_tail", "nv", "nzb")


def _panel_gauss(panels) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = [], []
    for lo, hi, count in panels:
        if hi <= lo:
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


def build_grid(params: GridParams | None = None, a: float = 1.0) -> TransferGrid:
    """Build the discretization and validate the truncation against the
    per-axis decay rates; too-small radii are rejected with the minimal
    admissible radius in the message."""
    params = params or GridParams()
    params = replace(params, **{name: check_int(getattr(params, name), name, 1) for name in _NODE_COUNTS})
    if params.nx < 8 or params.nz < 8 or params.nv < 8:
        raise InputRefused("need at least 8 nodes per continuous axis")
    eps = params.eps
    budget = math.log(1.0 / eps) + 2.0  # two extra e-folds of safety
    rates = axis_rates(a)
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
        raise InputRefused("truncation too small for eps=%g; need %s" % (eps, ", ".join(problems)))
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
_RUNG_CHUNK = 512  # rung nodes per slab of the cell-pair table during assembly
# stacked (core, lower field) column blocks per assembly product: at K = 512
# rows and nx = 40 a 2-vCPU box runs 49 GFLOP/s at one block, 61 at two and
# 63 at three, and a wider stack only enlarges the product array
_MAX_STACK = 3


class _HalfRows(NamedTuple):
    """Index arrays of the half-row core layout on an nx-node cell axis.

    Stored row r is the cell (i, k) with i <= k, in ``np.triu_indices(nx)``
    order; ``up[r]`` is its flat cell index and ``mirror[r]`` that of the
    swapped cell (k, i), equal on the diagonal, where ``off`` is 0 (1
    elsewhere).  ``swap`` permutes all nx² cells (i, k) -> (k, i), so the
    full core row ``mirror[r]`` is ``core[r, swap]``."""

    up: np.ndarray
    mirror: np.ndarray
    off: np.ndarray
    swap: np.ndarray


@cache
def _half_rows(nx: int) -> _HalfRows:
    lower, upper = np.triu_indices(nx)
    half = _HalfRows(up=lower * nx + upper, mirror=upper * nx + lower,
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
    ``nx²×nx²`` cores C, zero for an A row and a B column, and one side
    profile per tree letter on each side.  Cores are stored as half rows,
    the rows (i, k), i <= k (see ``_half_rows``): the other rows are the
    same with the column cells swapped.  ``sym[0]`` and ``sym[1]`` hold
    C[0, 0, s] and C[1, 0, s]; the B-column cores are read transposed from
    the ``partner`` P, C[0, 1, s] = ``partner_sign`` · P[s]ᵀ.  Where the
    letter-swap reflection is exact on the grid (eta = 0 and every unpaired
    shift node at w = 0), P is C[1, 0] itself and ``sym`` holds four cores,
    about a 32nd of the bytes of the dense S; elsewhere P is assembled as
    ``sym[2]`` and ``sym`` holds six.  ``vecmat`` and ``matvec`` are the
    only products (``apply_right`` is ``vecmat`` on function values);
    ``block_row`` materializes S one state block of rows at a time, for
    ``dense()`` in tests and for the raw kernel rows of ``kernel_rows``.
    Raw kernel values are S divided by ``grid.sqrt_w`` on both sides.
    """

    grid: TransferGrid
    a: float
    eta: float
    tag: str  # "one" for the plain kernel, "gamma" for the shift-weighted one
    sym: np.ndarray  # half-row cores, shape (2 or 3, 2, nx(nx+1)/2, nx²), square-root weighted
    left: np.ndarray  # side profiles of the row letter, shape (4, nx²)
    right: np.ndarray  # side profiles of the column letter, shape (4, nx²)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def partner(self) -> np.ndarray:
        """Half-row partner cores P, shape (2, nx(nx+1)/2, nx²): ``sym[2]``
        when assembled, else the stored C[1, 0] (``sym[1]``) itself."""
        return self.sym[-1]

    @property
    def partner_sign(self) -> float:
        """σ in C[0, 1, s] = σ P[s]ᵀ: the parity in w of the rung weight."""
        return 1.0 if self.tag == "one" else -1.0

    def vecmat(self, v: np.ndarray) -> np.ndarray:
        """``v @ S`` for weighted vectors of shape (size,) or (m, size)."""
        return _block_product(v, self, adjoint=False)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``S @ v`` (the adjoint product, ``v @ S.T``), same shapes."""
        return _block_product(v, self, adjoint=True)

    def full_core(self, is_a: int, is_b: int, same: int) -> np.ndarray:
        """Core ``C[is_a, is_b, same]`` with all nx² rows."""
        nxx = self.left.shape[1]
        if is_a and is_b:
            return np.zeros((nxx, nxx))
        half = _half_rows(self.grid.nx)
        core = self.partner[same] if is_b else self.sym[is_a, same]
        full = np.empty((nxx, nxx))
        full[half.mirror] = core[:, half.swap]
        full[half.up] = core
        return self.partner_sign * full.T if is_b else full

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
        against the swapped column profiles.  The B-column cores are the
        partner transposed, so the partner's rows take the B column profiles
        and its columns the row profiles of the letters other than A."""
        half = _half_rows(self.grid.nx)
        left2, right2 = self.left**2, self.right**2
        rows = (left2[_OTHERS[_A]].sum(axis=0), left2[_A])
        cols = (right2[_OTHERS[_B]].sum(axis=0), right2[_B])
        total = 0.0
        for cores, r, c in ((self.sym[0], rows[0], cols[0]), (self.sym[1], rows[1], cols[0]),
                            (self.partner, cols[1], rows[0])):
            for core in cores:
                weighted = np.stack([r[half.up], r[half.mirror] * half.off]) @ core**2
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


def _block_product(v: np.ndarray, op: OperatorMatrix, adjoint: bool) -> np.ndarray:
    """``v @ S`` (``S @ v`` if ``adjoint``) from the half-row cores of ``op``.

    The input is scaled by the row (column) profiles and grouped by its A
    (B) flag and sign.  Each core H then meets one group in one of two
    orientations, with F the full core of H:
    - ``x @ F``: the stored rows take the input at the cells ``up`` and the
      mirrored rows (diagonal left out) the input at ``mirror``, and the
      mirrored half of the result comes out with its cells swapped;
    - ``x @ Fᵀ``: the stored rows meet the input and the swapped input, and
      the two halves of the result land on the cells ``up`` and ``mirror``.
    ``v @ S`` takes C[0, 0] and C[1, 0] as ``x @ F`` and the B-column cores
    σPᵀ as ``x @ Fᵀ`` of the partner; ``S @ v`` takes the transposes, so the
    orientations trade places.  Both halves and both sign rows of a group
    go through one matrix product per core.  The result is scaled by the
    output profiles."""
    p_in, key_in, p_out, key_out = ((op.right, _B, op.left, _A) if adjoint
                                    else (op.left, _A, op.right, _B))
    nxx = p_in.shape[1]
    half = _half_rows(math.isqrt(nxx))
    x = v.reshape(-1, 4, 2, nxx) * p_in[:, None, :]
    m = x.shape[0]
    groups = (x[:, _OTHERS[key_in]].sum(axis=1).reshape(2 * m, nxx),
              x[:, key_in].reshape(2 * m, nxx))
    stacks: dict[tuple[int, bool], np.ndarray] = {}
    # by orientation (x @ F?): (direct or mirrored half, vector, output flag, sign, cell)
    out = {True: np.zeros((2, m, 2, 2, nxx)), False: np.zeros((2, m, 2, 2, half.up.size))}
    # (row letter is A, column letter is B, half-row cores, C is σ Hᵀ)
    for is_a, is_b, cores, flipped in ((0, 0, op.sym[0], False), (1, 0, op.sym[1], False),
                                       (0, 1, op.partner, True)):
        f_in, f_out = (is_b, is_a) if adjoint else (is_a, is_b)
        as_rows = adjoint == flipped
        if (f_in, as_rows) not in stacks:
            g = groups[f_in]
            stacks[f_in, as_rows] = np.concatenate(
                [g[:, half.up], g[:, half.mirror] * half.off] if as_rows else [g, g[:, half.swap]])
        for same, core in enumerate(cores):
            prod = (stacks[f_in, as_rows] @ (core if as_rows else core.T)).reshape(2, m, 2, -1)
            if flipped:
                prod *= op.partner_sign
            out[as_rows][:, :, f_out] += prod if same else prod[:, :, ::-1]
    y = out[True][0] + out[True][1][..., half.swap]
    cols = np.empty_like(y)
    cols[..., half.mirror] = out[False][1]
    cols[..., half.up] = out[False][0]
    y += cols
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


def _add_products(table: np.ndarray, targets: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Add to each ``out`` of ``targets`` (pairs of half-row cores and one
    coefficient per table row) the half rows of the core whose Gram form is
    ``table.T @ diag(coef) @ table``.

    The table is indexed by the cell pair (i, j) of one rail, so the core
    row (i, k), column (j, l) is the sum over rows n of coef[n] table[n, (i,
    j)] table[n, (k, l)].  Cores whose coefficients vanish on the same rows
    share one product over the rows from the first live one to the last, a
    view (a zero coefficient inside that run adds exact zeros).  For each
    lower field i the columns table[:, (i, .)] of the cores of a group,
    scaled by each core's coefficients, are stacked side by side and
    multiplied once with table[:, (i.., .)]; each core's share of the
    product holds its stored rows (i, k), k >= i, with the j and k axes
    swapped, and is added to them in place.  A stack holds at most
    ``_MAX_STACK`` column blocks: a larger group is split evenly, and a
    smaller one stacks the lower fields i, i + 1, .. as well, where field
    i + d drops the rows k < i + d of the shared product (a single core
    wastes about 2/nx of its products so)."""
    groups: dict[bytes, tuple[np.ndarray, list]] = {}
    for out, coef in targets:
        live = coef != 0.0
        groups.setdefault(live.tobytes(), (live, []))[1].append((out, coef))
    nx = math.isqrt(table.shape[1])
    for live, group in groups.values():
        use = np.flatnonzero(live)
        if use.size == 0:
            continue
        use = slice(use[0], use[-1] + 1)
        rows = table[use]
        cells = rows.reshape(-1, nx, nx)
        parts = -(-len(group) // _MAX_STACK)
        for members in (group[k::parts] for k in range(parts)):
            coefs = np.stack([coef[use] for _, coef in members], axis=1)
            fields = _MAX_STACK // len(members)  # lower fields per product
            start = 0
            for i in range(0, nx, fields):
                f = min(fields, nx - i)
                stack = (coefs[:, None, :, None] * cells[:, i:i + f, None, :]).reshape(
                    rows.shape[0], -1)
                prod = (stack.T @ rows[:, i * nx:]).reshape(f, len(members), nx, nx - i, nx)
                for d in range(f):  # lower field i + d; its rows k < i + d are dropped
                    width = nx - i - d
                    for c, (out, _) in enumerate(members):
                        block = out[start:start + width].reshape(width, nx, nx)
                        block += prod[d, c, :, d:].transpose(1, 0, 2)
                    start += width
                del stack, prod  # freed before the next product is allocated


def _fold_mirrors(out: np.ndarray, sign: float, half: _HalfRows) -> None:
    """Add, in place, the share of the mirrored rung nodes at eta = 0 to
    half-row cores with equal letter flags, given their sums over the w > 0
    nodes in ``out`` (shape (.., nx(nx+1)/2, nx²), before the cell weights).

    The node at (z, -w) adds to core (is_a, is_b, same) the transpose of
    what its partner at (z, w) adds to core (is_b, is_a, same), times
    ``sign`` (the parity of the weight in w), so a core with equal letter
    flags is its own partner: on the pre-fold values it gains ``sign *
    T(C)``.  T maps a half-row core to the half rows of its transpose:
    ``T[:, up] = C[:, up].T`` and ``T[:, mirror] = C[:, mirror].T`` off the
    diagonal cells, whose columns take the ``up`` value.

    The half rows of lower field i are a (nx - i, nx, nx) view over the
    column cells, in which the ``up`` columns of lower field j are
    ``[:, j, j:]`` and its off-diagonal mirror columns ``[:, j+1:, j]``, so
    every read and write is a slice or stride view.  Block (i, j) takes its
    update from block (j, i): each pair of lower fields reads its blocks
    before it writes them, and no other pair touches them.  The mirror
    columns go first: their update reads the ``up`` columns of the diagonal
    cells, which the ``up`` pass changes.  One update covers every leading
    index (both ``same`` flags)."""
    nx = math.isqrt(half.swap.size)
    starts = np.concatenate([[0], np.cumsum(np.arange(nx, 0, -1))]).tolist()
    # per lower field i, its half rows as a (.., nx - i, nx, nx) view
    blocks = [out[..., lo:hi, :].reshape(out.shape[:-2] + (hi - lo, nx, nx))
              for lo, hi in zip(starts[:-1], starts[1:])]
    add = np.add if sign > 0 else np.subtract  # x - y is x + (-y) bit for bit
    passes = ((lambda i, j: blocks[i][..., j + 1:, j], lambda i, j: blocks[j][..., 1:, i:, i]),
              (lambda i, j: blocks[i][..., j, j:], lambda i, j: blocks[j][..., i, i:]))
    for dst_view, src_view in passes:
        for i in range(nx):
            for j in range(i, nx):
                t1, s1 = dst_view(i, j), src_view(i, j)
                if i == j:  # overlapping operands: NumPy buffers the source
                    add(t1, s1.swapaxes(-1, -2), out=t1)
                    continue
                t2, s2 = dst_view(j, i), src_view(j, i)
                pre = s2.copy()  # t1 shares its cells with s2
                add(t1, s1.swapaxes(-1, -2), out=t1)
                add(t2, pre.swapaxes(-1, -2), out=t2)


def _core_sums(grid: TransferGrid, a: float, eta: float, power: int) -> np.ndarray:
    """Half-row cores C[0, 0, s], C[1, 0, s] and, unless the letter swap is
    exact, the partner P[s] (see ``OperatorMatrix``) of the kernel whose
    rung integrand carries the extra factor ``w**power``, square-root
    weighted.

    The integrand factorizes into one cell-pair table (lower and upper
    fields share a node set), per-node sign and tree factors and the side
    profiles; per rung node the cores are weighted Gram sums of the table.
    The table is built one slab of rung nodes at a time, so the doubled
    grid never holds it whole, and each slab's products go straight into
    the half-row accumulators (``_add_products``): per lower field one
    matrix product of several cores' weighted columns with the table, so
    no nx²×nx² temporary is built.

    Rung nodes come in mirror pairs (z, w), (z, -w), and the table is built
    for the w > 0 node only: the row at -w is the row at w with the cell
    pair swapped, c_a and c_b trade places and the sign factors are even in
    w.  Each slab is multiplied as built and again with its cell pairs
    swapped in place, where its rows stand for the mirror nodes.  The
    partner σ C[0, 1]ᵀ (σ = (-1)**power) is the Gram sum of the swapped
    rows with the C[0, 1] coefficients times (-w)**power, so it takes the
    swapped slab at the node's own coefficients and the slab as built at
    its mirror's.  Nodes without an exact mirror go in once each way: as
    built for C[., 0], swapped for P.

    At eta = 0 the row at -w adds to each core σ times the transpose of
    what the row at w adds to the core with the letter flags swapped.  So
    C[0, 0] takes the w > 0 rows alone and ``_fold_mirrors`` adds the
    mirrored half in place, and, when every unpaired node sits at w = 0,
    C[0, 1] = σ C[1, 0]ᵀ holds term by term: P is C[1, 0] and is not summed.
    The products then cost those of six cores over the w > 0 rows, and
    every other case twelve.  Cores whose coefficients vanish on the same
    rows share one product over the run of their live rows: ``differ``
    underflows for z below about -6, which drops about 40% of the rows of
    the sign-mismatch cores."""
    nx = grid.nx
    z, w, qw = _rung_nodes(grid)
    rho = qw * np.exp((a + 0.5) * z + eta * w)
    c_a = np.exp(-(z - 0.5 * w))  # extra factor when the left letter is A
    c_b = np.exp(-(z + 0.5 * w))  # extra factor when the right letter is B
    agree, differ = _sign_factors(z, w)
    pos, neg, single = _mirror_pairs(grid)
    exact = eta == 0.0 and not np.any(w[single])
    mirror = np.full(z.size, z.size)  # each node's mirror; z.size (no mirror) reads a 0
    mirror[pos], mirror[neg] = neg, pos

    def at_mirror(coef):
        return np.append(coef, 0.0)[mirror]

    half = _half_rows(nx)
    sums = np.zeros((2 if exact else 3, 2, half.up.size, nx * nx))
    targets = []  # (half-row cores, coefficient per node of its table row as built, swapped)
    for same in (0, 1):
        sign_factor = agree if same else differ
        for is_a in (0, 1):
            coef = rho * (c_a if is_a else 1.0) * sign_factor * w ** power
            # the fold adds the swapped rows of C[0, 0] in the exact case
            targets.append((sums[is_a, same], coef,
                            np.zeros_like(coef) if exact and not is_a else at_mirror(coef)))
        if not exact:
            coef = rho * c_b * sign_factor * (-w) ** power
            targets.append((sums[2, same], at_mirror(coef), coef))

    def add_slab(nodes):  # the table dies with the call
        table = _cell_pair_table(grid.x_nodes, z[nodes], w[nodes], a)
        _add_products(table, [(out, built[nodes]) for out, built, _ in targets])
        swapped = [(out, coef[nodes]) for out, _, coef in targets]
        if any(coef.any() for _, coef in swapped):
            cells = table.reshape(-1, nx, nx)
            for r in range(0, nodes.size, 64):  # in place, a few rows at a time
                cells[r:r + 64] = cells[r:r + 64].transpose(0, 2, 1)
            _add_products(table, swapped)

    def add_rows(nodes):
        for lo in range(0, nodes.size, _RUNG_CHUNK):
            add_slab(nodes[lo:lo + _RUNG_CHUNK])

    add_rows(pos)
    if exact:
        _fold_mirrors(sums[0], (-1.0) ** power, half)
    add_rows(single)
    cell_w = np.sqrt(np.outer(grid.x_weights, grid.x_weights)).reshape(-1)
    sums *= cell_w[half.up][:, None]
    sums *= cell_w
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
    if tag not in ("one", "gamma"):
        raise InputRefused(f"unknown kernel tag {tag!r}")
    if a != grid.a:  # build_grid checked the truncation box for grid.a only
        raise LadderError(f"a={a} on a grid built for a={grid.a}")
    check_coupling(eta)
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
    # diagonal profiles commute with diag(u); the partner, σ C[0, 1]ᵀ with
    # σ = -1 here and +1 for the plain one, takes the same commutator
    for core, base in zip(sym.reshape((-1,) + sym.shape[2:]), plain.sym.reshape((-1,) + sym.shape[2:])):
        core += rows * base - base * u[None, :]
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
    if check_weight(a, 0.75) != grid.a:  # build_grid checked the truncation box for grid.a only
        raise LadderError(f"a={a} on a grid built for a={grid.a}")
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


def log_mass(n: int, a: float) -> float:
    """log Z_n, the exact total mass of the n-cell spin chain with every
    coupling at eta = 1/4 (the undeformed environment), in the operator's
    terms gl K(1/4)^(n-1) gr:

        Z_n = 2^(7n/2 + 1 - (3n+1)a) pi^((3n+1)/2) Gamma(a)^(3n)
              / (Gamma(a + 1/2)^3 Gamma((3a+1)/2)^(2n-2)),

    the Keane-Rolles normalizer of the ERRW mixing density carried through
    the Gibbs identity exp(-H) = 2^n phi J and the bijection psi.  So
    lambda1(1/4) = Z_(n+1) / Z_n = 2^(7/2 - 3a) pi^(3/2) Gamma(a)^3 /
    Gamma((3a+1)/2)^2 exactly.  n = 1 is checked against a tensor
    quadrature of the one-cell density (to 1e-6 in log at a = 0.8 .. 4);
    n = 2 and 3 were checked only by importance sampling, to 5e-4 in log
    at a = 1 and 2.  A non-integer n, a non-finite a and a log Z_n beyond
    the float range are refused."""
    n = check_int(n, "n", 1)
    check_weight(a)
    try:
        out = ((3.5 * n + 1 - (3 * n + 1) * a) * math.log(2.0)
               + 0.5 * (3 * n + 1) * math.log(math.pi)
               + 3 * n * math.lgamma(a) - 3 * math.lgamma(a + 0.5)
               - (2 * n - 2) * math.lgamma(0.5 * (3 * a + 1)))
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InputRefused(f"log Z_n is not a finite float at n={n}, a={a}")
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
    """Grid, kernels, leading triples and boundary vectors bundled for the chain formulas."""

    def __init__(self, grid: TransferGrid, a: float):
        self.grid = grid
        self.a = a
        self._ops: dict = {}
        self._triples: dict = {}

    def op(self, eta: float, tag: str = "one") -> OperatorMatrix:
        key = (round(eta, 12), tag)
        if key not in self._ops:
            plain = self.op(eta) if tag == "gamma" else None
            self._ops[key] = assemble_kernel(self.grid, self.a, eta, tag, plain=plain)
        return self._ops[key]

    def triple(self, eta: float, seed: int = 0) -> EigenTriple:
        """The plain kernel's leading triple, solved once per (eta, seed)."""
        key = (round(eta, 12), seed)
        if key not in self._triples:
            self._triples[key] = leading_triple(self.op(eta), seed=seed)
        return self._triples[key]

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
    n = check_int(n, "n", 2)
    j, i = check_int(j, "j", 0, n - 1), check_int(i, "i", 1, n - 1)
    k_mid = ctx.op(0.0 if i <= j else 0.25, tag)  # first: assemble_kernel refuses an unknown tag
    ops = [ctx.op(0.0 if m <= j else 0.25) for m in range(1, n)]
    k_i = ops[i - 1]
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
    n = check_int(n, "n", 1)
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
        triple = ctx.triple(eta, seed)
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
