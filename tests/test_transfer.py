import decimal
import math
import tracemalloc

import numpy as np
import pytest

from ladderlab.environment import left_energy, middle_energy, right_energy
from ladderlab.ladder import InputRefused, LadderError
from ladderlab.stats import linear_fit
from ladderlab.transfer import (
    GridParams,
    TransferContext,
    assemble_kernel,
    axis_rates,
    boundary_vector,
    build_grid,
    chain_expectation,
    leading_triple,
    log_mass,
    sigma_moment_profile,
    symmetry_defect,
)

A = 1.0


@pytest.fixture(scope="module")
def grid():
    return build_grid(GridParams(), a=A)


@pytest.fixture(scope="module")
def ctx(grid):
    return TransferContext(grid, A)


SMALL = GridParams(nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48)


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(SMALL, a=A)


@pytest.fixture(scope="module")
def odd_grid():
    return build_grid(GridParams(nx_core=7, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48), a=A)


def test_build_grid_reports_conservative_radius(grid):
    # the uniform-rate box would be ~32 ln(1e8); the per-axis radii are far sharper
    assert grid.conservative_radius == pytest.approx(32.0 * math.log(1e8), rel=1e-12)
    req = grid.tail_report["required"]
    assert req["x_hi"] < grid.conservative_radius
    assert abs(req["z_lo"]) < grid.conservative_radius


def test_build_grid_rejects_small_radii():
    with pytest.raises(LadderError, match="x_hi"):
        build_grid(GridParams(x_hi=10.0), a=A)
    with pytest.raises(LadderError, match="z_lo"):
        build_grid(GridParams(z_lo=-20.0), a=A)
    with pytest.raises(LadderError, match="at least 8"):
        build_grid(GridParams(nx_core=4, nx_tail=2), a=A)


def test_grid_structure(grid):
    assert grid.size == 8 * grid.nx * grid.nx
    assert np.all(grid.x_weights > 0) and np.all(grid.z_weights > 0)
    # shift nodes symmetric about zero: the swap reflection is representable
    assert np.allclose(grid.v_nodes, -grid.v_nodes[::-1])
    assert np.allclose(grid.v_weights, grid.v_weights[::-1])
    total = grid.x_weights.sum()
    assert total == pytest.approx(grid.params.x_hi - grid.params.x_lo, rel=1e-12)
    hw = grid.shift_halfwidth(np.array([-30.0, 0.0, 10.0]))
    assert hw[0] < 1e-5 and hw[1] == pytest.approx(grid.params.w_core)
    assert hw[2] < grid.params.w_half


def test_axis_rates_values():
    r = axis_rates(1.0)
    assert r["x_plus"] == pytest.approx(0.875)
    assert r["z_minus"] == pytest.approx(0.5)
    with pytest.raises(LadderError):
        axis_rates(0.5)


def test_kernel_zero_pattern(ctx, grid):
    sym = ctx.op(0.25).dense()
    nxx = grid.nx * grid.nx
    a_rows = slice(0, 2 * nxx)
    b_cols = slice(2 * nxx, 4 * nxx)
    assert np.all(sym[a_rows, b_cols] == 0.0)
    rest = sym.copy()
    rest[a_rows, b_cols] = 1.0
    assert np.all(rest > 0.0)


def test_kernel_matches_scalar_energy_on_grid_nodes(small_grid):
    """Assembled entries equal the scalar-energy sum over the grid's own
    rung nodes: validates the table factorization against the scalar path."""
    from ladderlab.transfer import _rung_nodes

    sw = small_grid.sqrt_w
    kv = assemble_kernel(small_grid, A, 0.25).dense() / sw[:, None] / sw  # raw kernel values
    nx = small_grid.nx
    z, w, qw = _rung_nodes(small_grid)

    rng = np.random.default_rng(1)

    def sidx(t, s, i, k):
        return ((t * 2 + s) * nx + i) * nx + k

    for _ in range(8):
        t, t2 = int(rng.integers(4)), int(rng.integers(4))
        if (t, t2) == (0, 1):
            t2 = 3
        s, s2 = int(rng.integers(2)), int(rng.integers(2))
        i, j, k, l = (int(v) for v in rng.integers(0, nx, size=4))
        xlo, xhi = small_grid.x_nodes[i], small_grid.x_nodes[k]
        xlo2, xhi2 = small_grid.x_nodes[j], small_grid.x_nodes[l]
        sig, sig2 = 1 - 2 * s, 1 - 2 * s2
        u, u2 = 0.5 * (xlo + xhi), 0.5 * (xlo2 + xhi2)
        gam = w - (u2 - u)
        vals = np.array([
            middle_energy(xlo, xhi, sig, t, zz, g, xlo2, xhi2, sig2, t2, A, 0.25)
            for zz, g in zip(z, gam)
        ])
        total = float(np.sum(qw * np.exp(-vals)))
        got = kv[sidx(t, s, i, k), sidx(t2, s2, j, l)]
        assert got == pytest.approx(total, rel=1e-11), (t, t2, s, s2, i, j, k, l)


def test_reflection_identities(ctx, grid):
    # the letter swap A <-> B on the state blocks, fields and sign fixed
    perm = np.arange(grid.size).reshape(4, 2, -1)[[1, 0, 2, 3]].reshape(-1)
    for eta in (0.0, 0.25):
        sym = ctx.op(eta).dense()
        plain_neg = assemble_kernel(grid, A, -eta)
        neg = plain_neg.dense()
        assert np.allclose(sym, neg[np.ix_(perm, perm)].T, rtol=1e-12, atol=1e-300)
        g_sym = ctx.op(eta, "gamma").dense()
        g_neg = assemble_kernel(grid, A, -eta, "gamma", plain=plain_neg).dense()
        scale = np.max(np.abs(g_sym))
        assert np.max(np.abs(g_sym + g_neg[np.ix_(perm, perm)].T)) < 1e-13 * scale


def test_leading_triple_properties(ctx):
    tri = ctx.triple(0.0)
    assert tri.value > 0
    assert np.all(tri.left > 0) and np.all(tri.right > 0)
    assert tri.residual_left < 1e-10 and tri.residual_right < 1e-10
    assert 0 < tri.gap < 1
    sw = ctx.grid.sqrt_w
    assert float((tri.left * sw) @ (tri.right * sw)) == pytest.approx(1.0, rel=1e-12)


def test_rank_one_convergence(ctx):
    # powers of the normalized operator converge to the spectral projector
    tri = ctx.triple(0.0)
    sym = ctx.op(0.0).dense()
    sw = ctx.grid.sqrt_w
    u_left = tri.left * sw
    u_right = tri.right * sw
    rng = np.random.default_rng(3)
    x = rng.standard_normal(sym.shape[0])
    errs = []
    vec = x.copy()
    for m in range(1, 25):
        vec = vec @ sym / tri.value
        limit = u_left * float(x @ u_right)
        errs.append(np.linalg.norm(vec - limit))
    ratios = [errs[i + 1] / errs[i] for i in range(15, 23)]
    assert max(ratios) < 1.0
    assert np.mean(ratios) == pytest.approx(tri.gap, abs=0.08)


def test_boundary_vector_positive_and_stable(grid):
    for side in ("left", "right"):
        g = boundary_vector(grid, A, side)
        assert np.all(g > 0)
        norm = float(np.linalg.norm(g * grid.sqrt_w))
        assert math.isfinite(norm)
        # refinement in the boundary quadrature only
        import dataclasses

        p2 = dataclasses.replace(grid.params, nzb=2 * grid.params.nzb)
        grid2 = build_grid(p2, a=A)
        g2 = boundary_vector(grid2, A, side)
        assert np.max(np.abs(g2 - g) / np.abs(g)) < 1e-4


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundary_vector_matches_scalar_energy_on_grid_nodes(small_grid, side):
    """Entries equal the quadrature of the scalar boundary energy over the
    grid's own boundary rung nodes, for every letter and both signs."""
    g = boundary_vector(small_grid, A, side)
    nx = small_grid.nx
    rng = np.random.default_rng(2)
    for t in range(4):
        for _ in range(6):
            i, k = (int(v) for v in rng.integers(0, nx, size=2))
            xlo, xhi = small_grid.x_nodes[i], small_grid.x_nodes[k]
            if side == "left":
                vals = [left_energy(zb, xlo, xhi, t, A) for zb in small_grid.zb_nodes]
            else:
                vals = [right_energy(xlo, xhi, t, zb, A) for zb in small_grid.zb_nodes]
            want = float(small_grid.zb_weights @ np.exp(-np.array(vals)))
            for s in (0, 1):
                got = g[((t * 2 + s) * nx + i) * nx + k]
                assert got == pytest.approx(want, rel=1e-12), (t, s, i, k)


def test_boundary_vector_decay_envelope(grid):
    # tail decay of the boundary vector is at least the boundary growth rate
    g = boundary_vector(grid, A, "right").reshape(8, grid.nx, grid.nx)
    env = np.log(np.max(g, axis=(0, 2)))  # max over letters, signs, other field
    xs = grid.x_nodes
    sel = xs > 8.0
    slopes = np.diff(env[sel]) / np.diff(xs[sel])
    assert np.all(slopes < -1.0 / 12.0)


def test_boundary_vector_validation(grid):
    with pytest.raises(LadderError):
        boundary_vector(grid, 0.7, "left")
    with pytest.raises(LadderError):
        boundary_vector(grid, A, "middle")


@pytest.mark.parametrize("eta", [0.1, 0.25])
def test_leading_eigenvalue_is_even_in_eta(small_grid, eta):
    # lambda1(eta) = lambda1(-eta), so Lambda(eta) = log lambda1(eta) needs no eta < 0 solves
    plus, minus = (leading_triple(assemble_kernel(small_grid, A, s * eta)).value for s in (1, -1))
    assert abs(plus - minus) <= 1e-13 * plus


def test_cumulant_curve_is_even_and_convex(small_grid):
    # Lambda(eta) = log lambda1(eta) on a grid in [-1/4, 1/4]: even to the
    # last bits, and its chord slopes increase
    etas = (-0.25, -0.1, 0.0, 0.1, 0.25)
    lam = [math.log(leading_triple(assemble_kernel(small_grid, A, eta)).value) for eta in etas]
    for k in range(2):
        assert abs(lam[k] - lam[-1 - k]) <= 1e-13 * abs(lam[k])
    slopes = [(lam[k + 1] - lam[k]) / (etas[k + 1] - etas[k]) for k in range(4)]
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:])), slopes


def test_operators_refuse_an_a_the_grid_was_not_built_for(small_grid):
    # build_grid refuses the default box at a = 0.8; a grid built at a = 1
    # must not carry an a = 0.8 operator past that truncation check
    with pytest.raises(LadderError, match="truncation too small"):
        build_grid(GridParams(), a=0.8)
    with pytest.raises(LadderError, match="grid built for a=1.0"):
        assemble_kernel(small_grid, 0.8, 0.0)
    for side in ("left", "right"):
        with pytest.raises(LadderError, match="grid built for a=1.0"):
            boundary_vector(small_grid, 0.8, side)
    with pytest.raises(LadderError, match="grid built for a=1.0"):
        TransferContext(small_grid, 0.8).triple(0.0)


def test_chain_expectation_unit_is_exact(ctx):
    assert chain_expectation(ctx, 8, 6, 3, tag="one") == 1.0
    assert chain_expectation(ctx, 8, 0, 4, tag="one") == 1.0


def test_chain_expectation_validation(ctx):
    with pytest.raises(LadderError):
        chain_expectation(ctx, 8, 6, 8)
    with pytest.raises(LadderError):
        chain_expectation(ctx, 8, 8, 3)


def test_chain_expectation_two_sided_decay(ctx):
    # with every coupling relaxed, the mean separation decays away from both
    # chain ends; fit the left-edge decay rate
    n = 16
    j = n - 1
    vals = np.array([chain_expectation(ctx, n, j, i) for i in range(1, 8)])
    assert np.all(np.abs(vals[1:]) < np.abs(vals[:-1]) + 1e-12)
    rates = np.log(np.abs(vals[:-1]) / np.abs(vals[1:]))
    assert np.all(rates[:4] > 0.5)


def _dense_bracket(ctx, etas, mid=None):
    """gl K_1 ... K_{n-1} gr with dense kernels at the couplings ``etas``; ``mid``
    = (position, tag) swaps in the ``tag`` kernel at one position."""
    v = ctx.gl_u
    for pos, eta in enumerate(etas, start=1):
        tag = mid[1] if mid is not None and mid[0] == pos else "one"
        v = v @ ctx.op(eta, tag).dense()
    return float(v @ ctx.gr_u)


@pytest.fixture(scope="module")
def small_ctx(small_grid):
    return TransferContext(small_grid, A)


@pytest.mark.parametrize("tag", ["one", "gamma"])
def test_chain_expectation_matches_dense_brackets(small_ctx, tag):
    """The one-contraction mean equals the ratio of the two forward brackets
    (numerator with the ``tag`` kernel at rung i, denominator without), each
    formed from dense kernels, for every (j, i) of a six-cell chain."""
    n = 6
    for j in range(n):
        etas = [0.0] * j + [0.25] * (n - j - 1)
        den = _dense_bracket(small_ctx, etas)
        for i in range(1, n):
            want = _dense_bracket(small_ctx, etas, (i, tag)) / den
            got = chain_expectation(small_ctx, n, j, i, tag)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (j, i, got, want)


def test_chain_expectation_makes_n_products(small_ctx, monkeypatch):
    # the two forward brackets took 2n - 2
    from ladderlab.transfer import OperatorMatrix

    calls = []

    def counted(product):
        def wrapper(self, v):
            calls.append(product.__name__)
            return product(self, v)
        return wrapper

    for name in ("vecmat", "matvec"):
        monkeypatch.setattr(OperatorMatrix, name, counted(getattr(OperatorMatrix, name)))
    for n, j, i in ((2, 0, 1), (6, 3, 1), (6, 3, 5), (12, 10, 5)):
        for tag in ("one", "gamma"):
            calls.clear()
            chain_expectation(small_ctx, n, j, i, tag)
            assert len(calls) == n, (n, j, i, tag)


def test_sigma_moment_j_zero_exact(ctx):
    assert sigma_moment_profile(ctx, 1).tolist() == [0.0]
    for n in (0, -2):
        with pytest.raises(LadderError, match="n >= 1"):
            sigma_moment_profile(ctx, n)


def test_sigma_moment_profile_decay(ctx):
    prof = sigma_moment_profile(ctx, 30)
    assert prof[0] == 0.0
    assert np.all(np.diff(prof) < 0)  # log moment strictly decreasing
    slope, _, r2 = linear_fit(np.arange(5, 26), prof[5:26])
    assert slope < 0
    assert r2 > 0.99


def test_sigma_moment_profile_matches_dense_brackets(small_ctx):
    # exp(profile[j]) is the bracket with j zero couplings over the one with none
    n = 8
    prof = sigma_moment_profile(small_ctx, n)
    den = _dense_bracket(small_ctx, [0.25] * (n - 1))
    for j in range(n):
        want = _dense_bracket(small_ctx, [0.0] * j + [0.25] * (n - j - 1)) / den
        assert math.exp(prof[j]) == pytest.approx(want, rel=1e-12)


def _weighted_pair(ctx, eta):
    """The leading triple at ``eta`` and its left and right eigenvectors in
    weighted form, as ``symmetry_defect`` pairs them."""
    triple = ctx.triple(eta)
    return triple, triple.left * ctx.grid.sqrt_w, triple.right * ctx.grid.sqrt_w


def test_separation_moment_constant_is_the_triples_plateau(ctx):
    # log C_n = max_j (profile_n[j] + rho j) rises with n to a plateau that the
    # two leading triples give in closed form; the last point has its own form
    t0, l0, r0 = _weighted_pair(ctx, 0.0)
    tq, lq, rq = _weighted_pair(ctx, 0.25)
    gl, gr = ctx.gl_u, ctx.gr_u
    rho = math.log(tq.value / t0.value)
    plateau = math.log((gl @ r0) * (l0 @ rq) / ((gl @ rq) * (l0 @ r0)))
    end = math.log((gl @ r0) * (l0 @ gr) * (lq @ rq) / ((gl @ rq) * (lq @ gr) * (l0 @ r0)))
    prof = sigma_moment_profile(ctx, 128)
    assert abs(prof[64] + 64 * rho - plateau) < 1e-10
    assert abs(prof[127] + 127 * rho - end) < 1e-10
    log_c = [float(np.max(sigma_moment_profile(ctx, n) + rho * np.arange(n)))
             for n in (2, 4, 8, 16, 32, 64, 128)]
    # nondecreasing up to the rounding of the profile's log scales; on the
    # plateau successive values differ by about 1e-13
    assert np.all(np.diff(log_c) > -1e-12)
    assert max(log_c) <= plateau + 1e-10


def test_hellmann_feynman_slope_is_the_bulk_gamma_mean(small_ctx):
    # <l, K_gamma r> / (lambda1 <l, r>) is the mean of gamma deep inside a
    # chain with every coupling at 1/4
    triple, left, right = _weighted_pair(small_ctx, 0.25)
    slope = float(small_ctx.op(0.25, "gamma").vecmat(left) @ right) / (triple.value
                                                                        * float(left @ right))
    assert slope == pytest.approx(chain_expectation(small_ctx, 40, 0, 20, "gamma"), rel=1e-12)


@pytest.mark.parametrize("a, ratio", [(1.0, 7.874805), (2.0, 0.08912456), (0.8, 22.81347),
                                      (0.7, 40.67912)])
def test_log_mass_ratio_is_the_exact_leading_eigenvalue(a, ratio):
    # Z_{n+1} / Z_n = lambda1(1/4) does not depend on n
    ratios = [math.exp(log_mass(n + 1, a) - log_mass(n, a)) for n in range(1, 9)]
    assert max(ratios) - min(ratios) <= 1e-12 * ratios[0]
    assert ratios[0] == pytest.approx(ratio, rel=1e-6)


def test_log_mass_validation():
    # 2.5 cells used to return 6.09 and a = inf NaN
    for n in (0, 2.5, True):
        with pytest.raises(InputRefused, match="integer n >= 1"):
            log_mass(n, 1.0)
    for a in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputRefused, match="a must be finite and > 0"):
            log_mass(2, a)
    with pytest.raises(InputRefused, match="not a finite float"):  # was an OverflowError
        log_mass(2, 1e308)
    assert log_mass(np.int64(2), 1.0) == log_mass(2, 1.0)


def test_symmetry_defect(ctx):
    d = symmetry_defect(ctx)
    assert d["defect"] < 1e-8
    assert d["control_quarter"] > 1e-3  # the quarter coupling breaks the symmetry
    assert d["residual"] < 1e-10


def test_symmetry_defect_asymmetric_grid_control():
    # asymmetric node placement (full window, uneven panels) makes the
    # defect visible as pure quadrature error, which refinement shrinks
    from ladderlab.transfer import _panel_gauss

    defects = []
    for nv in (16, 48):
        p = GridParams(nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=nv, nzb=48)
        g = build_grid(p, a=A)
        n1 = (2 * nv) // 3
        vn, vw = _panel_gauss([(-1.0, 0.25, n1), (0.25, 1.0, nv - n1)])
        object.__setattr__(g, "v_nodes", vn)
        object.__setattr__(g, "v_weights", vw)
        ctx2 = TransferContext(g, A)
        defects.append(symmetry_defect(ctx2)["defect"])
    assert defects[0] > 1e-10  # visibly nonzero on the uneven grid
    assert defects[1] < 0.2 * defects[0]


def test_hilbert_schmidt_norm_finite(ctx, grid):
    for eta in (0.0, 0.25):
        hs = ctx.op(eta).hs_norm()
        assert math.isfinite(hs) and hs > 0
    kg = ctx.op(0.0, "gamma")
    assert math.isfinite(kg.hs_norm())


def test_apply_right_matches_matrix(ctx, grid):
    rng = np.random.default_rng(7)
    f = rng.random(grid.size)
    out = ctx.op(0.0).apply_right(f)
    sw = grid.sqrt_w
    kv = ctx.op(0.0).dense() / sw[:, None] / sw  # raw kernel values
    w = sw**2
    direct = (f * w) @ kv
    assert np.allclose(out, direct, rtol=1e-10)


def _kernel(grid, eta, tag):
    """The operator of ``tag``; the gamma kernel is built from the plain one."""
    plain = assemble_kernel(grid, A, eta)
    return plain if tag == "one" else assemble_kernel(grid, A, eta, tag, plain=plain)


@pytest.mark.parametrize("tag", ["one", "gamma"])
@pytest.mark.parametrize("eta", [-0.25, 0.0, 0.25])
def test_factorized_products_match_dense(small_grid, odd_grid, tag, eta):
    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    for grid in (small_grid, odd_grid, _rule_grid("partly-mirrored")):  # nx = 12, 11 and 8
        op = _kernel(grid, eta, tag)
        dense = op.dense()
        sw = grid.sqrt_w
        gen = np.random.default_rng(11)
        f = gen.standard_normal(grid.size)
        many = gen.standard_normal((3, grid.size))
        assert rel(op.apply_right(f), ((f * sw) @ dense) / sw) < 1e-13
        assert rel(op.matvec(f * sw) / sw, (dense @ (f * sw)) / sw) < 1e-13
        assert op.vecmat(many).shape == op.matvec(many).shape == many.shape
        for got, want in zip(op.vecmat(many), many @ dense):
            assert rel(got, want) < 1e-13
        for got, want in zip(op.matvec(many), many @ dense.T):
            assert rel(got, want) < 1e-13
        assert op.hs_norm() == pytest.approx(np.linalg.norm(dense), rel=1e-13)
        assert rel(np.concatenate(list(op.kernel_rows())) * np.outer(sw, sw), dense) < 1e-13


def test_gamma_kernel_reuses_plain_cores(small_grid):
    plain = assemble_kernel(small_grid, A, 0.25)
    gamma = assemble_kernel(small_grid, A, 0.25, "gamma", plain=plain)
    assert gamma.left is plain.left and gamma.right is plain.right
    with pytest.raises(LadderError, match="plain operator"):
        assemble_kernel(small_grid, A, 0.25, "gamma")
    with pytest.raises(LadderError, match="plain operator"):
        assemble_kernel(small_grid, A, 0.0, "gamma", plain=plain)
    with pytest.raises(LadderError, match="plain operator"):
        assemble_kernel(small_grid, A, 0.25, "gamma", plain=gamma)


@pytest.mark.parametrize("eta, lam_ref, ratio_ref",
                         [(0.0, 7.174309147472, 0.322276), (0.25, 7.845132018405, 0.313309)])
def test_leading_triple_anchors(ctx, eta, lam_ref, ratio_ref):
    # lambda1 and |lambda2|/lambda1 from dense eigvals on the default grid at a=1
    tri = ctx.triple(eta)
    assert tri.value == pytest.approx(lam_ref, rel=1e-9)
    assert tri.gap == pytest.approx(ratio_ref, abs=1e-6)
    assert tri.gap_residual < 1e-10
    assert 0 < tri.gap_iterations < 2_000


def _direct_cores(grid, eta, tag):
    """Reference cores: every rung node summed on its own, no mirror pairing
    and no dropped rows, straight into the (i, k), (j, l) core layout."""
    from ladderlab.transfer import _rung_nodes

    nx = grid.nx
    x = grid.x_nodes
    cell_w = np.sqrt(np.outer(grid.x_weights, grid.x_weights))
    u = 0.5 * (x[:, None] + x[None, :]).reshape(-1)
    z, w, qw = _rung_nodes(grid)
    one = np.zeros((2, 2, 2, nx, nx, nx, nx))
    shift = np.zeros_like(one)
    for zn, wn, q in zip(z, w, qw):
        lse = np.logaddexp(np.logaddexp(x[:, None] + 0.5 * wn, x[None, :] - 0.5 * wn), zn)
        f = np.exp(-0.5 * (3 * A + 1) * lse) * cell_w  # f[i, j] * cell weight (i, j)
        outer = np.einsum("ij,kl->ikjl", f, f)
        rho = q * np.exp((A + 0.5) * zn + eta * wn)
        sign = {1: np.exp(-2 * np.exp(-zn) * np.sinh(0.25 * wn) ** 2),
                0: np.exp(-2 * np.exp(-zn) * np.cosh(0.25 * wn) ** 2)}
        for is_a, is_b, same in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1)):
            c = rho * sign[same]
            c *= np.exp(-(zn - 0.5 * wn)) if is_a else 1.0
            c *= np.exp(-(zn + 0.5 * wn)) if is_b else 1.0
            one[is_a, is_b, same] += c * outer
            shift[is_a, is_b, same] += c * wn * outer
    one = one.reshape(2, 2, 2, nx * nx, nx * nx)
    if tag == "one":
        return one
    return shift.reshape(one.shape) + u[:, None] * one - one * u[None, :]


def _shift_rule(kind):
    """Shift nodes and weights on [-1, 1]: Gauss-Legendre with an even or odd
    count (the odd one has an unpaired node at 0), the uneven rule of the
    asymmetric control (no mirror pairs) and a rule mirrored only on its
    middle panel (pairs and unpaired nodes at once)."""
    from ladderlab.transfer import _panel_gauss

    if kind == "even":
        return np.polynomial.legendre.leggauss(8)
    if kind == "odd":
        return np.polynomial.legendre.leggauss(9)
    if kind == "asymmetric":
        return _panel_gauss([(-1.0, 0.25, 6), (0.25, 1.0, 3)])
    return _panel_gauss([(-1.0, -0.5, 3), (-0.5, 0.5, 4), (0.5, 1.0, 2)])


def _rule_grid(kind):
    """A grid with nx = 8 and the shift rule ``kind``."""
    vn, vw = _shift_rule(kind)
    g = build_grid(GridParams(nx_core=5, nx_tail=3, nz_core=6, nz_tail=3, nv=vn.size, nzb=16), a=A)
    object.__setattr__(g, "v_nodes", vn)
    object.__setattr__(g, "v_weights", vw)
    return g


@pytest.mark.parametrize("tag", ["one", "gamma"])
def test_partner_is_the_stored_core_where_the_letter_swap_is_exact(ctx, small_ctx, tag):
    """At eta = 0 with mirrored shift nodes the B-column cores are C[1, 0]
    read transposed: no partner array, four stored cores.  At eta = 1/4,
    and on shift rules with unpaired nodes off w = 0, the partner is
    assembled: six cores."""
    def half_core_bytes(g):
        return g.nx * (g.nx + 1) // 2 * g.nx**2 * 8

    for c in (ctx, small_ctx):
        op = c.op(0.0, tag)
        assert np.shares_memory(op.partner, op.sym[1])
        assert op.sym.nbytes == 4 * half_core_bytes(c.grid)
        quarter = c.op(0.25, tag)
        assert not np.shares_memory(quarter.partner, quarter.sym[:2])
        assert quarter.sym.nbytes == 6 * half_core_bytes(c.grid)
    # the odd rule's unpaired nodes sit at w = 0; the other two have some off it
    for kind, exact in (("odd", True), ("asymmetric", False), ("partly-mirrored", False)):
        op = _kernel(_rule_grid(kind), 0.0, tag)
        assert np.shares_memory(op.partner, op.sym[:2]) == exact
        assert op.sym.shape[0] == (2 if exact else 3)


@pytest.mark.parametrize("kind", ["even", "odd", "asymmetric", "partly-mirrored"])
@pytest.mark.parametrize("tag", ["one", "gamma"])
@pytest.mark.parametrize("eta", [-0.25, 0.0, 0.25])
def test_cores_match_direct_sum(kind, tag, eta, monkeypatch):
    from ladderlab import transfer
    from ladderlab.transfer import _mirror_pairs, _rung_nodes, _sign_factors

    g = _rule_grid(kind)
    vn = g.v_nodes
    pos, neg, single = _mirror_pairs(g)
    assert sorted(np.concatenate([pos, neg, single])) == list(range(g.z_nodes.size * vn.size))
    assert (pos.size > 0) == (kind != "asymmetric") and (single.size > 0) == (kind != "even")
    want = _direct_cores(g, eta, tag)
    # one slab, then six rung nodes per slab (each slab multiplied as built
    # and swapped): the first slab of the sign-mismatch cores is all zero
    z, w, _ = _rung_nodes(g)
    first = (pos if pos.size else single)[:6]
    assert np.all(_sign_factors(z[first], w[first])[1] == 0.0)
    for chunk in (transfer._RUNG_CHUNK, 6):
        monkeypatch.setattr(transfer, "_RUNG_CHUNK", chunk)
        op = _kernel(g, eta, tag)
        got = np.array([[[op.full_core(is_a, is_b, same) for same in (0, 1)] for is_b in (0, 1)]
                        for is_a in (0, 1)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the rail swap (i, k), (j, l) -> (k, i), (l, j) leaves every core as it is,
    # which is what lets the operator store half the rows
    nx = g.nx
    swapped = want.reshape(2, 2, 2, nx, nx, nx, nx).transpose(0, 1, 2, 4, 3, 6, 5)
    assert np.max(np.abs(swapped.reshape(want.shape) - want)) <= 1e-15 * np.max(np.abs(want))


def _lse_table(x, z, w, a):
    """Oracle of the cell-pair table: exp(-(3a+1)/2 lse(x_i + w/2, x_j - w/2, z))
    per rung node and cell pair, the log-sum-exp taken in 40-digit decimal
    arithmetic."""
    out = np.empty((z.size, x.size, x.size))
    with decimal.localcontext() as dc:
        dc.prec = 40
        dec = decimal.Decimal
        power = -dec(3 * a + 1) / 2
        for n, (zn, wn) in enumerate(zip(z, w)):
            lo = [(dec(v) + dec(wn) / 2).exp() for v in x]
            hi = [(dec(v) - dec(wn) / 2).exp() for v in x]
            ez = dec(zn).exp()
            for i in range(x.size):
                for j in range(x.size):
                    out[n, i, j] = float((power * (lo[i] + hi[j] + ez).ln()).exp())
    return out.reshape(z.size, -1)


@pytest.mark.parametrize("params, a", [(SMALL, A), (GridParams(), A), (GridParams().doubled(), A),
                                       (SMALL, 28.0)],
                         ids=["small", "default", "doubled", "small-a28"])
def test_cell_pair_table_matches_log_sum_exp(params, a):
    from ladderlab.transfer import _cell_pair_table, _rung_nodes

    g = build_grid(params, a=a)
    z, w, _ = _rung_nodes(g)
    rows = np.linspace(0, z.size - 1, 6).astype(int)  # both ends of z and of w
    got = _cell_pair_table(g.x_nodes, z[rows], w[rows], a)
    want = _lse_table(g.x_nodes, z[rows], w[rows], a)
    normal = want >= np.finfo(float).tiny  # at a=28 part of the table underflows
    assert normal.mean() > 0.5 and np.all(got[~normal] < np.finfo(float).tiny)
    # the power (3a+1)/2 amplifies the rounding of the exponents x +- w/2
    err = np.abs(got[normal] - want[normal]) / want[normal]
    assert np.max(err) <= 1e-14 * max(1.0, (3 * a + 1) / 4)
    if params == SMALL:  # the row at -w is the row at w with the cell pair swapped
        nx = g.nx
        pair = _cell_pair_table(g.x_nodes, z[rows], -w[rows], a)
        assert np.array_equal(pair, got.reshape(-1, nx, nx).transpose(0, 2, 1).reshape(got.shape))


@pytest.mark.parametrize("nx", [1, 2, 7, 9, 24])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fold_mirrors_matches_dense_transpose(nx, sign):
    """Random cores with the rail-swap symmetry, expanded to full nx²×nx²
    matrices: the in-place self-partner fold of both sign slots gives the
    half rows of C + sign·Cᵀ, bit for bit, since both make one addition per
    entry."""
    from ladderlab import transfer

    half = transfer._half_rows(nx)
    full = np.random.default_rng(nx).standard_normal((2, nx * nx, nx * nx))
    full += full[..., half.swap, :][..., half.swap]  # C[(i,k),(j,l)] = C[(k,i),(l,j)]
    cores = full[..., half.up, :].copy()
    transfer._fold_mirrors(cores, sign, half)
    want = full + sign * full.swapaxes(-1, -2)
    assert np.array_equal(cores, want[..., half.up, :])


def test_add_products_matches_dense_gram_on_scattered_rows():
    """Cores whose live rows are not one run (four sharing a live set, so
    their group is split, one alone, one all zero) against the dense Gram
    sum table.T @ diag(coef) @ table, read at the stored half rows: core row
    (i, k), column (j, l) is Gram entry ((i, j), (k, l))."""
    from ladderlab import transfer

    nx, rows = 5, 11
    gen = np.random.default_rng(3)
    table = gen.random((rows, nx * nx))
    shared = np.array([1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0], dtype=bool)
    coefs = [gen.random(rows) * shared for _ in range(4)]
    coefs += [-gen.random(rows) * (np.arange(rows) % 3 == 1), np.zeros(rows)]
    half = transfer._half_rows(nx)
    outs = [np.zeros((half.up.size, nx * nx)) for _ in coefs]
    transfer._add_products(table, list(zip(outs, coefs)))
    for out, coef in zip(outs, coefs):
        gram = ((table.T * coef) @ table).reshape(nx, nx, nx, nx)
        want = gram.transpose(0, 2, 1, 3).reshape(nx * nx, nx * nx)[half.up]
        assert np.max(np.abs(out - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_doubled_assembly_allocates_the_operator_plus_one_slab():
    """No nx^4 Gram or full-core copy: on the doubled grid the assembly
    allocates at most 24 MB beyond the cores it returns, and at eta = 0 it
    returns four cores."""
    g = build_grid(GridParams().doubled(), a=A)
    tracemalloc.start()
    try:
        op = assemble_kernel(g, A, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= op.sym.nbytes + 24e6, (peak / 1e6, op.sym.nbytes / 1e6)
    # four stored half-row cores (820 rows of 1600 cells): the B-column cores
    # are the stored A-row cores read transposed, not copies
    assert op.sym.nbytes <= 4 * 820 * 1600 * 8
