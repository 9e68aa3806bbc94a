"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and match the package contracts; the
heavy statistical criteria reuse module-scoped sampler batches.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ladderlab import certificates, environment, ladder, mcmc, network, transfer, walk
from ladderlab.ladder import EdgeWeights
from ladderlab.rng import RngSpec
from ladderlab.stats import batch_means_error, linear_fit


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} | {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def ctx():
    grid = transfer.build_grid(transfer.GridParams(), a=1.0)
    return transfer.TransferContext(grid, 1.0)


def _batch(n, j, samples, seed, thinning=2):
    return mcmc.sample_chain(mcmc.McmcConfig(
        n=n, a=1.0, deform_j=j, burn_in=4000, thinning=thinning,
        samples=samples, rng=RngSpec(seed),
    ))


@pytest.fixture(scope="module")
def batch_n8():
    return _batch(8, 0, 40_000, 1001)


@pytest.fixture(scope="module")
def batch_n16():
    return _batch(16, 0, 50_000, 1003)


# ---------------------------------------------------------------------------


def test_c01_tree_bijection():
    ok = True
    counts = []
    for n in range(1, 9):
        images = set()
        for code in ladder.all_codes(n):
            mask = ladder.tree_decode(code)
            images.add(mask)
            if ladder.tree_encode(mask, n).states != code.states:
                ok = False
        mt = ladder.matrix_tree_count(n)
        counts.append(mt)
        ok = ok and len(images) == ladder.count_codes(n) == mt
    report(1, ok, f"spanning-tree counts n=1..8: {counts}")
    assert ok


def test_c02_gibbs_identity():
    per_combo = 1112
    worst = environment.gibbs_identity_sweep(np.random.default_rng(7), per_combo)
    ok = worst < 1e-9
    report(2, ok, f"max |residual| = {worst:.3e} over {9 * per_combo} configs (< 1e-9)")
    assert ok


def test_c03_scaling_law():
    worst = environment.scaling_law_residual(np.random.default_rng(11), 10_000)
    ok = worst < 1e-12
    report(3, ok, f"max relative residual = {worst:.3e} over 10^4 draws (< 1e-12)")
    assert ok


def _rwre_quadrature(nodes_per_axis: int, lo: float = -20.0, hi: float = 18.0):
    """Tensor quadrature of the weight density on the single-cell ladder.

    Log-weight axes for the three free edges; the auxiliary variable is
    Gaussian given the weights, so its integral is the closed-form width
    factor.  Returns a callable giving the posterior mean of any
    per-weight-point path factor.
    """
    gl_n, gl_w = np.polynomial.legendre.leggauss(nodes_per_axis)
    u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gl_n
    uw = 0.5 * (hi - lo) * gl_w
    u1 = u[:, None, None]
    u2 = u[None, :, None]
    u3 = u[None, None, :]
    x1, x2, x3 = np.exp(u1), np.exp(u2), np.exp(u3)
    a = 1.0
    # vertex weights with the left rung pinned to 1
    v01 = 1.0 + x1  # lower-left corner
    v02 = 1.0 + x2  # upper-left corner (the walk starts here)
    v11 = x1 + x3
    v12 = x2 + x3
    a11 = 1.0 + 1.0 / x1 + 1.0 / x2 + 1.0 / x3
    log_pref = (
        (a - 1.5) * (u1 + u2 + u3)
        - (a + 0.5) * np.log(v01) - a * np.log(v02)
        - (a + 0.5) * (np.log(v11) + np.log(v12))
        + 0.5 * (np.log(2 * np.pi) - np.log(a11))
        + (u1 + u2 + u3)  # log-axis measure
    )
    tree_logs = {"A": u1 + u2, "B": u1 + u2 + u3, "C": u2 + u3, "D": u1 + u3}
    weight = sum(np.exp(log_pref + tl) for tl in tree_logs.values())
    weight = weight * uw[:, None, None] * uw[None, :, None] * uw[None, None, :]
    total = float(weight.sum())

    def mean_of_path(path_edges):
        """path_edges: list of (edge symbol, from-vertex symbol)."""
        arrs = {"z0": 1.0, "xlo": x1, "xhi": x2, "z1": x3}
        verts = {"0l": v01, "0u": v02, "1l": v11, "1u": v12}
        factor = 1.0
        for edge, frm in path_edges:
            factor = factor * arrs[edge] / verts[frm]
        return float((weight * factor).sum()) / total

    return mean_of_path


def test_c04_rwre_representation():
    g = ladder.build(1)
    sym = {g.vertex(0, 1): "0l", g.vertex(0, 2): "0u", g.vertex(1, 1): "1l", g.vertex(1, 2): "1u"}
    edge_name = {g.rung_index(0): "z0", g.lower_index(1): "xlo",
                 g.upper_index(1): "xhi", g.rung_index(1): "z1"}

    # density sanity: the quadrature prefactor must match the production
    # density at a few points before it is trusted as the oracle
    gen = np.random.default_rng(3)
    for _ in range(25):
        vals = np.exp(gen.uniform(-3, 3, size=4))
        vals[0] = 1.0
        for code in "ABCD":
            direct = environment.log_phi(EdgeWeights(vals), [0.0], code, 1.0)
            u1, u2, u3 = np.log(vals[1]), np.log(vals[2]), np.log(vals[3])
            v01, v02 = 1 + vals[1], 1 + vals[2]
            v11, v12 = vals[1] + vals[3], vals[2] + vals[3]
            tree = {"A": u1 + u2, "B": u1 + u2 + u3, "C": u2 + u3, "D": u1 + u3}[code]
            manual = (-0.5 * (u1 + u2 + u3) + tree
                      - 1.5 * math.log(v01) - math.log(v02)
                      - 1.5 * (math.log(v11) + math.log(v12)))
            assert direct == pytest.approx(manual, rel=1e-12)

    mean_of_path = _rwre_quadrature(120)
    mean_check = _rwre_quadrature(140, lo=-24.0, hi=20.0)

    start = g.vertex(0, 2)
    # enumerate all paths of length 1..3
    all_paths = []
    frontier = [[start]]
    for _ in range(3):
        frontier = [p + [v] for p in frontier for _, v in g.incident[p[-1]]]
        all_paths.extend(frontier)

    worst = 0.0
    drift = 0.0
    for path in all_paths:
        exact = float(walk.path_probability_errw(g, path, 1))
        path_edges = [(edge_name[g.edge_between(u, v)], sym[u])
                      for u, v in zip(path[:-1], path[1:])]
        quad = mean_of_path(path_edges)
        worst = max(worst, abs(exact - quad))
        drift = max(drift, abs(quad - mean_check(path_edges)))
    ok = worst < 1e-3 and drift < 1e-5
    report(4, ok, f"max |exact - quadrature| = {worst:.2e} over {len(all_paths)} paths "
                  f"(< 1e-3); refinement drift {drift:.1e}")
    assert ok


def test_c05_minorant_certificate():
    rep = certificates.verify_linear_minorant()
    all_zero = all(
        r == "0" for pair in rep.details["residuals"].values() for r in pair.values()
    )
    sums_ok = True
    for t, t2 in certificates.PAIRS:
        c = certificates.minorant_certificate(t, t2)
        sums_ok = sums_ok and all(v >= 0 for v in c.all_ten())
        sums_ok = sums_ok and c.alpha_lo + c.beta_lo + c.gamma_lo == 1
        sums_ok = sums_ok and c.kappa_lo + c.kappa_hi == Fraction(1, 4)
        sums_ok = sums_ok and c.kappa_lo2 + c.kappa_hi2 == Fraction(1, 4)
    ok = rep.passed and all_zero and sums_ok
    report(5, ok, "15 pairs x 6 variables, all residuals exactly 0 in rational arithmetic")
    assert ok


def test_c06_bound_certificates(batch_n8):
    # realistic extra points for the coupling bound from the sampler
    i = 3
    extra = [
        batch_n8.xlo[:, i - 1], batch_n8.xhi[:, i - 1],
        batch_n8.z[:, i - 1], batch_n8.gamma[:, i - 1],
        batch_n8.xlo[:, i], batch_n8.xhi[:, i],
    ]
    worst_mid = math.inf
    ok = True
    for a, eta in certificates.MIDDLE_CASES:
        rep = certificates.check_middle_bound(
            100_000, a, eta, rng=RngSpec(21), extra_points=extra)
        ok = ok and rep.passed
        worst_mid = min(worst_mid, rep.min_margin)
    worst_bnd = math.inf
    for a, side in certificates.BOUNDARY_CASES:
        rep = certificates.check_boundary_bound(100_000, a, side, rng=RngSpec(23))
        ok = ok and rep.passed
        worst_bnd = min(worst_bnd, rep.min_margin)
    report(6, ok, f"coupling bound min margin {worst_mid:.3e}, boundary min margin "
                  f"{worst_bnd:.3e} (both > -1e-9) over 10^5 samples + grid per config")
    assert ok


def test_c07_transfer_spectrum(ctx):
    ok = True
    details = []
    doubled_grid = transfer.build_grid(transfer.GridParams().doubled(), a=1.0)
    for eta in (0.0, 0.25):
        tri = ctx.triple(eta)
        k2 = transfer.assemble_kernel(doubled_grid, 1.0, eta)
        tri2 = transfer.leading_triple(k2)
        drift = abs(tri.value - tri2.value) / tri2.value
        ok = ok and tri.value > 0 and tri.residual_left < 1e-10 and tri.residual_right < 1e-10
        ok = ok and 0 < tri.gap < 1 and drift < 1e-4
        details.append(f"eta={eta}: lambda={tri.value:.6f} gap={tri.gap:.3f} "
                       f"resid={max(tri.residual_left, tri.residual_right):.1e} "
                       f"doubling drift={drift:.1e}")
    defect = transfer.symmetry_defect(ctx)
    ok = ok and defect["defect"] < 1e-8
    details.append(f"defect={defect['defect']:.1e} (control at quarter coupling: "
                   f"{defect['control_quarter']:.2e})")
    report(7, ok, "; ".join(details))
    assert ok


def test_c08_sigma_moment_decay(ctx):
    prof = transfer.sigma_moment_profile(ctx, 30)
    slope, _, r2 = linear_fit(np.arange(5, 26), prof[5:26])
    z0_exact = math.exp(prof[0])
    # in the bulk each level trades a factor lambda1(0) for lambda1(1/4)
    rate = -math.log(ctx.triple(0.25).value / ctx.triple(0.0).value)
    ok = prof[0] == 0.0 and z0_exact == 1.0 and slope < 0 and r2 > 0.99
    ok = ok and abs(slope - rate) < 1e-8
    report(8, ok, f"n=30: slope={slope:.4f} (<0), r2={r2:.6f} (>0.99), Z(30,0)={z0_exact} (=1), "
                  f"slope + log(lambda1(1/4)/lambda1(0)) = {slope - rate:.1e} (<1e-8)")
    assert ok


def test_c09_operator_mcmc_consistency(ctx, batch_n8):
    cases = [(8, 6, 3), (8, 0, 4), (12, 10, 5)]
    ok = True
    details = []
    for n, j, i in cases:
        op_val = transfer.chain_expectation(ctx, n, j, i, tag="gamma")
        if (n, j) == (8, 0):
            batch = batch_n8
        else:
            batch = _batch(n, j, 40_000, 2000 + n + j)
        col = batch.gamma[:, i - 1]
        est = float(col.mean())
        err = batch_means_error(col)
        agree = abs(est - op_val) < 3 * err
        ok = ok and agree
        details.append(f"(n={n},j={j},i={i}): op={op_val:.5f} mcmc={est:.5f}+-{err:.5f}")
    report(9, ok, "; ".join(details) + " | all within 3 sigma")
    assert ok


def test_c10_exponential_tails(batch_n8, batch_n16):
    thresholds = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    ok = True
    details = []
    for name in ("Gamma", "Z", "Xlo"):
        slopes = []
        for batch, n in ((batch_n8, 8), (batch_n16, 16)):
            for i in (2, n // 2, n - 2):
                curve = mcmc.tail_estimate(batch, name, thresholds, i=i)
                ok = ok and curve.slope is not None and curve.slope < 0
                slopes.append(curve.slope)
        center = float(np.median(slopes))
        spread = max(abs(s - center) / abs(center) for s in slopes)
        ok = ok and spread <= 0.25
        details.append(f"{name}: slopes {min(slopes):.2f}..{max(slopes):.2f} "
                       f"spread {100 * spread:.0f}%")
    report(10, ok, "; ".join(details) + " | negative, stable within 25%")
    assert ok


def test_c11_local_time_decay_profile():
    res = walk.profile_experiment(
        16, 1.0, 1_000_000, 200, RngSpec(4242), workers=2, fit_levels=(2, 12),
    )
    frac_tail = res.envelope_fraction[5:]  # levels 6..16
    # the share of replicas below the calibrated envelope must not shrink
    # along the ladder (tolerance covers binomial noise at 200 replicas)
    nondecreasing = bool(np.all(np.diff(res.envelope_fraction[4:]) >= -0.035))
    ok = (res.slope < 0 and res.r2 > 0.9 and bool(np.all(frac_tail >= 0.8))
          and nondecreasing)
    report(11, ok, f"n=16, t=1e6, 200 replicas: slope={res.slope:.3f} (<0), "
                   f"r2={res.r2:.3f} (>0.9), min envelope fraction i>=6: "
                   f"{frac_tail.min():.2f} (>=0.8), nondecreasing tail: {nondecreasing}")
    assert ok


def test_c12_escape_probabilities(batch_n8):
    exact1 = network.escape_probability(np.ones(4), 1)
    exact2 = network.escape_probability(np.ones(7), 2)
    ok = abs(exact1 - 0.75) < 1e-12 and abs(exact2 - 11.0 / 26.0) < 1e-12

    # inequality chain on sampled environments
    step = max(1, batch_n8.size // 1000)
    violations = 0
    checked = 0
    for k in range(0, batch_n8.size, step):
        x = mcmc.environment_from_spin(batch_n8.spin(k))
        res = network.effective_resistance(x, 8)
        q, c = res.escape, res.conductance
        inv_short = 1.0 / network.shorted_resistance(x, 8)
        tail = x.lower(8) + x.upper(8)
        checked += 1
        if not (q <= c + 1e-12 and c <= inv_short + 1e-12 and inv_short <= tail + 1e-12):
            violations += 1
    ok = ok and violations == 0 and checked >= 1000

    gen = np.random.default_rng(31)
    r_violations = 0
    for _ in range(10_000):
        n = int(gen.integers(1, 21))
        vals = np.exp(gen.uniform(-3, 3, size=3 * n + 1))
        if network.shorted_resistance(vals, n) > network.effective_resistance(vals, n).resistance + 1e-12:
            r_violations += 1
    ok = ok and r_violations == 0
    report(12, ok, f"exact escapes 3/4 and 11/26; chain of bounds on {checked} sampled "
                   f"environments: {violations} violations; R >= shorted on 10^4 "
                   f"weightings: {r_violations} violations")
    assert ok


def test_c13_return_count_trend():
    levels = [4, 8, 16]
    ks = [1, 2, 4]
    replicas = 4000
    counts, undecided = walk.returns_before_far_end_detailed(
        levels, 1.0, max(ks), RngSpec(777), replicas)
    ok = undecided <= replicas // 100  # step-capped stragglers must stay rare
    rows = []
    for k in ks:
        fracs = [float(np.mean(counts[:, li] >= k)) for li in range(len(levels))]
        ok = ok and all(fracs[m] <= fracs[m + 1] + 1e-12 for m in range(len(fracs) - 1))
        ok = ok and fracs[-1] >= 0.9  # consistent with convergence to 1
        rows.append(f"k={k}: " + " <= ".join(f"{f:.4f}" for f in fracs))
    report(13, ok, "; ".join(rows) + f" | n={levels}, {replicas} coupled replicas, "
                   f"{undecided} step-capped")
    assert ok
