import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ladderlab.environment import SpinConfig, h_total
from ladderlab.ladder import InputRefused, LadderError
from ladderlab.mcmc import (
    McmcConfig,
    environment_from_spin,
    observable,
    sample_chain,
    sign_disagreement_rate,
    tail_estimate,
)
from ladderlab.rng import RngSpec
from ladderlab.stats import batch_means_error


def small_batch(n=4, samples=4000, seed=0, deform_j=0, burn_in=800, thinning=2, **kw):
    cfg = McmcConfig(n=n, a=1.0, deform_j=deform_j, burn_in=burn_in,
                     thinning=thinning, samples=samples, rng=RngSpec(seed), **kw)
    return sample_chain(cfg)


def _quadrature_mean_xlo(a=1.0):
    """Independent dense-grid oracle for the single-cell chain.

    The chain energy splits as left(z0 | cell) + right(cell | z1), so the
    posterior mean of the lower cell field is a ratio of 4-d tensor
    quadratures, evaluated axis by axis.
    """
    nodes_x, weights_x = np.polynomial.legendre.leggauss(120)
    nodes_z, weights_z = np.polynomial.legendre.leggauss(120)

    def scale(nodes, weights, lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return mid + half * nodes, half * weights

    xg, xw = scale(nodes_x, weights_x, -9.0, 26.0)
    zg, zw = scale(nodes_z, weights_z, -9.0, 26.0)

    xlo = xg[:, None, None]
    xhi = xg[None, :, None]
    u = 0.5 * (xlo + xhi)
    num = 0.0
    den = 0.0
    for t in "ABCD":
        z0 = zg[None, None, :]
        h_left = a * np.logaddexp(xhi, z0) + (a + 0.5) * (np.logaddexp(xlo, z0) - u - z0)
        h_left = h_left + 0.25 * (np.exp(-xlo) + np.exp(-xhi)) + 0.5 * np.exp(-z0) + 0.25 * u
        if t == "A":
            h_left = h_left + 0.5 * u
        elif t == "B":
            h_left = h_left + z0 - 0.5 * u
        elif t == "C":
            h_left = h_left + 0.5 * xlo
        else:
            h_left = h_left + 0.5 * xhi
        gl = np.exp(-h_left) @ zw

        zn = zg[None, None, :]
        h_right = (a + 0.5) * (np.logaddexp(xlo, zn) + np.logaddexp(xhi, zn) - u - zn)
        h_right = h_right + 0.25 * (np.exp(-xlo) + np.exp(-xhi)) + 0.5 * np.exp(-zn) - 0.25 * u
        if t == "A":
            h_right = h_right + zn - 0.5 * u
        elif t == "B":
            h_right = h_right + 0.5 * u
        elif t == "C":
            h_right = h_right + 0.5 * xlo
        else:
            h_right = h_right + 0.5 * xhi
        gr = np.exp(-h_right) @ zw

        joint = gl * gr * xw[:, None] * xw[None, :]
        den += joint.sum()
        num += (joint * xg[:, None]).sum()
    return num / den


def test_mean_matches_quadrature_oracle():
    oracle = _quadrature_mean_xlo()
    batch = small_batch(n=1, samples=40_000, burn_in=2000, thinning=2, seed=3)
    est = float(batch.xlo[:, 0].mean())
    err = batch_means_error(batch.xlo[:, 0])
    assert abs(est - oracle) < 3 * err
    assert err < 0.1


@pytest.mark.parametrize("m", [4, 5, 8, 9, 16])
def test_batch_means_error_is_finite_from_four_samples(m):
    # from m = 4 on, blocks of max(2, floor(sqrt(m))) samples leave at least two blocks
    err = batch_means_error(np.random.default_rng(m).standard_normal(m))
    assert math.isfinite(err) and err > 0


def test_reproducibility():
    b1 = small_batch(samples=500, seed=11)
    b2 = small_batch(samples=500, seed=11)
    assert np.array_equal(b1.xlo, b2.xlo)
    assert np.array_equal(b1.t, b2.t)


def test_all_samples_admissible():
    batch = small_batch(n=6, samples=2000, seed=5)
    assert batch.admissible()
    assert np.all(np.abs(batch.sigma) == 1)


def test_acceptance_rates_reasonable():
    batch = small_batch(n=4, samples=3000, seed=7)
    for c in ("z0", "x", "z", "gamma", "zn"):
        assert 0.15 <= batch.acceptance[c] <= 0.85, (c, batch.acceptance)
    assert batch.warnings == []


def test_detailed_balance_on_logged_proposals():
    batch = small_batch(n=3, samples=30, seed=13, debug_log_moves=60)
    cfg = batch.config
    assert len(batch.proposal_log) >= 50
    checked = 0
    for rec in batch.proposal_log:
        before, proposed = rec["before"], rec["proposed"]
        h_b = h_total(before, cfg.a, cfg.deform_j)
        h_p = h_total(proposed, cfg.a, cfg.deform_j)
        scale = max(1.0, abs(h_b), abs(h_p))
        assert abs((h_p - h_b) - rec["delta_h"]) <= 1e-12 * scale
        checked += 1
    assert checked >= 50


def _same_spin(s1, s2) -> bool:
    return all(np.array_equal(getattr(s1, f), getattr(s2, f))
               for f in ("z0", "xlo", "xhi", "sigma", "t", "z", "gamma", "zn"))


@pytest.mark.parametrize("n", [1, 3])
def test_move_log_is_a_chain(n):
    """Every state change passes the sampler's one decision point, the
    single-cell sign coin included, so each logged move starts from the
    outcome of the move logged before it."""
    batch = small_batch(n=n, samples=30, seed=13, debug_log_moves=60)
    log = batch.proposal_log
    assert len(log) == 60
    if n == 1:
        assert any(rec["kind"] == "sigma" for rec in log)
    for prev, rec in zip(log, log[1:]):
        outcome = prev["proposed"] if prev["accepted"] else prev["before"]
        assert _same_spin(rec["before"], outcome), (prev["kind"], rec["kind"])


def test_logging_leaves_the_chain_unchanged():
    """The decision point writes a record only while logging is on: a chain
    that logs nothing, 60 moves or more than all of its moves is the same
    chain, bit for bit."""
    plain, some, every = (small_batch(n=3, samples=30, seed=13, debug_log_moves=m)
                          for m in (0, 60, 10**6))
    assert (len(plain.proposal_log), len(some.proposal_log)) == (0, 60)
    assert 60 < len(every.proposal_log) < 10**6
    for batch in (some, every):
        assert golden_summary(batch) == golden_summary(plain)


def test_observable_refuses_indices_outside_the_chain():
    batch = small_batch(n=3, samples=50, seed=5)
    assert np.array_equal(observable(batch, "Xhi", 3), batch.xhi[:, 2])
    assert np.array_equal(observable(batch, "Gamma", 2), batch.gamma[:, 1])
    for name, last in (("Xlo", 3), ("Xhi", 3), ("Z", 2), ("Gamma", 2), ("log_y_ratio", 2)):
        for bad in (0, -1, last + 1, None):
            with pytest.raises(LadderError, match="outside"):
                observable(batch, name, bad)
        with pytest.raises(LadderError, match="outside"):
            tail_estimate(batch, name, [0.5, 1.0], i=0)
    with pytest.raises(LadderError, match="unknown observable"):
        observable(batch, "W", 1)


def test_sign_statistics():
    batch = small_batch(n=8, samples=8000, seed=17)
    for i in (1, 4, 7):
        stat = sign_disagreement_rate(batch, i)
        assert 0.05 < stat["rate"] <= 1.0
        assert abs(stat["identity_residual"]) < 3 * stat["residual_err"]
    with pytest.raises(LadderError):
        sign_disagreement_rate(batch, 8)


def test_tail_estimates_log_linear():
    batch = small_batch(n=8, samples=12_000, seed=19)
    for name in ("Gamma", "Z", "Xlo"):
        curve = tail_estimate(batch, name, [0.5, 1.0, 1.5, 2.0, 3.0, 4.0], i=4)
        assert curve.slope is not None and curve.slope < 0
    curve = tail_estimate(batch, "log_y_ratio", [0.5, 1.0, 2.0, 3.0], i=4)
    assert curve.slope is not None and curve.slope < 0


def test_tail_estimate_censoring_and_degeneracy():
    batch = small_batch(n=2, samples=500, seed=23)
    curve = tail_estimate(batch, "Gamma", [1.0, 50.0], i=1)
    assert 50.0 in curve.censored
    const = batch
    const.sigma[:] = 1
    deg = tail_estimate(const, "Gamma", [1.0, 2.0], i=1)
    assert not deg.degenerate  # gamma still varies
    zero = small_batch(n=2, samples=50, seed=29)
    zero.gamma[:] = 0.7
    deg2 = tail_estimate(zero, "Gamma", [0.1, 0.5], i=1)
    assert deg2.degenerate


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tail_estimate_refuses_non_finite_thresholds(bad):
    batch = small_batch(n=2, samples=50, seed=23)
    with pytest.raises(InputRefused, match="thresholds must be finite"):
        tail_estimate(batch, "Gamma", [1.0, bad], i=1)


def _split_rhat(v1, v2):
    """Potential scale reduction over two chains, each split in half."""
    half = min(v1.size, v2.size) // 2
    chains = np.stack([v1[:half], v1[half:2 * half], v2[:half], v2[half:2 * half]])
    within = chains.var(axis=1, ddof=1).mean()
    between = half * chains.mean(axis=1).var(ddof=1)
    var_plus = (half - 1) / half * within + between / half
    return math.sqrt(var_plus / within)


def test_two_chains_agree():
    # dispersed starts: plain and shifted; means must agree within 3 sigma
    # and the scale-reduction statistic must stay near 1
    disp = SpinConfig(
        z0=4.0, xlo=np.full(4, -3.0), xhi=np.full(4, 3.0), sigma=np.array([1, -1, 1, -1]),
        t="DDDD", z=np.full(3, 2.0), gamma=np.full(3, -2.0), zn=-4.0,
    )
    b1 = small_batch(n=4, samples=12_000, seed=31)
    b2 = small_batch(n=4, samples=12_000, seed=37, init=disp)
    for name, i in (("Xlo", 2), ("Gamma", 2), ("Z0", None)):
        v1, v2 = observable(b1, name, i), observable(b2, name, i)
        se = math.hypot(batch_means_error(v1), batch_means_error(v2))
        assert abs(v1.mean() - v2.mean()) < 3.5 * se, (name, v1.mean(), v2.mean(), se)
        assert _split_rhat(v1, v2) < 1.1, name


def test_deformation_by_reweighting():
    # importance-reweighting the undeformed chain reproduces deformed means
    n, j = 6, 4
    base = small_batch(n=n, samples=20_000, seed=41)
    sig_j = 0.25 * base.gamma[:, :j].sum(axis=1)
    w = np.exp(-sig_j)
    w /= w.sum()
    direct = small_batch(n=n, samples=20_000, seed=43, deform_j=j)
    for i in (1, 3):
        reweighted = float(np.sum(w * base.gamma[:, i - 1]))
        target = float(direct.gamma[:, i - 1].mean())
        se = batch_means_error(direct.gamma[:, i - 1])
        # reweighting inflates variance; allow a generous band
        assert abs(reweighted - target) < 6 * se + 0.05


def test_deformed_energy_matches_h_total():
    batch = small_batch(n=5, samples=50, seed=47, deform_j=3)
    omega = batch.spin(10)
    assert math.isfinite(h_total(omega, 1.0, 3))
    shift = 0.25 * float(np.sum(omega.gamma[:3]))  # the -gamma/4 of the three relaxed couplings
    assert h_total(omega, 1.0, 3) - h_total(omega, 1.0, 0) == pytest.approx(shift, abs=1e-10)


def test_environment_from_spin():
    zero = SpinConfig(
        z0=0.0, xlo=np.zeros(3), xhi=np.zeros(3), sigma=np.ones(3, dtype=int),
        t="CCC", z=np.zeros(2), gamma=np.zeros(2), zn=0.0,
    )
    w = environment_from_spin(zero)
    assert np.allclose(w.values, 1.0)
    batch = small_batch(n=3, samples=20, seed=53)
    w2 = environment_from_spin(batch.spin(5))
    assert w2.values[0] == 1.0 and np.all(w2.values > 0)


def test_config_validation():
    with pytest.raises(LadderError):
        McmcConfig(n=0, a=1.0)
    with pytest.raises(LadderError):
        McmcConfig(n=4, a=1.0, deform_j=4)
    with pytest.raises(LadderError):
        McmcConfig(n=4, a=-1.0)
    # a negative move-log length used to pass and log nothing
    with pytest.raises(InputRefused, match="debug_log_moves must be >= 0"):
        McmcConfig(n=2, a=1.0, debug_log_moves=-3)


@pytest.mark.parametrize("name", ["n", "deform_j", "burn_in", "thinning", "samples",
                                  "debug_log_moves"])
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_config_refuses_non_integer_counts(name, bad):
    # samples=2.5 used to pass the config and fail inside NumPy; thinning=True ran
    with pytest.raises(InputRefused, match=f"^{name}=.* outside the range: {name} must be"):
        McmcConfig(**{"n": 4, "a": 1.0, name: bad})


def test_config_accepts_numpy_integers():
    counts = dict(n=np.int64(3), deform_j=np.int32(1), burn_in=np.int64(20),
                  thinning=np.int16(1), samples=np.uint8(10), debug_log_moves=np.int64(5))
    batch = sample_chain(McmcConfig(a=1.0, rng=RngSpec(3), **counts))
    assert batch.size == 10 and len(batch.proposal_log) == 5


@pytest.mark.parametrize("field, value", [
    ("z0", -800.0),  # left boundary energy overflows
    ("zn", -800.0),  # right boundary energy overflows
    ("z", np.array([-800.0, 0.0])),  # coupling energy overflows (signs differ)
])
def test_zero_density_init_is_refused(field, value):
    # such a start used to freeze: every move out of it computed inf - inf
    start = dict(z0=0.0, xlo=np.zeros(3), xhi=np.zeros(3), sigma=np.array([1, -1, 1]), t="CCC",
                 z=np.zeros(2), gamma=np.zeros(2), zn=0.0)
    start[field] = value
    cfg = McmcConfig(n=3, a=1.0, burn_in=10, samples=60, thinning=1, init=SpinConfig(**start))
    with pytest.raises(LadderError, match="non-finite boundary or coupling energy"):
        sample_chain(cfg)


# Fixed-seed sampler outputs: any change in the floating-point order of an
# energy, the RNG draws of a sweep, the site order or the burn-in tuning
# shows here.  Small chains store every value, n = 8 and 12 a SHA-256 digest
# of each array's bytes.
MCMC_GOLDEN = json.loads((Path(__file__).parent / "mcmc_golden.json").read_text())

_GOLDEN_INIT = SpinConfig(
    z0=1.5, xlo=np.array([-2.0, 0.5, 3.0]), xhi=np.array([2.0, -1.0, 0.25]),
    sigma=np.array([1, -1, -1]), t="DAC", z=np.array([1.0, -0.5]),
    gamma=np.array([-1.5, 2.0]), zn=-2.5,
)
GOLDEN_CHAINS = {
    "n1": dict(n=1, a=1.0, seed=101),
    "n2_a0.7": dict(n=2, a=0.7, seed=102),
    "n3_j1_init": dict(n=3, a=1.0, seed=103, deform_j=1, init=_GOLDEN_INIT),
    "n8": dict(n=8, a=1.0, seed=108, samples=300),
    "n12_j10_a0.7": dict(n=12, a=0.7, seed=112, deform_j=10, samples=300),
}


def _golden_batch(n, a, seed, samples=60, **kw):
    return sample_chain(McmcConfig(n=n, a=a, burn_in=200, thinning=2, samples=samples,
                                   rng=RngSpec(seed), **kw))


def _number(v):
    """JSON-safe float: non-finite values as their repr."""
    return v if math.isfinite(v) else repr(v)


def golden_summary(batch) -> dict:
    arrays = {"z0": batch.z0, "zn": batch.zn, "xlo": batch.xlo, "xhi": batch.xhi,
              "sigma": batch.sigma, "t": batch.t, "z": batch.z, "gamma": batch.gamma}
    if batch.config.n <= 3:
        out = {k: v.tolist() for k, v in arrays.items()}
    else:
        out = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in arrays.items()}
    out["tuned_scales"] = batch.tuned_scales
    out["acceptance"] = {k: _number(v) for k, v in batch.acceptance.items()}
    return out


def golden_move_log(batch) -> list:
    return [[rec["kind"], _number(rec["delta_h"]), rec["accepted"]] for rec in batch.proposal_log]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
def test_sample_chain_golden(name):
    assert golden_summary(_golden_batch(**GOLDEN_CHAINS[name])) == MCMC_GOLDEN[name]


def test_proposal_log_golden():
    batch = small_batch(n=3, samples=30, seed=13, debug_log_moves=60)
    assert golden_move_log(batch) == MCMC_GOLDEN["move_log"]
