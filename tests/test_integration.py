"""Cross-module consistency: sampler environments feed the network and walk
modules, and operator formulas meet Monte Carlo estimates."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import ladderlab
from ladderlab import mcmc, network, transfer, walk
from ladderlab.ladder import build
from ladderlab.rng import RngSpec
from ladderlab.stats import batch_means_error, linear_fit


@pytest.fixture(scope="module")
def batch_n4():
    return mcmc.sample_chain(mcmc.McmcConfig(
        n=4, a=1.0, deform_j=0, burn_in=3000, thinning=2, samples=20_000,
        rng=RngSpec(55),
    ))


@pytest.fixture(scope="module")
def batch_n8():
    return mcmc.sample_chain(mcmc.McmcConfig(
        n=8, a=1.0, deform_j=0, burn_in=3000, thinning=2, samples=20_000,
        rng=RngSpec(56),
    ))


def test_return_bound_replication(batch_n4):
    """Walk return frequencies dominate the sampled-environment bound."""
    g = build(4)
    replicas = 4000
    counts = walk.returns_before_far_end_detailed([4], 1.0, 3, RngSpec(60), replicas)[0][:, 0]
    sub = range(0, batch_n4.size, batch_n4.size // 600)
    escapes = np.array([
        network.escape_probability(mcmc.environment_from_spin(batch_n4.spin(k)), 4)
        for k in sub
    ])
    for k in (1, 2, 3):
        frac = float(np.mean(counts >= k))
        frac_err = math.sqrt(frac * (1 - frac) / replicas)
        bound = float(np.mean((1.0 - escapes) ** k))
        bound_err = float(np.std((1.0 - escapes) ** k) / math.sqrt(escapes.size))
        assert frac >= bound - 3 * math.hypot(frac_err, bound_err), (k, frac, bound)


def test_sigma_moment_importance_cross_check(batch_n8):
    """Operator separation moments match reweighted sampler estimates."""
    grid = transfer.build_grid(transfer.GridParams(
        nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48), a=1.0)
    ctx = transfer.TransferContext(grid, 1.0)
    prof = transfer.sigma_moment_profile(ctx, 8)
    for j in (2, 4, 6):
        op_val = math.exp(prof[j])
        obs = np.exp(-0.25 * batch_n8.gamma[:, :j].sum(axis=1))
        est = float(obs.mean())
        err = batch_means_error(obs)
        assert abs(est - op_val) < 4 * err, (j, op_val, est, err)


def test_sampled_environment_decay(batch_n8):
    """Median log lower-edge weight decreases affinely along the ladder."""
    sub = range(0, batch_n8.size, batch_n8.size // 2000)
    logs = []
    for k in sub:
        x = mcmc.environment_from_spin(batch_n8.spin(k))
        logs.append([math.log(x.lower(i)) for i in range(1, 9)])
    med = np.median(np.array(logs), axis=0)
    slope, _, r2 = linear_fit(np.arange(1, 9), med)
    assert slope < 0
    assert r2 > 0.9
    assert np.all(np.diff(med) < 0)


def test_environment_weights_always_pin_the_left_rung(batch_n8):
    for k in (0, 7, 123):
        x = mcmc.environment_from_spin(batch_n8.spin(k))
        assert x.values[0] == 1.0


def test_escape_frequency_on_sampled_environment(batch_n8):
    """Monte Carlo first-passage frequency matches the network formula on a
    randomly drawn environment."""
    g = build(8)
    x = mcmc.environment_from_spin(batch_n8.spin(1234))
    exact = network.escape_probability(x, 8)
    reps = 4000
    freq = walk.escape_frequency(g, x, RngSpec(61), reps)
    sigma = math.sqrt(max(exact * (1 - exact), 1e-6) / reps)
    assert abs(freq - exact) < 4 * sigma


@pytest.mark.parametrize("name", ["ladderlab"] + [f"ladderlab.{m.name}"
                                                  for m in pkgutil.iter_modules(ladderlab.__path__)])
def test_every_export_resolves(name):
    # a deletion must take its name out of __all__ too
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
