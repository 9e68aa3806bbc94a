from fractions import Fraction

import numpy as np
import pytest

from ladderlab import network
from ladderlab.ladder import EdgeWeights, LadderError, build
from ladderlab.network import effective_resistance, escape_probability, shorted_resistance


def _nodal_oracle(values, n):
    """Exact resistance by rational Gaussian elimination on the reduced
    weighted Laplacian (independent of the production solver)."""
    graph = build(n)
    vals = [Fraction(v) for v in values]
    far = {graph.vertex(n, 1), graph.vertex(n, 2)}
    nodes = [v for v in range(graph.num_vertices) if v not in far]
    index = {v: k for k, v in enumerate(nodes)}
    size = len(nodes)
    lap = [[Fraction(0)] * size for _ in range(size)]
    rhs = [Fraction(0)] * size
    for e, (_, u, v) in enumerate(graph.edges):
        cu, cv = u in far, v in far
        if cu and cv:
            continue
        c = vals[e]
        if cu or cv:
            inner = v if cu else u
            lap[index[inner]][index[inner]] += c
        else:
            iu, iv = index[u], index[v]
            lap[iu][iu] += c
            lap[iv][iv] += c
            lap[iu][iv] -= c
            lap[iv][iu] -= c
    src = index[graph.vertex(0, 2)]
    rhs[src] = Fraction(1)
    # solve exactly
    for col in range(size):
        piv = next(r for r in range(col, size) if lap[r][col] != 0)
        lap[col], lap[piv] = lap[piv], lap[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1) / lap[col][col]
        lap[col] = [v * inv for v in lap[col]]
        rhs[col] *= inv
        for r in range(size):
            if r != col and lap[r][col] != 0:
                f = lap[r][col]
                lap[r] = [a - f * b for a, b in zip(lap[r], lap[col])]
                rhs[r] -= f * rhs[col]
    return rhs[src]


def test_unit_ladder_resistance():
    res = effective_resistance(np.ones(4), 1)
    assert res.resistance == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert res.conductance == pytest.approx(1.5, abs=1e-12)
    assert res.harmonic_defect < 1e-10


def test_two_cell_resistance_matches_rational_oracle():
    res = effective_resistance(np.ones(7), 2)
    oracle = _nodal_oracle([1] * 7, 2)
    assert oracle == Fraction(13, 11)
    assert res.resistance == pytest.approx(float(oracle), abs=1e-12)


def test_resistance_matches_oracle_on_random_weights():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        vals = rng.uniform(0.2, 5.0, size=3 * n + 1)
        frac_vals = [Fraction(v).limit_denominator(10**6) for v in vals]
        res = effective_resistance(np.array([float(f) for f in frac_vals]), n)
        oracle = _nodal_oracle(frac_vals, n)
        assert res.resistance == pytest.approx(float(oracle), rel=1e-9)


def test_resistance_scaling():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        vals = rng.uniform(0.1, 4.0, size=3 * n + 1)
        r1 = effective_resistance(vals, n).resistance
        r2 = effective_resistance(2.0 * vals, n).resistance
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-10)


def test_shorted_resistance_values():
    assert shorted_resistance(np.ones(4), 1) == pytest.approx(0.5)
    assert shorted_resistance(np.ones(7), 2) == pytest.approx(1.0)


def test_shorted_below_effective():
    rng = np.random.default_rng(15)
    for _ in range(500):
        n = int(rng.integers(1, 21))
        vals = np.exp(rng.uniform(-3, 3, size=3 * n + 1))
        assert shorted_resistance(vals, n) <= effective_resistance(vals, n).resistance + 1e-12


def test_escape_probability_values():
    assert escape_probability(np.ones(4), 1) == pytest.approx(0.75, abs=1e-12)
    assert escape_probability(np.ones(7), 2) == pytest.approx(11.0 / 26.0, abs=1e-12)


def test_escape_probability_in_unit_interval():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        vals = np.exp(rng.uniform(-4, 4, size=3 * n + 1))
        p = escape_probability(vals, n)
        assert 0.0 <= p <= 1.0


def test_inequality_chain_unit_start():
    # escape <= conductance <= inverse shorted resistance <= last-level sum
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        vals = np.exp(rng.uniform(-2.5, 2.5, size=3 * n + 1))
        vals[0] = 1.0
        x = EdgeWeights(vals, normalization="rung-zero-unit")
        q = escape_probability(x, n)
        c = effective_resistance(x, n).conductance
        inv_short = 1.0 / shorted_resistance(x, n)
        tail = x.lower(n) + x.upper(n)
        assert q <= c + 1e-12
        assert c <= inv_short + 1e-12
        assert inv_short <= tail + 1e-12


def test_weight_length_mismatch():
    with pytest.raises(LadderError):
        effective_resistance(np.ones(7), 1)


def _loop_solve(values, n):
    """The edge-by-edge Laplacian loop and index-gathered solve that the
    cached-plan scatter replaced, kept as a bit-exact oracle."""
    graph = build(n)
    far = {graph.vertex(n, 1), graph.vertex(n, 2)}
    nodes = [v for v in range(graph.num_vertices) if v not in far]
    index = {v: k for k, v in enumerate(nodes)}
    merged = len(nodes)
    for v in far:
        index[v] = merged
    size = merged + 1
    lap = np.zeros((size, size))
    for e, (_, u, v) in enumerate(graph.edges):
        iu, iv = index[u], index[v]
        if iu == iv:
            continue
        c = values[e]
        lap[iu, iu] += c
        lap[iv, iv] += c
        lap[iu, iv] -= c
        lap[iv, iu] -= c
    source = index[graph.vertex(0, 2)]
    ground = size - 1
    keep = [k for k in range(size) if k != ground]
    rhs = np.zeros(size)
    rhs[source] = 1.0
    potentials = np.zeros(size)
    potentials[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], rhs[keep])
    residual = lap @ potentials
    residual[source] -= 1.0
    residual[ground] = 0.0
    resistance = float(potentials[source])
    shorted = float(sum(1.0 / (float(values[3 * i - 2]) + float(values[3 * i - 1]))
                        for i in range(1, n + 1)))
    x_start = float(sum(values[e] for e, _ in graph.incident[graph.vertex(0, 2)]))
    escape = float(min(max((1.0 / resistance) / x_start, 0.0), 1.0))
    return resistance, potentials, float(np.max(np.abs(residual))), shorted, escape


def test_plan_scatter_is_bit_identical_to_the_edge_loop():
    rng = np.random.default_rng(12)
    # sizes cycle 1..24 in shuffled rounds, so each size is revisited after
    # others have been solved (cached plans must not leak between sizes)
    sizes = np.concatenate([rng.permutation(np.arange(1, 25)) for _ in range(25)])
    for k, n in enumerate(sizes):
        vals = np.exp(rng.uniform(-6, 6, size=3 * int(n) + 1))
        n_arg = n if k % 2 else int(n)  # np.int64 and int sizes
        res = effective_resistance(vals, n_arg)
        r, pot, defect, shorted, escape = _loop_solve(vals, int(n))
        assert res.resistance == r
        assert res.conductance == 1.0 / r
        assert np.array_equal(res.potentials, pot)
        assert res.harmonic_defect == defect
        assert res.escape == escape
        assert shorted_resistance(vals, n_arg) == shorted
        assert escape_probability(vals, n_arg) == escape


def test_plan_is_cached_per_size_and_read_only():
    plan = network._plan(5)
    assert network._plan(5) is plan
    assert plan.size == 2 * 5 + 1 and plan.corner == (0, 2)
    for arr in (plan.flat, plan.edge, plan.sign):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # one np.int64 size shares the int size's plan
    before = network._plan.cache_info().hits
    effective_resistance(np.ones(16), np.int64(5))
    assert network._plan.cache_info().hits == before + 1


def test_invalid_sizes_still_rejected():
    for bad in (0, -1, 2.0, True, "2"):
        with pytest.raises(LadderError):
            effective_resistance(np.ones(7), bad)
        with pytest.raises(LadderError):
            escape_probability(np.ones(7), bad)
        with pytest.raises(LadderError):
            shorted_resistance(np.ones(7), bad)
    with pytest.raises(LadderError, match="weights are for n=2, requested n=3"):
        escape_probability(np.ones(7), 3)


def test_one_solve_per_escape_and_per_resistance_row(tmp_path, monkeypatch):
    """``escape_probability`` solves once, and ``ladderlab resistance`` takes
    R, C and the escape probability of each weighting from one solve."""
    from ladderlab.cli import run

    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda lhs, rhs: solves.append(lhs.shape) or solve(lhs, rhs))
    assert escape_probability(np.ones(7), 2) == pytest.approx(11.0 / 26.0, abs=1e-12)
    assert len(solves) == 1
    out = tmp_path / "rr.csv"
    assert run(["resistance", "--n", "3", "--random-weights", "40", "--format", "csv",
                "--out", str(out)]) == 0
    assert len(solves) == 1 + 40
