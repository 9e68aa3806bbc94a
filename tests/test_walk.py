import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ladderlab.ladder import EdgeWeights, InputRefused, LadderError, build
from ladderlab.network import escape_probability
from ladderlab.rng import RngSpec
from ladderlab.walk import (
    _BLOCK,
    _FIRST_BLOCK,
    _Uniforms,
    _advance,
    _step_table,
    errw_run,
    escape_frequency,
    local_time_profile,
    path_probability_errw,
    profile_experiment,
    returns_before_far_end_detailed,
    rwre_run,
)


def test_path_probability_exact_values():
    g = build(1)
    top = (0, 2)
    bottom = (0, 1)
    assert path_probability_errw(g, [top, bottom], 1) == Fraction(1, 2)
    assert path_probability_errw(g, [top, bottom, (1, 1)], 1) == Fraction(1, 6)
    assert path_probability_errw(g, [top, bottom, top], 1) == Fraction(1, 3)


def test_path_probability_float_mode():
    g = build(1)
    p = path_probability_errw(g, [(0, 2), (0, 1)], 1.5)
    assert isinstance(p, float)
    assert p == pytest.approx(0.5)


def test_path_probability_rejects_non_adjacent():
    g = build(2)
    with pytest.raises(LadderError):
        path_probability_errw(g, [(0, 2), (2, 2)], 1)


def test_path_probabilities_sum_to_one():
    # all length-3 paths from the corner partition the probability space
    g = build(2)
    total = Fraction(0)
    start = g.vertex(0, 2)

    def extend(path, depth):
        nonlocal total
        if depth == 3:
            total += path_probability_errw(g, path, 1)
            return
        for _, nxt in g.incident[path[-1]]:
            extend(path + [nxt], depth + 1)

    extend([start], 0)
    assert total == 1


def test_local_time_bookkeeping():
    g = build(3)
    trace = errw_run(g, 1.0, 5000, g.vertex(0, 2), RngSpec(1))
    assert int(trace.local_times.sum()) == 5000
    assert trace.local_times.min() >= 0


def test_determinism():
    g = build(4)
    t1 = errw_run(g, 1.0, 20_000, g.vertex(0, 2), RngSpec(42, 7))
    t2 = errw_run(g, 1.0, 20_000, g.vertex(0, 2), RngSpec(42, 7))
    assert np.array_equal(t1.local_times, t2.local_times)
    assert t1.position == t2.position
    assert t1.returns == t2.returns
    t3 = errw_run(g, 1.0, 20_000, g.vertex(0, 2), RngSpec(42, 8))
    assert not np.array_equal(t1.local_times, t3.local_times)


def test_first_step_is_fair_coin():
    g = build(1)
    hits = 0
    reps = 10_000
    for r in range(reps):
        trace = errw_run(g, 1.0, 1, g.vertex(0, 2), RngSpec(3, r))
        hits += trace.position == g.vertex(0, 1)
    p = hits / reps
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_errw_rejects_bad_arguments():
    g = build(1)
    with pytest.raises(LadderError):
        errw_run(g, 0.0, 10, 0, RngSpec(0))
    with pytest.raises(LadderError):
        errw_run(g, 1.0, 10, 99, RngSpec(0))


def test_cesaro_stabilization():
    g = build(2)
    short = errw_run(g, 1.0, 100_000, g.vertex(0, 2), RngSpec(11))
    long = errw_run(g, 1.0, 400_000, g.vertex(0, 2), RngSpec(11))
    a_short = short.local_times[g.rung_index(0)] / 100_000
    a_long = long.local_times[g.rung_index(0)] / 400_000
    assert abs(a_short - a_long) < 0.05


def test_rwre_edge_frequencies_match_stationary_law():
    # long-run crossing frequency of each edge is its weight share
    g = build(2)
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 2.0, size=7)
    x = EdgeWeights(vals)
    trace = rwre_run(g, x, 400_000, g.vertex(0, 2), RngSpec(19))
    expected = vals / vals.sum()
    assert np.max(np.abs(trace.local_times / 400_000 - expected)) < 0.01


def test_rwre_keeps_weights_fixed():
    g = build(1)
    x = EdgeWeights(np.ones(4))
    trace = rwre_run(g, x, 100, g.vertex(0, 2), RngSpec(2))
    assert int(trace.local_times.sum()) == 100
    assert np.array_equal(x.values, np.ones(4))


def test_rwre_uniform_corner_step():
    g = build(1)
    x = EdgeWeights(np.ones(4))
    p = sum(
        rwre_run(g, x, 1, g.vertex(0, 2), RngSpec(7, r)).position == g.vertex(0, 1)
        for r in range(10_000)
    ) / 10_000
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / 10_000)


def test_local_time_profile():
    g = build(4)
    trace = errw_run(g, 1.0, 100_000, g.vertex(0, 2), RngSpec(23))
    prof = local_time_profile(trace, g)
    assert [lvl for lvl, _ in prof] == [1, 2, 3, 4]
    assert all(r >= 0 and math.isfinite(r) for _, r in prof)
    prof_lower = local_time_profile(trace, g, representative="lower")
    assert len(prof_lower) == 4


def test_local_time_profile_needs_crossings():
    g = build(1)
    trace = errw_run(g, 1.0, 0, g.vertex(0, 2), RngSpec(0))
    with pytest.raises(LadderError):
        local_time_profile(trace, g)


def _return_oracle(k: int) -> Fraction:
    """Exact chance of k returns before leaving level 0, single-cell ladder.

    Every return crosses the left rung and raises its weight by one while
    both horizontals stay at weight 1, so the j-th return happens with
    chance (j)/(j+1) given the previous ones: the product telescopes."""
    p = Fraction(1)
    for j in range(1, k + 1):
        p *= Fraction(j, j + 1)
    return p


def test_return_statistics_single_cell_oracle():
    reps = 10_000
    for k in (1, 2, 3):
        counts, _ = returns_before_far_end_detailed([1], 1.0, k, RngSpec(31), reps)
        fraction = float(np.mean(counts[:, 0] >= k))
        oracle = float(_return_oracle(k))
        sigma = math.sqrt(oracle * (1 - oracle) / reps)
        assert abs(fraction - oracle) < 3 * sigma
    assert _return_oracle(1) == Fraction(1, 2)
    assert _return_oracle(2) == Fraction(1, 3)


def test_return_statistics_k_zero():
    # a zero return target or no level at all is refused before any walk runs
    with pytest.raises(LadderError, match="k_cap >= 1"):
        returns_before_far_end_detailed([2], 1.0, 0, RngSpec(0), 10)
    with pytest.raises(LadderError, match="one or more levels"):
        returns_before_far_end_detailed([], 1.0, 1, RngSpec(0), 10)


def test_returns_monotone_in_k_and_level():
    counts, _ = returns_before_far_end_detailed([2, 4], 1.0, 4, RngSpec(37), 2000)
    for k in (1, 2, 3, 4):
        frac = np.mean(counts >= k, axis=0)
        assert frac[0] <= frac[1] + 1e-12  # more room, more returns
    # nested events: nonincreasing in k at fixed level
    f = [np.mean(counts[:, 0] >= k) for k in (1, 2, 3, 4)]
    assert all(f[i] >= f[i + 1] for i in range(3))


def test_escape_frequency_matches_network():
    g = build(2)
    x = EdgeWeights(np.ones(7))
    reps = 10_000
    freq = escape_frequency(g, x, RngSpec(41), reps)
    exact = escape_probability(x, 2)
    assert exact == pytest.approx(11 / 26)
    assert abs(freq - exact) < 3 * math.sqrt(exact * (1 - exact) / reps)


def test_escape_frequency_raises_on_an_undecided_episode():
    # one step from the corner reaches neither the start nor the far end of n >= 2
    for n in (2, 3):
        with pytest.raises(LadderError, match="episode undecided after 1 steps"):
            escape_frequency(build(n), EdgeWeights(np.ones(3 * n + 1)), RngSpec(41), 5, step_cap=1)


def test_returns_count_replicas_undecided_at_the_step_cap():
    counts, undecided = returns_before_far_end_detailed((4,), 1.0, 3, RngSpec(7), 6, step_cap=1)
    assert undecided == 6
    assert counts.shape == (6, 1) and np.all((counts >= 0) & (counts <= 1))
    _, undecided = returns_before_far_end_detailed((4,), 1.0, 3, RngSpec(7), 6)
    assert undecided == 0


def test_returns_capped_on_the_last_allowed_step_are_decided():
    # with k_cap=1, a replica whose one allowed step is a return has its final count
    counts, undecided = returns_before_far_end_detailed((4,), 1.0, 1, RngSpec(7), 20, step_cap=1)
    assert int(np.sum(counts == 1)) == 5
    assert undecided == 15


def test_profile_experiment_smoke():
    res = profile_experiment(6, 1.0, 30_000, 24, RngSpec(43), fit_levels=(1, 4))
    assert res.log_ratios.shape == (24, 6)
    assert res.median_log_ratio.shape == (6,)
    assert math.isfinite(res.slope)
    assert math.isfinite(res.envelope_rate)
    assert res.envelope_fraction.shape == (6,)
    # by calibration, most replicas sit below the envelope on early levels
    assert res.envelope_fraction[:4].min() >= 0.5


@pytest.mark.parametrize("ranges", [
    dict(fit_levels=(3, 3)),
    dict(fit_levels=(6, 9)),  # clipped to 6..4
    dict(fit_levels=(0, 3)),
])
def test_profile_experiment_rejects_short_ranges(ranges):
    with pytest.raises(LadderError, match="range"):
        profile_experiment(4, 1.0, 2000, 4, RngSpec(47), **ranges)


def test_profile_experiment_worker_invariance():
    kwargs = dict(fit_levels=(1, 3))
    r1 = profile_experiment(4, 1.0, 5000, 8, RngSpec(47), workers=1, **kwargs)
    r2 = profile_experiment(4, 1.0, 5000, 8, RngSpec(47), workers=2, **kwargs)
    assert np.array_equal(r1.log_ratios, r2.log_ratios)


# Fixed-seed outputs of the walk entry points; any change in the step rule's
# floating-point order or in the uniform stream shows here.
GOLDEN = json.loads((Path(__file__).parent / "walk_golden.json").read_text())


def _assert_trace(trace, golden):
    assert trace.local_times.tolist() == golden["local_times"]
    assert trace.position == golden["position"]
    assert trace.returns == golden["returns"]


@pytest.mark.parametrize("a", [1.0, 0.3])
def test_errw_run_golden(a):
    g = build(16)
    trace = errw_run(g, a, 200_000, g.vertex(0, 2), RngSpec(61))
    _assert_trace(trace, GOLDEN[f"errw_a{a}"])


def test_rwre_run_golden():
    g = build(16)
    x = EdgeWeights(np.random.default_rng(5).uniform(0.5, 2.0, size=49))
    trace = rwre_run(g, x, 200_000, g.vertex(0, 2), RngSpec(67))
    _assert_trace(trace, GOLDEN["rwre"])


def test_returns_before_far_end_golden():
    counts, undecided = returns_before_far_end_detailed((4, 8, 16), 1.0, 4, RngSpec(3), 50)
    assert counts.tolist() == GOLDEN["returns"]["counts"]
    assert undecided == GOLDEN["returns"]["undecided"]


def test_escape_frequency_golden():
    x = EdgeWeights(np.exp(np.random.default_rng(7).uniform(-0.5, 0.5, size=25)))
    assert escape_frequency(build(8), x, RngSpec(71), 200) == GOLDEN["escape"]


def test_growing_blocks_draw_the_fixed_block_stream():
    uniforms = _Uniforms(RngSpec(73).generator())
    sizes, drawn = [], []
    while len(drawn) < 3 * _BLOCK:  # past two full-size blocks
        uniforms.refill()
        sizes.append(len(uniforms.buf))
        drawn.extend(uniforms.buf)
    assert sizes[0] == _FIRST_BLOCK and sizes[-2:] == [_BLOCK, _BLOCK]
    assert drawn == RngSpec(73).generator().random(len(drawn)).tolist()
    gen = RngSpec(73).generator()
    fixed = np.concatenate([gen.random(_BLOCK) for _ in range(len(drawn) // _BLOCK + 1)])
    assert drawn == fixed[:len(drawn)].tolist()


def _reference_run(graph, w, steps, start, gen, inc):
    """The step rule as a plain loop over the incident edges of each vertex."""
    k = [0] * graph.num_edges
    pos, returns = start, 0
    for u in gen.random(steps).tolist():
        opts = graph.incident[pos]
        r = u * sum(w[e] for e, _ in opts)
        for e, pos_next in opts:
            r -= w[e]
            if r < 0.0:
                break
        k[e] += 1
        w[e] += inc
        pos = pos_next
        returns += pos <= 1
    return k, pos, returns


# With a non-dyadic a, adding 1.0 rounds each time a weight enters a new binade:
# the local times read back as rint(w - a) must still be exact.
@pytest.mark.parametrize("n,a,start", [(1, 1.0, 1), (3, 0.3, 4), (6, 2.5, 7), (6, None, 0),
                                       (1, 0.1, 2), (2, 1 / 3, 0), (3, 1e-3, 5)])
def test_step_kernel_matches_reference_loop(n, a, start):
    g = build(n)
    steps = 200_000 if n == 1 else 40_000
    x = EdgeWeights(np.random.default_rng(n).uniform(0.2, 3.0, size=3 * n + 1))
    if a is None:
        trace = rwre_run(g, x, steps, start, RngSpec(79, n))
        ref = _reference_run(g, x.values.tolist(), steps, start, RngSpec(79, n).generator(), 0.0)
    else:
        trace = errw_run(g, a, steps, start, RngSpec(79, n))
        ref = _reference_run(g, [a] * g.num_edges, steps, start, RngSpec(79, n).generator(), 1.0)
    assert (trace.local_times.tolist(), trace.position, trace.returns) == ref


def _reference_returns(graph, a, levels, k_cap, step_cap, gen):
    """Return counts of one replica as a plain loop over single steps."""
    w = [a] * graph.num_edges
    pos, returns, counts = graph.vertex(0, 2), 0, {}
    for u in gen.random(step_cap).tolist():
        if returns >= k_cap or len(counts) == len(levels):
            break
        opts = graph.incident[pos]
        r = u * sum(w[e] for e, _ in opts)
        for e, pos_next in opts:
            r -= w[e]
            if r < 0.0:
                break
        w[e] += 1.0
        pos = pos_next
        returns += pos <= 1
        for lev in levels:
            if pos >> 1 >= lev:
                counts.setdefault(lev, returns)
    return [counts.get(lev, returns) for lev in levels]


@pytest.mark.parametrize("a", [1 / 3, 2.0 ** 50 - 10 ** 4])
def test_return_episodes_match_reference_loop(a):
    # each stop reads the steps taken back from the weights, here in many binades
    # or near 2**50, where a float sum over all the weights would round
    levels, k_cap, step_cap, rng = (2, 4), 3, 10 ** 4, RngSpec(83)
    counts, _ = returns_before_far_end_detailed(levels, a, k_cap, rng, 30, step_cap=step_cap)
    g = build(max(levels))
    for r in range(30):
        gen = RngSpec(rng.seed, rng.stream + r).generator()
        assert counts[r].tolist() == _reference_returns(g, a, levels, k_cap, step_cap, gen)


def test_reinforcement_past_2_to_the_50_is_refused():
    # at a >= 2**53, w + 1.0 == w: the walk would run unreinforced
    g = build(1)
    for a, steps in ((2.0 ** 53, 10), (2.0 ** 50 - 9, 10)):
        with pytest.raises(LadderError, match=r"exceeds 2\*\*50"):
            errw_run(g, a, steps, 0, RngSpec(1))
    with pytest.raises(InputRefused, match="a must be finite"):  # the weight's own gate
        errw_run(g, math.inf, 0, 0, RngSpec(1))
    trace = errw_run(g, 2.0 ** 50 - 10, 10, 0, RngSpec(1))  # the largest weight is 2**50
    assert trace.local_times.sum() == 10
    assert trace.local_times.tolist() == _reference_run(
        g, [2.0 ** 50 - 10] * 4, 10, 0, RngSpec(1).generator(), 1.0)[0]
    with pytest.raises(LadderError, match=r"exceeds 2\*\*50"):
        returns_before_far_end_detailed((2,), 2.0 ** 50, 1, RngSpec(0), 1, step_cap=1)


def test_profile_experiment_refuses_huge_a_before_any_walk(monkeypatch):
    from ladderlab import walk

    def no_walk(args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(walk, "_profile_replica", no_walk)
    with pytest.raises(LadderError, match=r"exceeds 2\*\*50"):
        profile_experiment(4, 2.0 ** 50, 2000, 4, RngSpec(47), fit_levels=(1, 3))


def test_escape_frequency_refuses_weights_for_another_ladder(monkeypatch):
    from ladderlab import walk

    def no_walk(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(walk, "_advance", no_walk)
    for n in (4, 10):  # shorter and longer weight vectors than n = 8 needs
        with pytest.raises(LadderError, match=f"weights are for n={n}, requested n=8"):
            escape_frequency(build(8), EdgeWeights(np.ones(3 * n + 1)), RngSpec(71), 5)


@pytest.mark.parametrize("replicas", [0, -3])
@pytest.mark.parametrize("experiment", [
    lambda r: escape_frequency(build(8), EdgeWeights(np.ones(25)), RngSpec(71), r),
    lambda r: returns_before_far_end_detailed((4, 8), 1.0, 2, RngSpec(3), r),
    lambda r: profile_experiment(4, 1.0, 2000, r, RngSpec(47), fit_levels=(1, 3)),
], ids=["escape", "returns", "profile"])
def test_replica_experiments_refuse_fewer_than_one_replica(monkeypatch, experiment, replicas):
    from ladderlab import walk

    def no_walk(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(walk, "_advance", no_walk)
    monkeypatch.setattr(walk, "_profile_replica", no_walk)
    with pytest.raises(LadderError, match="replicas >= 1"):
        experiment(replicas)


@pytest.mark.parametrize("n,stops", [(1, ()), (1, (0, 1, 2, 3)), (2, (1, 4)), (5, (0, 1, 10, 11)),
                                     (6, (3, 8, 13))])
def test_step_table_shifts_exactly_the_flagged_neighbours(n, stops):
    g, plain, table = build(n), _step_table(n), _step_table(n, stops)
    assert len(table) == len(plain) == g.num_vertices
    for v, (row, flagged) in enumerate(zip(plain, table)):
        assert row == sum(g.incident[v], ()) + (-1, -1) * (3 - len(g.incident[v]))
        assert flagged[0::2] == row[0::2]  # the same edges, in the same order
        for nb, listed in zip(row[1::2], flagged[1::2]):
            assert listed == (nb + g.num_vertices if nb in stops else nb)
    assert _step_table(n, stops) is table  # cached


class _Constant:
    """A generator stub whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def _subtraction_step(u, w, opts):
    """One step from the incident ``opts``, chosen as the running weight
    subtraction reaching below zero: ``(edge crossed, next vertex)``."""
    r = u * sum(w[e] for e, _ in opts)
    for e, nxt in opts:
        r -= w[e]
        if r < 0.0:
            break
    return e, nxt


def _comparison_cases(degree, gen):
    """(u, weights) on which a comparison ``x < y`` and ``x - y < 0.0`` could part:
    u just below one, exact ties at a branch boundary, weights near 2**50,
    subnormal differences and random draws."""
    top = 1.0 - 2.0 ** -53
    cases = []
    for _ in range(300):
        ws = np.exp(gen.uniform(-30, 30, size=degree)).tolist()
        cases += [(top, ws), (float(gen.random()), ws)]
        near = (2.0 ** 50 - gen.integers(0, 2 ** 12, size=degree)).tolist()
        cases += [(top, near), (float(gen.random()), near)]
        tiny = (gen.integers(1, 64, size=degree) * 2.0 ** -1074).tolist()  # subnormal weights
        cases += [(top, tiny), (float(gen.random()), tiny)]
    for ws in ([1.0, 2.0 ** -52], [1.0, 2.0 ** -53], [2.0 ** 50, 1.0], [1.0, 1.0], [3.0, 1.0]):
        cases.append((top, ws + [1.0] * (degree - 2)))
    # uniforms on either side of each branch boundary: ties fl(u * tot) == w0
    # and, at degree 3, fl(u * tot) - w0 == w1
    for ws in [c[1] for c in cases]:
        tot = sum(ws)
        for edge in (ws[0], ws[0] + ws[1]):
            u = edge / tot
            for _ in range(3):
                u = np.nextafter(u, 0.0)
            for _ in range(7):
                if 0.0 <= u < 1.0:
                    cases.append((float(u), ws))
                u = np.nextafter(u, 1.0)
    return cases


@pytest.mark.parametrize("n,pos", [(1, 0), (2, 2)])  # degree 2, then degree 3
def test_weight_comparisons_match_the_subtraction_form(n, pos):
    g = build(n)
    degree = len(g.incident[pos])
    edges = [e for e, _ in g.incident[pos]]
    ties, chosen = 0, set()
    for u, ws in _comparison_cases(degree, np.random.default_rng(89 + n)):
        w = [1.0] * g.num_edges
        for e, x in zip(edges, ws):
            w[e] = x
        _, expected = _subtraction_step(u, w, g.incident[pos])
        got, taken = _advance(_step_table(n), w, [0] * g.num_edges, 1, pos, 1,
                              _Uniforms(_Constant(u)))
        assert (got, taken) == (expected, 1), (u, ws)
        ties += u * sum(ws) == ws[0] or (degree == 3 and u * sum(ws) - ws[0] == ws[1])
        chosen.add(got)
    assert ties > 0 and len(chosen) == degree


@pytest.mark.parametrize("a", [1 / 3, None])
def test_stops_at_block_ends_and_on_the_budgets_last_step(a):
    # short budgeted episodes against the step rule as a plain loop over one
    # stream: a stop on the last uniform of a refill block leaves the next
    # block's first uniform to the next episode, and a stop on the budget's
    # last step still returns the unshifted vertex
    n, g = 2, build(2)
    stops = (0, 1, 4, 5)  # the left rung pair and the far level
    table, gen = _step_table(n, stops), np.random.default_rng(97)
    w = [a] * g.num_edges if a is not None else np.random.default_rng(5).uniform(
        0.5, 2.0, size=g.num_edges).tolist()
    acc, d = (w, 1.0) if a is not None else ([0] * g.num_edges, 1)
    ref_w = list(w)
    uniforms = _Uniforms(RngSpec(101).generator())
    stream = RngSpec(101).generator().random(3 * _BLOCK).tolist()
    ends, size = [_FIRST_BLOCK], 2 * _FIRST_BLOCK  # cumulative draws at each refill block's end
    while ends[-1] + size <= len(stream):
        ends.append(ends[-1] + size)
        size = min(2 * size, _BLOCK)
    drawn, pos, on_block_end, on_last_step = 0, 2, 0, 0
    while drawn < len(stream) - 64:
        budget = int(gen.integers(1, 8))
        got = _advance(table, w, acc, d, pos, budget, uniforms)
        taken = 0
        while taken < budget:
            u = stream[drawn + taken]
            e, pos = _subtraction_step(u, ref_w, g.incident[pos])
            if a is not None:
                ref_w[e] += 1.0
            taken += 1
            if pos in stops:
                break
        drawn += taken
        assert got == (pos, taken)
        if uniforms.ptr == len(uniforms.buf):
            uniforms.refill()
        assert uniforms.buf[uniforms.ptr] == stream[drawn]  # the next uniform drawn
        on_block_end += pos in stops and taken < budget and drawn in ends
        on_last_step += pos in stops and taken == budget
    assert w == ref_w
    assert on_block_end > 0 and on_last_step > 0
