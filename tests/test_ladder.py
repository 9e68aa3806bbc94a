import itertools
import math
import re
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.ladder import (
    LOWER,
    RUNGS,
    UPPER,
    EdgeWeights,
    InputRefused,
    LadderError,
    SpanningTreeCode,
    all_codes,
    build,
    check_int,
    count_codes,
    cycle_form,
    indices_from_mask,
    matrix_tree_count,
    tree_decode,
    tree_encode,
    tree_mask_from_indices,
)


def test_build_smallest_ladder():
    g = build(1)
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert [kind for kind, _, _ in g.edges] == ["rung", "lower", "upper", "rung"]


def test_build_two_cells():
    g = build(2)
    assert g.num_vertices == 6
    assert g.num_edges == 7


def test_build_rejects_empty_ladder():
    with pytest.raises(LadderError):
        build(0)


def test_vertex_rejects_points_off_the_ladder():
    g = build(2)
    assert [g.vertex(i, level) for i in (0, 2) for level in (1, 2)] == [0, 1, 4, 5]
    for i, level in [(-1, 1), (3, 1), (0, 0), (0, 3), (1, -1)]:
        with pytest.raises(InputRefused):
            g.vertex(i, level)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_build_degrees(n):
    g = build(n)
    degrees = sorted(len(g.incident[v]) for v in range(g.num_vertices))
    assert degrees.count(2) == 4
    assert degrees.count(3) == g.num_vertices - 4


def test_edge_order_is_deterministic():
    g = build(3)
    kinds = [kind for kind, _, _ in g.edges]
    assert kinds == ["rung"] + ["lower", "upper", "rung"] * 3


def edges_by_name(g, mask):
    names = []
    for e in indices_from_mask(mask):
        kind, u, v = g.edges[e]
        names.append((kind, u, v))
    return names


def test_tree_decode_single_cell_examples():
    g = build(1)
    # state A keeps both horizontals, includes the left rung, drops the right
    assert tree_decode("A") == tree_mask_from_indices([g.rung_index(0), g.lower_index(1), g.upper_index(1)])
    # state C drops the lower horizontal
    assert tree_decode("C") == tree_mask_from_indices([g.rung_index(0), g.upper_index(1), g.rung_index(1)])
    # state B keeps both horizontals and only the right rung
    assert tree_decode("B") == tree_mask_from_indices([g.lower_index(1), g.upper_index(1), g.rung_index(1)])
    assert tree_decode("D") == tree_mask_from_indices([g.rung_index(0), g.lower_index(1), g.rung_index(1)])


def test_tree_decode_rejects_forbidden_code():
    with pytest.raises(LadderError):
        tree_decode("AB")
    with pytest.raises(LadderError):
        SpanningTreeCode("CABD")


def _is_spanning_tree(graph, mask):
    """Brute-force oracle: ``mask`` has |V| - 1 edges and connects every vertex."""
    edges = indices_from_mask(mask)
    if len(edges) != 2 * graph.n + 1:
        return False
    adj = [[] for _ in range(graph.num_vertices)]
    for e in edges:
        _, u, v = graph.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * graph.num_vertices
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    # connected with |V| - 1 edges implies acyclic
    return count == graph.num_vertices


def test_tree_decode_is_spanning_tree():
    for n in (1, 2, 3, 4):
        g = build(n)
        for code in all_codes(n):
            mask = tree_decode(code)
            assert _is_spanning_tree(g, mask)


def test_tree_encode_examples():
    g = build(1)
    assert tree_encode(tree_mask_from_indices([g.rung_index(0), g.upper_index(1), g.rung_index(1)]), 1).states == "C"
    assert tree_encode(tree_mask_from_indices([g.rung_index(0), g.lower_index(1), g.rung_index(1)]), 1).states == "D"


def test_tree_encode_rejects_non_trees():
    g = build(2)
    # wrong cardinality
    with pytest.raises(LadderError):
        tree_encode(tree_mask_from_indices(range(3)), 2)
    # right cardinality but contains the 4-cycle of cell 1
    cyc = [g.rung_index(0), g.lower_index(1), g.upper_index(1), g.rung_index(1), g.lower_index(2)]
    with pytest.raises(LadderError):
        tree_encode(tree_mask_from_indices(cyc), 2)
    # a tree with its left rung moved to a bit past the last edge
    with pytest.raises(LadderError, match="not a spanning tree"):
        tree_encode(tree_decode("CC") ^ 1 << g.rung_index(0) | 1 << g.num_edges, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tree_encode_accepts_exactly_the_spanning_trees(n):
    # the round trip is the whole check: every edge subset against the oracle,
    # including those whose cells read as the forbidden pair AB
    g = build(n)
    for mask in range(1 << g.num_edges):
        try:
            code = tree_encode(mask, n)
        except LadderError as err:
            assert not _is_spanning_tree(g, mask) and "not a spanning tree" in str(err)
        else:
            assert _is_spanning_tree(g, mask) and tree_decode(code) == mask


def test_bijection_on_two_cells():
    # oracle: brute-force enumeration of all spanning trees of build(2)
    g = build(2)
    trees = [mask for subset in itertools.combinations(range(g.num_edges), 5)
             if _is_spanning_tree(g, mask := tree_mask_from_indices(subset))]
    assert len(trees) == 15
    codes = {tree_encode(mask, 2).states for mask in trees}
    assert len(codes) == 15
    decoded = {tree_decode(c) for c in codes}
    assert decoded == set(trees)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bijection_exhaustive(n):
    images = {}
    for code in all_codes(n):
        mask = tree_decode(code)
        assert mask not in images, "decode must be injective"
        images[mask] = code.states
        assert tree_encode(mask, n).states == code.states
    assert len(images) == matrix_tree_count(n)


def test_count_codes_small_values():
    assert count_codes(1) == 4
    assert count_codes(2) == 15
    # inclusion-exclusion oracle for n=3: 4^3 minus 2 * 4 violating words
    assert count_codes(3) == 64 - 8 == 56


def test_count_codes_recurrence_and_matrix_tree():
    # independent count: the recurrence a(n) = 4 a(n-1) - a(n-2), a(0) = 1, a(1) = 4
    prev, count = 1, 4
    for n in range(1, 9):
        assert count_codes(n) == count
        assert count_codes(n) == matrix_tree_count(n)
        prev, count = count, 4 * count - prev


def test_matrix_tree_known_sequence():
    assert [matrix_tree_count(n) for n in range(1, 6)] == [4, 15, 56, 209, 780]


def test_cycle_form_unit_weights():
    x1 = EdgeWeights(np.ones(4))
    assert cycle_form(x1, [1.0]) == pytest.approx(4.0, abs=1e-15)
    # n=2 oracle: matrix [[4,-1],[-1,4]] gives 4+4-2
    x2 = EdgeWeights(np.ones(7))
    assert cycle_form(x2, [1.0, 1.0]) == pytest.approx(6.0, abs=1e-15)


def test_cycle_form_zero_vector():
    x = EdgeWeights(np.random.default_rng(0).uniform(0.5, 2.0, size=10))
    assert cycle_form(x, np.zeros(3)) == 0.0


@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_cycle_form_matches_matrix_evaluation(n, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.05, 20.0, size=3 * n + 1)
    y = rng.normal(size=n)
    x = EdgeWeights(vals)
    # oracle: the tridiagonal matrix of inverse weights around each cell
    inv = 1.0 / vals
    rungs, lower, upper = inv[0::3], inv[1::3], inv[2::3]
    mat = np.diag(rungs[:-1] + lower + upper + rungs[1:])
    mat -= np.diag(rungs[1:-1], 1) + np.diag(rungs[1:-1], -1)
    direct = float(y @ mat @ y)
    summed = cycle_form(x, y)
    assert summed == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert summed >= 0.0


def test_cycle_form_rejects_nonpositive_weights():
    with pytest.raises(LadderError):
        EdgeWeights(np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(LadderError):
        EdgeWeights(np.array([1.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_edge_weights_reject_non_finite_values(bad):
    with pytest.raises(LadderError, match="finite"):
        EdgeWeights(np.array([1.0, bad, 1.0, 1.0]))


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_layout_slices_pick_the_labelled_edges(n):
    kinds = np.array([kind for kind, _, _ in build(n).edges])
    index = np.arange(3 * n + 1)
    for part, kind in ((LOWER, "lower"), (UPPER, "upper"), (RUNGS, "rung")):
        assert index[part].tolist() == np.flatnonzero(kinds == kind).tolist()


def test_edge_weight_accessors_refuse_levels_off_the_ladder():
    w = EdgeWeights(np.arange(1.0, 8.0))  # n = 2
    assert [w.rung(i) for i in range(3)] == [1.0, 4.0, 7.0]
    assert [w.lower(i) for i in (1, 2)] == [2.0, 5.0]
    assert [w.upper(i) for i in (1, 2)] == [3.0, 6.0]
    for read, bad in ((w.lower, (0, 3)), (w.upper, (0, 3)), (w.rung, (-1, 3))):
        for i in bad:
            with pytest.raises(LadderError, match="outside"):
                read(i)


# ---------------------------------------------------------------------------
# one gate per model input: every entry point refuses the same parameters


_SMALL_COUNTS = dict(nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48)


@lru_cache(maxsize=1)
def _small_grid():
    from ladderlab.transfer import GridParams, build_grid
    return build_grid(GridParams(**_SMALL_COUNTS), a=1.0)


def _initial_weight_entry(name):
    """The call of entry point ``name`` with initial weight a, and its gate."""
    from ladderlab import certificates, environment, mcmc, transfer, walk
    from ladderlab.rng import RngSpec

    return {
        "McmcConfig": (lambda a: mcmc.McmcConfig(n=2, a=a), 0.0),
        "errw_run": (lambda a: walk.errw_run(build(2), a, 10, 0, RngSpec(1)), 0.0),
        "returns_before_far_end_detailed":
            (lambda a: walk.returns_before_far_end_detailed([2], a, 1, RngSpec(1), 2), 0.0),
        "log_phi": (lambda a: environment.log_phi(np.ones(4), [1.0], "C", a), 0.0),
        "log_mass": (lambda a: transfer.log_mass(2, a), 0.0),
        "axis_rates": (transfer.axis_rates, 0.5),
        "build_grid": (lambda a: transfer.build_grid(a=a), 0.5),
        "middle_growth_rate": (certificates.middle_growth_rate, 0.5),
        "check_middle_bound": (lambda a: certificates.check_middle_bound(10, a, 0.0), 0.5),
        "boundary_vector": (lambda a: transfer.boundary_vector(_small_grid(), a, "left"), 0.75),
        "boundary_growth_rate": (certificates.boundary_growth_rate, 0.75),
        "check_boundary_bound": (lambda a: certificates.check_boundary_bound(10, a, "left"), 0.75),
    }[name]


def _coupling_entry(name):
    from ladderlab import certificates, transfer

    return {
        "assemble_kernel": lambda eta: transfer.assemble_kernel(_small_grid(), 1.0, eta),
        "check_middle_bound": lambda eta: certificates.check_middle_bound(10, 1.0, eta),
    }[name]


def _weight_vector_entry(name):
    """The call of entry point ``name`` with a weight vector."""
    from ladderlab import environment, network, walk
    from ladderlab.rng import RngSpec

    return {
        "EdgeWeights": EdgeWeights,
        "cycle_form": lambda x: cycle_form(x, [1.0]),
        "log_phi": lambda x: environment.log_phi(x, [1.0], "C", 1.0),
        "effective_resistance": lambda x: network.effective_resistance(x, 1),
        "shorted_resistance": lambda x: network.shorted_resistance(x, 1),
        "escape_probability": lambda x: network.escape_probability(x, 1),
        "rwre_run": lambda x: walk.rwre_run(build(1), x, 10, 0, RngSpec(1)),
        "escape_frequency": lambda x: walk.escape_frequency(build(1), x, RngSpec(1), 5),
    }[name]


@pytest.fixture
def no_work(monkeypatch):
    """Every scan, kernel assembly, walk step and sampler run fails the test if it starts."""
    from ladderlab import certificates, mcmc, transfer, walk

    def fail(*_):
        raise AssertionError("work started")

    monkeypatch.setattr(certificates, "_uniform_blocks", fail)
    monkeypatch.setattr(transfer, "_cell_pair_table", fail)
    monkeypatch.setattr(walk, "_advance", fail)
    monkeypatch.setattr(mcmc, "sample_chain", fail)


@pytest.mark.parametrize("name", ["McmcConfig", "errw_run", "returns_before_far_end_detailed", "log_phi",
                                  "log_mass", "axis_rates", "build_grid", "middle_growth_rate",
                                  "check_middle_bound", "boundary_vector", "boundary_growth_rate",
                                  "check_boundary_bound"])
@pytest.mark.parametrize("a", [math.nan, math.inf, -1.0, 0.0, "gate", "below the gate"])
def test_entry_points_refuse_the_same_parameters(no_work, name, a):
    # a = inf used to pass McmcConfig, build_grid, log_phi and both bound scans
    call, gate = _initial_weight_entry(name)
    a = {"gate": gate, "below the gate": math.nextafter(gate, -math.inf)}.get(a, a)
    if name == "check_boundary_bound" and a == 0.75:
        with pytest.raises(AssertionError, match="work started"):  # the critical case's scan
            call(a)
        return
    with pytest.raises(InputRefused, match=f"initial weight a must be finite and > {gate}"):
        call(a)


@pytest.mark.parametrize("name", ["assemble_kernel", "check_middle_bound"])
@pytest.mark.parametrize("eta", [math.nan, -0.26, 0.26, math.inf])
def test_entry_points_refuse_the_same_couplings(no_work, name, eta):
    with pytest.raises(InputRefused, match="coupling eta must be in"):
        _coupling_entry(name)(eta)


_BAD_VECTORS = [[1.0, math.nan, 1.0, 1.0], [1.0, math.inf, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                [1.0, -1.0, 1.0, 1.0], np.ones(5), np.ones((2, 4))]


@pytest.mark.parametrize("name, x", [
    *((name, x) for name in ("EdgeWeights", "cycle_form", "log_phi") for x in _BAD_VECTORS),
    # the calls that name the ladder size (n = 1) also refuse valid weights for n = 2
    *((name, x) for name in ("effective_resistance", "shorted_resistance", "escape_probability",
                             "rwre_run", "escape_frequency") for x in _BAD_VECTORS + [np.ones(7)]),
])
def test_entry_points_refuse_the_same_weight_vectors(no_work, name, x):
    with pytest.raises(InputRefused):
        _weight_vector_entry(name)(x)


def test_unknown_kernel_tag_is_refused_before_assembly(no_work):
    # chain_expectation used to assemble both plain kernels before refusing the tag
    from ladderlab import transfer

    ctx = transfer.TransferContext(_small_grid(), 1.0)
    for call in (lambda: transfer.assemble_kernel(_small_grid(), 1.0, 0.0, tag="gama"),
                 lambda: ctx.op(0.0, "gama"),
                 lambda: transfer.chain_expectation(ctx, 8, 6, 3, tag="gama")):
        with pytest.raises(InputRefused, match="unknown kernel tag 'gama'"):
            call()


# ---------------------------------------------------------------------------
# one gate per integer argument: every count and index goes through check_int


@lru_cache(maxsize=1)
def _small_batch():
    from ladderlab import mcmc
    from ladderlab.rng import RngSpec

    return mcmc.sample_chain(mcmc.McmcConfig(n=3, a=1.0, burn_in=10, thinning=1, samples=20, rng=RngSpec(5)))


@lru_cache(maxsize=1)
def _small_context():
    from ladderlab.transfer import TransferContext
    return TransferContext(_small_grid(), 1.0)


@lru_cache(maxsize=1)
def _integer_entry() -> dict:
    """``(entry point, argument) -> (call, lo, hi, good)``: ``call(v)`` runs the
    entry point with that argument set to ``v``, ``lo..hi`` is the range it
    accepts (``hi`` None: unbounded) and ``good`` a value in it that runs
    quickly.  Building the table draws the small batch, so it must happen
    before ``no_work`` stops the sampler."""
    from dataclasses import replace

    from ladderlab import certificates, environment, mcmc, network, transfer, walk
    from ladderlab.rng import RngSpec

    def config(arg, v):
        counts = {**dict(n=3, deform_j=0, burn_in=4, thinning=1, samples=5, debug_log_moves=0), arg: v}
        return mcmc.sample_chain(mcmc.McmcConfig(a=1.0, rng=RngSpec(7), **counts)).xlo

    def returns(level=2, k_cap=2, replicas=3, step_cap=1000):
        return walk.returns_before_far_end_detailed([level], 1.0, k_cap, RngSpec(9), replicas, step_cap)

    def profile(n=3, steps=20_000, replicas=2):
        return walk.profile_experiment(n, 1.0, steps, replicas, RngSpec(47), fit_levels=(1, 2)).median_log_ratio

    def chain(n=3, j=1, i=1):
        return transfer.chain_expectation(_small_context(), n, j, i)

    def grid(count, v):
        return transfer.build_grid(replace(_small_grid().params, **{count: v})).x_nodes

    g2 = build(2)
    x2 = np.linspace(0.5, 2.0, 7)
    batch = _small_batch()
    return {
        ("build", "n"): (lambda v: build(v).edges, 1, None, 2),
        ("vertex", "i"): (lambda v: g2.vertex(v, 1), 0, 2, 1),
        ("vertex", "level"): (lambda v: g2.vertex(1, v), 1, 2, 2),
        ("rung_index", "i"): (g2.rung_index, 0, 2, 1),
        ("lower_index", "i"): (g2.lower_index, 1, 2, 1),
        ("upper_index", "i"): (g2.upper_index, 1, 2, 1),
        ("count_codes", "n"): (count_codes, 1, None, 3),
        ("effective_resistance", "n"): (lambda v: network.effective_resistance(x2, v).resistance, 1, None, 2),
        ("shorted_resistance", "n"): (lambda v: network.shorted_resistance(x2, v), 1, None, 2),
        **{("McmcConfig", count): (partial(config, count), lo, hi, good) for count, lo, hi, good in (
            ("n", 1, None, 2), ("deform_j", 0, 2, 1), ("burn_in", 0, None, 3), ("thinning", 1, None, 2),
            ("samples", 1, None, 4), ("debug_log_moves", 0, None, 6))},
        ("observable", "i"): (lambda v: mcmc.observable(batch, "Xlo", v), 1, 3, 2),
        ("tail_estimate", "i"): (lambda v: mcmc.tail_estimate(batch, "Gamma", [0.5, 1.0], i=v).counts, 1, 2, 1),
        ("sign_disagreement_rate", "i"): (lambda v: mcmc.sign_disagreement_rate(batch, v), 1, 2, 2),
        ("h_total", "deform_j"): (lambda v: environment.h_total(batch.spin(0), 1.0, deform_j=v), 0, 2, 1),
        ("errw_run", "steps"): (lambda v: walk.errw_run(g2, 1.0, v, 0, RngSpec(3)).local_times, 0, None, 50),
        ("errw_run", "start"): (lambda v: walk.errw_run(g2, 1.0, 50, v, RngSpec(3)).local_times, 0, 5, 3),
        ("rwre_run", "steps"): (lambda v: walk.rwre_run(g2, x2, v, 0, RngSpec(3)).local_times, 0, None, 50),
        ("rwre_run", "start"): (lambda v: walk.rwre_run(g2, x2, 50, v, RngSpec(3)).local_times, 0, 5, 3),
        ("path_probability_errw", "vertex"): (lambda v: walk.path_probability_errw(g2, [v, 2], 1), 0, 5, 0),
        ("returns_before_far_end_detailed", "level"): (lambda v: returns(level=v)[0], 1, None, 2),
        ("returns_before_far_end_detailed", "k_cap"): (lambda v: returns(k_cap=v)[0], 1, None, 2),
        ("returns_before_far_end_detailed", "replicas"): (lambda v: returns(replicas=v)[0], 1, None, 3),
        ("returns_before_far_end_detailed", "step_cap"): (lambda v: returns(step_cap=v)[0], 1, None, 30),
        ("escape_frequency", "replicas"): (lambda v: walk.escape_frequency(g2, x2, RngSpec(4), v), 1, None, 5),
        ("escape_frequency", "step_cap"):
            (lambda v: walk.escape_frequency(g2, x2, RngSpec(4), 5, step_cap=v), 1, None, 10_000),
        ("profile_experiment", "n"): (lambda v: profile(n=v), 1, None, 3),
        ("profile_experiment", "steps"): (lambda v: profile(steps=v), 0, None, 20_000),
        ("profile_experiment", "replicas"): (lambda v: profile(replicas=v), 1, None, 2),
        ("log_mass", "n"): (lambda v: transfer.log_mass(v, 1.0), 1, None, 3),
        ("chain_expectation", "n"): (lambda v: chain(n=v), 2, None, 3),
        ("chain_expectation", "j"): (lambda v: chain(j=v), 0, 2, 1),
        ("chain_expectation", "i"): (lambda v: chain(i=v), 1, 2, 2),
        ("sigma_moment_profile", "n"): (lambda v: transfer.sigma_moment_profile(_small_context(), v), 1, None, 3),
        **{("build_grid", count): (partial(grid, count), 1, None, good) for count, good in _SMALL_COUNTS.items()},
        ("check_middle_bound", "samples"):
            (lambda v: certificates.check_middle_bound(v, 1.0, 0.0, grid_step=0).min_margin, 0, None, 40),
        ("check_boundary_bound", "samples"):
            (lambda v: certificates.check_boundary_bound(v, 1.0, "left", grid_step=0).min_margin, 0, None, 40),
    }


@pytest.mark.parametrize("name, arg", list(_integer_entry()))
def test_entry_points_refuse_the_same_integers(no_work, name, arg):
    # level 2.5, k_cap 1.5 and replicas 2.5 used to run as 2, 2 and 0 replicas, deform_j 0.5
    # as 1, rung_index(1.5) and vertex(1.5, 1) returned 4.5 and 3.0, and steps=True walked
    call, lo, hi, _ = _integer_entry()[name, arg]
    for bad in [0.5, 1.5, 2.5, 2.0, True, "2", None, lo - 1] + ([] if hi is None else [hi + 1]):
        with pytest.raises(InputRefused, match=f"^{arg}=.* outside the range: {arg} must be"):
            call(bad)


@pytest.mark.parametrize("name, arg", list(_integer_entry()))
def test_entry_points_read_numpy_integers_as_python_ints(name, arg):
    call, _, _, good = _integer_entry()[name, arg]
    want = call(good)
    for kind in (np.int64, np.int32):
        np.testing.assert_equal(call(kind(good)), want)


@given(st.integers(-40, 40), st.integers(-40, 40), st.one_of(st.none(), st.integers(-40, 40)))
@settings(max_examples=200, deadline=None)
def test_integer_gate_passes_exactly_the_integers_in_range(value, lo, hi):
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    for v in (value, np.int64(value), np.int32(value)):
        if lo <= value and (hi is None or value <= hi):
            got = check_int(v, "k", lo, hi)
            assert type(got) is int and got == value
        else:
            message = f"k={v!r} outside the range: k must be {span} and an integer"
            with pytest.raises(InputRefused, match=f"^{re.escape(message)}$"):
                check_int(v, "k", lo, hi)
    for v in (float(value), np.float64(value), bool(value % 2), str(value), None):
        with pytest.raises(InputRefused):
            check_int(v, "k", lo, hi)
