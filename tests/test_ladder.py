import itertools
import math
from functools import lru_cache

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


@lru_cache(maxsize=1)
def _small_grid():
    from ladderlab.transfer import GridParams, build_grid
    return build_grid(GridParams(nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48), a=1.0)


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
    """Every scan, kernel assembly and walk step fails the test if it starts."""
    from ladderlab import certificates, transfer, walk

    def fail(*_):
        raise AssertionError("work started")

    monkeypatch.setattr(certificates, "_uniform_blocks", fail)
    monkeypatch.setattr(transfer, "_cell_pair_table", fail)
    monkeypatch.setattr(walk, "_advance", fail)


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
