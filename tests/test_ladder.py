import itertools

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


def test_edge_weights_tags():
    with pytest.raises(LadderError):
        EdgeWeights(np.full(4, 0.25), normalization="simplex")
    with pytest.raises(LadderError):
        EdgeWeights(np.array([0.9, 1.0, 1.0, 1.0]), normalization="rung-zero-unit")
    w = EdgeWeights(np.array([1.0, 2.0, 3.0, 4.0]), normalization="rung-zero-unit")
    assert w.normalization == "rung-zero-unit"


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
