"""Finite two-rail ladder: graph layout, spanning-tree codes, cycle quadratic form.

The ladder with ``n`` cells has vertices ``(i, level)`` for ``i = 0..n`` and
``level in {1, 2}``.  Edges are indexed densely so weight vectors serialize
stably:

    index 3i-2  -> lower horizontal (i-1,1)-(i,1)   "lower", cell i = 1..n
    index 3i-1  -> upper horizontal (i-1,2)-(i,2)   "upper", cell i = 1..n
    index 3i    -> rung (i,1)-(i,2)                 "rung",  level i = 0..n

so the slices ``LOWER``, ``UPPER`` and ``RUNGS`` of a weight vector hold
its lower edges, upper edges and rungs in level order.

Spanning trees are encoded by a word over ``ABCD`` with one letter per cell
and no adjacent ``AB``; trees themselves are integer bit masks over edge
indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

TREE_STATES = "ABCD"
LOWER, UPPER, RUNGS = slice(1, None, 3), slice(2, None, 3), slice(0, None, 3)

__all__ = [
    "InputRefused",
    "LOWER",
    "UPPER",
    "RUNGS",
    "LadderGraph",
    "EdgeWeights",
    "SpanningTreeCode",
    "build",
    "check_cells",
    "tree_decode",
    "tree_encode",
    "count_codes",
    "matrix_tree_count",
    "all_codes",
    "cycle_form",
    "tree_mask_from_indices",
    "indices_from_mask",
]


class LadderError(ValueError):
    """Domain error for ladder construction and tree coding."""


class InputRefused(LadderError):
    """An argument refused before any computation or check runs on it."""


def vertex_index(i: int, level: int) -> int:
    return 2 * i + (level - 1)


@dataclass(frozen=True)
class LadderGraph:
    """Immutable description of the ladder with ``n`` cells."""

    n: int
    edges: tuple[tuple[str, int, int], ...]  # (kind, vertex u, vertex v)
    incident: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    # incident[v] = ((edge index, neighbor vertex), ...)

    @property
    def num_vertices(self) -> int:
        return 2 * (self.n + 1)

    @property
    def num_edges(self) -> int:
        return 3 * self.n + 1

    def rung_index(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise LadderError(f"rung level {i} outside 0..{self.n}")
        return 3 * i

    def lower_index(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise LadderError(f"lower edge level {i} outside 1..{self.n}")
        return 3 * i - 2

    def upper_index(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise LadderError(f"upper edge level {i} outside 1..{self.n}")
        return 3 * i - 1

    def vertex(self, i: int, level: int) -> int:
        if not 0 <= i <= self.n or level not in (1, 2):
            raise InputRefused(f"vertex ({i}, {level}) not on the ladder: "
                               f"need level 0..{self.n} and rail 1 or 2")
        return vertex_index(i, level)

    def edge_between(self, u: int, v: int) -> int:
        for e, w in self.incident[u]:
            if w == v:
                return e
        raise LadderError(f"vertices {u} and {v} are not adjacent")


def is_integer(v) -> bool:
    """True for a Python or NumPy integer that is not a bool: the counts
    every entry point accepts."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_cells(n: int) -> int:
    """``n`` as a plain int, or :class:`LadderError` unless it is an integer
    (not a bool) of at least one cell."""
    if not is_integer(n) or n < 1:
        raise LadderError(f"ladder needs at least one cell, got n={n!r}")
    return int(n)


def build(n: int) -> LadderGraph:
    """The ladder with ``n`` cells (``n >= 1``), built once per size."""
    return _build(check_cells(n))


@lru_cache(maxsize=64)
def _build(n: int) -> LadderGraph:
    edges: list[tuple[str, int, int]] = [("rung", vertex_index(0, 1), vertex_index(0, 2))]
    for i in range(1, n + 1):
        edges.append(("lower", vertex_index(i - 1, 1), vertex_index(i, 1)))
        edges.append(("upper", vertex_index(i - 1, 2), vertex_index(i, 2)))
        edges.append(("rung", vertex_index(i, 1), vertex_index(i, 2)))
    incident: list[list[tuple[int, int]]] = [[] for _ in range(2 * (n + 1))]
    for e, (_, u, v) in enumerate(edges):
        incident[u].append((e, v))
        incident[v].append((e, u))
    return LadderGraph(
        n=n,
        edges=tuple(edges),
        incident=tuple(tuple(pairs) for pairs in incident),
    )


@dataclass(frozen=True)
class EdgeWeights:
    """Finite positive weights per edge plus a normalization tag.

    Tags: ``rung-zero-unit`` (left rung has weight exactly 1) or ``none``.
    """

    values: np.ndarray
    normalization: str = "none"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or (vals.size - 1) % 3 != 0 or vals.size < 4:
            raise LadderError(f"weight vector length {vals.size} does not fit any ladder")
        if not ((vals > 0.0) & (vals < np.inf)).all():
            raise LadderError("edge weights must be finite and strictly positive")
        if self.normalization == "rung-zero-unit":
            if vals[0] != 1.0:
                raise LadderError("rung-zero-unit weights must have left rung weight exactly 1")
        elif self.normalization != "none":
            raise LadderError(f"unknown normalization tag {self.normalization!r}")

    @property
    def n(self) -> int:
        return (self.values.size - 1) // 3

    def lower(self, i: int) -> float:
        return float(self.values[build(self.n).lower_index(i)])

    def upper(self, i: int) -> float:
        return float(self.values[build(self.n).upper_index(i)])

    def rung(self, i: int) -> float:
        return float(self.values[build(self.n).rung_index(i)])


@dataclass(frozen=True)
class SpanningTreeCode:
    """Word over ``ABCD`` with no adjacent ``AB``, one letter per cell."""

    states: str

    def __post_init__(self):
        states = "".join(self.states)
        object.__setattr__(self, "states", states)
        if not states or any(s not in TREE_STATES for s in states):
            raise LadderError(f"code {states!r} uses letters outside {TREE_STATES}")
        for i in range(len(states) - 1):
            if states[i] == "A" and states[i + 1] == "B":
                raise LadderError(f"code {states!r} has forbidden adjacent AB at position {i}")

    @property
    def n(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i):
        return self.states[i]


def tree_mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for e in indices:
        mask |= 1 << e
    return mask


def indices_from_mask(mask: int) -> list[int]:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def tree_decode(code: SpanningTreeCode | str) -> int:
    """Map a tree code to the edge bit mask of the spanning tree it names.

    Horizontals: state C drops the lower edge of its cell, D drops the upper
    edge, A and B keep both.  Rungs: the left rung is present unless the
    first letter is B, the right rung unless the last letter is A, and the
    rung between cells i and i+1 is present unless the i-th letter is A or
    the (i+1)-st letter is B.
    """
    if not isinstance(code, SpanningTreeCode):
        code = SpanningTreeCode(code)
    n = code.n
    graph = build(n)
    mask = 0
    if code[0] != "B":
        mask |= 1 << graph.rung_index(0)
    if code[n - 1] != "A":
        mask |= 1 << graph.rung_index(n)
    for i in range(1, n):
        if code[i - 1] != "A" and code[i] != "B":
            mask |= 1 << graph.rung_index(i)
    for i in range(1, n + 1):
        s = code[i - 1]
        if s != "C":
            mask |= 1 << graph.lower_index(i)
        if s != "D":
            mask |= 1 << graph.upper_index(i)
    return mask


def tree_encode(tree: int | Iterable[int], n: int) -> SpanningTreeCode:
    """Inverse of :func:`tree_decode`: the code whose tree is ``tree``.

    Each cell's letter is read from its two horizontals and two rungs.  Every
    code decodes to a spanning tree, so ``tree`` is one exactly when the code
    read from it decodes back to it; any other edge set is refused."""
    mask = tree if isinstance(tree, int) else tree_mask_from_indices(tree)
    graph = build(n)
    letters = ""
    for i in range(1, n + 1):
        left, lower, upper, right = ((mask >> e) & 1 for e in (
            graph.rung_index(i - 1), graph.lower_index(i), graph.upper_index(i), graph.rung_index(i)))
        if not lower:
            letters += "C"
        elif not upper:
            letters += "D"
        else:
            # A drops the cell's right rung and B its left one; AB is never
            # adjacent, so a left rung missing after an A is that A's
            letters += "A" if not right and (left or letters.endswith("A")) else "B"
    try:
        code = SpanningTreeCode(letters)
    except LadderError:  # an adjacent AB: the letters are no tree's code
        code = None
    if code is None or tree_decode(code) != mask:
        raise LadderError("edge set is not a spanning tree of the ladder")
    return code


def count_codes(n: int) -> int:
    """Number of valid tree codes of length ``n`` (exact integer)."""
    if n < 1:
        raise LadderError(f"need n >= 1, got {n}")
    # counts by final letter; only the pair AB is forbidden
    per_state = {s: 1 for s in TREE_STATES}
    for _ in range(n - 1):
        total = sum(per_state.values())
        nxt = {s: total for s in TREE_STATES}
        nxt["B"] -= per_state["A"]
        per_state = nxt
    return sum(per_state.values())


def all_codes(n: int):
    """Yield every valid code of length ``n`` in lexicographic order."""
    for word in map("".join, itertools.product(TREE_STATES, repeat=n)):
        if "AB" not in word:
            yield SpanningTreeCode(word)


def _bareiss_determinant(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in mat]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def matrix_tree_count(n: int) -> int:
    """Spanning-tree count of the ladder via an exact Laplacian minor."""
    graph = build(n)
    size = graph.num_vertices
    lap = [[0] * size for _ in range(size)]
    for _, u, v in graph.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_determinant(minor)


def cycle_form(x: EdgeWeights | np.ndarray, y: Sequence[float]) -> float:
    """Quadratic form ``y A(x) y^t`` evaluated as an explicit sum of squares."""
    if not isinstance(x, EdgeWeights):
        x = EdgeWeights(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = x.n
    if y.shape != (n,):
        raise LadderError(f"y has shape {y.shape}, expected ({n},)")
    lower, upper, rungs = x.values[LOWER], x.values[UPPER], x.values[RUNGS]
    total = y[0] ** 2 / rungs[0] + y[n - 1] ** 2 / rungs[n]
    for i in range(1, n + 1):
        total += y[i - 1] ** 2 * (1.0 / lower[i - 1] + 1.0 / upper[i - 1])
    for i in range(1, n):
        total += (y[i - 1] - y[i]) ** 2 / rungs[i]
    return float(total)
