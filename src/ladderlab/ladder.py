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
ETA_MAX = 0.25  # largest |eta| of a coupling: 1/4 is the undeformed environment
LOWER, UPPER, RUNGS = slice(1, None, 3), slice(2, None, 3), slice(0, None, 3)

__all__ = [
    "InputRefused",
    "ETA_MAX",
    "LOWER",
    "UPPER",
    "RUNGS",
    "LadderGraph",
    "EdgeWeights",
    "SpanningTreeCode",
    "build",
    "check_int",
    "check_weight",
    "check_coupling",
    "check_weights",
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
        return 3 * check_int(i, "i", 0, self.n)

    def lower_index(self, i: int) -> int:
        return 3 * check_int(i, "i", 1, self.n) - 2

    def upper_index(self, i: int) -> int:
        return 3 * check_int(i, "i", 1, self.n) - 1

    def vertex(self, i: int, level: int) -> int:
        return vertex_index(check_int(i, "i", 0, self.n), check_int(level, "level", 1, 2))

    def edge_between(self, u: int, v: int) -> int:
        for e, w in self.incident[u]:
            if w == v:
                return e
        raise LadderError(f"vertices {u} and {v} are not adjacent")


def check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as a plain int, or :class:`InputRefused` unless it is a
    Python or NumPy integer (not a bool) in ``lo..hi`` (``>= lo`` when ``hi``
    is None): the one rule for every count and index an entry point takes."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise InputRefused(f"{name}={value!r} outside the range: {name} must be {span} and an integer")


def build(n: int) -> LadderGraph:
    """The ladder with ``n`` cells (``n >= 1``), built once per size."""
    return _build(check_int(n, "n", 1))


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


def check_weight(a: float, above: float = 0.0) -> float:
    """``a``, or :class:`InputRefused` unless it is a finite initial weight
    strictly above ``above``: 0 for the walk and the density, 1/2 for the
    coupling kernel and its growth bound, 3/4 for the boundary vectors and
    their bound."""
    if not above < a < np.inf:
        raise InputRefused(f"initial weight a must be finite and > {above}, got a={a!r}")
    return a


def check_coupling(eta: float) -> float:
    """``eta``, or :class:`InputRefused` unless it is a coupling in
    [-ETA_MAX, ETA_MAX]."""
    if not -ETA_MAX <= eta <= ETA_MAX:
        raise InputRefused(f"coupling eta must be in [-1/4, 1/4], got eta={eta!r}")
    return eta


def check_weights(x, n: int | None = None) -> np.ndarray:
    """The weight vector ``x`` (an :class:`EdgeWeights` or array-like) as a
    float array, or :class:`InputRefused` unless it holds finite, strictly
    positive weights for some ladder, one with ``n`` cells if ``n`` is given."""
    vals = np.asarray(x.values if isinstance(x, EdgeWeights) else x, dtype=float)
    if vals.ndim != 1 or (vals.size - 1) % 3 != 0 or vals.size < 4:
        raise InputRefused(f"weight vector length {vals.size} does not fit any ladder")
    if not ((vals > 0.0) & (vals < np.inf)).all():
        raise InputRefused("edge weights must be finite and strictly positive")
    if n is not None and vals.size != 3 * n + 1:
        raise InputRefused(f"weights are for n={(vals.size - 1) // 3}, requested n={n}")
    return vals


@dataclass(frozen=True)
class EdgeWeights:
    """Finite positive weights per edge, 3n + 1 of them for ``n`` cells."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", check_weights(self.values))

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
    n = check_int(n, "n", 1)
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
    x = check_weights(x)
    y = np.asarray(y, dtype=float)
    n = (x.size - 1) // 3
    if y.shape != (n,):
        raise LadderError(f"y has shape {y.shape}, expected ({n},)")
    lower, upper, rungs = x[LOWER], x[UPPER], x[RUNGS]
    total = y[0] ** 2 / rungs[0] + y[n - 1] ** 2 / rungs[n]
    for i in range(1, n + 1):
        total += y[i - 1] ** 2 * (1.0 / lower[i - 1] + 1.0 / upper[i - 1])
    for i in range(1, n):
        total += (y[i - 1] - y[i]) ** 2 / rungs[i]
    return float(total)
