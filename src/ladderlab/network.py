"""Electric-network quantities of the weighted ladder.

Edges carry conductances; the far end of the ladder is shorted into a
single node before assembling the Laplacian, so the last rung drops out as
a self-loop.  Ladders are tiny, so everything is a dense direct solve.

Everything that depends only on the ladder size is computed once per size
and cached (:func:`_plan`): the reduced node count, the source node, its two
edges and, for each edge that is not the self-loop, in edge order, the four
flat matrix positions (u,u), (v,v), (u,v), (v,u) with signs +1, +1, -1, -1.
A solve then builds the reduced Laplacian with one ``np.bincount`` over
those positions.  ``bincount`` adds its weights in input order, starting
from 0.0, so every entry receives the same additions in the same order as
an edge-by-edge loop of ``+= c`` / ``-= c`` would make, and the matrix,
the potentials and the resistance are bit-identical to that loop's.  The
escape probability comes from the same solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ladderlab.ladder import LOWER, UPPER, LadderError, build, check_cells, check_weights

__all__ = ["ResistanceResult", "effective_resistance", "shorted_resistance", "escape_probability"]


@dataclass(frozen=True)
class ResistanceResult:
    """Effective resistance between the top-left corner and the shorted far
    end, with node potentials for the unit-current flow."""

    resistance: float
    conductance: float
    potentials: np.ndarray  # one entry per reduced node, far end last (grounded)
    harmonic_defect: float  # worst violation of current balance at interior nodes
    escape: float  # escape probability: conductance over the start vertex weight


@dataclass(frozen=True)
class _Plan:
    """What a solve on a ladder of one size needs besides the weights.
    Reduced node order: every vertex but the two at level n (in index
    order), then the merged far node last (the ground)."""

    corner: tuple[int, int]  # the source's edges, in incidence order
    size: int  # reduced node count
    source: int  # reduced index of the top-left corner
    flat: np.ndarray  # flat positions in the size x size Laplacian, four per edge
    edge: np.ndarray  # the edge whose weight each position receives
    sign: np.ndarray  # +1, +1, -1, -1 per edge


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


# walk-return and bound workloads cycle through up to ~20 sizes in one run
@lru_cache(maxsize=64)
def _plan(n: int) -> _Plan:
    graph = build(n)
    far = {graph.vertex(n, 1), graph.vertex(n, 2)}
    nodes = [v for v in range(graph.num_vertices) if v not in far]
    index = {v: k for k, v in enumerate(nodes)}
    size = len(nodes) + 1
    for v in far:
        index[v] = size - 1
    flat, edge = [], []
    for e, (_, u, v) in enumerate(graph.edges):
        iu, iv = index[u], index[v]
        if iu == iv:
            continue  # the last rung becomes a self-loop on the merged node
        flat += [iu * size + iu, iv * size + iv, iu * size + iv, iv * size + iu]
        edge += [e] * 4
    corner = tuple(e for e, _ in graph.incident[graph.vertex(0, 2)])
    return _Plan(corner=corner, size=size, source=index[graph.vertex(0, 2)],
                 flat=_frozen(flat, np.intp), edge=_frozen(edge, np.intp),
                 sign=_frozen([1.0, 1.0, -1.0, -1.0] * (len(edge) // 4), float))


def effective_resistance(x, n: int) -> ResistanceResult:
    """Resistance between the top-left corner and the shorted far end."""
    n = check_cells(n)
    x = check_weights(x, n)
    plan = _plan(n)
    size, source = plan.size, plan.source
    lap = np.bincount(plan.flat, weights=x[plan.edge] * plan.sign,
                      minlength=size * size).reshape(size, size)
    rhs = np.zeros(size - 1)
    rhs[source] = 1.0
    try:  # the ground (far end) is the last node: drop its row and column
        sol = np.linalg.solve(lap[:-1, :-1], rhs)
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise LadderError("singular network: weighted ladder should be connected") from err
    potentials = np.zeros(size)
    potentials[:-1] = sol
    resistance = float(potentials[source])
    if resistance <= 0:
        raise LadderError(f"nonpositive resistance {resistance}")
    # harmonicity: zero net current at every node but source and ground
    residual = lap @ potentials
    residual[source] -= 1.0
    residual[-1] = 0.0
    defect = float(np.max(np.abs(residual)))
    conductance = 1.0 / resistance
    escape = conductance / (x[plan.corner[0]] + x[plan.corner[1]])
    if not -1e-10 <= escape <= 1.0 + 1e-10:
        raise LadderError(f"escape probability {escape} outside [0, 1]")
    return ResistanceResult(
        resistance=resistance,
        conductance=conductance,
        potentials=potentials,
        harmonic_defect=defect,
        escape=float(min(max(escape, 0.0), 1.0)),
    )


def shorted_resistance(x, n: int) -> float:
    """Resistance after also shorting every intermediate rung: the rungs
    become irrelevant and the levels act as resistors in series."""
    v = check_weights(x, check_cells(n))
    # builtin sum, left to right over the levels: np.sum's pairwise order differs
    return float(sum((1.0 / (v[LOWER] + v[UPPER])).tolist()))


def escape_probability(x, n: int) -> float:
    """Chance that the fixed-weight walk started at the top-left corner
    reaches the far end before returning to its start: conductance divided
    by the start vertex weight."""
    return effective_resistance(x, n).escape
