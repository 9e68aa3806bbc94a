"""Electric-network quantities of the weighted ladder.

Edges carry conductances; the far end of the ladder is shorted into a
single node before assembling the Laplacian, so the last rung drops out as
a self-loop.  Ladders are tiny, so everything is a dense direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ladderlab.ladder import EdgeWeights, LadderError, LadderGraph, build

__all__ = ["ResistanceResult", "effective_resistance", "shorted_resistance", "escape_probability"]


@dataclass(frozen=True)
class ResistanceResult:
    """Effective resistance between the top-left corner and the shorted far
    end, with node potentials for the unit-current flow."""

    resistance: float
    conductance: float
    potentials: np.ndarray  # one entry per reduced node, far end last (grounded)
    harmonic_defect: float  # worst violation of current balance at interior nodes


def _as_weights(x, n: int) -> EdgeWeights:
    if not isinstance(x, EdgeWeights):
        x = EdgeWeights(np.asarray(x, dtype=float))
    if x.n != n:
        raise LadderError(f"weights are for n={x.n}, requested n={n}")
    return x


def _reduced_laplacian(graph: LadderGraph, x: EdgeWeights) -> tuple[np.ndarray, dict[int, int]]:
    """Weighted Laplacian with the far-end pair merged into one node.

    Node order: all vertices except the two at level n (in index order),
    then the merged far node last.
    """
    n = graph.n
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
            continue  # the last rung becomes a self-loop on the merged node
        c = x.values[e]
        lap[iu, iu] += c
        lap[iv, iv] += c
        lap[iu, iv] -= c
        lap[iv, iu] -= c
    return lap, index


def effective_resistance(x, n: int) -> ResistanceResult:
    """Resistance between the top-left corner and the shorted far end."""
    graph = build(n)
    x = _as_weights(x, n)
    lap, index = _reduced_laplacian(graph, x)
    size = lap.shape[0]
    source = index[graph.vertex(0, 2)]
    ground = size - 1
    keep = [k for k in range(size) if k != ground]
    rhs = np.zeros(size)
    rhs[source] = 1.0
    try:
        sol = np.linalg.solve(lap[np.ix_(keep, keep)], rhs[keep])
    except np.linalg.LinAlgError as err:  # pragma: no cover
        raise LadderError("singular network: weighted ladder should be connected") from err
    potentials = np.zeros(size)
    potentials[keep] = sol
    resistance = float(potentials[source])
    if resistance <= 0:
        raise LadderError(f"nonpositive resistance {resistance}")
    # harmonicity: zero net current at every node but source and ground
    residual = lap @ potentials
    residual[source] -= 1.0
    residual[ground] = 0.0
    defect = float(np.max(np.abs(residual)))
    return ResistanceResult(
        resistance=resistance,
        conductance=1.0 / resistance,
        potentials=potentials,
        harmonic_defect=defect,
    )


def shorted_resistance(x, n: int) -> float:
    """Resistance after also shorting every intermediate rung: the rungs
    become irrelevant and the levels act as resistors in series."""
    x = _as_weights(x, n)
    return float(sum(1.0 / (x.lower(i) + x.upper(i)) for i in range(1, n + 1)))


def escape_probability(x, n: int) -> float:
    """Chance that the fixed-weight walk started at the top-left corner
    reaches the far end before returning to its start: conductance divided
    by the start vertex weight."""
    graph = build(n)
    x = _as_weights(x, n)
    result = effective_resistance(x, n)
    x_start = x.vertex_weight(graph, graph.vertex(0, 2))
    value = result.conductance / x_start
    if not -1e-10 <= value <= 1.0 + 1e-10:
        raise LadderError(f"escape probability {value} outside [0, 1]")
    return float(min(max(value, 0.0), 1.0))
