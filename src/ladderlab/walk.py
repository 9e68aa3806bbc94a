"""Exact simulation of the reinforced walk and of fixed-weight walks.

The reinforced walk starts every edge at weight ``a``; crossing an edge
raises its weight by one, and steps go to a neighbor with probability
proportional to the current weight of the connecting edge.  The
fixed-weight walk uses the same kernel with frozen weights.

A "return" is any arrival at the left rung pair (either of the two level-0
vertices) at a positive time; consecutive arrivals while bouncing on the
left rung all count.  Return-based experiments stop a replica as soon as
its return target is reached, so they stay cheap even on long ladders.

One step kernel runs every walk with one list write per step: a reinforced
walk keeps only its weights and reads its local times back as
``rint(w - a)``, a fixed-weight walk keeps only its crossing counts, and a
run's returns follow from the arrival identity at the left rung pair.
Reinforced runs whose weights could pass 2**50 are refused.  A step makes
no stop check: the step table lists each stop vertex shifted past the last
vertex, the failed table read after an arrival there ends the episode, and
the uniforms left in its block (16 doubling to 8192) give the steps taken.
Return and escape replicas read the stream ``RngSpec(seed, stream + r)``
through one bit generator re-seeded per replica from bulk-computed states
(``rng._stream_states``), the same uniforms as that spec's own generator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from operator import length_hint
from typing import Iterator, Sequence

import numpy as np

from ladderlab.ladder import (EdgeWeights, InputRefused, LadderError, LadderGraph, build, check_int,
                              check_weight, check_weights)
from ladderlab.rng import RngSpec, _stream_states
from ladderlab.stats import linear_fit

__all__ = [
    "WalkTrace",
    "errw_run",
    "rwre_run",
    "path_probability_errw",
    "local_time_profile",
    "returns_before_far_end_detailed",
    "escape_frequency",
    "profile_experiment",
    "ProfileResult",
]

_FIRST_BLOCK, _BLOCK = 16, 1 << 13
# w + 1.0 rounds only when w enters a new binade, so a weight that stays at most
# this large is a + k to within ulp(w) <= 1/4: rint(w - a) is its local time k
_MAX_WEIGHT = 2 ** 50


@dataclass(frozen=True)
class WalkTrace:
    """Outcome of one walk run."""

    local_times: np.ndarray  # crossings per edge; sums to the steps taken
    position: int
    returns: int  # arrivals at the left rung pair at positive times


class _Uniforms:
    """One generator's uniforms, drawn in blocks of ``_FIRST_BLOCK``
    doubling up to ``_BLOCK``.  PCG64 gives ``random(m)`` then ``random(k)``
    the values of ``random(m + k)``: the stream is that of fixed blocks, and
    a short episode draws a few dozen values instead of a full block."""

    def __init__(self, gen: np.random.Generator):
        self.gen, self.buf, self.ptr, self.size = gen, [], 0, _FIRST_BLOCK

    def refill(self) -> None:
        self.buf, self.ptr = self.gen.random(self.size).tolist(), 0
        self.size = min(2 * self.size, _BLOCK)


def _replica_uniforms(rng: RngSpec, replicas: int) -> Iterator[_Uniforms]:
    """Replica r's uniforms, the stream of ``RngSpec(rng.seed, rng.stream + r)``:
    one bit generator is re-seeded in place per replica from the bulk states
    of ``rng._stream_states``, so a replica's uniforms are valid only until
    the next replica's are drawn."""
    bits = np.random.PCG64()
    gen = np.random.Generator(bits)
    for state in _stream_states(rng.seed, rng.stream, replicas):
        bits.state = state
        yield _Uniforms(gen)


@lru_cache(maxsize=16)
def _step_table(n: int, stops: tuple[int, ...] = ()) -> tuple[tuple[int, ...], ...]:
    """Per vertex ``(e0, n0, e1, n1, e2, n2)``: incident edges and the
    neighbors across them in incidence order, ``e2 = -1`` at degree 2.  A
    neighbor listed in ``stops`` appears as its index plus the vertex count,
    so a walk that arrives there fails its next table read (see ``_advance``)."""
    graph = build(n)
    shifted = [(v in stops) * graph.num_vertices + v for v in range(graph.num_vertices)]
    return tuple(sum(((e, shifted[v]) for e, v in opts), ()) + (-1, -1) * (3 - len(opts))
                 for opts in graph.incident)


def _check_reinforced(a: float, steps: int) -> None:
    """Refuse a reinforced walk whose weights could pass ``_MAX_WEIGHT``."""
    if check_weight(a) > _MAX_WEIGHT - steps:
        raise InputRefused(f"a + steps = {a} + {steps} exceeds 2**50: reinforcement would stall")


def _advance(table, w: list[float], acc: list, d, pos: int, budget: int,
             uniforms: _Uniforms) -> tuple[int, int]:
    """The step rule: advance one walk by at most ``budget`` steps, stopping on
    arrival at a vertex that ``table`` lists shifted by the vertex count (see
    ``_step_table``).  A step from ``pos`` crosses an incident edge with
    probability proportional to its weight in ``w`` and adds ``d`` to that
    edge's entry of ``acc``, its one write: a reinforced walk passes
    ``acc is w`` and ``d = 1.0``, a fixed-weight walk a list of integer
    crossing counts and ``d = 1``.  No step checks for a stop: the read of
    ``table`` at a shifted position raises ``IndexError``, caught once outside
    the loop, so ``w`` and ``acc`` must hold an entry for every edge; the steps
    taken are read from the uniforms left in the block's iterator.  Each
    ``x < y`` decides as the subtraction ``x - y < 0.0`` of the step rule: a
    float difference is negative exactly when ``x < y`` (subnormals keep it
    from rounding to zero).  Returns ``(pos, steps taken)``, ``pos`` unshifted."""
    left, vertices = budget, len(table)
    try:
        while left > 0:
            if uniforms.ptr == len(uniforms.buf):
                uniforms.refill()
            lo = uniforms.ptr
            hi = min(len(uniforms.buf), lo + left)
            uniforms.ptr = hi
            left -= hi - lo
            for u in (block := iter(uniforms.buf[lo:hi])):
                e0, n0, e1, n1, e2, n2 = table[pos]
                w0 = w[e0]
                if e2 >= 0:
                    w1 = w[e1]
                    r = u * (w0 + w1 + w[e2])
                    if r < w0:
                        acc[e0] += d
                        pos = n0
                    elif r - w0 < w1:
                        acc[e1] += d
                        pos = n1
                    else:
                        acc[e2] += d
                        pos = n2
                elif u * (w0 + w[e1]) < w0:
                    acc[e0] += d
                    pos = n0
                else:
                    acc[e1] += d
                    pos = n1
    except IndexError:
        # the uniform in hand and the block's uniforms past it stay in the stream
        unused = length_hint(block) + 1
        uniforms.ptr = hi - unused
        return pos - vertices, budget - left - unused
    # the budget ran out, possibly on the step that reached a stop
    return (pos - vertices if pos >= vertices else pos), budget - left


def _trace_run(graph: LadderGraph, w: list[float], a: float | None, steps: int, start: int,
               rng: RngSpec) -> WalkTrace:
    """A walk of ``steps`` steps from weights ``w``, reinforced unless ``a`` is None."""
    start = check_int(start, "start", 0, graph.num_vertices - 1)
    acc, d = (w, 1.0) if a is not None else ([0] * graph.num_edges, 1)
    pos, _ = _advance(_step_table(graph.n), w, acc, d, start, steps, _Uniforms(rng.generator()))
    k = np.array(acc, dtype=np.int64) if a is None else np.rint(np.array(w) - a).astype(np.int64)
    if int(k.sum()) != steps:
        raise LadderError(f"local times sum to {int(k.sum())}, not to the {steps} steps taken")
    # crossings of the edges at the left rung pair (the rung listed twice) count its
    # arrivals plus departures, and departures = arrivals + [start there] - [end there]
    left = [e for v in (0, 1) for e, _ in graph.incident[v]]
    returns = (int(k[left].sum()) + (pos <= 1) - (start <= 1)) // 2
    return WalkTrace(local_times=k, position=pos, returns=returns)


def errw_run(graph: LadderGraph, a: float, steps: int, start: int, rng: RngSpec) -> WalkTrace:
    """Run the reinforced walk for ``steps`` steps (``a + steps <= 2**50``)."""
    steps = check_int(steps, "steps", 0)
    _check_reinforced(a, steps)
    return _trace_run(graph, [float(a)] * graph.num_edges, float(a), steps, start, rng)


def rwre_run(graph: LadderGraph, x: EdgeWeights, steps: int, start: int, rng: RngSpec) -> WalkTrace:
    """Run the fixed-weight (reversible) walk for ``steps`` steps."""
    steps = check_int(steps, "steps", 0)
    return _trace_run(graph, check_weights(x, graph.n).tolist(), None, steps, start, rng)


def path_probability_errw(graph: LadderGraph, path: Sequence, a) -> Fraction | float:
    """Exact probability that the reinforced walk follows the given vertex
    path, given as vertex indices or ``(i, level)`` pairs; rational
    arithmetic when ``a`` is rational and the path is short."""
    last = graph.num_vertices - 1
    verts = [graph.vertex(*v) if isinstance(v, (tuple, list)) else check_int(v, "vertex", 0, last)
             for v in path]
    if len(verts) < 2:
        return Fraction(1) if isinstance(a, (int, Fraction)) else 1.0
    exact = isinstance(a, (int, Fraction)) and len(verts) <= 33
    one = Fraction(1) if exact else 1.0
    base = Fraction(a) if exact else float(a)
    extra: dict[int, object] = {}
    prob = one
    for u, v in zip(verts[:-1], verts[1:]):
        e_uv = graph.edge_between(u, v)  # raises on non-adjacent steps
        tot = base * 0
        for e, _ in graph.incident[u]:
            tot += base + extra.get(e, 0)
        prob *= (base + extra.get(e_uv, 0)) / tot
        extra[e_uv] = extra.get(e_uv, 0) + 1
    return prob


def local_time_profile(trace: WalkTrace, graph: LadderGraph,
                       representative: str = "rung") -> list[tuple[int, float]]:
    """Per level, the local time of one representative edge relative to the
    left rung.  Levels run 1..n; the left rung itself has ratio 1 at level 0."""
    pick = {
        "rung": graph.rung_index,
        "lower": graph.lower_index,
        "upper": graph.upper_index,
    }.get(representative)
    if pick is None:
        raise LadderError(f"unknown representative edge kind {representative!r}")
    k0 = int(trace.local_times[graph.rung_index(0)])
    if k0 == 0:
        raise LadderError("left rung was never crossed; run longer")
    return [(i, float(trace.local_times[pick(i)]) / k0) for i in range(1, graph.n + 1)]


# ---------------------------------------------------------------------------
# return counting before reaching the far end


def returns_before_far_end_detailed(levels: Sequence[int], a: float, k_cap: int,
                                    rng: RngSpec, replicas: int,
                                    step_cap: int = 10_000_000) -> tuple[np.ndarray, int]:
    """Return counts before first reaching each level, coupled across levels,
    and how many replicas hit the step cap undecided.

    One reinforced trajectory per replica, on the largest requested ladder,
    decides every level at once (common random numbers), so the empirical
    fractions are pathwise monotone in the level.  Counts have shape
    (replicas, len(levels)): per level, the returns seen strictly before the
    walk first reaches it, capped at ``k_cap``.  A replica that exhausts the
    step cap while still undecided (reinforcement can trap the walk
    mid-ladder for a very long stretch) keeps the returns seen so far on its
    pending levels, the conservative resolution; one that reached ``k_cap``
    returns is decided even on its last allowed step, as no later step can
    change a capped count.  ``a + step_cap`` may be at most 2**50."""
    levels = [check_int(v, "level", 1) for v in levels]
    if not levels:
        raise InputRefused("need one or more levels")
    k_cap, replicas = check_int(k_cap, "k_cap", 1), check_int(replicas, "replicas", 1)
    step_cap = check_int(step_cap, "step_cap", 1)
    _check_reinforced(a, step_cap)
    graph = build(max(levels))
    # stop at every return and on first reaching the lowest pending level
    tables = {lev: _step_table(graph.n, tuple(v for v in range(graph.num_vertices)
                                              if v <= 1 or v >> 1 >= lev))
              for lev in levels}
    out, undecided = np.empty((replicas, len(levels)), dtype=np.int64), 0
    for r, uniforms in enumerate(_replica_uniforms(rng, replicas)):
        w = [float(a)] * graph.num_edges
        pos, returns, used = graph.vertex(0, 2), 0, 0
        pending, counts = sorted(levels), {}
        while pending and returns < k_cap and used < step_cap:
            pos, taken = _advance(tables[pending[0]], w, w, 1.0, pos, step_cap - used, uniforms)
            used += taken
            returns += pos <= 1  # a step was taken: ending on the left rung is a return
            while pending and pos >> 1 >= pending[0]:
                counts[pending.pop(0)] = returns
        out[r] = [counts.get(lev, returns) for lev in levels]
        undecided += bool(pending) and returns < k_cap and used >= step_cap
    return out, undecided


def escape_frequency(graph: LadderGraph, x: EdgeWeights, rng: RngSpec, replicas: int,
                     step_cap: int = 10_000_000) -> float:
    """Monte Carlo frequency of reaching the far end before returning to the
    start vertex, for the fixed-weight walk started at the top-left corner."""
    w = check_weights(x, graph.n).tolist()
    replicas, step_cap = check_int(replicas, "replicas", 1), check_int(step_cap, "step_cap", 1)
    start = graph.vertex(0, 2)
    stops = (start,) + tuple(v for v in range(graph.num_vertices) if v >> 1 >= graph.n)
    table = _step_table(graph.n, stops)
    k = [0] * graph.num_edges  # crossings are not reported
    escapes = 0
    for uniforms in _replica_uniforms(rng, replicas):
        pos, taken = _advance(table, w, k, 1, start, step_cap, uniforms)
        if taken == 0 or pos not in stops:
            raise LadderError(f"episode undecided after {step_cap} steps")
        escapes += pos != start
    return escapes / replicas


# ---------------------------------------------------------------------------
# the local-time decay experiment


@dataclass(frozen=True)
class ProfileResult:
    """Level-by-level local-time decay statistics over replicas.

    The envelope rate is an origin-anchored fit through an upper quantile
    of the early-level log ratios; the per-level envelope fraction then
    reads how the share of replicas below that exponential envelope evolves
    along the ladder (it should approach one).
    """

    n: int
    a: float
    steps: int
    replicas: int
    representative: str
    log_ratios: np.ndarray  # (replicas, n); +-inf mark untouched edges
    median_log_ratio: np.ndarray
    slope: float
    intercept: float
    r2: float
    fit_levels: tuple[int, int]
    envelope_rate: float
    envelope_quantile: float
    envelope_fraction: np.ndarray  # per level, fraction with ratio <= exp(-rate*i)

    def to_json(self) -> dict:
        """Every field but the per-replica ``log_ratios``; arrays and tuples
        stay as they are (the CLI's strict-JSON writer lists them)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "log_ratios"}


# the envelope rate is calibrated on these levels (clipped to n) through
# this quantile of the replicas' log ratios
_ENVELOPE_LEVELS, _ENVELOPE_QUANTILE = (1, 4), 0.8


def _profile_replica(args) -> np.ndarray:
    n, a, steps, seed, stream, representative = args
    graph = build(n)
    trace = errw_run(graph, a, steps, graph.vertex(0, 2), RngSpec(seed, stream))
    if trace.local_times[graph.rung_index(0)] == 0:
        # the replica never crossed the left rung: its ratios are infinite,
        # which is the conservative direction for every decay statistic
        return np.full(n, np.inf)
    return np.array([ratio for _, ratio in local_time_profile(trace, graph, representative)])


def profile_experiment(n: int, a: float, steps: int, replicas: int, rng: RngSpec,
                       workers: int = 1, representative: str = "rung",
                       fit_levels: tuple[int, int] = (2, 12)) -> ProfileResult:
    """Replicated local-time decay profile of the reinforced walk.

    Fits a line to the per-level median log ratio on ``fit_levels``, and an
    origin-anchored envelope rate through the ``_ENVELOPE_QUANTILE`` of the
    log ratios on the levels ``_ENVELOPE_LEVELS`` (clipped to ``n``);
    reports per level the fraction of replicas whose ratio sits below the
    envelope.  Replicas that never cross the left rung enter with infinite
    ratios.  Raises ``InputRefused`` before any walk runs unless
    ``replicas >= 1``, the fit range, clipped to ``n``, holds two or more
    levels of 1..n and ``a + steps`` is at most 2**50.
    """
    n, steps = check_int(n, "n", 1), check_int(steps, "steps", 0)
    _check_reinforced(a, steps)
    replicas = check_int(replicas, "replicas", 1)
    if representative not in ("rung", "lower", "upper"):
        raise InputRefused(f"unknown representative edge kind {representative!r}")
    lo = check_int(fit_levels[0], "fit_levels[0]", 1)
    hi = min(check_int(fit_levels[1], "fit_levels[1]", 1), n)
    if not lo < hi:
        raise InputRefused(f"fit range {lo}..{hi} (clipped to n={n}) "
                           f"is not two or more levels in 1..{n}")
    env_levels = np.arange(_ENVELOPE_LEVELS[0], min(_ENVELOPE_LEVELS[1], n) + 1)
    jobs = [(n, a, steps, rng.seed, rng.stream + r, representative) for r in range(replicas)]
    if workers > 1:
        # imported here: the process-pool machinery costs every import of
        # this module about 17 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_profile_replica, jobs, chunksize=4))
    else:
        rows = [_profile_replica(j) for j in jobs]
    ratios = np.vstack(rows)
    with np.errstate(divide="ignore"):
        log_ratios = np.log(ratios)
    median = np.median(log_ratios, axis=0)
    levels = np.arange(lo, hi + 1)
    med_fit = median[lo - 1:hi]
    if not np.all(np.isfinite(med_fit)):
        raise LadderError("median log ratio not finite on the fit range; run longer")
    slope, intercept, r2 = linear_fit(levels, med_fit)
    with np.errstate(invalid="ignore"):  # quantile interpolation near inf entries
        env_q = np.quantile(log_ratios[:, env_levels - 1], _ENVELOPE_QUANTILE, axis=0)
    if not np.all(np.isfinite(env_q)):
        raise LadderError("envelope quantile not finite on the calibration range")
    rate = -float(np.sum(env_levels * env_q) / np.sum(env_levels * env_levels))
    thresholds = -rate * np.arange(1, n + 1)
    fraction = np.mean(log_ratios <= thresholds[None, :] + 1e-12, axis=0)
    return ProfileResult(
        n=n, a=a, steps=steps, replicas=replicas, representative=representative,
        log_ratios=log_ratios, median_log_ratio=median,
        slope=slope, intercept=intercept, r2=r2, fit_levels=(lo, hi),
        envelope_rate=rate, envelope_quantile=_ENVELOPE_QUANTILE,
        envelope_fraction=fraction,
    )
