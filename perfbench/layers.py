"""Layer entry points traced by the benchmark and the per-layer metrics.

``ENTRY_POINTS`` names the public functions of each layer module that the
traced run wraps in spans.  A function called through its module's globals
from inside the same module (``TransferContext.op`` calling
``assemble_kernel``, ``escape_probability`` calling
``effective_resistance``) is traced there too, as a child span.

``LEAVES`` names the environment energies under the names ``mcmc`` imported
them by: the sampler calls them on every site update, about a hundred times
per sweep, so they are traced as leaves and their time counts toward
``environment``, not ``mcmc``.

``METRICS`` is the per-layer table and its only copy: unit, direction, the
end-to-end metric the entry should move and the workloads on which it
should move it.  Layers that a workload leaves idle report 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ladderlab import certificates, environment, mcmc, network, transfer, walk

MB = 1e6
GB = 1e9

# proposals per sweep of each class in ``mcmc.sample_chain``, for n cells
_PROPOSALS_PER_SWEEP = {
    "z0": lambda n: 1, "x": lambda n: 2 * n, "z": lambda n: n - 1,
    "gamma": lambda n: n - 1, "zn": lambda n: 1, "sigma": lambda n: n,
    "tree": lambda n: n,
}


def _profile_counts(args, res):
    return {"steps": res.steps * res.replicas}


def _returns_counts(args, res):
    counts, undecided = res
    return {"episodes": int(counts.shape[0]), "undecided": int(undecided)}


def _escape_counts(args, res):
    return {"episodes": int(args["replicas"])}


def _sampler_counts(args, batch):
    cfg = args["cfg"]
    retained_sweeps = cfg.samples * cfg.thinning
    out = {"sweeps": cfg.burn_in + retained_sweeps, "cells": cfg.n}
    for kind, rate in batch.acceptance.items():
        proposed = retained_sweeps * _PROPOSALS_PER_SWEEP[kind](cfg.n)
        if proposed:
            out[f"proposed.{kind}"] = proposed
            out[f"accepted.{kind}"] = rate * proposed
    return out


def _bound_counts(args, rep):
    return {"points": rep.samples, "min_margin": rep.min_margin}


def _doubled(grid) -> bool:
    """True off the default grid; the workloads use only it and its doubling."""
    return grid.params != transfer.GridParams()


def _assemble_counts(args, op):
    return {"bytes": op.sym.nbytes, "doubled": _doubled(op.grid)}


def _triple_counts(args, tri):
    return {"iterations": tri.iterations, "doubled": _doubled(args["op"].grid)}


def _matvec_counts(args, res):
    op = args["self"]
    return {"bytes": op.sym.nbytes, "doubled": _doubled(op.grid)}


ENTRY_POINTS = [
    (walk, "profile_experiment", _profile_counts),
    (walk, "returns_before_far_end_detailed", _returns_counts),
    (walk, "escape_frequency", _escape_counts),
    (mcmc, "sample_chain", _sampler_counts),
    (mcmc, "tail_estimate", None),
    (mcmc, "sign_disagreement_rate", None),
    (mcmc, "environment_from_spin", None),
    (environment, "gibbs_identity_residual", None),
    (certificates, "check_middle_bound", _bound_counts),
    (network, "effective_resistance", None),
    (network, "shorted_resistance", None),
    (network, "escape_probability", None),
    (transfer, "assemble_kernel", _assemble_counts),
    (transfer, "leading_triple", _triple_counts),
    (transfer.OperatorMatrix, "apply_right", _matvec_counts),
    (transfer, "chain_expectation", None),
    (transfer, "sigma_moment_profile", None),
    (transfer, "symmetry_defect", None),
]


LEAVES = [(mcmc, "left_energy"), (mcmc, "middle_energy"), (mcmc, "right_energy")]


def leaf_name(attr: str) -> str:
    return f"environment.{attr}"


def span_name(owner, attr: str) -> str:
    layer = owner.__module__ if isinstance(owner, type) else owner.__name__
    prefix = layer.rsplit(".", 1)[-1]
    return f"{prefix}.{owner.__name__}.{attr}" if isinstance(owner, type) else f"{prefix}.{attr}"


def traced_targets(tracer):
    """``(owner, attribute, traced replacement)`` for every entry point and leaf."""
    return ([(owner, attr, tracer.wrap(span_name(owner, attr), getattr(owner, attr), count))
             for owner, attr, count in ENTRY_POINTS]
            + [(owner, attr, tracer.wrap_leaf(leaf_name(attr), getattr(owner, attr)))
               for owner, attr in LEAVES])


LAYERS = ("walk", "mcmc", "environment", "certificates", "network", "transfer")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: tuple  # the end-to-end metrics this entry should move
    on: tuple  # the workloads on which it should move them


_W, _R, _S, _T = "walk_profile", "walk_returns", "sampler", "spectrum"
_ALL = (_W, _R, _S, _T)
_WALL, _WALL_ERR, _WALL_RSS = ("wall_s",), ("wall_s", "error_rate"), ("wall_s", "peak_rss_mb")

METRICS = [
    Metric("walk.busy_s", "s", "lower", _WALL, (_W,)),
    Metric("walk.steps_per_s", "1/s", "higher", _WALL, (_W,)),
    Metric("walk.return_episodes_per_s", "1/s", "higher", _WALL_ERR, (_R,)),
    Metric("walk.escape_episodes_per_s", "1/s", "higher", _WALL_ERR, (_R,)),
    Metric("walk.undecided", "count", "lower", _WALL_ERR, (_R,)),
    Metric("mcmc.busy_s", "s", "lower", _WALL, (_S,)),
    Metric("mcmc.sweeps_per_s", "1/s", "higher", _WALL, (_S,)),
    Metric("mcmc.cell_sweeps_per_s", "1/s", "higher", _WALL, (_S,)),
    *[Metric(f"mcmc.accept.{kind}", "fraction", "higher", ("ess_per_s",), (_S,))
      for kind in _PROPOSALS_PER_SWEEP],
    Metric("mcmc.ess_min", "count", "higher", ("ess_per_s",), (_S,)),
    Metric("mcmc.ess_median", "count", "higher", ("ess_per_s",), (_S,)),
    Metric("ess_per_s", "1/s", "higher", _WALL, (_S,)),
    Metric("mcmc.estimators_s", "s", "lower", _WALL, (_S,)),
    Metric("environment.busy_s", "s", "lower", _WALL, (_S,)),
    Metric("environment.energy_evals_per_s", "1/s", "higher", _WALL, (_S,)),
    Metric("environment.identity_evals_per_s", "1/s", "higher", _WALL, (_S,)),
    Metric("certificates.busy_s", "s", "lower", _WALL_RSS, (_S,)),
    Metric("certificates.points_per_s", "1/s", "higher", _WALL_RSS, (_S,)),
    Metric("certificates.min_margin", "1", "higher", _WALL_RSS, (_S,)),
    Metric("network.busy_s", "s", "lower", _WALL, (_R, _S)),
    Metric("network.solves_per_s", "1/s", "higher", _WALL, (_R, _S)),
    Metric("transfer.busy_s", "s", "lower", _WALL_RSS, (_T,)),
    Metric("transfer.assemble_s", "s", "lower", _WALL_RSS, (_T,)),
    Metric("transfer.assemble_s.doubled", "s", "lower", _WALL_RSS, (_T,)),
    Metric("transfer.operator_mb", "MB", "lower", _WALL_RSS, (_T,)),
    Metric("transfer.matvec_s", "s", "lower", _WALL, (_T,)),
    Metric("transfer.matvec_s.doubled", "s", "lower", _WALL, (_T,)),
    Metric("transfer.matvec_gbps", "GB/s", "higher", _WALL, (_T,)),
    Metric("transfer.eigen_s", "s", "lower", _WALL, (_T,)),
    Metric("transfer.eigen_iterations", "count", "lower", _WALL, (_T,)),
    Metric("transfer.bracket_s", "s", "lower", _WALL, (_T,)),
    Metric("transfer.defect_s", "s", "lower", _WALL, (_T,)),
    Metric("trace.wall_s", "s", "lower", _WALL, _ALL),
    Metric("bench.self_s", "s", "lower", _WALL, _ALL),
    Metric("trace_overhead_frac", "fraction", "lower", _WALL, _ALL),
    Metric("error_rate", "fraction", "lower", ("error_rate",), _ALL),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, self_s, passes: int, pass_walls: list[float], ess: list[list[float]],
                  overhead_s: float, error_rate: float) -> dict[str, float]:
    """Per-layer metrics of a traced run, per pass where they are times.

    ``ess`` holds, per pass, the bulk ESS of every retained sampler field
    (empty lists on workloads without a sampler).
    """
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(k)

    def sel(name, doubled=None):
        """Indices of the spans called ``name``, on the default grid
        (``doubled=False``) or the doubled one (``True``) where that applies."""
        return [k for k in by_name.get(name, ())
                if doubled is None or spans[k].counts["doubled"] == doubled]

    def total(key, group):
        return sum(spans[k].counts[key] for k in group)

    def dur(group):
        return sum(spans[k].duration for k in group)

    def each(group, key=None):
        return [spans[k].duration if key is None else spans[k].counts[key] for k in group]

    busy = {layer: 0.0 for layer in LAYERS + ("bench",)}
    energy_calls = energy_s = 0  # the leaves are the energies
    for s, t in zip(spans, self_s):
        busy[s.layer] += t
        for name, (calls, seconds) in s.leaves.items():
            busy[name.split(".", 1)[0]] += seconds
            energy_calls += calls
            energy_s += seconds
    out = {f"{layer}.busy_s": busy[layer] / passes for layer in LAYERS}

    prof = sel("walk.profile_experiment")
    rets = sel("walk.returns_before_far_end_detailed")
    esc = sel("walk.escape_frequency")
    out["walk.steps_per_s"] = _ratio(total("steps", prof), dur(prof))
    out["walk.return_episodes_per_s"] = _ratio(total("episodes", rets), dur(rets))
    out["walk.escape_episodes_per_s"] = _ratio(total("episodes", esc), dur(esc))
    out["walk.undecided"] = total("undecided", rets) / passes

    chains = sel("mcmc.sample_chain")
    out["mcmc.sweeps_per_s"] = _ratio(total("sweeps", chains), dur(chains))
    out["mcmc.cell_sweeps_per_s"] = _ratio(
        sum(spans[k].counts["sweeps"] * spans[k].counts["cells"] for k in chains), dur(chains))
    for kind in _PROPOSALS_PER_SWEEP:  # pooled over the chains, after burn-in
        acc = sum(spans[k].counts.get(f"accepted.{kind}", 0.0) for k in chains)
        proposed = sum(spans[k].counts.get(f"proposed.{kind}", 0) for k in chains)
        out[f"mcmc.accept.{kind}"] = _ratio(acc, proposed)
    fields = [v for per_pass in ess for v in per_pass]
    out["mcmc.ess_min"] = min(fields, default=0.0)
    out["mcmc.ess_median"] = _median(fields)
    out["ess_per_s"] = _median([_median(e) / w for e, w in zip(ess, pass_walls) if e])
    estimators = sel("mcmc.tail_estimate") + sel("mcmc.sign_disagreement_rate")
    out["mcmc.estimators_s"] = dur(estimators) / passes

    out["environment.energy_evals_per_s"] = _ratio(energy_calls, energy_s)
    ident = sel("environment.gibbs_identity_residual")
    out["environment.identity_evals_per_s"] = _ratio(len(ident), dur(ident))

    bounds = sel("certificates.check_middle_bound")
    out["certificates.points_per_s"] = _ratio(total("points", bounds), dur(bounds))
    out["certificates.min_margin"] = min(each(bounds, "min_margin"), default=0.0)

    out["network.solves_per_s"] = _ratio(len(sel("network.effective_resistance")), busy["network"])

    # assemble_s: self time of every default-grid assembly, the gamma kernel's
    # rebuild of the plain one included; operator_mb: computed bytes of the
    # operators a pass holds (outermost assemblies only)
    asm = "transfer.assemble_kernel"
    held = [k for k in sel(asm) if spans[k].parent < 0 or spans[spans[k].parent].name != asm]
    out["transfer.assemble_s"] = sum(self_s[k] for k in sel(asm, False)) / passes
    out["transfer.assemble_s.doubled"] = sum(self_s[k] for k in sel(asm, True)) / passes
    out["transfer.operator_mb"] = total("bytes", held) / MB / passes
    mv = sel("transfer.OperatorMatrix.apply_right", False)
    out["transfer.matvec_s"] = _median(each(mv))
    out["transfer.matvec_s.doubled"] = _median(each(sel("transfer.OperatorMatrix.apply_right", True)))
    out["transfer.matvec_gbps"] = _ratio(_median(each(mv, "bytes")) / GB, out["transfer.matvec_s"])
    # eigen_s: median leading_triple call on the default grid, the defect's included
    tri = sel("transfer.leading_triple", False)
    out["transfer.eigen_s"] = _median(each(tri))
    out["transfer.eigen_iterations"] = _median(each(tri, "iterations"))
    out["transfer.bracket_s"] = dur(sel("transfer.chain_expectation")
                                    + sel("transfer.sigma_moment_profile")) / passes
    out["transfer.defect_s"] = dur(sel("transfer.symmetry_defect")) / passes

    traced_wall = sum(pass_walls)
    out["trace.wall_s"] = traced_wall / passes
    out["bench.self_s"] = busy["bench"] / passes
    out["trace_overhead_frac"] = _ratio(overhead_s, traced_wall - overhead_s)
    out["error_rate"] = error_rate
    return {m.name: float(out[m.name]) for m in METRICS}
