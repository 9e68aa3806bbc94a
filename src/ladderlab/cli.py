"""Batch experiment driver.

Every module is exposed as one subcommand with JSON or CSV outputs.  Flag
values override config-file values, which override defaults; the effective
configuration is echoed into every output document for provenance.  Exit
codes: 0 success with all internal checks passing, 1 check failure (a
machine-readable failure report is still written), 2 configuration error.

Outputs are deterministic given the seed: no timestamps, sorted JSON keys,
fixed float formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from ladderlab import certificates, environment, ladder, mcmc, network, transfer, walk
from ladderlab.ladder import EdgeWeights, LadderError
from ladderlab.rng import RngSpec
from ladderlab.stats import slope_interval, wilson_interval

CSV_SCHEMA_VERSION = 1
SUBCOMMANDS = (
    "simulate", "profile", "sample-env", "verify", "spectrum",
    "chain-stats", "resistance", "returns",
)

__all__ = ["main", "run", "load_schema", "validate_config"]


# ---------------------------------------------------------------------------
# minimal JSON-schema validation (type / enum / bounds / required subset)


def load_schema() -> dict:
    with resources.files("ladderlab.schemas").joinpath("run_config.schema.json").open() as fh:
        return json.load(fh)


def _check(doc, schema, path) -> list[str]:
    errors = []
    typ = schema.get("type")
    if typ == "object":
        if not isinstance(doc, dict):
            return [f"{path}: expected object"]
        for key in schema.get("required", ()):
            if key not in doc:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                errors.extend(_check(doc[key], sub, f"{path}.{key}"))
    elif typ == "array":
        if not isinstance(doc, list):
            return [f"{path}: expected array"]
        item_schema = schema.get("items")
        if item_schema:
            for idx, item in enumerate(doc):
                errors.extend(_check(item, item_schema, f"{path}[{idx}]"))
    elif typ == "integer":
        if not isinstance(doc, int) or isinstance(doc, bool):
            return [f"{path}: expected integer"]
    elif typ == "number":
        if not isinstance(doc, (int, float)) or isinstance(doc, bool):
            return [f"{path}: expected number"]
    elif typ == "string":
        if not isinstance(doc, str):
            return [f"{path}: expected string"]
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not one of {schema['enum']}")
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if "minimum" in schema and doc < schema["minimum"]:
            errors.append(f"{path}: {doc} below minimum {schema['minimum']}")
        if "maximum" in schema and doc > schema["maximum"]:
            errors.append(f"{path}: {doc} above maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema and doc <= schema["exclusiveMinimum"]:
            errors.append(f"{path}: {doc} not above {schema['exclusiveMinimum']}")
    return errors


def validate_config(doc: dict) -> list[str]:
    return _check(doc, load_schema(), "$")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# output helpers


def _strict(obj):
    """The document in strict-JSON terms: NaN becomes null, +-inf the
    strings "inf"/"-inf", arrays and NumPy scalars plain lists and numbers."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isnan(val):
            return None
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        return val
    return obj


def _write_json(path: Path | None, doc: dict) -> None:
    text = json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        path.write_text(text + "\n")


def _write_csv(path: Path | None, header: list[str], rows, config: dict) -> None:
    lines = [
        f"# ladderlab csv schema v{CSV_SCHEMA_VERSION}",
        "# config: " + json.dumps(_strict(config), sort_keys=True, allow_nan=False),
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # NumPy scalars repr as np.float64(...)
    return str(v)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (ok, report)


def _grid_params(name: str) -> transfer.GridParams:
    base = transfer.GridParams()
    if name == "default":
        return base
    if name == "small":
        return transfer.GridParams(nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48)
    if name == "doubled":
        return base.doubled()
    raise ConfigError(f"unknown grid preset {name!r}")


def _load_weights(spec: str | None, n: int) -> EdgeWeights:
    if spec is None or spec == "unit":
        return EdgeWeights(np.ones(3 * n + 1))
    doc = json.loads(Path(spec).read_text())
    return EdgeWeights(np.asarray(doc["x"], dtype=float))


def cmd_simulate(cfg: dict):
    p = cfg["params"]
    graph = ladder.build(p["n"])
    start = graph.vertex(*p.get("start", (0, 2)))
    rows = []
    for r in range(p["replicas"]):
        rng = RngSpec(cfg["seed"], r)
        if p.get("mode", "errw") == "errw":
            trace = walk.errw_run(graph, p["a"], p["steps"], start, rng)
        else:
            trace = walk.rwre_run(graph, _load_weights(p.get("weights"), p["n"]), p["steps"], start, rng)
        rows.append([r, trace.position, trace.returns] + trace.local_times.tolist())
    header = ["replica", "last_vertex", "returns"] + [f"k_edge_{e}" for e in range(graph.num_edges)]
    report = {"rows": rows, "header": header}
    return True, report


def cmd_profile(cfg: dict):
    p = cfg["params"]
    res = walk.profile_experiment(
        p["n"], p["a"], p["steps"], p["replicas"], RngSpec(cfg["seed"]),
        workers=cfg["workers"], representative=p.get("representative", "rung"),
        fit_levels=(p.get("fit_lo", 2), p.get("fit_hi", 12)),
    )
    lo, hi, se = slope_interval(
        np.arange(res.fit_levels[0], res.fit_levels[1] + 1),
        res.median_log_ratio[res.fit_levels[0] - 1:res.fit_levels[1]],
    )
    rows = []
    for r in range(res.replicas):
        for lvl in range(1, res.n + 1):
            lr = res.log_ratios[r, lvl - 1]
            rows.append([r, lvl, math.exp(lr), lr])  # exp(+-inf) is inf / 0.0
    summary = res.to_json()
    summary["slope_ci"] = [lo, hi]
    summary["slope_stderr"] = se
    ok = res.slope < 0
    return ok, {"rows": rows, "header": ["replica", "level", "ratio", "log_ratio"],
                "summary": summary}


def cmd_sample_env(cfg: dict):
    p = cfg["params"]
    mc = mcmc.McmcConfig(
        n=p["n"], a=p["a"], deform_j=p.get("deform_j", 0),
        burn_in=p.get("burn_in", 2000), thinning=p.get("thinning", 2),
        samples=p["samples"], rng=RngSpec(cfg["seed"]),
    )
    batch = mcmc.sample_chain(mc)
    n = p["n"]
    header = (["sweep", "Z0"]
              + [f"Xlo_{i}" for i in range(1, n + 1)]
              + [f"Xhi_{i}" for i in range(1, n + 1)]
              + [f"sigma_{i}" for i in range(1, n + 1)]
              + [f"T_{i}" for i in range(1, n + 1)]
              + [f"Z_{i}" for i in range(1, n)]
              + [f"Gamma_{i}" for i in range(1, n)]
              + ["Zn"])
    rows = []
    for k in range(batch.size):
        row = [k, float(batch.z0[k])]
        row += batch.xlo[k].tolist() + batch.xhi[k].tolist()
        row += batch.sigma[k].tolist()
        row += ["ABCD"[v] for v in batch.t[k]]
        row += batch.z[k].tolist() + batch.gamma[k].tolist()
        row += [float(batch.zn[k])]
        rows.append(row)
    summary = {
        "acceptance": batch.acceptance,
        "ess": batch.ess,
        "tuned_scales": batch.tuned_scales,
        "warnings": batch.warnings,  # diagnostics, not failures
        "mean_Gamma": batch.gamma.mean(axis=0).tolist() if n > 1 else [],
    }
    return True, {"rows": rows, "header": header, "summary": summary}


def cmd_verify(cfg: dict):
    p = cfg["params"]
    suite = p.get("suite", "all")
    seed = cfg["seed"]
    checks = []

    def add(name, passed, details):
        checks.append({"name": name, "passed": bool(passed), "details": details})

    if suite in ("minorant", "all"):
        rep = certificates.verify_linear_minorant()
        add("minorant", rep.passed, rep.details)
    if suite in ("middle-bound", "all"):
        samples = p.get("samples", 100_000)
        for a in (0.8, 1.0, 5.0):
            for eta in (-0.25, 0.0, 0.25):
                rep = certificates.check_middle_bound(samples, a, eta, rng=RngSpec(seed))
                add(f"middle-bound a={a} eta={eta}", rep.passed,
                    {"min_margin": rep.min_margin, "samples": rep.samples})
    if suite in ("boundary-bound", "all"):
        samples = p.get("samples", 100_000)
        for a in (0.75, 1.0):
            for side in ("left", "right"):
                rep = certificates.check_boundary_bound(samples, a, side, rng=RngSpec(seed))
                add(f"boundary-bound a={a} {side}", rep.passed,
                    {"min_margin": rep.min_margin, "samples": rep.samples})
    if suite in ("gibbs-identity", "all"):
        count = p.get("samples", 10_000) // 9
        worst = environment.gibbs_identity_sweep(RngSpec(seed, 17).generator(), count)
        add("gibbs-identity", worst < 1e-9, {"max_residual": worst, "samples": count * 9})
    if suite in ("scaling", "all"):
        count = p.get("samples", 10_000)
        worst = environment.scaling_law_residual(RngSpec(seed, 23).generator(), count)
        add("scaling", worst < 1e-12, {"max_relative_residual": worst, "samples": count})
    if suite in ("gamma-derivatives", "all"):
        gen = RngSpec(seed, 29).generator()
        worst = 0.0
        count = p.get("samples", 10_000) // 20
        for _ in range(count):
            t, t2 = certificates.PAIRS[gen.integers(len(certificates.PAIRS))]
            c1 = environment.CycleSpin(gen.normal(scale=2), gen.normal(scale=2), -1, t)
            c2 = environment.CycleSpin(gen.normal(scale=2), gen.normal(scale=2), 1, t2)
            r = environment.RungSpin(gen.normal(scale=2), gen.normal(scale=2))
            g = float(gen.uniform(-1, 1))
            d1, d2 = certificates.gamma_derivatives(c1, r, c2, 1.0, g)
            h = 1e-4

            def f(shift):
                return environment.middle_energy(
                    c1.xlo, c1.xhi, c1.sigma, environment.T_TO_INT[c1.t],
                    r.z, r.gamma + shift, c2.xlo, c2.xhi, c2.sigma,
                    environment.T_TO_INT[c2.t], 1.0, 0.0)

            fd1 = (f(g + h) - f(g - h)) / (2 * h)
            fd2 = (f(g + h) - 2 * f(g) + f(g - h)) / (h * h)
            worst = max(worst, abs(d1 - fd1) / max(1, abs(fd1)), abs(d2 - fd2) / max(1, abs(fd2)))
        add("gamma-derivatives", worst < 1e-4, {"max_relative_fd_error": worst, "samples": count})

    ok = all(c["passed"] for c in checks)
    return ok, {"summary": {"suite": suite, "passed": ok, "checks": checks}}


def cmd_spectrum(cfg: dict):
    p = cfg["params"]
    a = p.get("a", 1.0)
    eta = p.get("eta", 0.0)
    grid = transfer.build_grid(_grid_params(p.get("grid", "default")), a=a)
    ctx = transfer.TransferContext(grid, a)
    tri = transfer.leading_triple(ctx.op(eta))
    summary = {
        "a": a, "eta": eta, "grid": p.get("grid", "default"),
        "grid_size": grid.size,
        "lambda": tri.value,
        "gap": tri.gap,  # |lambda2| / lambda1
        "gap_residual": tri.gap_residual,
        "gap_iterations": tri.gap_iterations,
        "residual_left": tri.residual_left,
        "residual_right": tri.residual_right,
        "hs_norm": ctx.op(eta).hs_norm(),
        "conservative_radius": grid.conservative_radius,
    }
    defect = transfer.symmetry_defect(ctx)
    summary["symmetry_defect"] = defect["defect"]
    summary["symmetry_control_quarter"] = defect["control_quarter"]
    if p.get("dump_matrix"):
        ops = ctx.op(eta)
        rows = ([i] + row.tolist() for i, row in enumerate(ops.kernel_values()))
        _write_csv(Path(p["dump_matrix"]), ["row"] + [f"c{j}" for j in range(grid.size)],
                   rows, {"a": a, "eta": eta, "grid_size": grid.size})
    ok = (tri.value > 0 and tri.residual_left < 1e-10 and tri.residual_right < 1e-10
          and tri.gap < 1 and defect["defect"] < 1e-8)
    return ok, {"summary": summary}


def cmd_chain_stats(cfg: dict):
    p = cfg["params"]
    a = p.get("a", 1.0)
    n, j, i = p["n"], p["j"], p["i"]
    grid = transfer.build_grid(_grid_params(p.get("grid", "default")), a=a)
    ctx = transfer.TransferContext(grid, a)
    op_val = transfer.chain_expectation(ctx, n, j, i, tag=p.get("tag", "gamma"))
    summary = {"n": n, "j": j, "i": i, "a": a, "operator_value": op_val}
    ok = True
    m = p.get("mcmc_samples", 0)
    if m:
        batch = mcmc.sample_chain(mcmc.McmcConfig(
            n=n, a=a, deform_j=j, burn_in=max(2000, m // 10),
            thinning=2, samples=m, rng=RngSpec(cfg["seed"], 101),
        ))
        col = batch.gamma[:, i - 1]
        from ladderlab.stats import batch_means_error

        est = float(col.mean())
        err = batch_means_error(col)
        summary["mcmc_value"] = est
        summary["mcmc_stderr"] = err
        summary["agree_3sigma"] = bool(abs(est - op_val) < 3 * err)
        ok = summary["agree_3sigma"]
    return ok, {"summary": summary}


def cmd_resistance(cfg: dict):
    p = cfg["params"]
    n = p["n"]
    rows = []
    ok = True
    count = p.get("random_weights", 0)
    if count:
        gen = RngSpec(cfg["seed"], 3).generator()
        weight_sets = [EdgeWeights(np.exp(gen.uniform(-2.5, 2.5, size=3 * n + 1)))
                       for _ in range(count)]
    else:
        weight_sets = [_load_weights(p.get("weights"), n)]
    for idx, x in enumerate(weight_sets):
        res = network.effective_resistance(x, n)
        shorted = network.shorted_resistance(x, n)
        escape = network.escape_probability(x, n)
        rows.append([idx, res.resistance, shorted, res.conductance, escape])
        ok = ok and shorted <= res.resistance + 1e-12 and 0 <= escape <= 1
    summary = {"n": n, "count": len(rows), "all_bounds_hold": ok}
    return ok, {"rows": rows, "header": ["sample", "R", "R_shorted", "C", "escape"],
                "summary": summary}


def cmd_returns(cfg: dict):
    p = cfg["params"]
    levels = p.get("n_list", [4, 8, 16])
    ks = p.get("k_list", [1, 2, 4])
    counts, undecided = walk.returns_before_far_end_detailed(
        levels, p.get("a", 1.0), max(ks), RngSpec(cfg["seed"]), p["replicas"])
    rows = []
    table = {}
    ok = True
    for ki, k in enumerate(ks):
        fracs = []
        for li, lev in enumerate(levels):
            hits = int(np.sum(counts[:, li] >= k))
            frac = hits / p["replicas"]
            lo, hi = wilson_interval(hits, p["replicas"])
            rows.append([lev, k, frac, lo, hi])
            fracs.append(frac)
        table[str(k)] = fracs
        ok = ok and all(fracs[m] <= fracs[m + 1] + 1e-12 for m in range(len(fracs) - 1))
    summary = {"levels": levels, "k": ks, "fractions": table,
               "nondecreasing_in_n": ok, "undecided_replicas": undecided}
    return ok, {"rows": rows, "header": ["n", "k", "fraction", "ci_lo", "ci_hi"],
                "summary": summary}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


_DEFAULTS = {"seed": 0, "workers": None, "out": None, "format": "json"}

_PARAM_SPECS = {
    "simulate": {"n": 4, "a": 1.0, "steps": 10_000, "replicas": 1, "mode": "errw",
                 "weights": None, "start": (0, 2)},
    "profile": {"n": 16, "a": 1.0, "steps": 1_000_000, "replicas": 200,
                "representative": "rung", "fit_lo": 2, "fit_hi": 12},
    "sample-env": {"n": 8, "a": 1.0, "deform_j": 0, "burn_in": 2000, "thinning": 2,
                   "samples": 10_000},
    "verify": {"suite": "all", "samples": 10_000},
    "spectrum": {"a": 1.0, "eta": 0.0, "grid": "default", "dump_matrix": None},
    "chain-stats": {"n": 8, "j": 6, "i": 3, "a": 1.0, "tag": "gamma", "grid": "default",
                    "mcmc_samples": 0},
    "resistance": {"n": 2, "weights": None, "random_weights": 0},
    "returns": {"a": 1.0, "replicas": 2000, "n_list": [4, 8, 16], "k_list": [1, 2, 4]},
}

_HANDLERS = {
    "simulate": cmd_simulate,
    "profile": cmd_profile,
    "sample-env": cmd_sample_env,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "chain-stats": cmd_chain_stats,
    "resistance": cmd_resistance,
    "returns": cmd_returns,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ladderlab",
                                     description="reinforced-walk ladder laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", type=str, default=None, choices=["csv", "json"])
        for key, default in _PARAM_SPECS[name].items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                sp.add_argument(flag, type=int, default=None)
            elif isinstance(default, int) and default is not None:
                sp.add_argument(flag, type=int, default=None)
            elif isinstance(default, float):
                sp.add_argument(flag, type=float, default=None)
            elif isinstance(default, (list, tuple)):
                sp.add_argument(flag, type=str, default=None,
                                help="comma separated integers")
            else:
                sp.add_argument(flag, type=str, default=None)
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    name = args.subcommand
    cfg = {"subcommand": name, **_DEFAULTS, "params": dict(_PARAM_SPECS[name])}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        errors = validate_config(doc)
        if errors:
            raise ConfigError("; ".join(errors))
        if doc.get("subcommand", name) != name:
            raise ConfigError(f"config is for {doc['subcommand']!r}, not {name!r}")
        for key in ("seed", "workers", "out", "format"):
            if key in doc:
                cfg[key] = doc[key]
        cfg["params"].update(doc.get("params", {}))
    for key in ("seed", "workers", "out", "format"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, default in _PARAM_SPECS[name].items():
        val = getattr(args, key, None)
        if val is not None:
            if isinstance(default, (list, tuple)) and isinstance(val, str):
                val = [int(v) for v in val.split(",")]
            cfg["params"][key] = val
    if cfg["workers"] is None:
        cfg["workers"] = int(os.environ.get("LADDERLAB_WORKERS", "1"))
    validation_doc = {
        k: v for k, v in cfg.items()
        if k in ("subcommand", "seed", "workers", "out", "format") and v is not None
    }
    validation_doc["params"] = {k: (list(v) if isinstance(v, tuple) else v)
                                for k, v in cfg["params"].items() if v is not None}
    errors = validate_config(validation_doc)
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        cfg = _effective_config(args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    out = Path(cfg["out"]) if cfg["out"] else None
    # in CSV mode the JSON document goes next to the CSV, never over it
    summary_out = out.with_suffix(out.suffix + ".summary.json") if out is not None else None
    try:
        ok, report = _HANDLERS[cfg["subcommand"]](cfg)
    except LadderError as err:
        _write_json(summary_out if cfg["format"] == "csv" else out,
                    {"config": _public_config(cfg), "status": "check-failure", "error": str(err)})
        return 1
    doc = {"config": _public_config(cfg), "status": "ok" if ok else "check-failure"}
    if "summary" in report:
        doc["summary"] = report["summary"]
    if cfg["format"] == "csv" and "rows" in report:
        _write_csv(out, report["header"], report["rows"], _public_config(cfg))
        if "summary" in report and out is not None:
            _write_json(summary_out, doc)
    else:
        if "rows" in report and cfg["format"] == "json":
            doc["rows"] = report["rows"]
            doc["header"] = report["header"]
        _write_json(out, doc)
    return 0 if ok else 1


def _public_config(cfg: dict) -> dict:
    return {
        "subcommand": cfg["subcommand"],
        "seed": cfg["seed"],
        "workers": cfg["workers"],
        "format": cfg["format"],
        "params": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in cfg["params"].items() if v is not None},
    }


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
