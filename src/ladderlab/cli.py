"""Batch experiment driver.

Every module is exposed as one subcommand with JSON or CSV outputs.  Flag
values override config-file values, which override defaults; the effective
configuration is echoed into every output document for provenance.  Exit
codes: 0 success with all internal checks passing, 1 check failure (a
machine-readable failure report is still written), 2 configuration error or
an input the library refused (the latter also writes its report).

Outputs are deterministic given the seed: no timestamps, sorted JSON keys,
fixed float formatting.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from ladderlab import certificates, environment, ladder, mcmc, network, transfer, walk
from ladderlab.ladder import EdgeWeights, InputRefused, LadderError, check_weights
from ladderlab.rng import RngSpec
from ladderlab.stats import batch_means_error, slope_interval, wilson_interval

CSV_SCHEMA_VERSION = 1

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
        if len(doc) < schema.get("minItems", 0):
            errors.append(f"{path}: fewer than {schema['minItems']} items")
        if len(doc) > schema.get("maxItems", len(doc)):
            errors.append(f"{path}: more than {schema['maxItems']} items")
        item_schema = schema.get("items")
        if item_schema:
            for idx, item in enumerate(doc):
                errors.extend(_check(item, item_schema, f"{path}[{idx}]"))
    elif typ == "integer":
        if not isinstance(doc, int) or isinstance(doc, bool):
            return [f"{path}: expected integer"]
    elif typ == "number":
        # every comparison with NaN is false, so no bound below would refuse it
        if (not isinstance(doc, (int, float)) or isinstance(doc, bool)
                or isinstance(doc, float) and not math.isfinite(doc)):
            return [f"{path}: expected finite number"]
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
    """Schema errors of a config document, plus any ``params`` key that its
    subcommand does not define."""
    errors = _check(doc, load_schema(), "$")
    if not errors:
        name = doc["subcommand"]
        unknown = sorted(set(doc.get("params", {})) - set(SUBCOMMANDS[name][1]))
        if unknown:
            errors.append(f"$.params: not defined for {name!r}: {', '.join(unknown)}")
    return errors


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
    """Write the CSV one line at a time: ``rows`` may be a generator too
    large to hold as text."""
    head = [
        f"# ladderlab csv schema v{CSV_SCHEMA_VERSION}",
        "# config: " + json.dumps(_strict(config), sort_keys=True, allow_nan=False),
        ",".join(header),
    ]
    with contextlib.nullcontext(sys.stdout) if path is None else path.open("w") as fh:
        for line in head:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # NumPy scalars repr as np.float64(...)
    return str(v)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (ok, report)


def _grid_params(name: str) -> transfer.GridParams:
    if name == "small":
        return transfer.GridParams(nx_core=8, nx_tail=4, nz_core=24, nz_tail=8, nv=24, nzb=48)
    # "default" or "doubled": the schema's enum and argparse's choices refuse any other name
    return transfer.GridParams().doubled() if name == "doubled" else transfer.GridParams()


def _load_weights(spec: str | None, n: int) -> EdgeWeights:
    """Unit weights, or the ``x`` list of a JSON weights file; an unreadable
    file or one that does not hold finite positive weights for ``n`` cells is a
    config error."""
    if spec is None or spec == "unit":
        return EdgeWeights(np.ones(3 * n + 1))
    try:
        return EdgeWeights(check_weights(json.loads(Path(spec).read_text())["x"], n))
    except (OSError, ValueError, KeyError, TypeError, LadderError) as err:
        raise ConfigError(f"cannot read weights file {spec!r}: {type(err).__name__}: {err}") from err


def cmd_simulate(cfg: dict):
    p = cfg["params"]
    graph = ladder.build(p["n"])
    start = graph.vertex(*p["start"])
    weights = _load_weights(p["weights"], p["n"]) if p["mode"] == "rwre" else None
    rows = []
    for r in range(p["replicas"]):
        rng = RngSpec(cfg["seed"], r)
        if weights is None:
            trace = walk.errw_run(graph, p["a"], p["steps"], start, rng)
        else:
            trace = walk.rwre_run(graph, weights, p["steps"], start, rng)
        rows.append([r, trace.position, trace.returns] + trace.local_times.tolist())
    header = ["replica", "last_vertex", "returns"] + [f"k_edge_{e}" for e in range(graph.num_edges)]
    report = {"rows": rows, "header": header}
    return True, report


def cmd_profile(cfg: dict):
    p = cfg["params"]
    res = walk.profile_experiment(
        p["n"], p["a"], p["steps"], p["replicas"], RngSpec(cfg["seed"]),
        workers=cfg["workers"], representative=p["representative"],
        fit_levels=(p["fit_lo"], p["fit_hi"]),
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
        n=p["n"], a=p["a"], deform_j=p["deform_j"],
        burn_in=p["burn_in"], thinning=p["thinning"],
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
        row += [ladder.TREE_STATES[v] for v in batch.t[k]]
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
    suite, samples = p["suite"], p["samples"]
    seed = cfg["seed"]
    checks = []

    def add(name, passed, details):
        # a sampled check that evaluated no sample has shown nothing
        checks.append({"name": name, "passed": bool(passed) and details.get("samples") != 0,
                       "details": details})

    if suite in ("minorant", "all"):
        rep = certificates.verify_linear_minorant()
        add("minorant", rep.passed, rep.details)
    if suite in ("middle-bound", "all"):
        for a, eta in certificates.MIDDLE_CASES:
            rep = certificates.check_middle_bound(samples, a, eta, rng=RngSpec(seed))
            add(f"middle-bound a={a} eta={eta}", rep.passed,
                {"min_margin": rep.min_margin, "samples": rep.samples})
    if suite in ("boundary-bound", "all"):
        for a, side in certificates.BOUNDARY_CASES:
            rep = certificates.check_boundary_bound(samples, a, side, rng=RngSpec(seed))
            add(f"boundary-bound a={a} {side}", rep.passed,
                {"min_margin": rep.min_margin, "samples": rep.samples})
    if suite in ("gibbs-identity", "all"):
        count = samples // 9
        worst = environment.gibbs_identity_sweep(RngSpec(seed, 17).generator(), count)
        add("gibbs-identity", worst < 1e-9, {"max_residual": worst, "samples": count * 9})
    if suite in ("scaling", "all"):
        worst = environment.scaling_law_residual(RngSpec(seed, 23).generator(), samples)
        add("scaling", worst < 1e-12, {"max_relative_residual": worst, "samples": samples})
    if suite in ("gamma-derivatives", "all"):
        count = samples // 20
        worst = float(np.max(certificates.gamma_derivative_fd_errors(RngSpec(seed, 29).generator(), count)))
        add("gamma-derivatives", worst < 1e-4, {"max_relative_fd_error": worst, "samples": count})

    ok = all(c["passed"] for c in checks)
    return ok, {"summary": {"suite": suite, "passed": ok, "checks": checks}}


def cmd_spectrum(cfg: dict):
    p = cfg["params"]
    a = p["a"]
    eta = p["eta"]
    grid = transfer.build_grid(_grid_params(p["grid"]), a=a)
    ctx = transfer.TransferContext(grid, a)
    tri = ctx.triple(eta)
    summary = {
        "a": a, "eta": eta, "grid": p["grid"],
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
    if p["dump_matrix"]:
        # one state block of rows (nx² × size) at a time, never the dense matrix
        blocks = ctx.op(eta).kernel_rows()
        rows = ([i] + row.tolist() for i, row in enumerate(r for block in blocks for r in block))
        _write_csv(Path(p["dump_matrix"]), ["row"] + [f"c{j}" for j in range(grid.size)],
                   rows, {"a": a, "eta": eta, "grid_size": grid.size})
    ok = (tri.value > 0 and tri.residual_left < 1e-10 and tri.residual_right < 1e-10
          and tri.gap < 1 and defect["defect"] < 1e-8)
    return ok, {"summary": summary}


def cmd_chain_stats(cfg: dict):
    p = cfg["params"]
    a = p["a"]
    n, j, i = p["n"], p["j"], p["i"]
    grid = transfer.build_grid(_grid_params(p["grid"]), a=a)
    ctx = transfer.TransferContext(grid, a)
    op_val = transfer.chain_expectation(ctx, n, j, i, tag=p["tag"])
    summary = {"n": n, "j": j, "i": i, "a": a, "operator_value": op_val}
    ok = True
    m = p["mcmc_samples"]
    if m:
        batch = mcmc.sample_chain(mcmc.McmcConfig(
            n=n, a=a, deform_j=j, burn_in=max(2000, m // 10),
            thinning=2, samples=m, rng=RngSpec(cfg["seed"], 101),
        ))
        col = batch.gamma[:, i - 1]
        est = float(col.mean())
        err = batch_means_error(col)
        summary["mcmc_value"] = est
        summary["mcmc_stderr"] = err
        # too few samples for batch means give an infinite error, which agrees with anything
        summary["agree_3sigma"] = bool(math.isfinite(err) and abs(est - op_val) < 3 * err)
        ok = summary["agree_3sigma"]
    return ok, {"summary": summary}


def cmd_resistance(cfg: dict):
    p = cfg["params"]
    n = p["n"]
    rows = []
    ok = True
    count = p["random_weights"]
    if count:
        gen = RngSpec(cfg["seed"], 3).generator()
        weight_sets = [EdgeWeights(np.exp(gen.uniform(-2.5, 2.5, size=3 * n + 1)))
                       for _ in range(count)]
    else:
        weight_sets = [_load_weights(p["weights"], n)]
    for idx, x in enumerate(weight_sets):
        res = network.effective_resistance(x, n)
        shorted = network.shorted_resistance(x, n)
        rows.append([idx, res.resistance, shorted, res.conductance, res.escape])
        ok = ok and shorted <= res.resistance + 1e-12 and 0 <= res.escape <= 1
    summary = {"n": n, "count": len(rows), "all_bounds_hold": ok}
    return ok, {"rows": rows, "header": ["sample", "R", "R_shorted", "C", "escape"],
                "summary": summary}


def cmd_returns(cfg: dict):
    p = cfg["params"]
    levels = p["n_list"]
    ks = p["k_list"]
    counts, undecided = walk.returns_before_far_end_detailed(
        levels, p["a"], max(ks), RngSpec(cfg["seed"]), p["replicas"])
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
        table[str(k)] = fracs  # in the order of n_list; the check reads them in level order
        by_level = [frac for _, frac in sorted(zip(levels, fracs))]
        ok = ok and all(f <= g + 1e-12 for f, g in zip(by_level, by_level[1:]))
    summary = {"levels": levels, "k": ks, "fractions": table,
               "nondecreasing_in_n": ok, "undecided_replicas": undecided}
    return ok, {"rows": rows, "header": ["n", "k", "fraction", "ci_lo", "ci_hi"],
                "summary": summary}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# Each subcommand's handler and the default of every parameter it defines;
# None means unset.  Types and bounds live in the schema only.
SUBCOMMANDS = {
    "simulate": (cmd_simulate, {"n": 4, "a": 1.0, "steps": 10_000, "replicas": 1,
                                "mode": "errw", "weights": None, "start": [0, 2]}),
    "profile": (cmd_profile, {"n": 16, "a": 1.0, "steps": 1_000_000, "replicas": 200,
                              "representative": "rung", "fit_lo": 2, "fit_hi": 12}),
    "sample-env": (cmd_sample_env, {"n": 8, "a": 1.0, "deform_j": 0, "burn_in": 2000,
                                    "thinning": 2, "samples": 10_000}),
    "verify": (cmd_verify, {"suite": "all", "samples": 10_000}),
    "spectrum": (cmd_spectrum, {"a": 1.0, "eta": 0.0, "grid": "default", "dump_matrix": None}),
    "chain-stats": (cmd_chain_stats, {"n": 8, "j": 6, "i": 3, "a": 1.0, "tag": "gamma",
                                      "grid": "default", "mcmc_samples": 0}),
    "resistance": (cmd_resistance, {"n": 2, "weights": None, "random_weights": 0}),
    "returns": (cmd_returns, {"a": 1.0, "replicas": 2000, "n_list": [4, 8, 16],
                              "k_list": [1, 2, 4]}),
}

_DEFAULTS = {"seed": 0, "workers": 1, "out": None, "format": "json"}


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


_FLAG_TYPES = {"integer": int, "number": float, "string": str, "array": _int_list}


def _add_flag(parser, key: str, schema: dict, default) -> None:
    shown = ",".join(map(str, default)) if isinstance(default, list) else default
    parser.add_argument("--" + key.replace("_", "-"), type=_FLAG_TYPES[schema["type"]],
                        choices=schema.get("enum"), default=None,
                        help=None if default is None else f"default: {shown}")


def _build_parser() -> argparse.ArgumentParser:
    schema = load_schema()["properties"]
    parser = argparse.ArgumentParser(prog="ladderlab",
                                     description="reinforced-walk ladder laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, defaults) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        for key, default in _DEFAULTS.items():
            _add_flag(sp, key, schema[key], default)
        for key, default in defaults.items():
            _add_flag(sp, key, schema["params"]["properties"][key], default)
    return parser


def _require_valid(doc: dict) -> None:
    errors = validate_config(doc)
    if errors:
        raise ConfigError("; ".join(errors))


def _require_used(cfg: dict) -> None:
    """Refuse a weights file that the effective config would ignore, and
    MCMC samples that it could not compare with the operator."""
    p = cfg["params"]
    if cfg["subcommand"] == "chain-stats" and p["tag"] == "one" and p["mcmc_samples"] > 0:
        raise ConfigError("mcmc_samples > 0 needs tag 'gamma': with tag 'one' the operator "
                          "value is the normalization 1, not a mean the chain estimates")
    if p.get("weights") is None:
        return
    if cfg["subcommand"] == "simulate" and p["mode"] != "rwre":
        raise ConfigError(f"weights is read only with mode 'rwre', not mode {p['mode']!r}")
    if cfg["subcommand"] == "resistance" and p["random_weights"]:
        raise ConfigError("weights and a non-zero random_weights exclude each other")


def _effective_config(args: argparse.Namespace) -> dict:
    name = args.subcommand
    cfg = {"subcommand": name, **_DEFAULTS, "params": dict(SUBCOMMANDS[name][1])}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        _require_valid(doc)
        if doc["subcommand"] != name:
            raise ConfigError(f"config is for {doc['subcommand']!r}, not {name!r}")
        cfg.update((key, doc[key]) for key in _DEFAULTS if key in doc)
        cfg["params"].update(doc.get("params", {}))
    for key in _DEFAULTS:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key in cfg["params"]:
        if getattr(args, key) is not None:
            cfg["params"][key] = getattr(args, key)
    return cfg


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        cfg = _effective_config(args)
        config = _public_config(cfg)
        _require_valid(config if cfg["out"] is None else {**config, "out": cfg["out"]})
        _require_used(cfg)
        out = Path(cfg["out"]) if cfg["out"] else None
        # in CSV mode the JSON document goes next to the CSV, never over it
        summary_out = out.with_suffix(out.suffix + ".summary.json") if out is not None else None
        ok, report = SUBCOMMANDS[cfg["subcommand"]][0](cfg)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    except LadderError as err:
        refused = isinstance(err, InputRefused)
        _write_json(summary_out if cfg["format"] == "csv" else out,
                    {"config": config, "status": "input-refused" if refused else "check-failure",
                     "error": str(err)})
        return 2 if refused else 1
    doc = {"config": config, "status": "ok" if ok else "check-failure"}
    if "summary" in report:
        doc["summary"] = report["summary"]
    if cfg["format"] == "csv" and "rows" in report:
        _write_csv(out, report["header"], report["rows"], config)
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
        "params": {k: v for k, v in cfg["params"].items() if v is not None},
    }


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
