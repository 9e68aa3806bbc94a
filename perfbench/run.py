"""ladderlab benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sampler --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 0

A run sets up the workload, then repeats measured passes until ``--seconds``
have gone by (at least one pass).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` wraps the layer entry points in spans and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  The full record (machine, thread caps,
setup samples, pass times, spans) goes to ``.perfbench_out/``.  The exit
code is 0 when every correctness check held, 1 when one failed and 2 when
the checkout holds no ladderlab source.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before any import of numpy or ladderlab

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("walk_profile", "walk_returns", "sampler", "spectrum")
SETUP_PROBES = 4  # extra fresh processes that only set up, for the setup_s median
COVERAGE = 0.95  # share of a traced pass that the layer spans and leaves must cover
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1e6


def cap_threads() -> dict:
    """Cap BLAS and OpenMP threads at the CPUs this process may use.

    Must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            have = int(os.environ.get(var, nproc))
        except ValueError:
            have = nproc
        os.environ[var] = str(min(max(have, 1), nproc))
    return {"nproc": nproc, **{var: int(os.environ[var]) for var in THREAD_VARS}, "workers": 1}


def import_source():
    """Put the checkout's ``src`` first on the path and import the package
    from there, never from an installed copy."""
    if not (SRC / "ladderlab" / "__init__.py").is_file():
        print(f"perfbench: no ladderlab source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ladderlab

    if Path(ladderlab.__file__).resolve().parent != (SRC / "ladderlab").resolve():
        print(f"perfbench: ladderlab imported from {ladderlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_info(caps: dict) -> dict:
    import numpy as np

    def first(path, prefix):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "thread_caps": caps,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Setup time of a fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(wl, state: dict, seconds: float, tracer=None) -> dict:
    """Repeat passes for ``seconds``; a pass that raises ends the run."""
    from workloads import Checks

    check = Checks()
    walls, cpus, records = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        inputs = wl.inputs(state, len(walls))
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                record = wl.run(state, inputs, check)
            else:
                with tracer.span("bench.pass"):
                    record = wl.run(state, inputs, check)
        except Exception as err:  # a raising layer is a failed check, reported below
            traceback.print_exc(file=sys.stderr)
            check(f"pass {len(walls)} raised", False, repr(err))
            break
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        records.append(record)
    return {"check": check, "walls": walls, "cpus": cpus, "records": records}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in this process; returns the contract's result object plus
    the full record."""
    import layers
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    setup = [time.perf_counter() - T_START]
    setup += [setup_probe(name, seed) for _ in range(SETUP_PROBES)]

    tracer = spans.Tracer() if trace else None
    if tracer is None:
        m = measure(wl, state, seconds)
    else:
        per_call = spans.calibrate()
        with spans.patched(layers.traced_targets(tracer)):
            m = measure(wl, state, seconds, tracer)
    check, walls = m["check"], m["walls"]
    if walls and trace:
        self_s = spans.self_times(tracer.spans)
        roots = [s for s in tracer.spans if s.parent < 0]
        traced_wall = sum(s.duration for s in roots)
        outside = sum(t for s, t in zip(tracer.spans, self_s) if s.layer == "bench")
        check(f"layer spans cover at least {COVERAGE:.0%} of the traced wall time",
              outside <= (1 - COVERAGE) * traced_wall,
              f"{outside:.4g} s of {traced_wall:.4g} s outside the layers")
    error_rate = check.failed / check.attempted

    metrics = {}
    if walls and not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_s": (statistics.median(m["cpus"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        }
    elif walls:
        values = layers.layer_metrics(
            tracer.spans, self_s, len(walls), [s.duration for s in roots],
            [r.get("ess", []) for r in m["records"]], tracer.overhead_s(*per_call), error_rate)
        units = {metric.name: metric.unit for metric in layers.METRICS}
        metrics = {k: (v, units[k]) for k, v in values.items()}

    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "result": result, "error_rate": error_rate, "failures": check.failures,
        "setup_samples_s": setup, "pass_walls_s": walls, "pass_cpus_s": m["cpus"],
        "spans": [s.to_json() for s in tracer.spans] if tracer else [],
        "trace_overhead_per_call_s": dict(zip(("span", "leaf"), per_call)) if tracer else {},
    }
    return {"result": result, "record": record}


def print_metrics(label: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{label:<13} {key:<36} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print_metrics(name, result)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, allow_nan=False))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    caps = cap_threads()
    import_source()
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = out["result"], out["record"]
    record["machine"] = machine_info(caps)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, allow_nan=False, indent=1))
    print("machine", json.dumps(record["machine"]))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print_metrics(args.workload, result)
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
