"""polyjet benchmark: CLI latency, law-sweep throughput and symbolic build time.

Usage (from the repository root):

    python3 perfbench/run.py --workload law_sweep_2x2 --seed 1 --seconds 20 --trace 0

Workloads: cli_manifests, law_sweep_2x2, pullback_build_2x3, or ``all``
to run each in its own process.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer self times,
expression-size counters and the tracing overhead instead.  Every job's
answer is checked; the last line of output is one JSON object and the
exit code is non-zero when any answer was wrong.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workload -> (module:function, reference kernel its clock uses)
WORKLOADS = {
    "cli_manifests": ("cli_workload:cli_manifests", "ProcessKernel"),
    "law_sweep_2x2": ("workloads:law_sweep_2x2", "Kernel"),
    "pullback_build_2x3": ("workloads:pullback_build_2x3", "Kernel"),
}
WORKLOAD_NAMES = tuple(WORKLOADS)

# Per-layer metrics, in the order printed.  BENCHMARK.json lists the ones
# that every workload exercises; the rest print for the workloads that
# call them and read "not called" elsewhere.
LAYER_METRICS = [
    "cli.import.s", "cli.load_manifest.s", "cli.load_manifest.calls",
    "cli.main.s", "cli.main.calls",
    "symbolic.parse.s", "symbolic.parse.calls",
    "symbolic.differentiate.s", "symbolic.differentiate.calls",
    "symbolic.evaluate.s", "symbolic.evaluate.calls",
    "symbolic.evaluate.visits", "symbolic.evaluate.useful_share",
    "charts.pullback_scalar.s", "charts.pullback_scalar.calls",
    "metrics.pullback_metric.s", "metrics.pullback_metric.calls",
    "metrics.christoffel.s", "metrics.christoffel.calls",
    "dtensors.builtin_dtensors.s", "dtensors.verify_dtensor_law.s",
    "dtensors.verify_dtensor_law.calls", "dtensors.verify_dtensor_law.points",
    "semisprays.canonical_temporal.s", "semisprays.canonical_spatial.s",
    "semisprays.verify_semispray_law.s", "semisprays.verify_semispray_law.calls",
    "semisprays.verify_semispray_law.points",
    "connections.verify_connection_law.s", "connections.verify_connection_law.calls",
    "connections.verify_connection_law.points",
    "connections.verify_adapted_coframe.s", "connections.verify_adapted_coframe.calls",
    "connections.verify_adapted_coframe.points",
    "hamilton.gravitational_space.s", "hamilton.general_electrodynamic_space.s",
    "hamilton.HamiltonSpace.s", "hamilton.HamiltonSpace.calls",
] + [f"hamilton.{form}.{what}"
     for form in ("canonical_nonlinear_connection",
                  "canonical_connection_middle_form",
                  "canonical_connection_closed_form")
     for what in ("s", "tree_nodes", "obj_nodes", "dag_nodes")] + [
    "trace.overhead_s", "trace.overhead_ref",
]


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ref"):
        return "ref"
    return "ratio" if name.endswith("useful_share") else "count"


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
            "workload_seed": seed,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset")}


def git_commit() -> str:
    """HEAD's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_probes(probe: dict) -> dict:
    """Time parse, differentiate and evaluate on the workload's own
    expressions, and count expression sizes.  Runs after the workload."""
    from polyjet.symbolic import differentiate, evaluate, parse
    from counters import NodeCounter, connection_entries

    out = {}
    t0 = time.perf_counter()
    for text, allowed in probe["strings"]:
        parse(text, allowed)
    out["symbolic.parse.s"] = time.perf_counter() - t0
    out["symbolic.parse.calls"] = len(probe["strings"])

    t0 = time.perf_counter()
    calls = 0
    for H, names in probe["hamiltonians"]:
        for name in names:
            differentiate(H, name)
            calls += 1
    out["symbolic.differentiate.s"] = time.perf_counter() - t0
    out["symbolic.differentiate.calls"] = calls

    t0 = time.perf_counter()
    calls = 0
    for entries, points in probe["groups"]:
        for e in entries:
            for point in points:
                evaluate(e, point)
                calls += 1
    out["symbolic.evaluate.s"] = time.perf_counter() - t0
    out["symbolic.evaluate.calls"] = calls

    counter = NodeCounter()
    visits = obj = dag = 0
    for entries, points in probe["groups"]:
        for e in entries:
            _, o, d = counter.entry(e)
            visits += o * len(points)
            obj += o
            dag += d
    out["symbolic.evaluate.visits"] = visits
    out["symbolic.evaluate.useful_share"] = dag / obj
    for form, built in probe["forms"].items():
        sizes = counter.total([e for N in built for e in connection_entries(N)])
        for key, value in sizes.items():
            out[f"hamilton.{form}.{key}"] = value
    return out


def layer_metrics(result) -> dict:
    values = run_probes(result.probe)
    for name, row in result.layer_times.items():
        for key in ("s", "calls", "points"):
            values[f"{name}.{key}"] = row[key]
    values["trace.overhead_s"] = result.probe["overhead_s"]
    values["trace.overhead_ref"] = result.probe["overhead_ref"]
    return values


def run_one(args) -> int:
    import reference
    from common import SIZES, Context

    # imported on demand: the CLI workload's process must stay small
    target, kernel = WORKLOADS[args.workload]
    module, _, function = target.partition(":")
    workload = getattr(importlib.import_module(module), function)

    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), sizes=SIZES[args.size], workdir=workdir,
                  clock=reference.Clock(getattr(reference, kernel)()))
    try:
        result = workload(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = result.ledger
    failed = len(ledger.failures)
    attempted = max(ledger.attempted, 1)

    print(f"env {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  size {args.size}")
    for note in result.notes:
        print(f"  note  {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"  metric  {name:<22} {value:.6g} {unit}")
    print(f"  metric  {'fail_ratio':<22} {failed / attempted:.6g} ratio "
          f"({failed} of {ledger.attempted} jobs)")
    for failure in ledger.failures:
        print(f"  FAILED  {failure}")

    if args.trace:
        values = layer_metrics(result)
        for name in LAYER_METRICS:
            if name in values:
                value = values[name]
                text = str(value) if isinstance(value, int) else f"{value:.6g}"
                print(f"  layer  {name:<55} {text} {unit_of(name)}")
            else:
                print(f"  layer  {name:<55} not called by this workload")
        trace_file = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "layers": values},
            indent=1, sort_keys=True))
        wanted = benchmark_spec()["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {m["name"]: {"value": result.metrics[m["name"]][0],
                               "unit": m["unit"]}
                   for m in benchmark_spec()["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= last["correct"] and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, body in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: smallest inputs, for the smoke check")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in ("src/polyjet/cli.py", "manifests/curved.json",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from a polyjet checkout; missing {missing}",
              file=sys.stderr)
        return 2
    # compile once, untimed, so no workload pays for writing .pyc files
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
