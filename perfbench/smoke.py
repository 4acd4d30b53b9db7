"""Smoke check for the benchmark: every workload at its smallest size.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that each workload prints every end-to-end metric with its unit
and a fail_ratio of 0, that a traced run prints every per-layer metric,
that the expression counters repeat exactly under two hash seeds, and
that the benchmark refuses to run without the program's sources.  It
exits non-zero on the first problem.  Not part of the Tier-1 suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import LAYER_METRICS, WORKLOAD_NAMES, unit_of  # noqa: E402

# The metrics each workload prints, with their units, besides COMMON.
PRINTED = {
    "cli_manifests": {"cli_s.p50": "s", "cli_s.tail": "s",
                      "cli_verify_s.p50": "s"},
    "law_sweep_2x2": {"law_points_per_s": "1/s"},
    "pullback_build_2x3": {"build_s": "s", "law_points_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "wall_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB",
          "fail_ratio": "ratio"}
COUNTERS = ("symbolic.evaluate.visits", "symbolic.evaluate.useful_share") + tuple(
    name for name in LAYER_METRICS
    if name.endswith(("tree_nodes", "obj_nodes", "dag_nodes")))


def bench(workload: str, trace: int, hash_seed: str = "0", cwd: Path = ROOT):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def check(ok: bool, what: str, proc=None) -> None:
    if not ok:
        if proc is not None:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"smoke: {what}")


def printed_metrics(stdout: str, marker: str) -> dict:
    """{name: rest of line} for the '  <marker>  name value unit' lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == marker:
            out[parts[1]] = parts[2:]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOAD_NAMES:
        proc = bench(workload, 0)
        check(proc.returncode == 0, f"{workload} exited {proc.returncode}", proc)
        printed = printed_metrics(proc.stdout, "metric")
        for name, unit in {**COMMON, **PRINTED[workload]}.items():
            check(name in printed and printed[name][1] == unit,
                  f"{workload} does not print {name} in {unit}", proc)
        check(float(printed["fail_ratio"][0]) == 0.0, f"{workload} fail_ratio", proc)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        check(last["correct"] and last["failed"] == 0, f"{workload} not correct", proc)
        check({k: v["unit"] for k, v in last["metrics"].items()}
              == {m["name"]: m["unit"] for m in spec["end_to_end"]},
              f"{workload} result line does not match BENCHMARK.json", proc)
        print(f"smoke: {workload} untraced ok")

        counters = []
        for hash_seed in ("1", "2"):
            proc = bench(workload, 1, hash_seed)
            check(proc.returncode == 0, f"{workload} traced exited {proc.returncode}",
                  proc)
            layers = printed_metrics(proc.stdout, "layer")
            for name in LAYER_METRICS:
                check(name in layers, f"{workload} does not print layer {name}", proc)
                if layers[name][0] != "not":
                    check(layers[name][1] == unit_of(name),
                          f"{workload} layer {name} unit", proc)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(last["metrics"]) == {m["name"] for m in spec["per_layer"]},
                  f"{workload} traced result line does not match BENCHMARK.json", proc)
            counters.append({name: layers[name] for name in COUNTERS})
        check(counters[0] == counters[1],
              f"{workload} counters differ between hash seeds: {counters}")
        print(f"smoke: {workload} traced ok, counters repeat across hash seeds")

    # without the program's sources the benchmark must fail without a result
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(WORKLOAD_NAMES[0], 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "a checkout without src/ still produced a result", proc)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
