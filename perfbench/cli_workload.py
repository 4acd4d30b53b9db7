"""cli_manifests: fresh polyjet processes on the shipped manifests."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

from common import (FORMS, Context, Result, child_env, import_floor, median,
                    peak_rss_mb, record_setup, summarize_rounds, tail,
                    timed_rounds)
from tracing import merge_times, self_times

COMMANDS = ("christoffel", "regularity", "connection", "verify")
MANIFESTS = ("flat", "curved", "nonregular")
FAULT_ENTRY = "N2[1,2,1]"


def _expected_exit(manifest: str, command: str) -> int:
    if manifest == "nonregular":
        return 2 if command == "verify" else 8
    return 6 if manifest == "curved-fault" else 0


def _without_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"wall_time_s"' not in line)


def cli_manifests(ctx: Context) -> Result:
    result = Result()
    ledger = result.ledger
    manifests = {nm: ctx.root / "manifests" / f"{nm}.json" for nm in MANIFESTS}
    fault = json.loads(manifests["curved"].read_text())
    fault["fault_injection"] = {
        "block": "N2", "index": [1, 2, 1],
        "delta": 0.05 + round(ctx.derive(1) / 2 ** 31 * 0.45, 6)}
    manifests["curved-fault"] = ctx.workdir / "curved-fault.json"
    manifests["curved-fault"].write_text(json.dumps(fault, indent=2))

    jobs = []
    for command in COMMANDS:
        for name in MANIFESTS:
            jobs.append((command, name))
            if command == "verify" and name == "curved":
                jobs.append((command, "curved-fault"))
    seeds = [ctx.derive(2, k) for k in range(len(jobs))]

    import_s, import_nominal = import_floor(ctx, "polyjet.cli")
    env = child_env(ctx)
    first_output: dict = {}
    durations: dict = {job: [] for job in jobs}
    layer_times: dict = {}

    def one_pass(index: int, mode):
        for k, (command, name) in enumerate(jobs):
            label = f"pass {index} {command} {name}"
            report = ctx.workdir / f"report-{k}-{index}.json"
            args = [command, str(manifests[name]), "--seed", str(seeds[k]),
                    "--json", str(report)]
            spans = ctx.workdir / f"spans-{k}-{index}.json"
            head = ([sys.executable, str(Path(__file__).with_name("cli_child.py")),
                     str(spans)] if mode else [sys.executable, "-m", "polyjet.cli"])
            try:
                proc = ctx.clock.time(f"{command} {name}", subprocess.run,
                                      head + args, env=env,
                                      cwd=ctx.root, capture_output=True, text=True,
                                      timeout=120)
            except subprocess.TimeoutExpired:
                ledger.record(False, label, "timed out after 120 s")
                continue
            durations[(command, name)].append(ctx.clock.last)
            if mode and spans.exists():
                merge_times(layer_times, self_times(json.loads(spans.read_text())))
                spans.unlink()
            text = report.read_text() if report.exists() else proc.stderr
            report.unlink(missing_ok=True)
            want = _expected_exit(name, command)
            problems = []
            if proc.returncode != want:
                problems.append(f"exit {proc.returncode}, expected {want}: "
                                f"{proc.stderr.strip()[-300:]}")
            if name == "curved-fault":
                checks = json.loads(text)["checks"] if text.startswith("{") else []
                named = [c["worst_entry"] for c in checks
                         if c["kind"] == "connection" and not c["passed"]]
                if FAULT_ENTRY not in proc.stdout or named != [FAULT_ENTRY]:
                    problems.append(f"fault not named {FAULT_ENTRY}: {named}")
            stable = _without_wall_time(text)
            if first_output.setdefault(k, stable) != stable:
                problems.append("report differs from the first pass")
            ledger.record(not problems, label, "; ".join(problems))

    # two passes at least, so every job's report can be compared
    rounds = timed_rounds(ctx, one_pass, min_rounds=2)
    every = [t for ts in durations.values() for t in ts]
    verify = durations[("verify", "curved")] + durations[("verify", "curved-fault")]
    tail_value, tail_pct = tail(every)
    record_setup(result, import_s, import_nominal)
    summarize_rounds(ctx, result, rounds)
    result.metrics.update({
        "cli_s.p50": (median(every), "s"),
        "cli_s.tail": (tail_value, "s"),
        "cli_verify_s.p50": (median(verify), "s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    })
    passes = sum(len(laps) for laps in rounds.values())
    result.notes.append(f"cli_s.tail is p{tail_pct:.1f} of {len(every)} invocations "
                        f"over {passes} passes of {len(jobs)} jobs")
    for (command, name), ts in durations.items():
        result.notes.append(f"job {command} {name}: p50 {median(ts):.4f} s "
                            f"over {len(ts)} runs")
    result.layer_times = layer_times
    if ctx.trace:
        result.probe.update(_cli_probe(ctx, {nm: manifests[nm] for nm in MANIFESTS}))
    return result


def _cli_probe(ctx: Context, manifests: dict) -> dict:
    """The expressions the CLI builds for each shipped manifest."""
    from polyjet import cli
    from polyjet.errors import NotRegular
    from counters import connection_entries
    from tracing import layer_api

    api = layer_api(None)
    probe = {"groups": [], "hamiltonians": [], "strings": [],
             "forms": {FORMS[0]: []}}
    for name, path in manifests.items():
        raw = json.loads(path.read_text())
        man = cli.load_manifest(str(path))
        chart = man.chart
        probe["strings"] += [(s, chart.names) for s in _raw_strings(raw)]
        if man.hamiltonian is None:
            continue
        dom = man.domain(man.sample_seed)
        try:
            space = api.HamiltonSpace(man.temporal_metric, man.n, man.hamiltonian,
                                      constants=man.constants, dom=dom)
        except NotRegular:
            continue
        spaces = [space]
        if man.transition is not None:
            tm = man.transition
            h_b = api.pullback_metric(man.temporal_metric, tm)
            H_b = api.pullback_scalar(man.hamiltonian, tm)
            spaces.append(api.HamiltonSpace(h_b, man.n, H_b,
                                            dom=dom.with_options(seed=dom.seed + 1)))
            probe["hamiltonians"].append((H_b, chart.names))
        for sp in spaces:
            N = api.canonical_nonlinear_connection(sp)
            probe["forms"][FORMS[0]].append(N)
            probe["groups"].append((connection_entries(N), dom.points()))
    return probe


def _raw_strings(node) -> list:
    if isinstance(node, str):
        return [node]
    if isinstance(node, list):
        return [s for item in node for s in _raw_strings(item)]
    if isinstance(node, dict):
        keys = ("temporal_metric", "spatial_metric", "hamiltonian", "transition",
                "t_forward", "t_inverse", "x_forward", "x_inverse")
        return [s for k in keys if k in node for s in _raw_strings(node[k])]
    return []
