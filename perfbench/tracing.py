"""Spans around the benchmark's calls into polyjet.

Spans are recorded only at the boundary between the benchmark and the
library: the workload calls each public function through a wrapper that
notes (name, start, end, parent, run id).  Calls the library makes
internally get no span of their own, so a span's self time is its
duration minus the spans the benchmark opened inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from types import SimpleNamespace

# Public functions the workloads call, by polyjet module.  Each gets the
# span name "<module>.<function>".
LAYER_FUNCTIONS = {
    "cli": ("load_manifest", "main"),
    "charts": ("pullback_scalar",),
    "metrics": ("pullback_metric", "christoffel"),
    "dtensors": ("builtin_dtensors", "verify_dtensor_law"),
    "semisprays": ("canonical_temporal", "canonical_spatial",
                   "verify_semispray_law"),
    "connections": ("verify_connection_law", "verify_adapted_coframe"),
    "hamilton": ("gravitational_space", "general_electrodynamic_space",
                 "HamiltonSpace", "canonical_nonlinear_connection",
                 "canonical_connection_middle_form",
                 "canonical_connection_closed_form"),
}


class Tracer:
    """In-memory span recorder; spans are plain lists until written out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._open[-1] if self._open else None,
                    "run": self.run_id, "points": 0}
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            # verification reports carry the number of sample points swept
            span["points"] = int(getattr(result, "samples", 0) or 0)
            return result

        return traced


def layer_api(tracer: Tracer | None) -> SimpleNamespace:
    """The library functions the in-process workloads call, traced or not."""
    api = {}
    for module, names in LAYER_FUNCTIONS.items():
        if module == "cli":
            continue
        mod = importlib.import_module(f"polyjet.{module}")
        for name in names:
            fn = getattr(mod, name)
            api[name] = fn if tracer is None else tracer.wrap(f"{module}.{name}", fn)
    return SimpleNamespace(**api)


def patch_cli(tracer: Tracer, cli) -> None:
    """Route the CLI module's calls into the other layers through spans.

    ``polyjet.cli`` imports the layer functions into its own namespace and
    looks them up at call time, so replacing those names is enough.
    """
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            if hasattr(cli, name):
                setattr(cli, name, tracer.wrap(f"{module}.{name}",
                                               getattr(cli, name)))


def self_times(spans) -> dict:
    """{span name: {"s": self time, "calls": n, "points": sample points}}."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for span, inner in zip(spans, child_time):
        row = out.setdefault(span["name"], {"s": 0.0, "calls": 0, "points": 0})
        row["s"] += span["end"] - span["start"] - inner
        row["calls"] += 1
        row["points"] += span["points"]
    return out


def merge_times(into: dict, more: dict) -> dict:
    for name, row in more.items():
        acc = into.setdefault(name, {"s": 0.0, "calls": 0, "points": 0})
        for key in acc:
            acc[key] += row[key]
    return into
