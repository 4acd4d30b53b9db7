"""Command line front end: manifest-driven computation and verification.

Four commands share one JSON manifest format:

* ``christoffel``: emit the metric connection symbols, plus the symbols of
  the extracted spatial metric when a hamiltonian is present.
* ``regularity``: run the Kronecker factorization test on the manifest's
  hamiltonian, with extraction and a reconstruction round trip when they
  apply.
* ``connection``: build the canonical nonlinear connection (of the
  hamiltonian when present, of the metric pair otherwise) and the adapted
  coframe at the evaluation point.
* ``verify``: run the full law battery against the manifest's transition:
  built-in d-tensors, canonical semisprays, the connection law, and the
  adapted coframe.

``main`` runs every command as ``_load`` (manifest, seed, validated
metrics, sample domain), then ``cmd_*(args, manifest, dom)``, which returns
``(checks, objects)``, then ``_finish`` (printout, report, exit code).
Layer functions are looked up in this module's namespace at call time, so
a wrapper put in place of one of those names sees every call.

Reports are deterministic for a fixed manifest and seed (the only varying
field is wall_time_s), so they can be diffed across runs and machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .charts import JetChart, TransitionMap, pullback_scalar
from .connections import (
    NonlinearConnection,
    adapted_coframe,
    canonical_metric_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from .dtensors import builtin_dtensors, verify_dtensor_law
from .errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    NotRegular,
    PolyjetError,
    SingularJacobian,
    SingularMetric,
    UnknownIdentifier,
)
from .hamilton import (
    HamiltonSpace,
    canonical_nonlinear_connection,
    check_kronecker_regularity,
)
from .metrics import Metric, christoffel, pullback_metric
from .report import VerificationReport
from .semisprays import canonical_spatial, canonical_temporal, verify_semispray_law
from .symbolic import Const, SampleDomain, add, parse, to_string

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_METRIC = 3
EXIT_DTENSOR = 4
EXIT_SEMISPRAY = 5
EXIT_CONNECTION = 6
EXIT_COFRAME = 7
EXIT_REGULARITY = 8

# the most sample points a manifest may ask for
MAX_SAMPLE_COUNT = 100_000

# The largest m or n a manifest may declare, checked before the chart's
# m*n momentum names are built.  Twice linalg.SYM_INVERSE_MAX_DIM: past 8
# no metric has an exact inverse, so only a single-time regularity test
# can still run there.
MAX_DIMENSION = 16

_CHECK_EXIT = {
    "metric": EXIT_METRIC,
    "dtensor": EXIT_DTENSOR,
    "semispray": EXIT_SEMISPRAY,
    "connection": EXIT_CONNECTION,
    "coframe": EXIT_COFRAME,
    "regularity": EXIT_REGULARITY,
}


@dataclass
class Manifest:
    """Validated manifest contents."""

    m: int
    n: int
    digest: str
    temporal_metric: Metric | None
    spatial_metric: Metric | None
    hamiltonian: object | None
    constants: dict
    transition: TransitionMap | None
    sample_count: int
    sample_seed: int
    sample_intervals: dict
    tolerances: dict
    evaluation_point: dict | None
    fault_injection: dict | None

    @property
    def chart(self) -> JetChart:
        return JetChart(self.m, self.n)

    def domain(self, seed: int) -> SampleDomain:
        dom = self.chart.sample_domain(count=self.sample_count, seed=seed)
        if not self.sample_intervals:
            return dom
        intervals = tuple(
            (nm, *self.sample_intervals.get(nm, (lo, hi)))
            for nm, lo, hi in dom.intervals)
        return SampleDomain(intervals, count=self.sample_count, seed=seed)


REQUIRED = object()
Key = namedtuple("Key", "kind default arg label", defaults=(None, None, None))

# The manifest schema: for each JSON object of a manifest, by dotted path
# ("" is the document), its keys in the order they are read; any other key
# is refused.  A key gives its kind of value, the default it takes when
# absent (REQUIRED when the manifest must give it), the kind's arg, and the
# name its errors give it when that is not its dotted path.  A key may be
# absent but never null.  ``_walk`` defines each kind.  The arg of integer
# and choice is the values admitted; of rows, list and expression, the
# chart's names that the expressions may use.
SCHEMA = {
    "": {
        "schema": Key("choice", REQUIRED, (1,), "manifest schema"),
        "dimensions": Key("object", REQUIRED),
        "temporal_metric": Key("rows", arg="t_names"),
        "spatial_metric": Key("rows", arg="x_names"),
        "hamiltonian": Key("expression", arg="names"),
        "constants": Key("map", {}),
        "transition": Key("object"),
        "sample_domain": Key("object", {}),
        "tolerances": Key("object", {}),
        "evaluation_point": Key("point"),
        "fault_injection": Key("object"),
    },
    "dimensions": {
        "m": Key("integer", REQUIRED, range(1, MAX_DIMENSION + 1)),
        "n": Key("integer", REQUIRED, range(1, MAX_DIMENSION + 1)),
    },
    "transition": {
        "t_forward": Key("list", REQUIRED, "t_names"),
        "x_forward": Key("list", REQUIRED, "x_names"),
        "t_inverse": Key("list", arg="t_names"),
        "x_inverse": Key("list", arg="x_names"),
    },
    "sample_domain": {
        "count": Key("integer", 20, range(1, MAX_SAMPLE_COUNT + 1)),
        # a negative seed is refused where every seed source is checked
        "seed": Key("integer", 0),
        "intervals": Key("intervals", {}),
    },
    "tolerances": {
        "equiv": Key("tolerance", 1e-9, label="tolerance 'equiv'"),
        "law": Key("tolerance", 1e-8, label="tolerance 'law'"),
        "regularity": Key("tolerance", 1e-9, label="tolerance 'regularity'"),
    },
    "fault_injection": {
        "block": Key("choice", REQUIRED, ("N1", "N2")),
        "index": Key("index", REQUIRED),
        "delta": Key("finite", 0.1),
    },
}


def _key(obj: dict, where: str, key: str, chart: JetChart | None = None):
    """``obj[key]`` of the object at ``where``, walked by its ``SCHEMA``
    entry: the default when absent."""
    spec, path = SCHEMA[where][key], f"{where}.{key}" if where else key
    if key not in obj and spec.default is REQUIRED:
        raise ConfigError(f"manifest needs {path}")
    value = obj.get(key, spec.default)
    if value is None and key not in obj:
        return None
    return _walk(value, spec.label or path, spec.kind, spec.arg, chart)


def _shown(value) -> str:
    """A manifest value as an error echoes it: an integer by its digit count
    past 20 digits, any other value by its type and size past 80 characters
    of its repr."""
    if type(value) is int:
        digits = len(repr(abs(value)))
        return repr(value) if digits <= 20 else f"an integer of {digits} digits"
    text = repr(value)
    if len(text) <= 80:
        return text
    unit = "characters" if isinstance(value, str) else "elements"
    return f"a {type(value).__name__} of {len(value)} {unit}"


def _named(name: str) -> str:
    """A manifest key or variable name as an error echoes it: in full up to
    80 characters, else by its first 20 and its length."""
    return name if len(name) <= 80 else f"{name[:20]}... ({len(name)} characters)"


def _walk(raw, where: str, kind: str, arg=None, chart: JetChart | None = None):
    """``raw``, the value at ``where`` in a manifest, checked and converted
    as a value of ``kind``.  An object is read by its ``SCHEMA`` entry, and
    a key the entry does not list is refused."""
    if kind == "integer":
        if type(raw) is not int:
            raise ConfigError(f"{where} must be an integer, got {_shown(raw)}")
        if arg is not None and raw not in arg:
            raise ConfigError(f"{where} must be from {arg[0]} to {arg[-1]}, got {_shown(raw)}")
        return raw
    if kind == "choice":
        if type(raw) is not type(arg[0]) or raw not in arg:
            raise ConfigError(f"{where} must be {' or '.join(map(repr, arg))}")
        return raw
    if kind == "index":
        if (not isinstance(raw, list) or len(raw) != 3
                or any(type(i) is not int or i < 1 for i in raw)):
            raise ConfigError(f"{where} must be three 1-based indices")
        return tuple(raw)
    if kind in ("list", "rows"):
        d = len(getattr(chart, arg))
        if not isinstance(raw, list) or len(raw) != d:
            shape = f"be a {d}x{d} array" if kind == "rows" else f"list {d} expressions"
            raise ConfigError(f"{where} must {shape}")
        inner = "list" if kind == "rows" else "expression"
        return tuple(_walk(e, where, inner, arg, chart) for e in raw)
    if kind == "expression":
        if isinstance(raw, str):
            return parse(raw, getattr(chart, arg))
        if type(raw) not in (int, float):
            raise ConfigError(f"{where}: expected an expression string or number, "
                              f"got {type(raw).__name__}")
        return Const(_walk(raw, where, "finite"))
    if kind in ("object", "map", "point", "intervals"):
        if not isinstance(raw, dict):
            raise ConfigError(f"{where} must be a JSON object")
        if kind == "map":
            return {k: _walk(v, f"{where}.{k}", "finite") for k, v in raw.items()}
        known = SCHEMA[where] if kind == "object" else chart.names
        unknown = [_named(k) for k in raw if k not in known]
        if kind == "object":
            if unknown:
                raise ConfigError(f"unknown manifest key {where}{'.' if where else ''}{unknown[0]}")
            return {key: _key(raw, where, key, chart) for key in known}
        if kind == "point":
            if unknown:
                more = f" and {len(unknown) - 3} more" if len(unknown) > 3 else ""
                raise ConfigError(f"{where} names unknown variables {sorted(unknown)[:3]}{more}")
            return _walk({**dict.fromkeys(chart.names, 0.0), **raw}, where, "map")
        if unknown:
            raise ConfigError(f"sample interval for unknown variable {unknown[0]!r}")
        return {nm: _walk(pair, f"sample interval for {nm!r}", "pair")
                for nm, pair in raw.items()}
    if kind == "pair":
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError(f"{where} must be [lo, hi]")
        return tuple(_walk(v, where, "finite") for v in raw)
    # finite and tolerance
    if type(raw) not in (int, float):
        raise ConfigError(f"{where} must be a number, got {_shown(raw)}")
    try:
        value = float(raw)
    except OverflowError:
        raise ConfigError(f"{where} must be a number, got {_shown(raw)}") from None
    if kind == "tolerance" and not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{where} must be finite and positive, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}")
    try:
        data = json.loads(blob)
    except ValueError as exc:  # bad JSON, or bytes that are no Unicode text
        raise ConfigError(f"manifest is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError("manifest nests deeper than the JSON parser allows") from None
    if not isinstance(data, dict):
        raise ConfigError("manifest must be a JSON object")
    _key(data, "", "schema")  # refused before any other key is read
    data = _walk(data, "", "object", chart=JetChart(**_key(data, "", "dimensions")))

    # the rules that tie one field to another
    m, n = data["dimensions"]["m"], data["dimensions"]["n"]
    sample, fault = data["sample_domain"], data["fault_injection"]
    for nm, (lo, hi) in sample["intervals"].items():
        if not lo < hi:
            raise ConfigError(f"sample interval for {nm!r} must be [lo, hi]")
    if fault is not None:
        shape = (m, n, m if fault["block"] == "N1" else n)
        if any(i > top for i, top in zip(fault["index"], shape)):
            raise ConfigError(f"fault_injection.index out of range for "
                              f"{fault['block']} of shape {shape}")

    h, phi, tr = data["temporal_metric"], data["spatial_metric"], data["transition"]
    return Manifest(
        m=m, n=n, digest=hashlib.sha256(blob).hexdigest(),
        temporal_metric=None if h is None else Metric.temporal(h),
        spatial_metric=None if phi is None else Metric.spatial(phi),
        hamiltonian=data["hamiltonian"], constants=data["constants"],
        transition=None if tr is None else TransitionMap(
            m, n, tr["t_forward"], tr["x_forward"], tr["t_inverse"], tr["x_inverse"]),
        sample_count=sample["count"], sample_seed=sample["seed"],
        sample_intervals=sample["intervals"], tolerances=data["tolerances"],
        evaluation_point=data["evaluation_point"], fault_injection=fault)


def _load(args):
    """The manifest and the command's sample domain, seeded by
    ``_pick_seed``.

    Symmetry and invertibility of the manifest's metrics are checked here,
    once, on that domain, before any command relies on them.
    """
    manifest = load_manifest(args.manifest)
    dom = manifest.domain(_pick_seed(args, manifest))
    for metric in (manifest.temporal_metric, manifest.spatial_metric):
        if metric is not None:
            metric.validate(dom, tol=manifest.tolerances["equiv"])
    return manifest, dom


def _pick_seed(args, manifest: Manifest) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("POLYJET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"POLYJET_SEED must be an integer, got {env!r}")
    return manifest.sample_seed


def _eval_point(manifest: Manifest, dom: SampleDomain) -> dict:
    """Manifest evaluation point, else the center of the sample box."""
    if manifest.evaluation_point is not None:
        return manifest.evaluation_point
    return {nm: (lo + hi) / 2.0 for nm, lo, hi in dom.intervals}


def _texts(block) -> list:
    """The text of every expression of a block, nested as the block is."""
    return np.frompyfunc(to_string, 1, 1)(np.asarray(block, dtype=object)).tolist()


def _array_values(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _check_dict(rep: VerificationReport, kind: str, **extra) -> dict:
    return {**rep.to_dict(), "kind": kind, **extra}


def _trivial_check(name: str, kind: str, tolerance: float, samples: int) -> dict:
    return _check_dict(VerificationReport(name, True, tolerance, 0.0, None, samples), kind)


def _regularity_check(result, tol: float) -> dict:
    rep = VerificationReport("kronecker-regularity", result.regular, tol,
                             result.max_residual, None, result.samples)
    return _check_dict(rep, "regularity", notes={"reason": result.reason,
                                                 "p_dependent": bool(result.p_dependent)})


def _finite_residual(entry: dict) -> dict:
    """``entry`` as the JSON report holds it.  JSON has no NaN or infinity,
    so a non-finite ``max_residual`` is written as null; the check or test
    that measured it has failed."""
    if math.isfinite(entry["max_residual"]):
        return entry
    return {**entry, "max_residual": None}


def _print_checks(checks):
    width = max((len(c["name"]) for c in checks), default=0)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        line = (f"{status}  {c['name']:<{width}}  "
                f"max={c['max_residual']:.3e}  tol={c['tolerance']:.1e}")
        if not c["passed"] and c.get("worst_entry"):
            line += f"  at {c['worst_entry']}"
        print(line)


def _finish(args, manifest: Manifest, dom: SampleDomain, checks, objects,
            started: float) -> int:
    """Print the checks, write the report when ``--json`` asks for it and
    return the exit code of the first failing check."""
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": 1,
        "command": args.command,
        "manifest_digest": manifest.digest,
        "seed": dom.seed,
        "checks": [_finite_residual(c) for c in checks],
        "objects": objects,
        "passed": passed,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _print_checks(checks)
    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        try:
            with open(args.json, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write the report: {exc}") from None
        print(f"report written to {args.json}")
    return next((_CHECK_EXIT[c["kind"]] for c in checks if not c["passed"]), EXIT_OK)


def _require(command: str, **pieces):
    for label, value in pieces.items():
        if value is None:
            raise ConfigError(f"{command} needs {label} in the manifest")


# the manifest tolerance that --tol overrides, for the commands that take it
_TOL_KEYS = {"regularity": "regularity", "verify": "law"}


def _cli_tol(args, manifest: Manifest) -> float:
    """``--tol`` when given, else the manifest's tolerance it overrides."""
    if args.tol is None:
        return manifest.tolerances[_TOL_KEYS[args.command]]
    return _walk(args.tol, "--tol", "tolerance")


def _hamilton_space(manifest: Manifest, command: str, dom: SampleDomain, checks: list):
    """Test the manifest's hamiltonian for Kronecker regularity once, record
    the check, and build the Hamilton space on that result.  Returns the
    result and the space, which is None when the hamiltonian is not
    regular."""
    _require(command, temporal_metric=manifest.temporal_metric)
    tol = manifest.tolerances["regularity"]
    result = check_kronecker_regularity(manifest.hamiltonian, manifest.temporal_metric,
                                        manifest.n, dom=dom, tol=tol)
    checks.append(_regularity_check(result, tol))
    if not result.regular:
        return result, None
    return result, HamiltonSpace(manifest.temporal_metric, manifest.n, manifest.hamiltonian,
                                 constants=manifest.constants, tol=tol, dom=dom,
                                 regularity=result)


def _symbol_entry(metric: Metric, point: dict) -> dict:
    field = christoffel(metric)
    return {"metric": _texts(metric.components),
            "symbols": _texts(field.components),
            "at_point": _array_values(field.at(point))}


def cmd_christoffel(args, manifest: Manifest, dom: SampleDomain):
    if manifest.temporal_metric is None and manifest.spatial_metric is None:
        raise ConfigError("christoffel needs temporal_metric or spatial_metric")
    point = _eval_point(manifest, dom)
    objects = {"evaluation_point": point}
    checks = []
    for label, metric in (("temporal", manifest.temporal_metric),
                          ("spatial", manifest.spatial_metric)):
        if metric is None:
            continue
        objects[label] = _symbol_entry(metric, point)
        checks.append(_trivial_check(f"metric:{label}", "metric",
                                     manifest.tolerances["equiv"], dom.count))
    if manifest.hamiltonian is not None:
        _, space = _hamilton_space(manifest, "christoffel", dom, checks)
        if space is not None:
            objects["extracted_spatial"] = _symbol_entry(space.g, point)
    return checks, objects


def cmd_regularity(args, manifest: Manifest, dom: SampleDomain):
    _require("regularity", temporal_metric=manifest.temporal_metric,
             hamiltonian=manifest.hamiltonian)
    tol = _cli_tol(args, manifest)
    result = check_kronecker_regularity(manifest.hamiltonian, manifest.temporal_metric,
                                        manifest.n, dom=dom, tol=tol)
    objects = {"regularity": _finite_residual(result.to_dict()),
               "g_upper": _texts(result.candidate)}
    checks = [_regularity_check(result, tol)]
    if result.regular and manifest.m >= 2:
        # the space checks the reconstruction round trip as it is built;
        # reaching this point means the rebuilt hamiltonian matched
        space = HamiltonSpace(manifest.temporal_metric, manifest.n, manifest.hamiltonian,
                              tol=tol, dom=dom, regularity=result)
        objects["g_lower"] = _texts(space.g.components)
        objects["potential"] = _texts(space.U.components)
        objects["free_term"] = to_string(space.F)
        checks.append(_trivial_check("reconstruction-round-trip", "regularity",
                                     tol, dom.count))
    return checks, objects


def cmd_connection(args, manifest: Manifest, dom: SampleDomain):
    checks = []
    objects = {}
    if manifest.hamiltonian is not None:
        result, space = _hamilton_space(manifest, "connection", dom, checks)
        if space is None:
            objects["regularity"] = _finite_residual(result.to_dict())
            return checks, objects
        N = canonical_nonlinear_connection(space)
        objects["source"] = "hamiltonian"
    else:
        _require("connection", temporal_metric=manifest.temporal_metric,
                 spatial_metric=manifest.spatial_metric)
        N = canonical_metric_connection(manifest.temporal_metric, manifest.spatial_metric)
        objects["source"] = "metric pair"
    point = _eval_point(manifest, dom)
    objects["n1"] = _texts(N.n1)
    objects["n2"] = _texts(N.n2)
    objects["n1_at_point"], objects["n2_at_point"] = map(_array_values, N.at(point))
    objects["coframe_at_point"] = _array_values(adapted_coframe(N, point))
    objects["evaluation_point"] = point
    return checks, objects


def _inject_fault(N: NonlinearConnection, fault: dict) -> NonlinearConnection:
    index = tuple(v - 1 for v in fault["index"])
    n1, n2 = N.n1.copy(), N.n2.copy()
    block = n1 if fault["block"] == "N1" else n2
    block[index] = add(block[index], Const(fault["delta"]))
    return NonlinearConnection(N.m, N.n, n1, n2)


def cmd_verify(args, manifest: Manifest, dom: SampleDomain):
    _require("verify", temporal_metric=manifest.temporal_metric,
             spatial_metric=manifest.spatial_metric,
             transition=manifest.transition)
    tm = manifest.transition
    if not tm.has_inverse:
        raise ConfigError("verify needs transition.t_inverse and x_inverse")
    law_tol = _cli_tol(args, manifest)
    h, phi = manifest.temporal_metric, manifest.spatial_metric
    tm.validate(dom, tol=manifest.tolerances["equiv"])

    checks = []
    objects = {
        "transition": {
            "t_forward": _texts(tm.t_forward),
            "x_forward": _texts(tm.x_forward),
        },
        # the spatial canonical semispray needs an auxiliary spatial metric;
        # the manifest's spatial_metric plays that role
        "spatial_metric_used": _texts(phi.components),
    }

    h_b = pullback_metric(h, tm)
    phi_b = pullback_metric(phi, tm)

    space = None
    if manifest.hamiltonian is not None:
        _, space = _hamilton_space(manifest, "verify", dom, checks)
        if space is None:
            return checks, objects

    built_a = builtin_dtensors(h, manifest.n)
    built_b = builtin_dtensors(h_b, manifest.n)
    for key in ("C*", "L", "J"):
        rep = verify_dtensor_law(built_a[key], built_b[key], tm, dom=dom, tol=law_tol)
        checks.append(_check_dict(rep, "dtensor"))
    for canonical, g, g_b, dim in ((canonical_temporal, h, h_b, manifest.n),
                                   (canonical_spatial, phi, phi_b, manifest.m)):
        rep = verify_semispray_law(canonical(g, dim), canonical(g_b, dim), tm,
                                   dom=dom, tol=law_tol)
        checks.append(_check_dict(rep, "semispray"))

    if space is not None:
        space_b = HamiltonSpace(h_b, manifest.n,
                                pullback_scalar(manifest.hamiltonian, tm),
                                tol=manifest.tolerances["regularity"],
                                dom=dom.with_options(seed=dom.seed + 1))
        N_a = canonical_nonlinear_connection(space)
        N_b = canonical_nonlinear_connection(space_b)
        objects["connection_source"] = "hamiltonian"
    else:
        N_a = canonical_metric_connection(h, phi)
        N_b = canonical_metric_connection(h_b, phi_b)
        objects["connection_source"] = "metric pair"
    fault = manifest.fault_injection
    if fault is not None:
        N_b = _inject_fault(N_b, fault)
        objects["fault_injection"] = {**fault, "index": list(fault["index"])}

    for kind, law in (("connection", verify_connection_law),
                      ("coframe", verify_adapted_coframe)):
        checks.append(_check_dict(law(N_a, N_b, tm, dom=dom, tol=law_tol), kind))

    point = _eval_point(manifest, dom)
    objects["n1_at_point"], objects["n2_at_point"] = map(_array_values, N_a.at(point))
    objects["evaluation_point"] = point
    return checks, objects


_COMMANDS = {
    "christoffel": cmd_christoffel,
    "regularity": cmd_regularity,
    "connection": cmd_connection,
    "verify": cmd_verify,
}

_COMMAND_HELP = {
    "christoffel": "metric connection symbols, with the extracted spatial "
                   "metric's symbols when a hamiltonian is present",
    "regularity": "Kronecker factorization test plus extraction round trip",
    "connection": "canonical nonlinear connection and adapted coframe",
    "verify": "full transformation-law battery against the manifest's "
              "transition",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyjet",
        description="compute and verify the geometry of fields of polymomenta")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        p.add_argument("manifest", help="path to a JSON manifest")
        p.add_argument("--json", metavar="PATH",
                       help="also write the report as JSON to PATH")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (overrides POLYJET_SEED and the "
                            "manifest)")
        if name in _TOL_KEYS:
            p.add_argument("--tol", type=float, default=None,
                           help=f"override the manifest's {_TOL_KEYS[name]} tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        started = time.perf_counter()
        manifest, dom = _load(args)
        checks, objects = _COMMANDS[args.command](args, manifest, dom)
        return _finish(args, manifest, dom, checks, objects, started)
    except (ConfigError, ExprSyntaxError, UnknownIdentifier) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularMetric, SingularJacobian, DomainError) as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return EXIT_METRIC
    except NotRegular as exc:
        print(f"regularity error: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except PolyjetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
