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
    extract_electrodynamic_form,
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


def _number(raw, where: str) -> float:
    """A manifest number: a JSON integer or float, never a bool or string."""
    if type(raw) not in (int, float):
        raise ConfigError(f"{where} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{where} must be a number, got {raw!r}") from None


def _integer(raw, where: str) -> int:
    """A manifest integer: a JSON integer, never a float, bool or string."""
    if type(raw) is not int:
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    return raw


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    return raw


def _tolerance(raw, where: str) -> float:
    value = _number(raw, where)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{where} must be finite and positive, got {value!r}")
    return value


def _finite(raw, where: str) -> float:
    """A manifest number that reaches the report, where JSON admits no NaN
    or infinity."""
    value = _number(raw, where)
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _entry_expr(raw, allowed, where: str):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        value = _number(raw, where)
        if not math.isfinite(value):
            raise ConfigError(f"{where}: entries must be finite, got {raw!r}")
        return Const(value)
    if isinstance(raw, str):
        return parse(raw, allowed)
    raise ConfigError(f"{where}: expected an expression string or number, "
                      f"got {type(raw).__name__}")


def _metric_rows(raw, dim: int, allowed, where: str):
    if (not isinstance(raw, list) or len(raw) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in raw)):
        raise ConfigError(f"{where} must be a {dim}x{dim} array")
    return [[_entry_expr(e, allowed, where) for e in row] for row in raw]


def _expr_list(raw, size: int, allowed, where: str):
    if not isinstance(raw, list) or len(raw) != size:
        raise ConfigError(f"{where} must list {size} expressions")
    return tuple(_entry_expr(e, allowed, where) for e in raw)


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}")
    digest = hashlib.sha256(blob).hexdigest()
    try:
        data = json.loads(blob)
    except ValueError as exc:  # bad JSON, or bytes that are no Unicode text
        raise ConfigError(f"manifest is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError("manifest nests deeper than the JSON parser allows") from None
    if not isinstance(data, dict):
        raise ConfigError("manifest must be a JSON object")
    if type(data.get("schema")) is not int or data["schema"] != 1:
        raise ConfigError("manifest schema must be 1")
    dims = data.get("dimensions")
    if not isinstance(dims, dict) or "m" not in dims or "n" not in dims:
        raise ConfigError("manifest needs dimensions.m and dimensions.n")
    m = _integer(dims["m"], "dimensions.m")
    n = _integer(dims["n"], "dimensions.n")
    for where, value in (("dimensions.m", m), ("dimensions.n", n)):
        if not 1 <= value <= MAX_DIMENSION:
            raise ConfigError(f"{where} must be from 1 to {MAX_DIMENSION}, got {value}")
    chart = JetChart(m, n)

    h = phi = None
    if "temporal_metric" in data:
        h = Metric.temporal(_metric_rows(data["temporal_metric"], m,
                                         chart.t_names, "temporal_metric"))
    if "spatial_metric" in data:
        phi = Metric.spatial(_metric_rows(data["spatial_metric"], n,
                                          chart.x_names, "spatial_metric"))

    hamiltonian = None
    if "hamiltonian" in data:
        hamiltonian = _entry_expr(data["hamiltonian"], chart.names, "hamiltonian")

    constants = {k: _finite(v, f"constants.{k}")
                 for k, v in _object(data.get("constants", {}), "constants").items()}

    transition = None
    if "transition" in data:
        tr = _object(data["transition"], "transition")
        try:
            t_fwd = _expr_list(tr["t_forward"], m, chart.t_names,
                               "transition.t_forward")
            x_fwd = _expr_list(tr["x_forward"], n, chart.x_names,
                               "transition.x_forward")
        except KeyError as exc:
            raise ConfigError(f"transition needs {exc.args[0]}")
        t_inv = x_inv = None
        if "t_inverse" in tr:
            t_inv = _expr_list(tr["t_inverse"], m, chart.t_names,
                               "transition.t_inverse")
        if "x_inverse" in tr:
            x_inv = _expr_list(tr["x_inverse"], n, chart.x_names,
                               "transition.x_inverse")
        transition = TransitionMap(m, n, t_fwd, x_fwd, t_inv, x_inv)

    sample = _object(data.get("sample_domain", {}), "sample_domain")
    count = _integer(sample.get("count", 20), "sample_domain.count")
    if not 1 <= count <= MAX_SAMPLE_COUNT:
        raise ConfigError(f"sample_domain.count must be from 1 to {MAX_SAMPLE_COUNT}, "
                          f"got {count}")
    seed = _integer(sample.get("seed", 0), "sample_domain.seed")
    intervals = {}
    for nm, pair in _object(sample.get("intervals", {}), "sample_domain.intervals").items():
        if nm not in chart.names:
            raise ConfigError(f"sample interval for unknown variable {nm!r}")
        where = f"sample interval for {nm!r}"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where} must be [lo, hi]")
        lo, hi = (_number(v, where) for v in pair)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError(f"{where} must be [lo, hi]")
        intervals[nm] = (lo, hi)

    tol = {"equiv": 1e-9, "law": 1e-8, "regularity": 1e-9}
    for key, value in _object(data.get("tolerances", {}), "tolerances").items():
        if key not in tol:
            raise ConfigError(f"unknown tolerance {key!r}")
        tol[key] = _tolerance(value, f"tolerance {key!r}")

    point = data.get("evaluation_point")
    if point is not None:
        unknown = set(_object(point, "evaluation_point")) - set(chart.names)
        if unknown:
            raise ConfigError(f"evaluation_point names unknown variables "
                              f"{sorted(unknown)}")
        point = {nm: _finite(point.get(nm, 0.0), f"evaluation_point.{nm}")
                 for nm in chart.names}

    fault = data.get("fault_injection")
    if fault is not None:
        if not isinstance(fault, dict) or fault.get("block") not in ("N1", "N2"):
            raise ConfigError("fault_injection.block must be 'N1' or 'N2'")
        idx = fault.get("index")
        if (not isinstance(idx, list) or len(idx) != 3
                or any(type(i) is not int or i < 1 for i in idx)):
            raise ConfigError("fault_injection.index must be three 1-based indices")
        hi = (m, n, m) if fault["block"] == "N1" else (m, n, n)
        if any(i > top for i, top in zip(idx, hi)):
            raise ConfigError(f"fault_injection.index out of range for "
                              f"{fault['block']} of shape {hi}")
        fault = {"block": fault["block"], "index": tuple(idx),
                 "delta": _finite(fault.get("delta", 0.1), "fault_injection.delta")}

    return Manifest(m=m, n=n, digest=digest, temporal_metric=h,
                    spatial_metric=phi, hamiltonian=hamiltonian,
                    constants=constants, transition=transition,
                    sample_count=count, sample_seed=seed,
                    sample_intervals=intervals, tolerances=tol,
                    evaluation_point=point, fault_injection=fault)


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
    if passed:
        return EXIT_OK
    for c in checks:
        if not c["passed"]:
            return _CHECK_EXIT[c["kind"]]
    return EXIT_INTERNAL


def _require(manifest: Manifest, command: str, **pieces):
    for label, value in pieces.items():
        if value is None:
            raise ConfigError(f"{command} needs {label} in the manifest")


# the manifest tolerance that --tol overrides, for the commands that take it
_TOL_KEYS = {"regularity": "regularity", "verify": "law"}


def _cli_tol(args, manifest: Manifest) -> float:
    """``--tol`` when given, else the manifest's tolerance it overrides."""
    if args.tol is None:
        return manifest.tolerances[_TOL_KEYS[args.command]]
    return _tolerance(args.tol, "--tol")


def _hamilton_space(manifest: Manifest, command: str, dom: SampleDomain, checks: list):
    """Test the manifest's hamiltonian for Kronecker regularity once, record
    the check, and build the Hamilton space on that result.  Returns the
    result and the space, which is None when the hamiltonian is not
    regular."""
    _require(manifest, command, temporal_metric=manifest.temporal_metric)
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
    _require(manifest, "regularity", temporal_metric=manifest.temporal_metric,
             hamiltonian=manifest.hamiltonian)
    tol = _cli_tol(args, manifest)
    result = check_kronecker_regularity(manifest.hamiltonian, manifest.temporal_metric,
                                        manifest.n, dom=dom, tol=tol)
    objects = {"regularity": _finite_residual(result.to_dict())}
    if result.candidate is not None:
        objects["g_upper"] = _texts(result.candidate)
    checks = [_regularity_check(result, tol)]
    if result.regular and manifest.m >= 2:
        # extraction verifies the reconstruction round trip internally;
        # reaching this point means the rebuilt hamiltonian matched
        ex = extract_electrodynamic_form(manifest.hamiltonian, manifest.temporal_metric,
                                         manifest.n, dom=dom, tol=tol, regularity=result)
        objects["g_lower"] = _texts(ex.g.components)
        objects["potential"] = _texts(ex.U.components)
        objects["free_term"] = to_string(ex.F)
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
        _require(manifest, "connection", temporal_metric=manifest.temporal_metric,
                 spatial_metric=manifest.spatial_metric)
        N = canonical_metric_connection(manifest.temporal_metric, manifest.spatial_metric)
        objects["source"] = "metric pair"
    point = _eval_point(manifest, dom)
    objects["n1"] = _texts(N.n1)
    objects["n2"] = _texts(N.n2)
    objects["n1_at_point"], objects["n2_at_point"] = map(_array_values, N.at(point))
    objects["coframe_at_point"] = _array_values(
        adapted_coframe(N, manifest.chart.point(point)))
    objects["evaluation_point"] = point
    return checks, objects


def _inject_fault(N: NonlinearConnection, fault: dict) -> NonlinearConnection:
    index = tuple(v - 1 for v in fault["index"])
    n1, n2 = N.n1.copy(), N.n2.copy()
    block = n1 if fault["block"] == "N1" else n2
    block[index] = add(block[index], Const(fault["delta"]))
    return NonlinearConnection(N.m, N.n, n1, n2)


def cmd_verify(args, manifest: Manifest, dom: SampleDomain):
    _require(manifest, "verify", temporal_metric=manifest.temporal_metric,
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
