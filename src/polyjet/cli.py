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

Reports are deterministic for a fixed manifest and seed (the only varying
field is wall_time_s), so they can be diffed across runs and machines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _entry_expr(raw, allowed, where: str):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return Const(float(raw))
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("manifest must be a JSON object")
    if data.get("schema") != 1:
        raise ConfigError("manifest schema must be 1")
    dims = data.get("dimensions")
    if not isinstance(dims, dict) or "m" not in dims or "n" not in dims:
        raise ConfigError("manifest needs dimensions.m and dimensions.n")
    m, n = int(dims["m"]), int(dims["n"])
    if m < 1 or n < 1:
        raise ConfigError("dimensions must be positive")
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

    constants = data.get("constants", {})
    if not isinstance(constants, dict):
        raise ConfigError("constants must be an object")
    constants = {k: float(v) for k, v in constants.items()}

    transition = None
    if "transition" in data:
        tr = data["transition"]
        if not isinstance(tr, dict):
            raise ConfigError("transition must be an object")
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

    sample = data.get("sample_domain", {})
    if not isinstance(sample, dict):
        raise ConfigError("sample_domain must be an object")
    count = int(sample.get("count", 20))
    if count < 1:
        raise ConfigError("sample_domain.count must be at least 1")
    seed = int(sample.get("seed", 0))
    intervals = {}
    for nm, pair in sample.get("intervals", {}).items():
        if nm not in chart.names:
            raise ConfigError(f"sample interval for unknown variable {nm!r}")
        if not isinstance(pair, list) or len(pair) != 2 or pair[0] >= pair[1]:
            raise ConfigError(f"sample interval for {nm!r} must be [lo, hi]")
        intervals[nm] = (float(pair[0]), float(pair[1]))

    tol = {"equiv": 1e-9, "law": 1e-8, "regularity": 1e-9}
    for key, value in data.get("tolerances", {}).items():
        if key not in tol:
            raise ConfigError(f"unknown tolerance {key!r}")
        value = float(value)
        if value <= 0.0:
            raise ConfigError(f"tolerance {key!r} must be positive")
        tol[key] = value

    point = data.get("evaluation_point")
    if point is not None:
        if not isinstance(point, dict):
            raise ConfigError("evaluation_point must be an object")
        unknown = set(point) - set(chart.names)
        if unknown:
            raise ConfigError(f"evaluation_point names unknown variables "
                              f"{sorted(unknown)}")
        point = {nm: float(point.get(nm, 0.0)) for nm in chart.names}

    fault = data.get("fault_injection")
    if fault is not None:
        if not isinstance(fault, dict) or fault.get("block") not in ("N1", "N2"):
            raise ConfigError("fault_injection.block must be 'N1' or 'N2'")
        idx = fault.get("index")
        if (not isinstance(idx, list) or len(idx) != 3
                or any(not isinstance(i, int) or i < 1 for i in idx)):
            raise ConfigError("fault_injection.index must be three 1-based indices")
        hi = (m, n, m) if fault["block"] == "N1" else (m, n, n)
        if any(i > top for i, top in zip(idx, hi)):
            raise ConfigError(f"fault_injection.index out of range for "
                              f"{fault['block']} of shape {hi}")
        fault = {"block": fault["block"], "index": tuple(idx),
                 "delta": float(fault.get("delta", 0.1))}

    manifest = Manifest(m=m, n=n, digest=digest, temporal_metric=h,
                        spatial_metric=phi, hamiltonian=hamiltonian,
                        constants=constants, transition=transition,
                        sample_count=count, sample_seed=seed,
                        sample_intervals=intervals, tolerances=tol,
                        evaluation_point=point, fault_injection=fault)
    # symmetry is checked the moment the metrics come in, not assumed later
    dom = manifest.domain(seed)
    for metric in (h, phi):
        if metric is not None:
            metric.validate(dom, tol=tol["equiv"])
    return manifest


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


def _matrix_strings(rows):
    return [[to_string(e) for e in row] for row in rows]


def _block3_strings(block):
    return [_matrix_strings(sheet) for sheet in block]


def _array_values(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _check_dict(rep: VerificationReport, kind: str) -> dict:
    out = rep.to_dict()
    out["kind"] = kind
    return out


def _trivial_check(name: str, kind: str, tolerance: float, samples: int) -> dict:
    return {"name": name, "kind": kind, "passed": True, "tolerance": tolerance,
            "max_residual": 0.0, "worst_point": None, "samples": samples,
            "worst_entry": None}


def _regularity_check(result, tol: float) -> dict:
    return {
        "name": "kronecker-regularity", "kind": "regularity",
        "passed": bool(result.regular), "tolerance": tol,
        "max_residual": result.max_residual, "worst_point": None,
        "samples": result.samples, "worst_entry": None,
        "notes": {"reason": result.reason,
                  "p_dependent": bool(result.p_dependent)},
    }


def _print_checks(checks):
    width = max((len(c["name"]) for c in checks), default=0)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        line = (f"{status}  {c['name']:<{width}}  "
                f"max={c['max_residual']:.3e}  tol={c['tolerance']:.1e}")
        if not c["passed"] and c.get("worst_entry"):
            line += f"  at {c['worst_entry']}"
        print(line)


def _finish(command: str, manifest: Manifest, seed: int, checks, objects,
            args, started: float) -> int:
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": 1,
        "command": command,
        "manifest_digest": manifest.digest,
        "seed": seed,
        "checks": checks,
        "objects": objects,
        "passed": passed,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    _print_checks(checks)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
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


def _law_tol(args, manifest: Manifest) -> float:
    return float(args.tol) if args.tol is not None else manifest.tolerances["law"]


def _symbol_entry(metric: Metric, point: dict) -> dict:
    field = christoffel(metric)
    entry = {"metric": _matrix_strings(metric.components)}
    if field.components is not None:
        entry["symbols"] = _block3_strings(field.components)
    entry["at_point"] = _array_values(field.at(point))
    return entry


def cmd_christoffel(args) -> int:
    started = time.perf_counter()
    manifest = load_manifest(args.manifest)
    seed = _pick_seed(args, manifest)
    dom = manifest.domain(seed)
    if manifest.temporal_metric is None and manifest.spatial_metric is None:
        raise ConfigError("christoffel needs temporal_metric or spatial_metric")
    point = _eval_point(manifest, dom)
    objects = {"evaluation_point": point}
    checks = []
    for label, metric in (("temporal", manifest.temporal_metric),
                          ("spatial", manifest.spatial_metric)):
        if metric is None:
            continue
        metric.validate(dom, tol=manifest.tolerances["equiv"])
        objects[label] = _symbol_entry(metric, point)
        checks.append(_trivial_check(f"metric:{label}", "metric",
                                     manifest.tolerances["equiv"], dom.count))
    if manifest.hamiltonian is not None:
        _require(manifest, "christoffel", temporal_metric=manifest.temporal_metric)
        reg_tol = manifest.tolerances["regularity"]
        result = check_kronecker_regularity(
            manifest.hamiltonian, manifest.temporal_metric, manifest.n,
            dom=dom, tol=reg_tol)
        checks.append(_regularity_check(result, reg_tol))
        if result.regular:
            space = HamiltonSpace(manifest.temporal_metric, manifest.n,
                                  manifest.hamiltonian,
                                  constants=manifest.constants,
                                  tol=reg_tol, dom=dom)
            objects["extracted_spatial"] = _symbol_entry(space.g, point)
    return _finish("christoffel", manifest, seed, checks, objects, args, started)


def cmd_regularity(args) -> int:
    started = time.perf_counter()
    manifest = load_manifest(args.manifest)
    seed = _pick_seed(args, manifest)
    _require(manifest, "regularity", temporal_metric=manifest.temporal_metric,
             hamiltonian=manifest.hamiltonian)
    dom = manifest.domain(seed)
    tol = (float(args.tol) if args.tol is not None
           else manifest.tolerances["regularity"])
    result = check_kronecker_regularity(
        manifest.hamiltonian, manifest.temporal_metric, manifest.n,
        dom=dom, tol=tol)
    objects = {"regularity": result.to_dict()}
    if result.candidate is not None:
        objects["g_upper"] = _matrix_strings(result.candidate)
    checks = [_regularity_check(result, tol)]
    if result.regular and manifest.m >= 2:
        # extraction verifies the reconstruction round trip internally;
        # reaching this point means the rebuilt hamiltonian matched
        ex = extract_electrodynamic_form(
            manifest.hamiltonian, manifest.temporal_metric, manifest.n,
            dom=dom, tol=tol, regularity=result)
        objects["g_lower"] = _matrix_strings(ex.g.components)
        objects["potential"] = [[to_string(ex.U.components[i, a])
                                 for a in range(manifest.m)]
                                for i in range(manifest.n)]
        objects["free_term"] = to_string(ex.F)
        checks.append(_trivial_check("reconstruction-round-trip", "regularity",
                                     tol, dom.count))
    return _finish("regularity", manifest, seed, checks, objects, args, started)


def cmd_connection(args) -> int:
    started = time.perf_counter()
    manifest = load_manifest(args.manifest)
    seed = _pick_seed(args, manifest)
    dom = manifest.domain(seed)
    checks = []
    objects = {}
    if manifest.hamiltonian is not None:
        _require(manifest, "connection", temporal_metric=manifest.temporal_metric)
        reg_tol = manifest.tolerances["regularity"]
        result = check_kronecker_regularity(
            manifest.hamiltonian, manifest.temporal_metric, manifest.n,
            dom=dom, tol=reg_tol)
        checks.append(_regularity_check(result, reg_tol))
        if not result.regular:
            objects["regularity"] = result.to_dict()
            return _finish("connection", manifest, seed, checks, objects,
                           args, started)
        space = HamiltonSpace(manifest.temporal_metric, manifest.n,
                              manifest.hamiltonian,
                              constants=manifest.constants,
                              tol=reg_tol, dom=dom)
        N = canonical_nonlinear_connection(space)
        objects["source"] = "hamiltonian"
    else:
        _require(manifest, "connection",
                 temporal_metric=manifest.temporal_metric,
                 spatial_metric=manifest.spatial_metric)
        N = canonical_metric_connection(manifest.temporal_metric,
                                        manifest.spatial_metric)
        objects["source"] = "metric pair"
    point = _eval_point(manifest, dom)
    objects["n1"] = _block3_strings(N.n1)
    objects["n2"] = _block3_strings(N.n2)
    objects["n1_at_point"] = _array_values(N.n1_at(point))
    objects["n2_at_point"] = _array_values(N.n2_at(point))
    objects["coframe_at_point"] = _array_values(
        adapted_coframe(N, manifest.chart.point(point)))
    objects["evaluation_point"] = point
    return _finish("connection", manifest, seed, checks, objects, args, started)


def _inject_fault(N: NonlinearConnection, fault: dict) -> NonlinearConnection:
    a, i, k = (v - 1 for v in fault["index"])
    n1 = [list(map(list, sheet)) for sheet in N.n1]
    n2 = [list(map(list, sheet)) for sheet in N.n2]
    block = n1 if fault["block"] == "N1" else n2
    block[a][i][k] = add(block[a][i][k], Const(fault["delta"]))
    return NonlinearConnection(N.m, N.n, n1, n2)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    manifest = load_manifest(args.manifest)
    seed = _pick_seed(args, manifest)
    _require(manifest, "verify", temporal_metric=manifest.temporal_metric,
             spatial_metric=manifest.spatial_metric,
             transition=manifest.transition)
    tm = manifest.transition
    if not tm.has_inverse:
        raise ConfigError("verify needs transition.t_inverse and x_inverse")
    dom = manifest.domain(seed)
    law_tol = _law_tol(args, manifest)
    equiv_tol = manifest.tolerances["equiv"]
    h, phi = manifest.temporal_metric, manifest.spatial_metric
    h.validate(dom, tol=equiv_tol)
    phi.validate(dom, tol=equiv_tol)
    tm.validate(dom, tol=equiv_tol)

    checks = []
    objects = {
        "transition": {
            "t_forward": [to_string(e) for e in tm.t_forward],
            "x_forward": [to_string(e) for e in tm.x_forward],
        },
        # the spatial canonical semispray needs an auxiliary spatial metric;
        # the manifest's spatial_metric plays that role
        "spatial_metric_used": _matrix_strings(phi.components),
    }

    h_b = pullback_metric(h, tm)
    phi_b = pullback_metric(phi, tm)

    space = None
    if manifest.hamiltonian is not None:
        reg_tol = manifest.tolerances["regularity"]
        result = check_kronecker_regularity(manifest.hamiltonian, h, manifest.n,
                                            dom=dom, tol=reg_tol)
        checks.append(_regularity_check(result, reg_tol))
        if not result.regular:
            return _finish("verify", manifest, seed, checks, objects, args,
                           started)
        space = HamiltonSpace(h, manifest.n, manifest.hamiltonian,
                              constants=manifest.constants, tol=reg_tol, dom=dom)

    built_a = builtin_dtensors(h, manifest.n)
    built_b = builtin_dtensors(h_b, manifest.n)
    for key in ("C*", "L", "J"):
        rep = verify_dtensor_law(built_a[key], built_b[key], tm, dom=dom,
                                 tol=law_tol)
        checks.append(_check_dict(rep, "dtensor"))

    rep = verify_semispray_law(canonical_temporal(h, manifest.n),
                               canonical_temporal(h_b, manifest.n),
                               tm, dom=dom, tol=law_tol)
    checks.append(_check_dict(rep, "semispray"))
    rep = verify_semispray_law(canonical_spatial(phi, manifest.m),
                               canonical_spatial(phi_b, manifest.m),
                               tm, dom=dom, tol=law_tol)
    checks.append(_check_dict(rep, "semispray"))

    if space is not None:
        space_b = HamiltonSpace(h_b, manifest.n,
                                pullback_scalar(manifest.hamiltonian, tm),
                                tol=manifest.tolerances["regularity"],
                                dom=dom.with_options(seed=seed + 1))
        N_a = canonical_nonlinear_connection(space)
        N_b = canonical_nonlinear_connection(space_b)
        objects["connection_source"] = "hamiltonian"
    else:
        N_a = canonical_metric_connection(h, phi)
        N_b = canonical_metric_connection(h_b, phi_b)
        objects["connection_source"] = "metric pair"
    if manifest.fault_injection is not None:
        N_b = _inject_fault(N_b, manifest.fault_injection)
        objects["fault_injection"] = {
            "block": manifest.fault_injection["block"],
            "index": list(manifest.fault_injection["index"]),
            "delta": manifest.fault_injection["delta"],
        }

    rep = verify_connection_law(N_a, N_b, tm, dom=dom, tol=law_tol)
    checks.append(_check_dict(rep, "connection"))
    rep = verify_adapted_coframe(N_a, N_b, tm, dom=dom, tol=law_tol)
    checks.append(_check_dict(rep, "coframe"))

    point = _eval_point(manifest, dom)
    objects["n1_at_point"] = _array_values(N_a.n1_at(point))
    objects["n2_at_point"] = _array_values(N_a.n2_at(point))
    objects["evaluation_point"] = point
    return _finish("verify", manifest, seed, checks, objects, args, started)


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
        p.add_argument("--tol", type=float, default=None,
                       help="override the law tolerance (the regularity "
                            "tolerance for the regularity command)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
