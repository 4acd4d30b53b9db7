"""End-to-end command line tests driven through main()."""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from polyjet import cli
from polyjet.cli import (
    EXIT_CONFIG,
    EXIT_CONNECTION,
    EXIT_METRIC,
    EXIT_OK,
    EXIT_REGULARITY,
    load_manifest,
    main,
)
from polyjet.errors import NotRegular, PolyjetError
from polyjet.hamilton import HamiltonSpace, RegularityResult
from polyjet.linalg import SYM_INVERSE_MAX_DIM
from polyjet.metrics import Metric
from polyjet.symbolic import MAX_NESTING, SampleDomain

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def strict_json(text: str):
    """Parse JSON as RFC 8259 defines it: NaN and infinities are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def run(tmp_path, *argv):
    """Run a command with --json capture; returns (exit_code, report dict)."""
    out = tmp_path / "report.json"
    code = main([*argv, "--json", str(out)])
    report = strict_json(out.read_text()) if out.exists() else None
    return code, report


def rewrite(tmp_path, name, **changes):
    data = json.loads((MANIFESTS / name).read_text())
    data.update(changes)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_christoffel_curved_spot_value(tmp_path):
    code, rep = run(tmp_path, "christoffel", str(MANIFESTS / "curved.json"))
    assert code == EXIT_OK
    assert rep["passed"] is True
    kappa = rep["objects"]["temporal"]["at_point"]
    # h = diag(1, t1^2+1) at t1=1: the mixed symbol is t1/(t1^2+1) = 1/2
    assert kappa[1][0][1] == pytest.approx(0.5, abs=1e-12)
    assert kappa[0][1][1] == pytest.approx(-1.0, abs=1e-12)
    # a hamiltonian is present, so the extracted metric's table is included
    assert "extracted_spatial" in rep["objects"]


def test_christoffel_flat_all_zero(tmp_path):
    code, rep = run(tmp_path, "christoffel", str(MANIFESTS / "flat.json"))
    assert code == EXIT_OK
    for label in ("temporal", "spatial"):
        flat = rep["objects"][label]["at_point"]
        assert all(v == 0.0 for sheet in flat for row in sheet for v in row)


def test_christoffel_needs_a_metric(tmp_path):
    path = rewrite(tmp_path, "flat.json")
    data = json.loads(Path(path).read_text())
    del data["temporal_metric"], data["spatial_metric"]
    Path(path).write_text(json.dumps(data))
    assert main(["christoffel", path]) == EXIT_CONFIG


def test_connection_curved_spot_values(tmp_path):
    code, rep = run(tmp_path, "connection", str(MANIFESTS / "curved.json"))
    assert code == EXIT_OK
    n1 = rep["objects"]["n1_at_point"]
    n2 = rep["objects"]["n2_at_point"]
    # N1[a][i][b] contracts the temporal symbols with momenta; at t1=1 the
    # only symbols are 1/2 (mixed) and -1, giving these entries
    assert n1[0][0][1] == pytest.approx(0.5, abs=1e-12)    # -p1_2
    assert n1[1][0][0] == pytest.approx(-0.25, abs=1e-12)  # p1_2 / 2
    # N2[a][i][j] = -gamma^k_ij p_k^a for this quadratic hamiltonian
    assert n2[0][0][0] == pytest.approx(-1.0, abs=1e-10)   # -p1_1
    assert n2[1][0][0] == pytest.approx(0.5, abs=1e-10)    # -p1_2
    cof = rep["objects"]["coframe_at_point"]
    assert len(cof) == 4 and len(cof[0]) == 8
    assert rep["objects"]["source"] == "hamiltonian"


def test_connection_metric_pair_when_no_hamiltonian(tmp_path):
    data = json.loads((MANIFESTS / "curved.json").read_text())
    del data["hamiltonian"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, rep = run(tmp_path, "connection", str(path))
    assert code == EXIT_OK
    assert rep["objects"]["source"] == "metric pair"
    # same metrics, so the same connection as the hamiltonian route
    assert rep["objects"]["n2_at_point"][0][0][0] == pytest.approx(-1.0, abs=1e-10)


def test_connection_flat_zero(tmp_path):
    code, rep = run(tmp_path, "connection", str(MANIFESTS / "flat.json"))
    assert code == EXIT_OK
    for block in ("n1_at_point", "n2_at_point"):
        vals = rep["objects"][block]
        assert all(abs(v) < 1e-12 for sheet in vals for row in sheet for v in row)


def test_connection_nonregular_exits_8_with_residual(tmp_path):
    code, rep = run(tmp_path, "connection", str(MANIFESTS / "nonregular.json"))
    assert code == EXIT_REGULARITY
    check = rep["checks"][0]
    assert check["name"] == "kronecker-regularity"
    assert check["passed"] is False
    assert check["max_residual"] > 1e-3
    assert rep["passed"] is False


def test_regularity_extraction_round_trip(tmp_path):
    code, rep = run(tmp_path, "regularity", str(MANIFESTS / "curved.json"))
    assert code == EXIT_OK
    names = [c["name"] for c in rep["checks"]]
    assert names == ["kronecker-regularity", "reconstruction-round-trip"]
    # purely quadratic hamiltonian: no linear or free part survives
    assert rep["objects"]["potential"] == [["0", "0"], ["0", "0"]]
    assert rep["objects"]["free_term"] == "0"


def cubic_manifest(tmp_path, c: str = "3e-7") -> str:
    """flat.json plus a harmonic cubic c (p1_1^3 - 3 p1_1 p1_2^2), sampled
    with |p1_1|, |p1_2| <= 0.001.  At c = 3e-7 the deviation E = G - h g
    peaks at 8.06e-10 there: G factors within tolerance, but the extracted
    potential term's momentum derivative, 2E, does not stay within it."""
    data = json.loads((MANIFESTS / "flat.json").read_text())
    return rewrite(tmp_path, "flat.json",
                   hamiltonian=data["hamiltonian"] + f" + {c}*(p1_1^3 - 3*p1_1*p1_2^2)",
                   sample_domain={**data["sample_domain"], "intervals": {
                       "p1_1": [-0.001, 0.001], "p1_2": [-0.001, 0.001]}})


def test_verify_reports_a_chart_b_hamiltonian_that_is_not_regular(tmp_path, capsys):
    """At c = 1.7e-7 and seed 0, E peaks at 4.57e-10 on chart A's points but
    at 5.03e-10 on chart B's (the identity transition, sampled at seed 1):
    there 2E exceeds the tolerance, so chart B's extraction fails."""
    code, rep = run(tmp_path, "verify", cubic_manifest(tmp_path, "1.7e-7"), "--seed", "0")
    assert code == EXIT_REGULARITY and not rep["passed"]
    transition, chart_a, chart_b = rep["checks"]
    assert transition["name"] == "transition:round-trip" and transition["passed"]
    assert chart_a["name"] == "kronecker-regularity" and chart_a["passed"]
    assert chart_b["name"] == "kronecker-regularity:chart-B" and not chart_b["passed"]
    assert chart_a["max_residual"] < chart_b["max_residual"] <= chart_b["tolerance"]
    assert chart_b["notes"]["reason"] == "extracted potential term depends on momentum p1_1"
    out = capsys.readouterr().out
    assert "FAIL  kronecker-regularity:chart-B" in out and "(extracted potential" in out
    assert "n1_at_point" not in rep["objects"]


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_a_hamiltonian_whose_extraction_fails_is_not_regular(tmp_path, capsys, command):
    code, rep = run(tmp_path, command, cubic_manifest(tmp_path))
    assert code == EXIT_REGULARITY and not rep["passed"]
    out, err = capsys.readouterr()
    assert "FAIL  kronecker-regularity" in out and err == ""
    [check] = [c for c in rep["checks"] if c["kind"] == "regularity"]
    assert not check["passed"] and check["max_residual"] <= check["tolerance"]
    assert check["notes"]["reason"] == "extracted potential term depends on momentum p1_1"
    assert f"({check['notes']['reason']})" in out


@pytest.mark.parametrize("name, cubic, reason", [
    ("flat.json", None, ""),
    ("curved.json", None, ""),
    ("nonregular.json", None, "candidate spatial block is singular on the sample domain"),
    ("flat.json", "1e-7", ""),
    ("flat.json", "3e-7", "extracted potential term depends on momentum p1_1"),
], ids=["flat", "curved", "nonregular", "flat-cubic-1e-7", "flat-cubic-3e-7"])
def test_the_regularity_test_samples_only_the_commands_box(tmp_path, monkeypatch,
                                                           name, cubic, reason):
    path = cubic_manifest(tmp_path, cubic) if cubic else str(MANIFESTS / name)

    def outcome(manifest, dom):
        try:
            space = HamiltonSpace(manifest.temporal_metric, manifest.n, manifest.hamiltonian,
                                  tol=manifest.tolerances["regularity"], dom=dom)
        except NotRegular as exc:
            return exc.result.to_dict()
        return space.regularity.to_dict()

    loads = [load_manifest(path) for _ in range(2)]
    boxes = [manifest.domain(manifest.sample_seed) for manifest in loads]
    before = outcome(loads[0], boxes[0])

    def refuse(cls, *args, **kwargs):
        raise AssertionError("the default box was sampled")

    monkeypatch.setattr(SampleDomain, "default", classmethod(refuse))
    assert outcome(loads[1], boxes[1]) == before
    assert before["reason"] == reason


def test_regularity_rejects_quartic(tmp_path):
    code, rep = run(tmp_path, "regularity", str(MANIFESTS / "nonregular.json"))
    assert code == EXIT_REGULARITY
    assert rep["checks"][0]["notes"]["reason"]


def test_verify_curved_all_pass(tmp_path):
    code, rep = run(tmp_path, "verify", str(MANIFESTS / "curved.json"))
    assert code == EXIT_OK
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert {"dtensor-law:C*", "dtensor-law:L", "dtensor-law:J",
            "semispray-law:temporal", "semispray-law:spatial",
            "connection-law", "adapted-coframe",
            "kronecker-regularity", "kronecker-regularity:chart-B",
            "transition:round-trip"} == names
    assert all(c["passed"] for c in rep["checks"])
    assert rep["objects"]["connection_source"] == "hamiltonian"
    # the auxiliary spatial metric used for the spatial semispray is reported
    assert rep["objects"]["spatial_metric_used"][0][0] == "exp(2*x1)"


def test_verify_identity_transition_flat(tmp_path):
    code, rep = run(tmp_path, "verify", str(MANIFESTS / "flat.json"))
    assert code == EXIT_OK
    for c in rep["checks"]:
        assert c["max_residual"] <= 1e-12


def test_verify_fault_injection_names_entries(tmp_path):
    path = rewrite(tmp_path, "curved.json",
                   fault_injection={"block": "N2", "index": [1, 2, 1],
                                    "delta": 0.1})
    code, rep = run(tmp_path, "verify", path)
    assert code == EXIT_CONNECTION
    by_name = {c["name"]: c for c in rep["checks"]}
    conn = by_name["connection-law"]
    cof = by_name["adapted-coframe"]
    assert not conn["passed"] and not cof["passed"]
    assert conn["worst_entry"] == "N2[1,2,1]"
    assert conn["max_residual"] == pytest.approx(0.1, rel=1e-6)
    # the poked slot is the dx1 column of the p2_1 coframe row
    assert cof["worst_entry"] == "coframe[p2_1, dx1]"
    assert rep["objects"]["fault_injection"]["index"] == [1, 2, 1]


def test_verify_without_a_hamiltonian_uses_the_metric_pair(tmp_path):
    data = json.loads((MANIFESTS / "curved.json").read_text())
    del data["hamiltonian"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, rep = run(tmp_path, "verify", str(path))
    assert code == EXIT_OK
    assert rep["objects"]["connection_source"] == "metric pair"
    assert "kronecker-regularity" not in {c["name"] for c in rep["checks"]}

    data["fault_injection"] = {"block": "N1", "index": [2, 1, 2], "delta": 0.1}
    path.write_text(json.dumps(data))
    code, rep = run(tmp_path, "verify", str(path))
    assert code == EXIT_CONNECTION
    assert rep["objects"]["connection_source"] == "metric pair"
    conn = {c["name"]: c for c in rep["checks"]}["connection-law"]
    assert not conn["passed"] and conn["worst_entry"] == "N1[2,1,2]"


def test_the_module_runs_as_a_script(monkeypatch, capsys):
    """``python -m polyjet.cli`` exits with ``main``'s code."""
    monkeypatch.setattr(sys, "argv", ["polyjet", "regularity", str(MANIFESTS / "curved.json")])
    # runpy warns, and so fails the test, when the module is already imported
    monkeypatch.delitem(sys.modules, "polyjet.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("polyjet.cli", run_name="__main__")
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS  kronecker-regularity")


def _not_regular(reason):
    return NotRegular(RegularityResult(False, 0.0, [], False, 1e-9, 0, reason))


@pytest.mark.parametrize("error, code, prefix", [
    (_not_regular, EXIT_REGULARITY, "regularity error: "),
    (PolyjetError, cli.EXIT_INTERNAL, "error: "),
], ids=["NotRegular-8-regularity error: ", "PolyjetError-1-error: "])
def test_main_maps_layer_errors_to_their_exit_codes(monkeypatch, capsys, error, code, prefix):
    """A layer function that raises is reported on one stderr line with the
    exit code of the README's table, and no traceback."""
    def raising(*args, **kwargs):
        raise error("the layer gave up")

    monkeypatch.setattr(cli, "canonical_nonlinear_connection", raising)
    assert main(["connection", str(MANIFESTS / "curved.json")]) == code
    out, err = capsys.readouterr()
    assert err == f"{prefix}the layer gave up\n"
    assert out == ""


@pytest.mark.parametrize("changes, path", [
    ({"fault_injecton": {"block": "N2", "index": [1, 2, 1]}}, "fault_injecton"),
    ({"fault_injection": {"block": "N2", "index": [1, 2, 1], "dleta": 5}},
     "fault_injection.dleta"),
    ({"sample_domain": {"cuont": 3}}, "sample_domain.cuont"),
    ({"transition": {"t_forward": ["t1", "t2"], "x_forward": ["x1", "x2"],
                     "t_inverse": ["t1", "t2"], "x_invers": ["x1", "x2"]}},
     "transition.x_invers"),
    ({"dimensions": {"m": 2, "n": 2, "k": 9}}, "dimensions.k"),
    ({"tolerances": {"law": 1e-8, "lwa": 1.0}}, "tolerances.lwa"),
])
def test_an_unknown_manifest_key_exits_2_naming_its_dotted_path(tmp_path, capsys, changes,
                                                                 path):
    """Each of these manifests once ran every check, and passed."""
    for command in ("verify", "christoffel"):
        assert main([command, rewrite(tmp_path, "flat.json", **changes)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: unknown manifest key {path}\n"


@pytest.mark.parametrize("key", ["evaluation_point", "fault_injection"])
def test_a_null_optional_key_exits_2_naming_the_key(tmp_path, capsys, key):
    """A key may be absent, never null; these two once read null as absent."""
    for command in ("connection", "verify"):
        assert main([command, rewrite(tmp_path, "curved.json", **{key: None})]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: {key} must be a JSON object\n"


def test_verify_nan_fault_fails_closed(tmp_path, monkeypatch):
    # The manifest loader rejects a NaN delta (see the bad-number cases), so
    # the fault turns NaN only where it is injected into the connection.
    path = rewrite(tmp_path, "curved.json",
                   fault_injection={"block": "N2", "index": [1, 2, 1],
                                    "delta": 0.1})
    inject = cli._inject_fault
    monkeypatch.setattr(cli, "_inject_fault",
                        lambda N, fault: inject(N, {**fault, "delta": float("nan")}))
    code, rep = run(tmp_path, "verify", path)
    assert code == EXIT_CONNECTION
    by_name = {c["name"]: c for c in rep["checks"]}
    conn, cof = by_name["connection-law"], by_name["adapted-coframe"]
    assert not conn["passed"] and not cof["passed"]
    assert conn["worst_entry"] == "N2[1,2,1]"
    # a non-finite residual is written as null, since JSON has no NaN
    assert conn["max_residual"] is None and cof["max_residual"] is None
    assert cof["worst_entry"] == "coframe[p2_1, dx1]"


def test_a_non_finite_number_is_never_written_to_a_report(tmp_path, monkeypatch):
    # the loader admits no such evaluation point; force one past it
    monkeypatch.setattr(cli, "_eval_point",
                        lambda manifest, dom: dict.fromkeys(manifest.chart.names, float("nan")))
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="JSON"):
        main(["connection", str(MANIFESTS / "curved.json"), "--json", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "connection", "regularity", "christoffel"])
@pytest.mark.parametrize("manifest", ["flat", "curved", "nonregular", "fault-injected"])
def test_reports_are_strict_json(tmp_path, manifest, command):
    if manifest == "fault-injected":
        source = rewrite(tmp_path, "curved.json",
                         fault_injection={"block": "N1", "index": [2, 1, 2],
                                          "delta": -0.25})
    else:
        source = str(MANIFESTS / f"{manifest}.json")
    code, rep = run(tmp_path, command, source)
    assert rep is not None or code == EXIT_CONFIG


@pytest.mark.parametrize("changes, field", [
    ({"dimensions": {"m": 2.7, "n": 2}}, "dimensions.m"),
    ({"dimensions": {"m": True, "n": 2}}, "dimensions.m"),
    ({"dimensions": {"m": 2, "n": "2"}}, "dimensions.n"),
    ({"sample_domain": {"count": 12.0}}, "sample_domain.count"),
    ({"sample_domain": {"count": True}}, "sample_domain.count"),
    ({"sample_domain": {"count": "12"}}, "sample_domain.count"),
    ({"sample_domain": {"count": 12, "seed": 1.9}}, "sample_domain.seed"),
    ({"sample_domain": {"count": 12, "seed": False}}, "sample_domain.seed"),
    ({"sample_domain": {"count": 12, "seed": "1"}}, "sample_domain.seed"),
    ({"fault_injection": {"block": "N2", "index": [True, True, True]}},
     "fault_injection.index"),
    ({"fault_injection": {"block": "N2", "index": [1.0, 2, 1]}}, "fault_injection.index"),
    ({"fault_injection": {"block": "N2", "index": [1, "2", 1]}}, "fault_injection.index"),
    ({"sample_domain": {"intervals": [1, 2]}}, "sample_domain.intervals"),
    ({"tolerances": [1]}, "tolerances"),
    ({"sample_domain": {"count": 10**30}}, "sample_domain.count"),
    ({"sample_domain": {"count": cli.MAX_SAMPLE_COUNT + 1}}, "sample_domain.count"),
    ({"sample_domain": {"intervals": {"t1": [0.1]}}}, "sample interval for 't1' must be [lo, hi]"),
    ({"sample_domain": {"intervals": {"t1": [0.5, 0.1]}}},
     "sample interval for 't1' must be [lo, hi]"),
    ({"sample_domain": {"intervals": {"t1": [0.5, 0.5]}}},
     "sample interval for 't1' must be [lo, hi]"),
    ({"fault_injection": {"block": "N2", "index": [3, 1, 1]}},
     "fault_injection.index out of range for N2 of shape (2, 2, 2)"),
])
def test_manifest_fields_of_the_wrong_kind_exit_2_naming_the_field(tmp_path, capsys, changes,
                                                                   field):
    """Integer fields take JSON integers only, object fields objects only,
    the sample count has a ceiling, a sample interval two ends with lo < hi,
    and a fault index must lie inside its block; each refusal names its
    field."""
    assert main(["verify", rewrite(tmp_path, "flat.json", **changes)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and field in err


def _flat_bytes(**changes) -> bytes:
    return json.dumps({**json.loads((MANIFESTS / "flat.json").read_text()), **changes}).encode()


@pytest.mark.parametrize("blob, cause", [
    (_flat_bytes(schema=True), "manifest schema must be 1"),
    (_flat_bytes(schema=1.0), "manifest schema must be 1"),
    (_flat_bytes(constants={"mass": "@"}).replace(b'"@"', b"[" * 5000 + b"]" * 5000),
     "manifest nests deeper than the JSON parser allows"),
    (_flat_bytes().replace(b"schema", b"sch\xe9ma"), "manifest is not valid JSON"),
    (b"\xff\xfe\x00", "manifest is not valid JSON"),
], ids=["schema-true", "schema-float", "deep-json", "latin-1-byte", "truncated-utf-16"])
def test_unreadable_manifests_exit_2_naming_the_cause(tmp_path, capsys, blob, cause):
    """A schema that is not the integer 1, JSON nested past the parser's
    recursion limit and bytes that are not Unicode text are refused, with
    no traceback."""
    path = tmp_path / "manifest.json"
    path.write_bytes(blob)
    assert main(["christoffel", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cause}") and "Traceback" not in err


@pytest.mark.parametrize("changes, field", [
    ({"tolerances": {"law": True}}, "tolerance 'law'"),
    ({"tolerances": {"law": "1e-2"}}, "tolerance 'law'"),
    ({"constants": {"mass": False}}, "constants.mass"),
    ({"constants": {"mass": "1.0"}}, "constants.mass"),
    ({"sample_domain": {"intervals": {"t1": [True, 0.5]}}}, "sample interval for 't1'"),
    ({"sample_domain": {"intervals": {"t1": [-0.5, "0.5"]}}}, "sample interval for 't1'"),
    ({"evaluation_point": {"t1": True}}, "evaluation_point.t1"),
    ({"evaluation_point": {"t1": "1.0"}}, "evaluation_point.t1"),
    ({"fault_injection": {"block": "N2", "index": [1, 2, 1], "delta": True}},
     "fault_injection.delta"),
    ({"fault_injection": {"block": "N2", "index": [1, 2, 1], "delta": "0.1"}},
     "fault_injection.delta"),
])
def test_number_fields_refuse_booleans_and_numeric_strings(tmp_path, capsys, changes, field):
    """A bool or a string in a float field exits 2 naming the field, rather
    than running with its ``float`` value (``true`` as a tolerance of 1.0)."""
    assert main(["verify", rewrite(tmp_path, "curved.json", **changes)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and f"{field} must be a number" in err


def test_the_sample_count_ceiling_is_admitted(tmp_path):
    path = rewrite(tmp_path, "flat.json", sample_domain={"count": cli.MAX_SAMPLE_COUNT})
    assert load_manifest(path).sample_count == cli.MAX_SAMPLE_COUNT


def test_empty_sample_domain_is_a_config_error(tmp_path):
    path = rewrite(tmp_path, "curved.json", sample_domain={"count": 0, "seed": 7})
    for command in ("verify", "connection", "regularity", "christoffel"):
        assert main([command, path]) == EXIT_CONFIG


@pytest.mark.parametrize("changes", [
    {"sample_domain": {"count": "many", "seed": 7}},
    {"sample_domain": {"count": 20, "seed": [7]}},
    {"dimensions": {"m": "two", "n": 2}},
    {"tolerances": {"law": float("nan")}},
    {"tolerances": {"regularity": float("inf")}},
    {"constants": {"mass": "heavy"}},
    {"sample_domain": {"count": 20, "intervals": {"t1": [0.0, "x"]}}},
    {"fault_injection": {"block": "N2", "index": [1, 2, 1], "delta": "big"}},
    {"temporal_metric": [[1, 0], [0, float("inf")]]},
    {"hamiltonian": float("nan")},
    {"fault_injection": {"block": "N2", "index": [1, 2, 1], "delta": float("nan")}},
    {"fault_injection": {"block": "N1", "index": [1, 1, 1], "delta": float("-inf")}},
    {"evaluation_point": {"t1": float("nan")}},
])
def test_bad_manifest_numbers_are_config_errors(tmp_path, changes, capsys):
    path = rewrite(tmp_path, "curved.json", **changes)
    assert main(["verify", path]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_a_non_finite_constant_is_a_config_error_on_every_command(tmp_path, value, capsys):
    path = rewrite(tmp_path, "curved.json", constants={"mass": 1.0, "light_speed": value})
    for command in ("verify", "connection", "regularity", "christoffel"):
        assert main([command, path]) == EXIT_CONFIG
        assert "constants.light_speed must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_command_line_tolerance_must_be_finite_and_positive(tol):
    manifest = str(MANIFESTS / "curved.json")
    assert main(["verify", manifest, "--tol", tol]) == EXIT_CONFIG
    assert main(["regularity", manifest, "--tol", tol]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["christoffel", "connection"])
def test_commands_without_a_tolerance_refuse_tol(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(MANIFESTS / "flat.json"), "--tol", "nan"])
    assert excinfo.value.code == EXIT_CONFIG == 2
    assert "unrecognized arguments: --tol nan" in capsys.readouterr().err


def test_constant_overflow_in_hamiltonian_is_a_domain_error(tmp_path, capsys):
    data = json.loads((MANIFESTS / "curved.json").read_text())
    path = rewrite(tmp_path, "curved.json",
                   hamiltonian=data["hamiltonian"] + " + 1e200*1e200*x1*p1_1^2")
    for command in ("regularity", "connection", "christoffel", "verify"):
        assert main([command, path]) == EXIT_METRIC
        assert "overflows" in capsys.readouterr().err


def test_product_overflow_in_hamiltonian_is_a_domain_error(tmp_path, capsys):
    data = json.loads((MANIFESTS / "curved.json").read_text())
    path = rewrite(tmp_path, "curved.json",
                   hamiltonian=data["hamiltonian"] + " + 1e300*p1_1*exp(x1 + 700)")
    for command in ("regularity", "connection", "christoffel", "verify"):
        assert main([command, path]) == EXIT_METRIC
        assert "product overflows to" in capsys.readouterr().err


def _nested(opening: str, depth: int, inner: str) -> str:
    return opening * depth + inner + ")" * depth


def wide_manifest(tmp_path) -> Path:
    """An (m, n) = (1, SYM_INVERSE_MAX_DIM + 1) manifest with a flat metric
    and hamiltonian and the identity transition."""
    n = SYM_INVERSE_MAX_DIM + 1
    xs = [f"x{i + 1}" for i in range(n)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema": 1, "dimensions": {"m": 1, "n": n},
        "temporal_metric": [["1"]],
        "spatial_metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
        "hamiltonian": " + ".join(f"p{i + 1}_1^2" for i in range(n)),
        "transition": {"t_forward": ["t1"], "t_inverse": ["t1"],
                       "x_forward": xs, "x_inverse": xs},
        "sample_domain": {"count": 3, "seed": 0}}))
    return path


def test_dimensions_past_the_inverse_limit_fail_closed(tmp_path, capsys):
    n = SYM_INVERSE_MAX_DIM + 1
    path = wide_manifest(tmp_path)
    codes = {}
    for command in ("verify", "connection", "regularity", "christoffel"):
        codes[command] = main([command, str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if codes[command] != EXIT_OK:
            assert codes[command] == EXIT_CONFIG
            assert f"dimension {n} exceeds the limit {SYM_INVERSE_MAX_DIM}" in err
    # only the regularity test, with a single time dimension, needs no inverse
    assert codes == {"verify": EXIT_CONFIG, "connection": EXIT_CONFIG,
                     "regularity": EXIT_OK, "christoffel": EXIT_CONFIG}


def test_regularity_builds_one_hamilton_space_and_none_at_one_time_dimension(
        tmp_path, monkeypatch):
    """The regularity report's g, U and F are the space's: on a regular
    m >= 2 manifest the command builds exactly one HamiltonSpace, and with a
    single time dimension, where g may not be invertible, it builds none."""
    built, real = [], cli.HamiltonSpace

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "HamiltonSpace", counting)
    code, report = run(tmp_path, "regularity", str(MANIFESTS / "curved.json"))
    assert code == EXIT_OK and len(built) == 1
    [space] = built
    assert report["objects"]["g_lower"] == cli._texts(space.g.components)
    assert report["objects"]["free_term"] == cli.to_string(space.F)
    built.clear()
    assert main(["regularity", str(wide_manifest(tmp_path))]) == EXIT_OK
    assert built == []


@pytest.mark.parametrize("command", ["christoffel", "regularity", "connection", "verify"])
def test_dimensions_past_the_ceiling_exit_2_before_any_chart_is_built(tmp_path, capsys,
                                                                      command):
    """This manifest of under 80 bytes once had the CLI build 2000 * 2000
    momentum names, for 8 s and 645 MB, before any block was checked."""
    import time

    path = tmp_path / "huge.json"
    path.write_text('{"schema": 1, "dimensions": {"m": 2000, "n": 2000}, "hamiltonian": "p1_1^2"}')
    start = time.perf_counter()
    assert main([command, str(path)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 0.5
    assert f"dimensions.m must be from 1 to {cli.MAX_DIMENSION}, got 2000" in capsys.readouterr().err
    for m, n, field in ((cli.MAX_DIMENSION + 1, 1, "dimensions.m"),
                        (1, cli.MAX_DIMENSION + 1, "dimensions.n"),
                        (0, 2, "dimensions.m"), (2, -1, "dimensions.n")):
        path.write_text(json.dumps({"schema": 1, "dimensions": {"m": m, "n": n}}))
        assert main([command, str(path)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


def test_every_shipped_manifest_is_inside_the_dimension_ceiling():
    assert cli.MAX_DIMENSION > SYM_INVERSE_MAX_DIM
    for path in sorted(MANIFESTS.glob("*.json")):
        manifest = load_manifest(str(path))
        assert max(manifest.m, manifest.n) <= cli.MAX_DIMENSION


@pytest.mark.parametrize("opening", ["(", "sin("])
def test_nesting_at_the_limit_runs_every_command(tmp_path, opening):
    data = json.loads((MANIFESTS / "flat.json").read_text())
    path = rewrite(tmp_path, "flat.json",
                   hamiltonian=data["hamiltonian"] + " + " + _nested(opening, MAX_NESTING, "x1"),
                   spatial_metric=[["1", "0"], ["0", "2 + " + _nested(opening, MAX_NESTING, "x2")]])
    for command in ("christoffel", "regularity", "connection", "verify"):
        assert main([command, path]) == EXIT_OK


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400])
@pytest.mark.parametrize("opening", ["(", "sin("])
def test_deeper_nesting_is_a_config_error(tmp_path, capsys, opening, depth):
    path = rewrite(tmp_path, "flat.json",
                   spatial_metric=[["1", "0"], ["0", "2 + " + _nested(opening, depth, "x2")]])
    for command in ("christoffel", "regularity", "connection", "verify"):
        assert main([command, path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nests deeper than" in err and "offset" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["christoffel", "connection", "regularity", "verify"])
def test_each_metric_is_validated_once_on_the_command_domain(monkeypatch, command):
    seeds = []
    real = Metric.validate

    def counted(self, dom=None, tol=1e-9):
        seeds.append((self.kind, dom.seed))
        return real(self, dom, tol)

    monkeypatch.setattr(Metric, "validate", counted)
    assert main([command, str(MANIFESTS / "curved.json"), "--seed", "3"]) == EXIT_OK
    assert sorted(seeds) == [("spatial", 3), ("temporal", 3)]


@pytest.mark.parametrize("command, runs", [
    ("christoffel", 1), ("connection", 1), ("regularity", 1),
    # verify also tests the pulled-back hamiltonian of chart B
    ("verify", 2),
])
def test_regularity_runs_once_per_hamilton_space(tmp_path, monkeypatch, command, runs):
    from polyjet import cli, hamilton

    calls = []
    real = hamilton.check_kronecker_regularity

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check_kronecker_regularity", counted)
    monkeypatch.setattr(hamilton, "check_kronecker_regularity", counted)
    assert main([command, str(MANIFESTS / "curved.json")]) == EXIT_OK
    assert len(calls) == runs


def test_verify_inverts_each_jacobian_family_once_per_frame_batch(monkeypatch, capsys):
    """One batched inverse per Jacobian family in each ``map_points`` call,
    plus one per validated metric, in a whole ``verify`` run."""
    import numpy as np

    from polyjet.charts import TransitionMap

    inversions, per_batch = [], []
    real_inv, real_map_points = np.linalg.inv, TransitionMap.map_points

    def counted_inv(a):
        inversions.append(np.shape(a))
        return real_inv(a)

    def counted_map_points(self, points):
        before = len(inversions)
        frames = real_map_points(self, points)
        per_batch.append(len(inversions) - before)
        return frames

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(TransitionMap, "map_points", counted_map_points)
    assert main(["verify", str(MANIFESTS / "curved.json")]) == EXIT_OK
    assert per_batch and all(calls <= 2 for calls in per_batch)
    assert len(inversions) <= 2 * len(per_batch) + 2


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["verify", str(MANIFESTS / "curved.json"),
                     "--json", str(out)]) == EXIT_OK
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if '"wall_time_s"' not in l]
    assert strip(out1) == strip(out2)


def test_seed_precedence(tmp_path, monkeypatch):
    manifest = str(MANIFESTS / "curved.json")
    _, rep = run(tmp_path, "verify", manifest)
    assert rep["seed"] == 7  # manifest value
    monkeypatch.setenv("POLYJET_SEED", "99")
    _, rep = run(tmp_path, "verify", manifest)
    assert rep["seed"] == 99
    _, rep = run(tmp_path, "verify", manifest, "--seed", "5")
    assert rep["seed"] == 5


@pytest.mark.parametrize("source", ["flag", "env", "manifest"])
def test_a_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys, source):
    monkeypatch.delenv("POLYJET_SEED", raising=False)
    path, argv = str(MANIFESTS / "curved.json"), []
    if source == "flag":
        argv = ["--seed", "-5"]
    elif source == "env":
        monkeypatch.setenv("POLYJET_SEED", "-5")
    else:
        path = rewrite(tmp_path, "curved.json", sample_domain={"count": 20, "seed": -5})
    assert main(["verify", path, *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sample seed must be non-negative, got -5" in err
    assert "Traceback" not in err


def test_an_unwritable_report_path_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", str(MANIFESTS / "flat.json"), "--json", str(out)]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.out.startswith("PASS")
    assert printed.err.startswith("configuration error: cannot write the report: ")
    assert str(out) in printed.err and "Traceback" not in printed.err
    assert not out.exists()


def test_verify_requires_transition(tmp_path):
    data = json.loads((MANIFESTS / "curved.json").read_text())
    del data["transition"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == EXIT_CONFIG


def test_verify_needs_both_inverse_maps(tmp_path, capsys):
    transition = json.loads((MANIFESTS / "curved.json").read_text())["transition"]
    for gone in (("t_inverse", "x_inverse"), ("t_inverse",), ("x_inverse",)):
        kept = {k: v for k, v in transition.items() if k not in gone}
        path = rewrite(tmp_path, "curved.json", transition=kept)
        assert main(["verify", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: verify needs transition.t_inverse and x_inverse\n")


def test_verify_on_a_non_regular_hamiltonian_stops_after_its_regularity_check(tmp_path):
    code, report = run(tmp_path, "verify",
                       rewrite(tmp_path, "curved.json", hamiltonian="p1_1^4"))
    assert code == EXIT_REGULARITY and not report["passed"]
    transition, check = report["checks"]
    assert transition["kind"] == "transition" and transition["passed"]
    assert check["kind"] == "regularity" and not check["passed"]
    assert "singular" in check["notes"]["reason"]


@pytest.mark.parametrize("changes, message", [
    ({"fault_injection": {"block": "N2", "index": [1, 2, 1], "delta": 10**400}},
     "fault_injection.delta must be a number, got an integer of 401 digits"),
    ({"fault_injection": {"block": "N2", "index": [1, 2, 1], "delta": -10**400}},
     "fault_injection.delta must be a number, got an integer of 401 digits"),
    ({"dimensions": {"m": 10**400, "n": 2}},
     f"dimensions.m must be from 1 to {cli.MAX_DIMENSION}, got an integer of 401 digits"),
    ({"dimensions": {"m": 2, "n": -10**19}},
     f"dimensions.n must be from 1 to {cli.MAX_DIMENSION}, got -10000000000000000000"),
    ({"dimensions": {"m": 2, "n": -10**20}},
     f"dimensions.n must be from 1 to {cli.MAX_DIMENSION}, got an integer of 21 digits"),
    ({"dimensions": {"m": "x" * 100_000, "n": 2}},
     "dimensions.m must be an integer, got a str of 100000 characters"),
    ({"sample_domain": {"count": 12, "seed": [0] * 50_000}},
     "sample_domain.seed must be an integer, got a list of 50000 elements"),
    ({"sample_domain": {"count": 12, "k" * 80: 1}},
     f"unknown manifest key sample_domain.{'k' * 80}"),
    ({"sample_domain": {"count": 12, "k" * 100_000: 1}},
     f"unknown manifest key sample_domain.{'k' * 20}... (100000 characters)"),
    ({"sample_domain": {"count": 12, "intervals": {"y" * 100_000: [0.0, 1.0]}}},
     f"sample interval for unknown variable '{'y' * 20}... (100000 characters)'"),
    ({"evaluation_point": {f"y{k}": 0.0 for k in range(20_000)}},
     "evaluation_point names unknown variables ['y0', 'y1', 'y10'] and 19997 more"),
    ({"constants": {"k" * 100_000: "x"}},
     f"constants.{'k' * 20}... (100000 characters) must be a number, got 'x'"),
    ({"hamiltonian": "p1_1^2 + " + "y" * 100_000},
     f"unknown identifier '{'y' * 20}... (100000 characters)' (at offset 9)"),
], ids=["delta", "negative-delta", "m", "n-20-digits", "n-21-digits", "m-long-string",
        "seed-long-list", "key-80-characters", "long-key", "long-interval-name",
        "many-point-names", "long-constant-key", "long-identifier"])
def test_a_huge_manifest_integer_is_echoed_by_its_digit_count(tmp_path, capsys, changes,
                                                              message):
    """A number too large for a float, an integer outside its range, or a
    value of the wrong kind exits 2 naming its dotted path; past 20 digits
    the message gives the integer's digit count instead of every digit, and
    past 80 characters of its repr any other value's type and size.  A key,
    a variable name or an unknown identifier of an expression is echoed in
    full up to 80 characters, else by its first 20 and its length, and a
    point's unknown names past the first three by their count."""
    assert main(["verify", rewrite(tmp_path, "curved.json", **changes)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert len(err.encode()) < 200


def test_asymmetric_metric_rejected_on_load(tmp_path):
    path = rewrite(tmp_path, "flat.json",
                   temporal_metric=[["1", "t1"], ["0", "1"]])
    assert main(["christoffel", path]) == EXIT_CONFIG
    assert main(["verify", path]) == EXIT_CONFIG


def test_config_errors(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == EXIT_CONFIG
    capsys.readouterr()
    bad.write_text("[1, 2]")
    assert main(["verify", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: manifest must be a JSON object\n"
    bad.write_text(json.dumps({"schema": 1}))
    assert main(["verify", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: manifest needs dimensions\n"
    assert main(["verify", rewrite(tmp_path, "flat.json", schema=2)]) == EXIT_CONFIG
    assert main(["verify", rewrite(tmp_path, "flat.json",
                                   hamiltonian="p1_1^2 +")]) == EXIT_CONFIG
    assert main(["verify", rewrite(tmp_path, "flat.json",
                                   tolerances={"law": -1.0})]) == EXIT_CONFIG
    assert main(["verify", rewrite(tmp_path, "flat.json",
                                   fault_injection={"block": "N3",
                                                    "index": [1, 1, 1]})]) == EXIT_CONFIG


def test_manifest_digest_tracks_content(tmp_path):
    m1 = load_manifest(str(MANIFESTS / "curved.json"))
    m2 = load_manifest(rewrite(tmp_path, "curved.json"))
    assert m1.digest != m2.digest  # same data, different serialization
    assert len(m1.digest) == 64


def test_custom_sample_intervals(tmp_path):
    path = rewrite(tmp_path, "flat.json",
                   sample_domain={"count": 6, "seed": 1,
                                  "intervals": {"t1": [0.1, 0.2]}})
    manifest = load_manifest(path)
    dom = manifest.domain(1)
    for pt in dom.points():
        assert 0.1 <= pt["t1"] <= 0.2
        assert -2.0 <= pt["p1_1"] <= 2.0


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYJET_SEED", "banana")
    assert main(["verify", str(MANIFESTS / "curved.json")]) == EXIT_CONFIG
