"""End-to-end command line tests driven through main()."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from polyjet.cli import (
    EXIT_CONFIG,
    EXIT_CONNECTION,
    EXIT_OK,
    EXIT_REGULARITY,
    load_manifest,
    main,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def run(tmp_path, *argv):
    """Run a command with --json capture; returns (exit_code, report dict)."""
    out = tmp_path / "report.json"
    code = main([*argv, "--json", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
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
            "kronecker-regularity"} == names
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


def test_verify_nan_fault_fails_closed(tmp_path):
    path = rewrite(tmp_path, "curved.json",
                   fault_injection={"block": "N2", "index": [1, 2, 1],
                                    "delta": float("nan")})
    code, rep = run(tmp_path, "verify", path)
    assert code == EXIT_CONNECTION
    by_name = {c["name"]: c for c in rep["checks"]}
    conn, cof = by_name["connection-law"], by_name["adapted-coframe"]
    assert not conn["passed"] and not cof["passed"]
    assert conn["worst_entry"] == "N2[1,2,1]"
    assert math.isnan(conn["max_residual"])
    assert cof["worst_entry"] == "coframe[p2_1, dx1]"


def test_empty_sample_domain_is_a_config_error(tmp_path):
    path = rewrite(tmp_path, "curved.json", sample_domain={"count": 0, "seed": 7})
    for command in ("verify", "connection", "regularity", "christoffel"):
        assert main([command, path]) == EXIT_CONFIG


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


def test_verify_requires_transition(tmp_path):
    data = json.loads((MANIFESTS / "curved.json").read_text())
    del data["transition"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == EXIT_CONFIG


def test_asymmetric_metric_rejected_on_load(tmp_path):
    path = rewrite(tmp_path, "flat.json",
                   temporal_metric=[["1", "t1"], ["0", "1"]])
    assert main(["christoffel", path]) == EXIT_CONFIG
    assert main(["verify", path]) == EXIT_CONFIG


def test_config_errors(tmp_path):
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == EXIT_CONFIG
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
