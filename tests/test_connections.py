"""Connection chart-change law, semispray correspondence, adapted coframe."""

from __future__ import annotations

import numpy as np
import pytest

from geomgen import random_spatial_metric, random_temporal_metric, random_transition
from polyjet.charts import JetChart, TransitionMap
from polyjet.connections import (
    NonlinearConnection,
    adapted_coframe,
    canonical_metric_connection,
    connection_from_semispray,
    semispray_from_connection,
    transform_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.errors import ConfigError
from polyjet.metrics import Metric, pullback_metric
from polyjet.report import ResidualTracker
from polyjet.semisprays import canonical_spatial, canonical_temporal
from polyjet.symbolic import Const, Var, add, equiv, mul, parse


CHART = JetChart(2, 2)


def shear_map_22() -> TransitionMap:
    t_fwd = (parse("t1 + 3/10*t2^2", ("t1", "t2")), parse("t2", ("t1", "t2")))
    t_inv = (parse("t1 - 3/10*t2^2", ("t1", "t2")), parse("t2", ("t1", "t2")))
    x_fwd = (parse("x1", ("x1", "x2")), parse("x2 + 1/2*x1^3", ("x1", "x2")))
    x_inv = (parse("x1", ("x1", "x2")), parse("x2 - 1/2*x1^3", ("x1", "x2")))
    return TransitionMap(2, 2, t_fwd, x_fwd, t_inv, x_inv)


def curved_h() -> Metric:
    return Metric.temporal([[Const(1.0), Const(0.0)],
                            [Const(0.0), parse("t1^2 + 1", ("t1", "t2"))]])


def curved_phi() -> Metric:
    return Metric.spatial([[parse("exp(2*x1)", ("x1", "x2")), Const(0.0)],
                           [Const(0.0), Const(1.0)]])


def canonical_pair():
    return canonical_metric_connection(curved_h(), curved_phi())


def test_canonical_connection_spot_values():
    N = canonical_pair()
    asg = {nm: 1.0 for nm in CHART.names}
    asg.update({"x1": 0.0, "x2": 0.0})
    n1 = N.n1_at(asg)
    # kappa^1_cb has the single entry kappa^1_22 = -t1, so
    # N1[1][i][2] = -t1 p_i^2 = -p_i^2 at t1 = 1, p = 1
    for i in range(2):
        assert n1[0, i, 1] == pytest.approx(-1.0, abs=1e-12)
        assert n1[0, i, 0] == pytest.approx(0.0, abs=1e-12)
    # gamma^1_11 = 1: N2[a][1][1] = -p_1^a
    n2 = N.n2_at(asg)
    assert n2[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert n2[1, 0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert n2[0, 1, 1] == pytest.approx(0.0, abs=1e-12)


def test_connection_law_under_shear():
    tm = shear_map_22()
    N_a = canonical_pair()
    N_b = canonical_metric_connection(pullback_metric(curved_h(), tm),
                                      pullback_metric(curved_phi(), tm))
    rep = verify_connection_law(N_a, N_b, tm, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_connection_law_under_random_transitions():
    rng = np.random.default_rng(31)
    for trial in range(3):
        tm = random_transition(2, 2, rng)
        h = random_temporal_metric(2, rng)
        phi = random_spatial_metric(2, rng)
        N_a = canonical_metric_connection(h, phi)
        N_b = canonical_metric_connection(pullback_metric(h, tm),
                                          pullback_metric(phi, tm))
        dom = CHART.sample_domain(count=8, seed=trial)
        rep = verify_connection_law(N_a, N_b, tm, dom=dom, tol=1e-8)
        assert rep.passed, f"trial {trial}: {rep.max_residual}"


def test_identity_transform_fixes_connection():
    tm = TransitionMap.identity(2, 2)
    N = canonical_pair()
    asg = {nm: 0.35 for nm in CHART.names}
    q = CHART.point(asg)
    n1, n2 = transform_connection(N, tm, q)
    assert np.allclose(n1, N.n1_at(asg), atol=1e-12)
    assert np.allclose(n2, N.n2_at(asg), atol=1e-12)


def test_semispray_correspondence_roundtrip():
    h, phi = curved_h(), curved_phi()
    N0 = canonical_metric_connection(h, phi)
    G1, G2 = semispray_from_connection(N0)

    # the induced semisprays are the metric-canonical ones
    S1, S2 = canonical_temporal(h, 2), canonical_spatial(phi, 2)
    for a in range(2):
        for j in range(2):
            for k in range(2):
                assert equiv(G1.components[a][j][k], S1.components[a][j][k])
                assert equiv(G2.components[a][j][k], S2.components[a][j][k])

    # and converting back recovers the connection exactly
    N_back = connection_from_semispray(G1, G2, phi)
    for a in range(2):
        for i in range(2):
            for b in range(2):
                assert equiv(N_back.n1[a][i][b], N0.n1[a][i][b])
            for j in range(2):
                assert equiv(N_back.n2[a][i][j], N0.n2[a][i][j])


def test_spatial_roundtrip_exact_for_any_connection():
    # N2 -> G2 -> N2 is exact with no structural restriction
    rng = np.random.default_rng(3)
    n2 = [[[Const(float(rng.uniform(-1, 1))) * Var("x1") + Var("p1_1")
            for _ in range(2)] for _ in range(2)] for _ in range(2)]
    N = NonlinearConnection(2, 2, canonical_pair().n1, n2)
    _, G2 = semispray_from_connection(N)
    N_back = connection_from_semispray(
        semispray_from_connection(N)[0], G2, curved_phi())
    for a in range(2):
        for i in range(2):
            for j in range(2):
                assert equiv(N_back.n2[a][i][j], N.n2[a][i][j])


def test_temporal_roundtrip_symmetrizes():
    # a p-linear N1 with coefficients asymmetric in (c, b) comes back
    # symmetrized, so the round trip is not the identity there
    chart = CHART
    K = np.zeros((2, 2, 2))
    K[0, 0, 1] = 1.0  # K^1_12 = 1, K^1_21 = 0: asymmetric
    n1 = [[[add(*[mul(Const(K[a, c, b]), chart.p_var(i, c)) for c in range(2)])
            for b in range(2)] for i in range(2)] for a in range(2)]
    N = NonlinearConnection(2, 2, n1, canonical_pair().n2)
    G1, G2 = semispray_from_connection(N)
    N_back = connection_from_semispray(G1, G2, curved_phi())

    sym = 0.5 * (K + np.transpose(K, (0, 2, 1)))
    asg = {nm: 0.0 for nm in chart.names}
    asg.update({"p1_1": 1.0, "p1_2": 2.0, "p2_1": -1.0, "p2_2": 0.5})
    p = chart.point(asg).p
    expected = np.einsum("acb,ic->aib", sym, p)
    assert np.allclose(N_back.n1_at(asg), expected, atol=1e-12)
    assert not np.allclose(N.n1_at(asg), expected, atol=1e-6)


def test_adapted_coframe_rows():
    N = canonical_pair()
    asg = {nm: 0.5 for nm in CHART.names}
    q = CHART.point(asg)
    rows = adapted_coframe(N, q)
    assert rows.shape == (4, 8)
    n1, n2 = N.n1_at(asg), N.n2_at(asg)
    r = 0 * 2 + 1  # row for p1_2, i.e. i=1 (spatial 1), a=2 (temporal 2)
    assert np.allclose(rows[r, :2], n1[1][0])
    assert np.allclose(rows[r, 2:4], n2[1][0])
    assert rows[r, 4 + r] == 1.0 and rows[r, 4:].sum() == 1.0


def test_adapted_coframe_tensorial():
    tm = shear_map_22()
    N_a = canonical_pair()
    N_b = canonical_metric_connection(pullback_metric(curved_h(), tm),
                                      pullback_metric(curved_phi(), tm))
    rep = verify_adapted_coframe(N_a, N_b, tm, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_fault_injection_breaks_both_checks():
    tm = shear_map_22()
    N_a = canonical_pair()
    N_b = canonical_metric_connection(pullback_metric(curved_h(), tm),
                                      pullback_metric(curved_phi(), tm))
    n2 = [list(map(list, sheet)) for sheet in N_b.n2]
    n2[0][1][0] = add(n2[0][1][0], Const(0.1))  # N2[1][2][1] += 0.1
    broken = NonlinearConnection(2, 2, N_b.n1, n2)

    law = verify_connection_law(N_a, broken, tm, tol=1e-8)
    assert not law.passed
    assert law.worst_entry == "N2[1,2,1]"
    assert law.max_residual == pytest.approx(0.1, rel=1e-6)

    cof = verify_adapted_coframe(N_a, broken, tm, tol=1e-8)
    assert not cof.passed
    # the broken entry multiplies dx1 in the delta p_2^1 row
    assert cof.worst_entry == "coframe[p2_1, dx1]"


def test_shape_validation():
    with pytest.raises(ConfigError):
        NonlinearConnection(2, 2, [[[Const(0.0)] * 2] * 2] * 2,
                            [[[Const(0.0)] * 2] * 3] * 2)
    with pytest.raises(ConfigError):
        NonlinearConnection(2, 2, [[[Var("nope")] * 2] * 2] * 2,
                            [[[Const(0.0)] * 2] * 2] * 2)


def test_residual_tracker_fails_closed_on_nan():
    tracker = ResidualTracker("connection-law", 1e-8)
    tracker.update(1e-12, {"x1": 0.1}, "N2[1,1,1]")
    tracker.update(float("nan"), {"x1": 0.2}, "N2[1,2,1]")
    tracker.update(5.0, {"x1": 0.3}, "N2[2,2,2]")
    rep = tracker.report()
    assert not rep.passed
    assert rep.worst_entry == "N2[1,2,1]"
    assert rep.worst_point == {"x1": 0.2}
