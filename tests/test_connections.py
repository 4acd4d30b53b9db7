"""Connection chart-change law, semispray correspondence, adapted coframe."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from geomgen import random_spatial_metric, random_temporal_metric, random_transition
from polyjet import symbolic
from polyjet.charts import JetChart, TransitionMap
from polyjet.connections import (
    NonlinearConnection,
    _connection_images,
    adapted_coframe,
    canonical_metric_connection,
    connection_from_semispray,
    semispray_from_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.dtensors import builtin_dtensors
from polyjet.errors import ConfigError, DomainError
from polyjet.hamilton import canonical_nonlinear_connection, gravitational_space
from polyjet.metrics import Metric, christoffel, pullback_metric
from polyjet.report import entry_label, sweep
from polyjet.semisprays import canonical_spatial, canonical_temporal
from polyjet.symbolic import Const, Var, add, differentiate, equiv, ln, mul, parse, sqrt

from oracles import evaluate_walk, n1_from_semispray_direct


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
    frames = tm.map_points([asg])
    n1, n2 = (out[0] for out in _connection_images(tm, frames, N.at_points(frames.points)))
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


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_each_semispray_derivative_is_taken_once(monkeypatch, m, n):
    """N1 derives each d G1[a][j][k] / d p_i^b once, m^2 n^3 calls, not
    once per r, and still returns the nodes of the written-out formula.
    ``symbolic.jacobian`` builds the table, so its ``differentiate`` is the
    one counted; G2 is built before the count, since ``canonical_spatial``
    derives phi's Christoffel symbols through the same function."""
    rng = np.random.default_rng(10 * m + n)
    phi = random_spatial_metric(n, rng)
    G1 = canonical_temporal(random_temporal_metric(m, rng), n)
    G2 = canonical_spatial(phi, m)
    calls = []

    def counted(e, name):
        calls.append(name)
        return differentiate(e, name)

    monkeypatch.setattr(symbolic, "differentiate", counted)
    N = connection_from_semispray(G1, G2, phi)
    assert len(calls) == m * m * n ** 3
    want = n1_from_semispray_direct(G1, phi)
    assert all(N.n1[a, r, b] is want[a][r][b] for a, r, b in np.ndindex(N.n1.shape))


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
    p = np.reshape([asg[nm] for nm in chart.p_names], (2, 2))
    expected = np.einsum("acb,ic->aib", sym, p)
    assert np.allclose(N_back.n1_at(asg), expected, atol=1e-12)
    assert not np.allclose(N.n1_at(asg), expected, atol=1e-6)


def test_adapted_coframe_rows():
    N = canonical_pair()
    asg = {nm: 0.5 for nm in CHART.names}
    rows = adapted_coframe(N, asg)
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


def test_sweep_fails_closed_on_nan():
    points = [{"x1": 0.1}, {"x1": 0.2}, {"x1": 0.3}]
    lhs = np.zeros((3, 2, 2, 2))
    lhs[0, 0, 0, 0] = 1e-12  # N2[1,1,1] at the first point
    lhs[1, 0, 1, 0] = float("nan")  # N2[1,2,1] at the second
    lhs[2, 1, 1, 1] = 5.0  # N2[2,2,2] at the third
    rep = sweep("connection-law", 1e-8, points,
                [(partial(entry_label, "N2"), lhs, np.zeros_like(lhs))])
    assert not rep.passed
    assert rep.worst_entry == "N2[1,2,1]"
    assert rep.worst_point == {"x1": 0.2}


# ---------------------------------------------------------------------------
# compiled blocks against the reference walk: every class on
# ``symbolic.Compiled`` gives, block by block, the bits and the first error
# of ``evaluate_walk`` run entry by entry

def curved_christoffel():
    return christoffel(curved_h())


def curved_L():
    return builtin_dtensors(curved_h(), 2)["L"]


def curved_spatial_semispray():
    return canonical_spatial(curved_phi(), 2)


def _walk_blocks(blocks, points) -> list:
    """Each block at each point, entry by entry through the reference walk,
    point by point and within a point block by block, so the first error
    raised is the first failing point's, the first block's before the
    second's.  One (P, *shape) array per block."""
    rows = [[[evaluate_walk(e, pt) for e in block.flat] for block in blocks] for pt in points]
    return [np.array([row[k] for row in rows]).reshape(len(points), *block.shape)
            for k, block in enumerate(blocks)]


@pytest.mark.parametrize("build", [
    canonical_pair,
    lambda: canonical_metric_connection(pullback_metric(curved_h(), shear_map_22()),
                                        pullback_metric(curved_phi(), shear_map_22())),
    lambda: canonical_metric_connection(random_temporal_metric(2, np.random.default_rng(5)),
                                        random_spatial_metric(3, np.random.default_rng(6))),
    lambda: canonical_nonlinear_connection(gravitational_space(curved_h(), curved_phi())),
    curved_h,
    curved_phi,
    curved_christoffel,
    curved_L,
    curved_spatial_semispray,
])
def test_block_programs_give_the_bytes_of_one_program(build):
    X = build()
    points = JetChart(2, 3).sample_domain(count=7, seed=3).points()
    pair = isinstance(X, NonlinearConnection)
    blocks = [X.n1, X.n2] if pair else [X.components]
    want = _walk_blocks(blocks, points)
    got = X.at_points(points)
    one = X.at_points([points[4]])
    at = X.at(points[4])
    if not pair:
        got, one, at = (got,), (one,), (at,)
    for block, g, w, o, a in zip(blocks, got, want, one, at, strict=True):
        assert g.shape == w.shape == (len(points), *block.shape)
        assert g.tobytes() == w.tobytes()
        assert a.shape == block.shape and a.tobytes() == o[0].tobytes() == w[4].tobytes()
    if pair:
        assert X.n1_at(points[4]).tobytes() == want[0][4].tobytes()
        assert X.n2_at(points[4]).tobytes() == want[1][4].tobytes()


_FAULTY = NonlinearConnection(1, 1, [[[ln(Var("x1"))]]], [[[sqrt(Var("t1"))]]])


@pytest.mark.parametrize("rows, message", [
    # N2 fails at an earlier point than N1
    ([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)], "sqrt of negative value -1.0"),
    # N1 fails at an earlier point than N2
    ([(1.0, 1.0), (-2.0, 1.0), (1.0, -2.0)], "ln of non-positive value -2.0"),
    # both fail at the same point: N1's error comes first
    ([(1.0, 1.0), (-3.0, -3.0)], "ln of non-positive value -3.0"),
])
def test_block_programs_raise_the_error_of_one_program(rows, message):
    points = [{"t1": t, "x1": x, "p1_1": 0.0} for x, t in rows]
    with pytest.raises(DomainError) as want:
        _walk_blocks([_FAULTY.n1, _FAULTY.n2], points)
    with pytest.raises(DomainError) as got:
        _FAULTY.at_points(points)
    assert str(got.value) == str(want.value) == message
