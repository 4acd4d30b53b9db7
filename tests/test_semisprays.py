"""Semispray transformation laws, characterization, and decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from geomgen import random_spatial_metric, random_temporal_metric, random_transition
from polyjet.charts import JetChart, TransitionMap
from polyjet.dtensors import DTensorField, lower_x, pullback_dtensor, upper_t, verify_dtensor_law
from polyjet.errors import ConfigError
from polyjet.metrics import Metric, pullback_metric
from polyjet.semisprays import (
    Semispray,
    canonical_spatial,
    canonical_temporal,
    _semispray_images,
    check_characterization,
    decompose,
    verify_semispray_law,
)
from polyjet.symbolic import Const, Var, add, mul, parse, power


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


def test_canonical_temporal_spot_value():
    S = canonical_temporal(curved_h(), n=2)
    asg = {nm: 1.0 for nm in CHART.names}
    g = S.at(asg)
    # kappa^1_22 = -t1 is the only kappa^1 entry, so G1[1][j][k] = -1/2 p_j^2 p_k^2
    assert g[0] == pytest.approx(np.full((2, 2), -0.5), abs=1e-12)


def test_canonical_spatial_spot_value():
    S = canonical_spatial(curved_phi(), m=2)
    asg = {nm: 0.0 for nm in CHART.names}
    asg["p1_1"] = 2.0
    # gamma^1_11 = 1 identically; G2[b][1][1] = -1/2 p_1^b
    assert S.at(asg)[0, 0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert S.at(asg)[1, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_canonical_temporal_law_under_shear():
    tm = shear_map_22()
    h = curved_h()
    S_a = canonical_temporal(h, n=2)
    S_b = canonical_temporal(pullback_metric(h, tm), n=2)
    rep = verify_semispray_law(S_a, S_b, tm, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_canonical_spatial_law_under_shear():
    tm = shear_map_22()
    phi = curved_phi()
    S_a = canonical_spatial(phi, m=2)
    S_b = canonical_spatial(pullback_metric(phi, tm), m=2)
    rep = verify_semispray_law(S_a, S_b, tm, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_canonical_laws_under_random_transitions():
    rng = np.random.default_rng(42)
    for trial in range(3):
        tm = random_transition(2, 2, rng)
        h = random_temporal_metric(2, rng)
        phi = random_spatial_metric(2, rng)
        dom = CHART.sample_domain(count=8, seed=trial)
        rep1 = verify_semispray_law(canonical_temporal(h, 2),
                                    canonical_temporal(pullback_metric(h, tm), 2),
                                    tm, dom=dom, tol=1e-8)
        rep2 = verify_semispray_law(canonical_spatial(phi, 2),
                                    canonical_spatial(pullback_metric(phi, tm), 2),
                                    tm, dom=dom, tol=1e-8)
        assert rep1.passed, f"trial {trial} temporal: {rep1.max_residual}"
        assert rep2.passed, f"trial {trial} spatial: {rep2.max_residual}"


def test_temporal_block_is_not_a_dtensor():
    # treating G1 as if it transformed homogeneously must fail under a
    # transition whose temporal Jacobian varies with t
    tm = shear_map_22()
    h = curved_h()
    slots = (upper_t(1), lower_x(0), lower_x())
    as_tensor_a = DTensorField(2, 2, slots, canonical_temporal(h, 2).components)
    as_tensor_b = DTensorField(
        2, 2, slots, canonical_temporal(pullback_metric(h, tm), 2).components)
    rep = verify_dtensor_law(as_tensor_a, as_tensor_b, tm, tol=1e-8)
    assert not rep.passed
    assert rep.max_residual > 1e-3


def test_characterization_of_canonical_blocks():
    h = curved_h()
    temporal_block = [[CHART.p_var(i, c) for i in range(2)] for c in range(2)]
    rep = check_characterization(temporal_block, "temporal", h)
    assert rep.passed and rep.max_residual == 0.0

    spatial_block = [[Const(1.0 if k == i else 0.0) for i in range(2)] for k in range(2)]
    rep = check_characterization(spatial_block, "spatial", h)
    assert rep.passed and rep.max_residual == 0.0


def test_characterization_rejects_other_blocks():
    h = curved_h()
    bad_t = [[add(CHART.p_var(i, c), Const(0.05)) for i in range(2)] for c in range(2)]
    assert not check_characterization(bad_t, "temporal", h).passed
    bad_s = [[Const(1.0), Const(0.1)], [Const(0.0), Const(1.0)]]
    assert not check_characterization(bad_s, "spatial", h).passed


def _random_deviation(rng) -> DTensorField:
    comps = np.empty((2, 2, 2), dtype=object)
    for idx in np.ndindex(2, 2, 2):
        comps[idx] = add(
            Const(float(rng.uniform(-0.6, 0.6))),
            mul(Const(float(rng.uniform(-0.4, 0.4))), Var("x2")),
            mul(Const(float(rng.uniform(-0.3, 0.3))), power(Var("p2_1"), 2)),
        )
    return DTensorField(2, 2, (upper_t(1), lower_x(0), lower_x()), comps, name="T1")


def test_decompose_roundtrip_and_tensor_law():
    rng = np.random.default_rng(9)
    tm = shear_map_22()
    h = curved_h()
    h_b = pullback_metric(h, tm)
    dev_a = _random_deviation(rng)
    dev_b = pullback_dtensor(dev_a, tm)

    base_a = canonical_temporal(h, 2)
    base_b = canonical_temporal(h_b, 2)
    S_a = Semispray("temporal", 2, 2, [
        [[add(base_a.components[a][j][k], dev_a.components[a, j, k])
          for k in range(2)] for j in range(2)] for a in range(2)])
    S_b = Semispray("temporal", 2, 2, [
        [[add(base_b.components[a][j][k], dev_b.components[a, j, k])
          for k in range(2)] for j in range(2)] for a in range(2)])

    # the assembled pair still satisfies the semispray law
    rep = verify_semispray_law(S_a, S_b, tm, tol=1e-8)
    assert rep.passed, rep.max_residual

    # decomposition recovers the deviation, which obeys the d-tensor law
    T_a, can_a = decompose(S_a, h)
    T_b, _ = decompose(S_b, h_b)
    asg = {nm: 0.3 for nm in CHART.names}
    assert np.allclose(T_a.at(asg), dev_a.at(asg), atol=1e-12)
    assert np.allclose(can_a.at(asg), base_a.at(asg), atol=1e-12)
    rep = verify_dtensor_law(T_a, T_b, tm, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_spatial_decompose():
    phi = curved_phi()
    S0 = canonical_spatial(phi, m=2)
    T, canonical = decompose(S0, phi)
    asg = {nm: 0.25 for nm in CHART.names}
    assert np.allclose(T.at(asg), 0.0, atol=1e-12)
    assert np.allclose(canonical.at(asg), S0.at(asg), atol=1e-12)


def test_validation_errors():
    with pytest.raises(ConfigError):
        Semispray("temporal", 2, 2, [[[Const(1.0)] * 2] * 2])  # wrong m
    with pytest.raises(ConfigError):
        Semispray("spatial", 2, 2, [[[Var("q1")] * 2] * 2] * 2)  # foreign variable
    with pytest.raises(ConfigError):
        verify_semispray_law(canonical_temporal(curved_h(), 2),
                             canonical_spatial(curved_phi(), 2), shear_map_22())
    with pytest.raises(ConfigError):
        check_characterization([[Const(0.0)] * 2] * 2, "vertical", curved_h())


def test_transform_matches_intrinsic_values_pointwise():
    # spot check the law plumbing: identity transition leaves blocks alone
    tm = TransitionMap.identity(2, 2)
    S = canonical_temporal(curved_h(), 2)
    asg = {nm: 0.4 for nm in CHART.names}
    frames = tm.map_points([asg])
    got = _semispray_images(S.kind, tm, frames, S.at_points(frames.points))[0]
    assert np.allclose(got, S.at(asg), atol=1e-12)
