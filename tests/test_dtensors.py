"""Tensor-law checks for distinguished tensor fields."""

from __future__ import annotations

import numpy as np
import pytest

from geomgen import random_temporal_metric, random_transition
from polyjet import dtensors
from polyjet.charts import JetChart, TransitionMap, compose
from polyjet.connections import (
    canonical_metric_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.dtensors import (
    DTensorField,
    IndexSlot,
    builtin_dtensors,
    lower_t,
    lower_x,
    pullback_dtensor,
    transform_dtensor,
    upper_t,
    upper_x,
    verify_dtensor_law,
)
from polyjet.errors import ConfigError
from polyjet.metrics import Metric, pullback_metric
from polyjet.semisprays import canonical_temporal, verify_semispray_law
from polyjet.symbolic import Const, Var, add, mul, parse, power, var


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


def test_builtin_shapes():
    built = builtin_dtensors(curved_h(), n=2)
    assert built["C*"].shape == (2, 2)
    assert built["L"].shape == (2, 2, 2, 2)
    assert built["J"].shape == (2, 2, 2, 2)


def test_L_spot_value():
    L = builtin_dtensors(curved_h(), n=2)["L"]
    asg = {"t1": 1.0, "t2": 0.2, "x1": 0.0, "x2": 0.0,
           "p1_1": 0.5, "p1_2": 3.0, "p2_1": -1.0, "p2_2": 0.25}
    # L^{(c)}_{(j)ab} with c=2, j=1, a=2, b=2: h_22 * p_1^2 = (t1^2+1) * 3
    assert L.at(asg)[1, 0, 1, 1] == pytest.approx(6.0, abs=1e-12)
    # and the h_21 = 0 entry vanishes
    assert L.at(asg)[1, 0, 1, 0] == 0.0


def test_cstar_transform_is_momentum_law():
    tm = shear_map_22()
    cstar = builtin_dtensors(curved_h(), n=2)["C*"]
    rng = np.random.default_rng(7)
    for _ in range(5):
        asg = {nm: float(rng.uniform(-0.8, 0.8)) for nm in CHART.names}
        q = CHART.point(asg)
        got = transform_dtensor(cstar, tm, q)
        expected = tm.map_point(q).p
        assert np.allclose(got, expected, atol=1e-12)


def test_builtin_laws_under_shear():
    tm = shear_map_22()
    h = curved_h()
    h_b = pullback_metric(h, tm)
    side_a = builtin_dtensors(h, n=2)
    side_b = builtin_dtensors(h_b, n=2)
    for key in ("C*", "L", "J"):
        rep = verify_dtensor_law(side_a[key], side_b[key], tm, tol=1e-8)
        assert rep.passed, f"{key}: max residual {rep.max_residual}"
        assert rep.samples == 20


def test_builtin_laws_under_random_transitions():
    rng = np.random.default_rng(123)
    for trial in range(4):
        tm = random_transition(2, 2, rng)
        h = random_temporal_metric(2, rng)
        side_a = builtin_dtensors(h, n=2)
        side_b = builtin_dtensors(pullback_metric(h, tm), n=2)
        for key in ("C*", "L", "J"):
            dom = CHART.sample_domain(count=10, seed=trial)
            rep = verify_dtensor_law(side_a[key], side_b[key], tm, dom=dom, tol=1e-8)
            assert rep.passed, f"trial {trial} {key}: {rep.max_residual}"


def _random_mixed_tensor(rng) -> DTensorField:
    comps = np.empty((2, 2), dtype=object)
    for i in range(2):
        for a in range(2):
            comps[i, a] = add(
                Const(float(rng.uniform(-1, 1))),
                mul(Const(float(rng.uniform(-1, 1))), Var("x1")),
                mul(Const(float(rng.uniform(-0.5, 0.5))), power(Var("t2"), 2)),
                mul(Const(float(rng.uniform(-0.5, 0.5))), Var("p1_2")),
            )
    return DTensorField(2, 2, (upper_x(), lower_t()), comps, name="S")


def test_pullback_matches_pointwise_transform():
    rng = np.random.default_rng(11)
    tm = shear_map_22()
    T = _random_mixed_tensor(rng)
    T_b = pullback_dtensor(T, tm)
    rep = verify_dtensor_law(T, T_b, tm, tol=1e-9)
    assert rep.passed, rep.max_residual


def test_pullback_substitutes_each_component_once(monkeypatch):
    # lower slots only, so every substitution is of a component
    T = DTensorField(2, 2, (lower_x(), lower_t()),
                     [[Var("x1"), Var("p1_1")], [Var("t1"), Var("x2")]], name="S")
    seen = []
    real = dtensors.substitute
    monkeypatch.setattr(dtensors, "substitute",
                        lambda e, mapping: seen.append(e) or real(e, mapping))
    T_b = pullback_dtensor(T, shear_map_22())
    assert len(seen) == T.components.size
    rep = verify_dtensor_law(T, T_b, shear_map_22(), tol=1e-9)
    assert rep.passed, rep.max_residual


def test_law_failure_names_entry():
    tm = shear_map_22()
    T = _random_mixed_tensor(np.random.default_rng(2))
    T_b = pullback_dtensor(T, tm)

    def poke(e, idx_flag=[0]):
        # bump exactly one component
        idx_flag[0] += 1
        return add(e, Const(0.1)) if idx_flag[0] == 2 else e

    broken = T_b.map_components(poke)
    rep = verify_dtensor_law(T, broken, tm, tol=1e-8)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(0.1, rel=1e-6)
    assert rep.worst_entry == "S[1,2]"


def test_pullback_functorial():
    rng = np.random.default_rng(5)
    tm1 = shear_map_22()
    tm2 = random_transition(2, 2, rng)
    T = _random_mixed_tensor(rng)
    two_step = pullback_dtensor(pullback_dtensor(T, tm1), tm2)
    one_step = pullback_dtensor(T, compose(tm2, tm1))
    asg = {nm: float(v) for nm, v in zip(
        CHART.names, rng.uniform(-0.5, 0.5, len(CHART.names)))}
    # both live in the final chart; compare at a shared point
    assert np.allclose(two_step.at(asg), one_step.at(asg), atol=1e-10)


def test_doubling_validation():
    good = (lower_x(1), upper_t(0))
    DTensorField(2, 2, good, np.full((2, 2), Const(1.0), dtype=object))
    with pytest.raises(ConfigError):
        DTensorField(2, 2, (lower_x(1), lower_t(0)),
                     np.full((2, 2), Const(1.0), dtype=object))
    with pytest.raises(ConfigError):
        DTensorField(2, 2, (upper_x(1), lower_x(0)),
                     np.full((2, 2), Const(1.0), dtype=object))
    with pytest.raises(ConfigError):
        # partner index out of range
        DTensorField(2, 2, (lower_x(3), upper_t(0)),
                     np.full((2, 2), Const(1.0), dtype=object))
    with pytest.raises(ConfigError):
        # not mutual
        DTensorField(2, 2, (lower_x(1), upper_t(None)),
                     np.full((2, 2), Const(1.0), dtype=object))


def test_component_shape_and_variables_checked():
    with pytest.raises(ConfigError):
        DTensorField(2, 2, (upper_x(),), [Const(1.0)] * 3)
    with pytest.raises(ConfigError):
        DTensorField(2, 2, (upper_x(),), [Var("y1"), Const(0.0)])


def test_slot_field_validation():
    with pytest.raises(ConfigError):
        IndexSlot("vertical", "upper")
    with pytest.raises(ConfigError):
        IndexSlot("spatial", "middle")


def test_mismatched_slots_not_comparable():
    tm = shear_map_22()
    a = DTensorField(2, 2, (upper_x(),), [Const(1.0), Const(2.0)])
    b = DTensorField(2, 2, (lower_x(),), [Const(1.0), Const(2.0)])
    with pytest.raises(ConfigError):
        verify_dtensor_law(a, b, tm)


# ---------------------------------------------------------------------------
# dimension mismatches

def _flat_phi(n: int) -> Metric:
    return Metric.spatial([[Const(float(i == j)) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("verify, build, name", [
    (verify_dtensor_law, lambda: builtin_dtensors(curved_h(), n=2)["L"], "dtensor-law:L"),
    (verify_semispray_law, lambda: canonical_temporal(curved_h(), 2), "semispray-law:temporal"),
    (verify_connection_law, lambda: canonical_metric_connection(curved_h(), _flat_phi(2)),
     "connection-law"),
    (verify_adapted_coframe, lambda: canonical_metric_connection(curved_h(), _flat_phi(2)),
     "adapted-coframe"),
], ids=["dtensor", "semispray", "connection", "coframe"])
def test_law_checks_refuse_objects_of_other_dimensions(verify, build, name):
    X = build()
    with pytest.raises(ConfigError) as err:
        verify(X, X, TransitionMap.identity(2, 3))
    assert str(err.value) == (f"{name}: dimensions (m, n) disagree: (2, 2) in chart A, "
                              "(2, 2) in chart B, (2, 3) for the transition")


def test_pullbacks_refuse_objects_of_other_dimensions():
    xv = ("x1", "x2", "x3")
    shear = TransitionMap(1, 3, [var("t1")],
                          [parse("x1 + x3", xv), var("x2"), var("x3")],
                          [var("t1")],
                          [parse("x1 - x3", xv), var("x2"), var("x3")])
    cstar = builtin_dtensors(Metric.temporal([[Const(1.0)]]), n=2)["C*"]
    with pytest.raises(ConfigError, match=r"\(1, 2\) d-tensor 'C\*' through a \(1, 3\)"):
        pullback_dtensor(cstar, shear)
    for n in (2, 4):
        with pytest.raises(ConfigError, match=rf"\(1, {n}\) d-tensor .* through a \(1, 3\)"):
            pullback_metric(_flat_phi(n), shear)
