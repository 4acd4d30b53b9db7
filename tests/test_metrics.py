import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from geomgen import (
    random_spatial_metric,
    random_spatiotemporal_metric,
    random_temporal_metric,
    random_transition,
)
from polyjet.charts import TransitionMap
from polyjet.cli import load_manifest
from polyjet.errors import ConfigError, SingularMetric
from polyjet.linalg import SYM_INVERSE_MAX_DIM
from polyjet.metrics import (
    Metric,
    christoffel,
    pullback_metric,
)
from polyjet.symbolic import Const, SampleDomain, equiv, evaluate, parse, var

from oracles import central_diff_partial, christoffel_direct, pullback_metric_sandwich

TV = ["t1", "t2"]
XV = ["x1", "x2"]


def curved_h() -> Metric:
    return Metric.temporal([[parse("1", TV), parse("0", TV)],
                            [parse("0", TV), parse("t1^2 + 1", TV)]])


def curved_phi() -> Metric:
    return Metric.spatial([[parse("exp(2*x1)", XV), parse("0", XV)],
                           [parse("0", XV), parse("1", XV)]])


# ---------------------------------------------------------------------------
# metric basics

def test_flat_metric_has_zero_christoffel():
    h = Metric.temporal([[1, 0], [0, 1]])
    kappa = christoffel(h)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert equiv(kappa.components[k][i][j], 0, tol=1e-12)


def test_temporal_christoffel_spot_values():
    kappa = christoffel(curved_h())
    at = {"t1": 1.0, "t2": 0.4}
    vals = kappa.at(at)
    assert vals[1, 0, 1] == pytest.approx(0.5, abs=1e-12)   # kappa^2_12 at t1=1
    assert vals[1, 1, 0] == pytest.approx(0.5, abs=1e-12)   # symmetric pair
    assert vals[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)  # kappa^1_22 at t1=1
    assert equiv(kappa.components[1][0][1], parse("t1/(t1^2 + 1)", TV))
    assert equiv(kappa.components[0][1][1], parse("-t1", TV))


def test_spatial_christoffel_exponential_metric():
    gamma = christoffel(curved_phi())
    assert equiv(gamma.components[0][0][0], 1)
    # all other components vanish
    for k in range(2):
        for i in range(2):
            for j in range(2):
                if (k, i, j) != (0, 0, 0):
                    assert equiv(gamma.components[k][i][j], 0, tol=1e-12)


def test_christoffel_matches_finite_difference():
    h = curved_h()
    kappa = christoffel(h)
    pt = {"t1": 0.7, "t2": -0.2}
    inv = h.inverse_at(pt)
    d = 2
    dg = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                dg[i, j, k] = central_diff_partial(
                    lambda q: evaluate(h.components[i][j], q), pt, f"t{k + 1}")
    want = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                want[k, i, j] = 0.5 * sum(
                    inv[k, l] * (dg[l, i, j] + dg[l, j, i] - dg[i, j, l])
                    for l in range(d))
    assert np.allclose(kappa.at(pt), want, atol=1e-6)


def test_metric_compatibility_identity():
    # covariant derivative of the metric vanishes: an independent oracle for
    # the symbol formula
    g = Metric.spatial([[parse("1 + x1^2", XV), parse("x1*x2/2", XV)],
                        [parse("x1*x2/2", XV), parse("1 + x2^2", XV)]])
    gamma = christoffel(g)
    dom = SampleDomain.default(XV, count=10, seed=3)
    d = 2
    for i in range(d):
        for j in range(d):
            for k in range(d):
                nabla = parse("0", XV)
                from polyjet.symbolic import add, differentiate, mul, neg
                nabla = differentiate(g.components[i][j], XV[k])
                for l in range(d):
                    nabla = add(nabla,
                                neg(mul(gamma.components[l][i][k], g.components[l][j])),
                                neg(mul(gamma.components[l][j][k], g.components[i][l])))
                assert equiv(nabla, 0, dom, tol=1e-9)


def test_symbolic_inverse_agrees_with_numeric():
    h = curved_h()
    inv = h.inverse_components
    pt = {"t1": 0.3, "t2": 0.9}
    want = h.inverse_at(pt)
    got = np.array([[evaluate(inv[i][j], pt) for j in range(2)] for i in range(2)])
    assert np.allclose(got, want, atol=1e-12)


def test_inverse_at_rejects_singular_point():
    h = Metric.temporal([[var("t1")]])
    with pytest.raises(SingularMetric):
        h.inverse_at({"t1": 0.0})


def test_metric_whose_determinant_overflows_is_singular():
    # rank 1, but numpy's determinant overflows to inf instead of reading 0
    g = Metric.temporal([[Const(1e308)] * 2] * 2)
    with pytest.raises(SingularMetric, match="determinant overflows to inf"):
        g.validate()
    with pytest.raises(SingularMetric, match="determinant overflows to inf"):
        g.inverse_at({"t1": 0.1, "t2": 0.2})


def test_validate_rejects_asymmetric_metric():
    g = Metric.spatial([[1, var("x1")], [0, 1]])
    with pytest.raises(ConfigError):
        g.validate()


def test_metric_rejects_foreign_variables():
    with pytest.raises(ConfigError):
        Metric.temporal([[var("x1")]])
    # only a spatiotemporal metric may name a momentum
    for kind in ("temporal", "spatial"):
        with pytest.raises(ConfigError,
                           match=fr"{kind} metric\[1,1\] uses foreign variables \['p1_1'\]"):
            getattr(Metric, kind)([[var("p1_1")]])


def test_momentum_dependence_is_read_from_the_entries():
    names = ("t1", "x1", "x2", "p1_1", "p2_1")
    rows = [[parse("1 + p1_1^2", names), parse("0", names)],
            [parse("0", names), parse("1 + x1^2", names)]]
    g = Metric.spatiotemporal(rows, m=1)
    assert g.p_dependent
    assert pullback_metric(g, random_transition(1, 2, np.random.default_rng(0))).p_dependent
    rows[0][0] = parse("1 + t1^2", names)
    assert not Metric.spatiotemporal(rows, m=1).p_dependent


def test_spatiotemporal_christoffel_differentiates_in_x_only():
    g = Metric.spatiotemporal(
        [[parse("1 + t1^2*x1^2", TV[:1] + XV), parse("0", XV)],
         [parse("0", XV), parse("1", XV)]], m=1)
    Gamma = christoffel(g)
    # Gamma^1_11 = g^11/2 * d g_11/dx1 = t1^2*x1/(1 + t1^2*x1^2)
    want = parse("t1^2*x1/(1 + t1^2*x1^2)", TV[:1] + XV)
    assert equiv(Gamma.components[0][0][0], want)


def test_christoffel_symbols_are_built_once_and_freed_with_the_metric():
    gc.collect()
    gc.disable()
    try:
        g = curved_phi()
        first = christoffel(g)
        assert christoffel(g) is first
        ref = weakref.ref(g)
        del g
        assert ref() is None  # no cycle: reference counting frees it
    finally:
        gc.enable()


def test_dimension_five_christoffel_symbols_are_exact():
    vs = [f"x{i}" for i in range(1, 6)]
    rows = [[parse("1" if i == j else "0", vs) for j in range(5)] for i in range(5)]
    rows[4][4] = parse("1 + x1^2", vs)
    g = Metric.spatial(rows)
    field = christoffel(g)
    assert christoffel(g).components[4][4][0] is field.components[4][4][0]
    pt = {f"x{i}": 0.1 * i for i in range(1, 6)}
    x1 = 0.1
    assert evaluate(field.components[4][4][0], pt) == pytest.approx(x1 / (1 + x1 ** 2), abs=1e-12)
    assert field.at(pt)[4, 4, 0] == pytest.approx(x1 / (1 + x1 ** 2), abs=1e-12)


def test_christoffel_derives_each_distinct_entry_once(monkeypatch):
    """A symmetric 3 x 3 metric of six distinct entries takes 3 * 6
    derivatives, not 27, and gives the nodes of the formula that
    differentiates g_ij and g_ji apart.  A second call returns the kept
    field and derives nothing."""
    from polyjet import metrics

    vs = ["x1", "x2", "x3"]
    texts = [["2 + x1^2", "x1*x2", "sin(x3)"],
             ["x1*x2", "3 + x2^2", "x1*x3"],
             ["sin(x3)", "x1*x3", "4 + x3^2"]]
    g = Metric.spatial([[parse(t, vs) for t in row] for row in texts])
    calls = []
    real = metrics.differentiate

    def counted(e, name):
        calls.append((e, name))
        return real(e, name)

    monkeypatch.setattr(metrics, "differentiate", counted)
    field = christoffel(g)
    d = g.dim
    assert len(calls) == d * d * (d + 1) // 2 == 18
    assert len(set(calls)) == len(calls)
    want = christoffel_direct(g)
    for k, i, j in np.ndindex(d, d, d):
        assert field.components[k][i][j] is want[k][i][j]
    calls.clear()
    assert christoffel(g) is field
    assert calls == []


def test_christoffel_past_the_inverse_limit_is_a_config_error():
    d = SYM_INVERSE_MAX_DIM + 1
    vs = [f"x{i}" for i in range(1, d + 1)]
    rows = [[parse("1" if i == j else "0", vs) for j in range(d)] for i in range(d)]
    rows[d - 1][d - 1] = parse("1 + x1^2", vs)
    g = Metric.spatial(rows)
    for _ in range(3):  # a failed build is not kept: each call raises again
        with pytest.raises(ConfigError, match=f"dimension {d} exceeds the limit"):
            christoffel(g)


# ---------------------------------------------------------------------------
# pullback

def test_temporal_pullback_matches_jacobian_sandwich():
    h = curved_h()
    tm = TransitionMap(
        2, 1,
        t_forward=[parse("t1 + 3/10*t2^2", TV), parse("t2", TV)],
        x_forward=[var("x1")],
        t_inverse=[parse("t1 - 3/10*t2^2", TV), parse("t2", TV)],
        x_inverse=[var("x1")],
    )
    pulled = pullback_metric(h, tm)
    src = {"t1": 0.4, "t2": -0.5}
    jt = tm.map_points([{**src, "x1": 0.1, "p1_1": 0.2, "p1_2": -0.3}]).jt[0]
    kt = np.linalg.inv(jt)
    want = kt.T @ h.at(src) @ kt
    img = {"t1": evaluate(tm.t_forward[0], src), "t2": evaluate(tm.t_forward[1], src)}
    assert np.allclose(pulled.at(img), want, atol=1e-12)
    pulled.validate()


def test_spatial_pullback_matches_jacobian_sandwich():
    phi = curved_phi()
    tm = TransitionMap(
        1, 2,
        t_forward=[var("t1")],
        x_forward=[parse("x1", XV), parse("x2 + 1/2*x1^3", XV)],
        t_inverse=[var("t1")],
        x_inverse=[parse("x1", XV), parse("x2 - 1/2*x1^3", XV)],
    )
    pulled = pullback_metric(phi, tm)
    src = {"x1": 0.6, "x2": -0.2}
    jx = tm.map_points([{**src, "t1": 0.1, "p1_1": 0.2, "p2_1": -0.3}]).jx[0]
    kx = np.linalg.inv(jx)
    want = kx.T @ phi.at(src) @ kx
    img = {"x1": evaluate(tm.x_forward[0], src), "x2": evaluate(tm.x_forward[1], src)}
    assert np.allclose(pulled.at(img), want, atol=1e-12)


def _pullback_cases():
    """(metric, transition): the shipped manifests' metrics, then seeded
    random ones of every kind at (1, 2) to (3, 3)."""
    cases = []
    for name in ("curved.json", "flat.json"):
        man = load_manifest(str(Path(__file__).resolve().parent.parent / "manifests" / name))
        cases += [(man.temporal_metric, man.transition), (man.spatial_metric, man.transition)]
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 3)):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            tm = random_transition(m, n, rng)
            cases += [(random_temporal_metric(m, rng), tm), (random_spatial_metric(n, rng), tm),
                      (random_spatiotemporal_metric(m, n, rng), tm)]
    return cases


def test_pullback_metric_builds_the_nodes_of_the_direct_sandwich():
    for g, tm in _pullback_cases():
        got, want = pullback_metric(g, tm), pullback_metric_sandwich(g, tm)
        assert (got.kind, got.m, got.n, got.p_dependent) == (g.kind, g.m, g.n, g.p_dependent)
        assert all(a is b for a, b in zip(got.components.flat, want.components.flat))
