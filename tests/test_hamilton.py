"""Regularity, extraction, and the canonical connection of Hamilton spaces."""

from __future__ import annotations

import math

import numpy as np
import pytest

from geomgen import (
    random_base_scalar,
    random_potential,
    random_spatiotemporal_metric,
    random_temporal_metric,
)
from oracles import canonical_n2_direct
from polyjet.charts import JetChart, TransitionMap, pullback_scalar
from polyjet.connections import (
    canonical_metric_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.dtensors import pullback_dtensor, verify_dtensor_law
from polyjet import hamilton, symbolic
from polyjet.errors import ConfigError, NotRegular
from polyjet.hamilton import (
    HamiltonSpace,
    autonomous_electrodynamic_space,
    canonical_connection_closed_form,
    canonical_connection_middle_form,
    canonical_nonlinear_connection,
    check_kronecker_regularity,
    electrodynamic_t_block,
    fundamental_vertical_dtensor,
    general_electrodynamic_space,
    gravitational_space,
)
from polyjet.linalg import SYM_INVERSE_MAX_DIM
from polyjet.metrics import Metric, pullback_metric
from polyjet.symbolic import (
    Const,
    SampleDomain,
    Var,
    add,
    as_expr,
    equiv,
    is_zero,
    mul,
    parse,
    power,
    variables,
)


CHART = JetChart(2, 2)


def flat_h() -> Metric:
    return Metric.temporal([[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]])


def curved_h() -> Metric:
    return Metric.temporal([[Const(1.0), Const(0.0)],
                            [Const(0.0), parse("t1^2 + 1", ("t1", "t2"))]])


def curved_phi() -> Metric:
    return Metric.spatial([[parse("exp(2*x1)", ("x1", "x2")), Const(0.0)],
                           [Const(0.0), Const(1.0)]])


def shear_map_22() -> TransitionMap:
    t_fwd = (parse("t1 + 3/10*t2^2", ("t1", "t2")), parse("t2", ("t1", "t2")))
    t_inv = (parse("t1 - 3/10*t2^2", ("t1", "t2")), parse("t2", ("t1", "t2")))
    x_fwd = (parse("x1", ("x1", "x2")), parse("x2 + 1/2*x1^3", ("x1", "x2")))
    x_inv = (parse("x1", ("x1", "x2")), parse("x2 - 1/2*x1^3", ("x1", "x2")))
    return TransitionMap(2, 2, t_fwd, x_fwd, t_inv, x_inv)


def test_vertical_hessian_of_flat_quadratic():
    flat_phi = Metric.spatial([[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]])
    space = gravitational_space(flat_h(), flat_phi)
    asg = {nm: 0.3 for nm in CHART.names}
    got = fundamental_vertical_dtensor(space.hamiltonian, 2, 2).at(asg)
    expected = 0.5 * (np.einsum("ij,ab->iajb", np.eye(2), np.eye(2)) * 2)
    assert np.allclose(got, expected, atol=1e-12)


def test_gravitational_space_extraction():
    space = gravitational_space(curved_h(), curved_phi(), mass=2.0, light_speed=1.5)
    assert space.regularity.regular
    assert space.regularity.max_residual <= 1e-10
    # g^{ij} = phi^{ij} / (mass * c); phi is diagonal so check directly
    coeff = 1.0 / (2.0 * 1.5)
    assert equiv(space.regularity.candidate[0][0],
                 mul(Const(coeff), parse("1/exp(2*x1)", ("x1",))), tol=1e-10)
    assert equiv(space.regularity.candidate[1][1], Const(coeff), tol=1e-10)
    # no linear or free part
    for i in range(2):
        for a in range(2):
            assert is_zero(space.U.components[i, a], tol=1e-10)
    assert is_zero(space.F, tol=1e-10)


def test_autonomous_electrodynamic_extraction():
    h, phi = curved_h(), curved_phi()
    A = [[Var("x2"), mul(Const(2.0), Var("x1"))],
         [power(Var("x1"), 2), Const(0.5)]]
    mass, c, e = 1.5, 2.0, 0.75
    space = autonomous_electrodynamic_space(h, phi, A, mass=mass,
                                            light_speed=c, charge=e)
    assert space.regularity.regular
    assert space.regularity.max_residual <= 1e-10
    # the linear part recovers U = -(2 e / (mass c^2)) A exactly
    lin = -2.0 * e / (mass * c ** 2)
    for i in range(2):
        for a in range(2):
            assert equiv(space.U.components[i, a], mul(Const(lin), A[i][a]),
                         tol=1e-10)
    # and the free part carries the e^2 / (mass c^3) coefficient
    h_upper = h.inverse_components
    fa = add(*[mul(h_upper[a][b], phi.components[i][j], A[i][a], A[j][b])
               for a in range(2) for b in range(2)
               for i in range(2) for j in range(2)])
    assert equiv(space.F, mul(Const(e ** 2 / (mass * c ** 3)), fa), tol=1e-10)


def test_general_electrodynamic_roundtrip():
    rng = np.random.default_rng(17)
    for trial in range(3):
        h = random_temporal_metric(2, rng)
        g = random_spatiotemporal_metric(2, 2, rng)
        U = random_potential(2, 2, rng)
        F = random_base_scalar(2, 2, rng)
        space = general_electrodynamic_space(h, g, U, F)
        assert space.regularity.regular, space.regularity.reason
        asg = {nm: 0.4 for nm in CHART.names}
        assert np.allclose(space.g.at(asg), g.at(asg), atol=1e-9)
        for i in range(2):
            for a in range(2):
                assert equiv(space.U.components[i, a], U[i][a], tol=1e-10)
        assert equiv(space.F, F, tol=1e-10)


def test_extraction_compiles_one_program_per_variable_set(monkeypatch):
    rng = np.random.default_rng(23)
    h, g = random_temporal_metric(2, rng), random_spatiotemporal_metric(2, 2, rng)
    space = general_electrodynamic_space(h, g, random_potential(2, 2, rng),
                                         random_base_scalar(2, 2, rng))
    compiled, extracting = [], []
    real_compile, real_extract = symbolic.compile_block, hamilton._potential_and_free_term

    def counting(exprs):
        if extracting:
            compiled.append(list(np.asarray(exprs, dtype=object).flat))
        return real_compile(exprs)

    def extract(*args):
        extracting.append(True)
        try:
            return real_extract(*args)
        finally:
            extracting.clear()

    monkeypatch.setattr(symbolic, "compile_block", counting)
    monkeypatch.setattr(hamilton, "_potential_and_free_term", extract)
    HamiltonSpace(h, 2, space.hamiltonian)
    *checks, reassembly = compiled
    assert len(reassembly) == 2  # the one equiv of the rebuilt hamiltonian
    sets = [variables(block[0]) for block in checks]
    assert all(variables(e) is names for block, names in zip(checks, sets) for e in block)
    assert len(set(sets)) == len(sets) < sum(map(len, checks))


# A harmonic cubic in (p1_1, p1_2) with c = 1e-7: h^ab G[i][a][j][b] cancels
# it, so the candidate g^ij does not see it, and on |p| <= 0.001 its part of
# G stays below the default tolerance.  Momentum independence is tested on
# the default box |p| <= 2, where dU/dp reaches 12c and dF/dp 24c.
CUBIC = " + 1e-7*(p1_1^3 - 3*p1_1*p1_2^2)"


def _squares_and_cubic(n: int):
    chart = JetChart(2, n)
    H = parse(" + ".join(f"{nm}^2" for nm in chart.p_names) + CUBIC, chart.names)
    small = SampleDomain(tuple((nm, *((-1e-3, 1e-3) if nm in ("p1_1", "p1_2") else (lo, hi)))
                               for nm, lo, hi in chart.sample_domain().intervals))
    return H, small


def test_extraction_names_the_momentum_a_wrong_candidate_leaves_behind():
    flat = flat_h()
    H, small = _squares_and_cubic(2)
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, 2, H, dom=small)
    assert str(err.value) == "extracted potential term depends on momentum p1_1"
    result = err.value.result
    assert not result.regular and result.reason == str(err.value)
    assert result.potential is None and result.free_term is None
    assert result.max_residual <= 1e-9 and not result.p_dependent
    # a tolerance of 18c lets U through on the default box, but not F
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, 2, H, tol=1.8e-6)
    assert str(err.value) == "extracted free term depends on momentum p1_1"
    # past the exact inverse's dimension limit the test still fails first:
    # g is lowered only after the test has extracted U and F
    n = SYM_INVERSE_MAX_DIM + 1
    H, small = _squares_and_cubic(n)
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, n, H, dom=small)
    assert str(err.value) == "extracted potential term depends on momentum p1_1"


def test_extraction_refuses_pieces_that_do_not_reassemble_the_hamiltonian():
    # the cubic term is small enough that the extracted pieces pass their
    # momentum-derivative checks at tol, yet setting p = 0 in them drops it,
    # and the rebuilt hamiltonian misses it by more than tol
    H = parse("0.01*(p1_1^2 + p1_2^2) + 2e-10*x1*p1_1^3", JetChart(2, 1).names)
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat_h(), 1, H, tol=1e-9)
    assert str(err.value) == "extracted pieces do not reassemble the hamiltonian"
    assert err.value.result.reason == str(err.value)


def test_quartic_hamiltonian_rejected():
    H = power(Var("p1_1"), 4)
    res = check_kronecker_regularity(H, flat_h(), 2)
    assert not res.regular
    assert res.reason
    with pytest.raises(NotRegular):
        HamiltonSpace(flat_h(), 2, H)


def test_nan_coefficient_fails_regularity():
    H = add(*[power(Var(f"p{i + 1}_{a + 1}"), 2) for i in range(2) for a in range(2)])
    res = check_kronecker_regularity(H, flat_h(), 2)
    assert res.regular
    poisoned = add(H, mul(as_expr(float("nan")), power(Var("p1_1"), 2)))
    res = check_kronecker_regularity(poisoned, flat_h(), 2)
    assert not res.regular
    assert not math.isfinite(res.max_residual)
    assert "not finite" in res.reason
    with pytest.raises(NotRegular):
        HamiltonSpace(flat_h(), 2, poisoned)


def _chart_expr(text: str):
    return parse(text, CHART.names)


_SQUARES = _chart_expr("p1_1^2 + p2_1^2 + p1_2^2 + p2_2^2")


@pytest.mark.parametrize("H, options, reason", [
    (_chart_expr("p1_1^4"), {}, "candidate spatial block is singular on the sample domain"),
    (add(_SQUARES, mul(as_expr(float("nan")), power(Var("p1_1"), 2))), {},
     "factorization residual is not finite (nan)"),
    (_chart_expr("p1_1^2 + p2_1^2 + 2*p1_2^2 + 2*p2_2^2"), {},
     "factorization residual 5.000e-01 exceeds tolerance 1.0e-09"),
    # on |p| <= 1/2 the cubic term's residual, at most 0.075, is within
    # tolerance, but the candidate's momentum derivative 0.15 is not
    (add(_SQUARES, _chart_expr("0.1*p1_1^3")),
     {"tol": 0.1, "dom": SampleDomain(tuple((nm, -0.5, 0.5) for nm in CHART.names))},
     "candidate block depends on momenta, which only a single time dimension admits"),
])
def test_each_irregularity_has_its_own_reason(H, options, reason):
    res = check_kronecker_regularity(H, flat_h(), 2, **options)
    assert not res.regular
    assert res.reason == reason


def test_single_time_momentum_dependence_allowed():
    h1 = Metric.temporal([[Const(1.0)]])
    H = add(power(Var("p1_1"), 2), mul(Const(0.25), power(Var("p1_1"), 4)))
    res = check_kronecker_regularity(H, h1, 1)
    assert res.regular
    assert res.p_dependent
    space = HamiltonSpace(h1, 1, H)
    assert space.U is None and space.F is None
    assert space.g.p_dependent
    # g^{11} = 1 + (3/2) p^2
    asg = {"t1": 0.0, "x1": 0.0, "p1_1": 2.0}
    assert space.g._checked_inverses([asg])[0, 0, 0] == pytest.approx(7.0)
    # the direct canonical connection formula still applies
    N = canonical_nonlinear_connection(space)
    N.n2_at(asg)
    with pytest.raises(ConfigError):
        canonical_connection_middle_form(space)


def _derived_by_x(space) -> set:
    """The spatial names by which the space's store holds a derivative of H."""
    return {name for node, name in space._kept
            if node is space.hamiltonian and name.startswith("x")}


def test_dh_dx_is_derived_only_where_a_dg_dp_needs_it():
    # m >= 2: g has no momenta, so the direct spatial block never reads dH/dx
    space = general_electrodynamic_space(curved_h(), Metric.spatiotemporal(
        [[parse("exp(2*x1)", ("x1",)), Const(0.0)], [Const(0.0), Const(1.0)]], 2),
        [[parse("x2", ("x2",)), Const(0.0)], [Const(0.0), parse("x1*t1", ("x1", "t1"))]],
        parse("x1*x2", ("x1", "x2")))
    canonical_nonlinear_connection(space)
    assert _derived_by_x(space) == set()
    # m = 1: g depends on p1_1 but not on p2_1, so only dH/dx^1 is derived,
    # and N2 is still the very nodes of the formula that derives every dH/dx
    names = ("t1", "x1", "x2", "p1_1", "p2_1")
    H = parse("(1 + x1^2)*p1_1^2 + (1 + x1*x2)*p2_1^2 + 0.25*p1_1^4 + x2*p1_1", names)
    space = HamiltonSpace(Metric.temporal([[1.0]]), 2, H)
    N = canonical_nonlinear_connection(space)
    assert _derived_by_x(space) == {"x1"}
    want = canonical_n2_direct(space)
    assert all(N.n2[a, i, j] is want[a][i][j] for a, i, j in np.ndindex(N.n2.shape))


def test_two_time_momentum_dependence_rejected():
    H = add(*[mul(Const(1.0 if i == j else 0.0),
                  Var(f"p{i + 1}_{a + 1}"), Var(f"p{j + 1}_{b + 1}"))
              for i in range(2) for j in range(2)
              for a in range(2) for b in range(2) if (a, b) == (0, 0) or (a, b) == (1, 1)])
    bumped = add(H, mul(Const(0.05), power(Var("p1_1"), 4)))
    res = check_kronecker_regularity(bumped, flat_h(), 2)
    assert not res.regular


def test_cnlc_of_gravitational_space_is_metric_connection():
    h, phi = curved_h(), curved_phi()
    space = gravitational_space(h, phi)
    direct = canonical_nonlinear_connection(space)
    metric_one = canonical_metric_connection(h, phi)
    for a in range(2):
        for i in range(2):
            for b in range(2):
                assert equiv(direct.n1[a][i][b], metric_one.n1[a][i][b], tol=1e-9)
            for j in range(2):
                assert equiv(direct.n2[a][i][j], metric_one.n2[a][i][j], tol=1e-9)


def test_three_connection_forms_agree():
    rng = np.random.default_rng(23)
    dom = CHART.sample_domain(count=8, seed=5)
    for trial in range(3):
        h = random_temporal_metric(2, rng)
        g = random_spatiotemporal_metric(2, 2, rng)
        U = random_potential(2, 2, rng)
        F = random_base_scalar(2, 2, rng)
        space = general_electrodynamic_space(h, g, U, F)
        direct = canonical_nonlinear_connection(space)
        middle = canonical_connection_middle_form(space)
        closed = canonical_connection_closed_form(space)
        for asg in dom.points():
            d2 = direct.n2_at(asg)
            assert np.allclose(d2, middle.n2_at(asg), atol=1e-9), f"trial {trial}"
            assert np.allclose(d2, closed.n2_at(asg), atol=1e-9), f"trial {trial}"
            d1 = direct.n1_at(asg)
            assert np.allclose(d1, middle.n1_at(asg), atol=1e-12)
            assert np.allclose(d1, closed.n1_at(asg), atol=1e-12)


def test_t_block_transforms_as_dtensor():
    rng = np.random.default_rng(29)
    tm = shear_map_22()
    h = random_temporal_metric(2, rng)
    g = random_spatiotemporal_metric(2, 2, rng)
    U = random_potential(2, 2, rng)
    space_a = general_electrodynamic_space(h, g, U, Const(0.0))
    T_a = electrodynamic_t_block(space_a.g, space_a.U, space_a.h)

    h_b = pullback_metric(h, tm)
    g_b = pullback_metric(space_a.g, tm)
    U_b = pullback_dtensor(space_a.U, tm)
    T_b = electrodynamic_t_block(g_b, U_b, h_b)
    dom = CHART.sample_domain(count=10, seed=3)
    rep = verify_dtensor_law(T_a, T_b, tm, dom=dom, tol=1e-8)
    assert rep.passed, rep.max_residual


def test_cnlc_satisfies_connection_law():
    rng = np.random.default_rng(37)
    tm = shear_map_22()
    h = random_temporal_metric(2, rng)
    g = random_spatiotemporal_metric(2, 2, rng)
    U = random_potential(2, 2, rng)
    F = random_base_scalar(2, 2, rng)
    space_a = general_electrodynamic_space(h, g, U, F)

    U_b = pullback_dtensor(space_a.U, tm)
    space_b = general_electrodynamic_space(
        pullback_metric(h, tm), pullback_metric(space_a.g, tm),
        [[U_b.components[i, a] for a in range(2)] for i in range(2)],
        pullback_scalar(space_a.F, tm))

    N_a = canonical_nonlinear_connection(space_a)
    N_b = canonical_nonlinear_connection(space_b)
    dom = CHART.sample_domain(count=10, seed=1)
    law = verify_connection_law(N_a, N_b, tm, dom=dom, tol=1e-8)
    assert law.passed, law.max_residual
    cof = verify_adapted_coframe(N_a, N_b, tm, dom=dom, tol=1e-8)
    assert cof.passed, cof.max_residual


def test_builder_validation():
    with pytest.raises(ConfigError):
        gravitational_space(curved_h(), curved_phi(), mass=-1.0)
    with pytest.raises(ConfigError):
        # potential must be autonomous (x only)
        autonomous_electrodynamic_space(
            curved_h(), curved_phi(),
            [[Var("t1"), Const(0.0)], [Const(0.0), Const(0.0)]])
    with pytest.raises(ConfigError):
        # explicit lowered metric must not be momentum-dependent
        g = Metric.spatiotemporal([[add(Const(1.0), power(Var("p1_1"), 2)),
                                    Const(0.0)],
                                   [Const(0.0), Const(1.0)]],
                                  m=2)
        general_electrodynamic_space(curved_h(), g,
                                     [[Const(0.0)] * 2] * 2, Const(0.0))
    with pytest.raises(ConfigError):
        check_kronecker_regularity(Var("y"), flat_h(), 2)


def test_constants_recorded():
    space = autonomous_electrodynamic_space(
        curved_h(), curved_phi(), [[Const(0.0)] * 2] * 2,
        mass=1.25, light_speed=2.0, charge=0.5)
    assert space.constants == {"mass": 1.25, "light_speed": 2.0, "charge": 0.5}


def test_fundamental_vertical_shape():
    G = fundamental_vertical_dtensor(mul(Var("p1_1"), Var("p2_2")), 2, 2)
    assert G.shape == (2, 2, 2, 2)
    asg = {nm: 1.0 for nm in CHART.names}
    v = G.at(asg)
    assert v[0, 0, 1, 1] == pytest.approx(0.5)
    assert v[1, 1, 0, 0] == pytest.approx(0.5)
    assert v[0, 0, 0, 0] == 0.0
