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
    random_transition,
)
from oracles import (
    canonical_n2_direct,
    first_nonzero,
    general_electrodynamic_hamiltonian,
    gravitational_hamiltonian,
    piece_momentum_derivatives,
    written_out_pieces,
)
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
    ZERO,
    add,
    as_expr,
    equiv,
    is_zero,
    mul,
    neg,
    parse,
    power,
    substitute,
    to_string,
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


def test_extraction_compiles_only_the_reassembly_program(monkeypatch):
    rng = np.random.default_rng(23)
    h, g = random_temporal_metric(2, rng), random_spatiotemporal_metric(2, 2, rng)
    space = general_electrodynamic_space(h, g, random_potential(2, 2, rng),
                                         random_base_scalar(2, 2, rng))
    compiled, derived, extracting = [], [], []
    real_compile, real_derive = symbolic.compile_block, symbolic.differentiate
    real_extract = hamilton._potential_and_free_term

    def counting(exprs):
        if extracting:
            compiled.append(list(np.asarray(exprs, dtype=object).flat))
        return real_compile(exprs)

    def deriving(e, name):
        if extracting:
            derived.append(name)
        return real_derive(e, name)

    def extract(*args):
        extracting.append(True)
        try:
            return real_extract(*args)
        finally:
            extracting.clear()

    monkeypatch.setattr(symbolic, "compile_block", counting)
    monkeypatch.setattr(symbolic, "differentiate", deriving)
    monkeypatch.setattr(hamilton, "_potential_and_free_term", extract)
    HamiltonSpace(h, 2, space.hamiltonian)
    [reassembly] = compiled
    assert len(reassembly) == 2  # the one equiv of the rebuilt hamiltonian
    # dH/dp for U, and no piece differentiated by a momentum
    assert derived == list(CHART.p_names)


# A harmonic cubic c (p1_1^3 - 3 p1_1 p1_2^2): h^ab G[i][a][j][b] cancels it,
# so the candidate g^ij does not see it, and its part of G is the deviation
# E = G - h g, of size 3c |p|.  The momentum tests read dU/dp = 2E and
# dF/dp = -2 E p on the box that decides.
SMALL_CUBIC_BOX = {"p1_1": (-1e-3, 1e-3), "p1_2": (-1e-3, 1e-3)}


def _box(chart: JetChart, intervals: dict) -> SampleDomain:
    """The chart's default box with the given intervals replaced."""
    return SampleDomain(tuple((nm, *intervals.get(nm, (lo, hi)))
                              for nm, lo, hi in chart.sample_domain().intervals))


def _squares_and_cubic(n: int, c: float, intervals: dict):
    chart = JetChart(2, n)
    H = parse(" + ".join(f"{nm}^2" for nm in chart.p_names)
              + f" + {c!r}*(p1_1^3 - 3*p1_1*p1_2^2)", chart.names)
    return H, _box(chart, intervals)


def test_a_candidate_naming_a_momentum_only_in_syntax_gives_a_momentum_free_g():
    # m = 2: the cubic 1e-7 is regular on the small box, and its g^ij names
    # p1_1 with derivatives within tolerance there
    H, small = _squares_and_cubic(2, 1e-7, SMALL_CUBIC_BOX)
    space = HamiltonSpace(flat_h(), 2, H, dom=small)
    assert "p1_1" in variables(space.regularity.candidate[0][0])
    assert not space.regularity.p_dependent and not space.g.p_dependent
    assert [[to_string(e) for e in row] for row in space.g.components] == [["1", "0"], ["0", "1"]]


def test_extraction_names_the_momentum_a_wrong_candidate_leaves_behind():
    flat = flat_h()
    # c = 3e-7 keeps E within tolerance on |p1_1|, |p1_2| <= 0.001, but not 2E
    H, small = _squares_and_cubic(2, 3e-7, SMALL_CUBIC_BOX)
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, 2, H, dom=small)
    assert str(err.value) == "extracted potential term depends on momentum p1_1"
    result = err.value.result
    assert not result.regular and result.reason == str(err.value)
    assert result.potential is None and result.free_term is None
    assert 0.5e-9 < result.max_residual <= 1e-9 and not result.p_dependent
    # c = 1e-7 keeps 2E within tolerance as well, and the same box decides
    H, small = _squares_and_cubic(2, 1e-7, SMALL_CUBIC_BOX)
    assert HamiltonSpace(flat, 2, H, dom=small).regularity.regular
    # on |p| <= 10, c = 1e-11 keeps 2E within tolerance, but not -2 E p
    H, wide = _squares_and_cubic(2, 1e-11, {nm: (-10.0, 10.0) for nm in CHART.p_names})
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, 2, H, dom=wide)
    assert str(err.value) == "extracted free term depends on momentum p1_1"
    # on the default box |p| <= 2, a tolerance of 18c lets U through, but not F
    H, _ = _squares_and_cubic(2, 1e-7, {})
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, 2, H, tol=1.8e-6)
    assert str(err.value) == "extracted free term depends on momentum p1_1"
    # past the exact inverse's dimension limit the test still fails first:
    # g is lowered only after the test has extracted U and F
    n = SYM_INVERSE_MAX_DIM + 1
    H, small = _squares_and_cubic(n, 3e-7, SMALL_CUBIC_BOX)
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat, n, H, dom=small)
    assert str(err.value) == "extracted potential term depends on momentum p1_1"


# |H| < 1 on p1_1 in [28, 30].  The harmonic cubic c x1 f(p) gives 2E of size
# 6c|p| and -2 E p = -2c x1 df/dp of size 6c p^2, both within tolerance, yet
# setting p = 0 in the pieces drops c x1 f itself, of size c p^3, and the
# rebuilt hamiltonian misses it by more than tolerance.
REASSEMBLY_CASE = ("0.001*(p1_1^2 + p1_2^2) + 1e-13*x1*(p1_1^3 - 3*p1_1*p1_2^2)",
                   {"p1_1": (28.0, 30.0), "p1_2": (-1.0, 1.0)})


def test_extraction_refuses_pieces_that_do_not_reassemble_the_hamiltonian():
    chart = JetChart(2, 1)
    text, intervals = REASSEMBLY_CASE
    with pytest.raises(NotRegular) as err:
        HamiltonSpace(flat_h(), 1, parse(text, chart.names), tol=1e-9,
                      dom=_box(chart, intervals))
    assert str(err.value) == "extracted pieces do not reassemble the hamiltonian"
    assert err.value.result.reason == str(err.value)


def _deviated(H, h: Metric):
    """H plus x1 (h^22 p1_1^2 - h^11 p1_2^2), a momentum quadratic that
    h^ab traces to zero, so the candidate g^ij keeps its value and
    E = G - h g does not vanish."""
    hu, p11, p12 = h.inverse_components, Var("p1_1"), Var("p1_2")
    return add(H, mul(Var("x1"), add(mul(hu[1][1], p11, p11), neg(mul(hu[0][0], p12, p12)))))


CURVED_H = "exp(-2*x1)*(p1_1^2 + (t1^2 + 1)*p1_2^2) + p2_1^2 + (t1^2 + 1)*p2_2^2"


def _electrodynamic_curved():
    """curved.json's hamiltonian plus a potential and a free term."""
    return parse(CURVED_H + " + x2*p1_1 - 0.5*sin(x1)*t2*p2_2 + 0.3*x1^2*t1", CHART.names)


def _identity_cases():
    rng = np.random.default_rng(5)
    h3, g3 = random_temporal_metric(2, rng), random_spatiotemporal_metric(2, 3, rng)
    # hamiltonians from the oracles, the nodes the spaces' builders give, so
    # collecting the module builds no space
    geomgen_23 = general_electrodynamic_hamiltonian(h3, g3, random_potential(2, 3, rng),
                                                    random_base_scalar(2, 3, rng))
    for name, h, n, H in [("curved", curved_h(), 2,
                           gravitational_hamiltonian(curved_h(), curved_phi())),
                          ("geomgen-2x3", h3, 3, geomgen_23),
                          ("electrodynamic", curved_h(), 2, _electrodynamic_curved())]:
        yield pytest.param(h, n, H, id=name)
        yield pytest.param(h, n, _deviated(H, h), id=f"{name}-deviated")
    # E of size 3c |p|, which depends on the momenta
    yield pytest.param(flat_h(), 2, _squares_and_cubic(2, 0.5, {})[0], id="flat-cubic")


@pytest.mark.parametrize("h, n, H", _identity_cases())
def test_momentum_derivatives_of_the_pieces_are_read_from_the_deviation(h, n, H):
    # the identities hold for any H whose candidate is free of momenta; the
    # deviated and cubic cases give E, and so both sides, a nonzero value
    m = h.dim
    chart = JetChart(m, n)
    vertical = fundamental_vertical_dtensor(H, m, n)
    cand = hamilton._candidate_block(vertical, h)
    E = [[add(vertical.components[i, a, k, c], neg(mul(h.components[a][c], cand[i][k])))
          for k in range(n) for c in range(m)] for i in range(n) for a in range(m)]
    P = [var for row in chart.p_vars() for var in row]
    for kc, (name, (*d_potential, d_free)) in enumerate(
            piece_momentum_derivatives(H, h, cand)):
        assert name == P[kc].name
        for ia, d in enumerate(d_potential):
            assert equiv(d, mul(Const(2.0), E[ia][kc])), (name, ia)
        assert equiv(d_free, mul(Const(-2.0), add(*[mul(E[ia][kc], P[ia])
                                                    for ia in range(n * m)]))), name


def _written_out_cases():
    """curved.json's space with and without the electrodynamic terms, and
    geomgen (2, 3) and (3, 2) electrodynamic spaces, each in both charts."""
    rng = np.random.default_rng(41)
    cases = [("curved", curved_h(), 2, parse(CURVED_H, CHART.names), shear_map_22()),
             ("electrodynamic", curved_h(), 2, _electrodynamic_curved(), shear_map_22())]
    for m, n in ((2, 3), (3, 2)):
        h = random_temporal_metric(m, rng)
        H = general_electrodynamic_hamiltonian(h, random_spatiotemporal_metric(m, n, rng),
                                               random_potential(m, n, rng),
                                               random_base_scalar(m, n, rng))
        cases.append((f"geomgen-{m}x{n}", h, n, H, random_transition(m, n, rng)))
    for name, h, n, H, tm in cases:
        yield pytest.param(h, n, H, id=f"{name}-chart-A")
        yield pytest.param(pullback_metric(h, tm), n, pullback_scalar(H, tm),
                           id=f"{name}-chart-B")


@pytest.mark.parametrize("h, n, H", _written_out_cases())
def test_the_pieces_are_the_written_out_ones_at_zero_momenta(h, n, H):
    """U and F, extracted as dH/dp and H at p = 0, are the very nodes of
    dH/dp - 2 h g p and H - h g p p - U p at p = 0."""
    space = HamiltonSpace(h, n, H)
    U, F = written_out_pieces(H, h, space.regularity.candidate)
    wipe = {nm: ZERO for nm in space.chart.p_names}
    for i, a in np.ndindex(n, h.dim):
        assert space.U.components[i, a] is substitute(U[i][a], wipe), (i, a)
    assert space.F is substitute(F, wipe)


def _agreement_cases():
    flat, wide = flat_h(), {nm: (-10.0, 10.0) for nm in CHART.p_names}
    for name, c, intervals, tol in [("potential", 3e-7, SMALL_CUBIC_BOX, 1e-9),
                                    ("regular", 1e-7, SMALL_CUBIC_BOX, 1e-9),
                                    ("free-wide-box", 1e-11, wide, 1e-9),
                                    ("free-wide-tolerance", 1e-7, {}, 1.8e-6)]:
        yield pytest.param(flat, 2, *_squares_and_cubic(2, c, intervals), tol, id=name)
    text, intervals = REASSEMBLY_CASE
    chart = JetChart(2, 1)
    yield pytest.param(flat, 1, parse(text, chart.names), _box(chart, intervals), 1e-9,
                       id="reassembly")
    yield pytest.param(curved_h(), 2, _electrodynamic_curved(), CHART.sample_domain(), 1e-9,
                       id="electrodynamic")


@pytest.mark.parametrize("h, n, H, box, tol", _agreement_cases())
def test_the_momentum_tests_give_the_reason_the_derivatives_give(h, n, H, box, tol):
    """On one box, the extraction's reason is the one that testing every
    piece's momentum derivative in turn would give."""
    result = check_kronecker_regularity(H, h, n, dom=box, tol=tol)
    assert result.max_residual <= tol and not result.p_dependent
    derivatives = piece_momentum_derivatives(H, h, result.candidate)
    pieces = len(derivatives[0][1])
    first = first_nonzero([d for _, row in derivatives for d in row], tol, box)
    if first is None:
        assert result.reason in ("", "extracted pieces do not reassemble the hamiltonian")
    else:
        k, piece = divmod(first, pieces)
        what = "free" if piece == pieces - 1 else "potential"
        assert result.reason == f"extracted {what} term depends on momentum {derivatives[k][0]}"


def test_a_box_without_some_names_gives_them_default_intervals():
    # G of this hamiltonian reads no momentum, yet the free-term test reads
    # the momenta's values: the test takes them from the extended box
    H, h = _electrodynamic_curved(), curved_h()
    partial = SampleDomain(tuple(iv for iv in CHART.sample_domain().intervals
                                 if iv[0] not in CHART.p_names))
    got = check_kronecker_regularity(H, h, 2, dom=partial)
    want = check_kronecker_regularity(H, h, 2, dom=partial.extended(CHART.names))
    assert got.regular and got.to_dict() == want.to_dict()
    assert got.free_term is want.free_term and not is_zero(got.free_term)


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
