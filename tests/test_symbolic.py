import math

import pytest
from hypothesis import given, settings, strategies as st

from polyjet.errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)
from polyjet.symbolic import (
    Call,
    Const,
    Neg,
    Power,
    Product,
    Quotient,
    SampleDomain,
    Sum,
    Var,
    add,
    cos,
    differentiate,
    div,
    equiv,
    evaluate,
    exp,
    ln,
    mul,
    neg,
    parse,
    power,
    sin,
    sqrt,
    substitute,
    to_string,
    var,
    variables,
)

from oracles import central_diff_partial

X1 = var("x1")
T1 = var("t1")
P11 = var("p1_1")
P12 = var("p1_2")


# ---------------------------------------------------------------------------
# construction invariants

def test_sums_and_products_stay_flat():
    e = add(add(X1, T1), add(P11, Const(0.0)))
    assert e == Sum((X1, T1, P11))
    f = mul(mul(X1, T1), mul(P11, Const(1.0)))
    assert f == Product((X1, T1, P11))


def test_constant_folding_collapses_constant_subtrees():
    assert add(Const(2), Const(3)) == Const(5.0)
    assert mul(Const(2), Const(3), X1) == Product((Const(6.0), X1))
    assert power(Const(2), 10) == Const(1024.0)
    assert neg(Const(4)) == Const(-4.0)
    assert div(Const(3), Const(2)) == Const(1.5)
    assert sin(Const(0.0)) == Const(0.0)


def test_zero_and_one_absorption():
    assert add(X1, Const(0)) == X1
    assert mul(X1, Const(1)) == X1
    assert mul(X1, Const(0)) == Const(0.0)
    assert power(X1, 0) == Const(1.0)
    assert power(X1, 1) == X1
    assert div(Const(0), X1) == Const(0.0)


def test_division_by_constant_zero_is_rejected():
    with pytest.raises(DomainError):
        div(X1, Const(0.0))


def test_adjacent_equal_factors_merge_to_powers():
    assert mul(X1, X1) == Power(X1, 2)
    assert mul(X1, X1, X1) == Power(X1, 3)
    assert mul(power(X1, 2), X1) == Power(X1, 3)


def test_negative_power_becomes_reciprocal():
    assert power(X1, -2) == Quotient(Const(1.0), Power(X1, 2))


def test_nodes_are_hashable_and_compare_structurally():
    a = add(X1, mul(Const(2), T1))
    b = add(X1, mul(Const(2), T1))
    assert a == b and hash(a) == hash(b)
    assert a != add(X1, mul(Const(3), T1))
    assert len({a, b}) == 1


def test_operator_sugar_matches_constructors():
    assert X1 + 1 == add(X1, Const(1))
    assert 2 * X1 == mul(Const(2), X1)
    assert X1 - T1 == add(X1, neg(T1))
    assert X1 / T1 == Quotient(X1, T1)
    assert X1 ** 3 == Power(X1, 3)
    assert -X1 == Neg(X1)


# ---------------------------------------------------------------------------
# parsing

def test_parse_polynomial_with_functions():
    got = parse("2*x1^3 - sin(t1)*p1_2", ["t1", "x1", "p1_2"])
    want = add(mul(Const(2), power(X1, 3)), neg(mul(sin(T1), P12)))
    assert got == want


def test_parse_constant_quotient_folds_away():
    assert parse("(1/1)*x1", ["x1"]) == X1


def test_parse_variable_containing_caret():
    v = var("p_1^1")
    assert parse("p_1^1 * p_1^1", ["p_1^1"]) == Power(v, 2)


def test_parse_power_splits_off_exponent():
    got = parse("t1^2 + 1", ["t1"])
    assert got == Sum((Power(T1, 2), Const(1.0)))


def test_parse_longest_declared_prefix_wins():
    v = var("p_1^1")
    assert parse("p_1^1^2", ["p_1^1"]) == Power(v, 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*+x1", ["x1"])
    assert err.value.position == 2


def test_parse_unknown_identifier_names_offender():
    with pytest.raises(UnknownIdentifier) as err:
        parse("t1 + q2", ["t1"])
    assert err.value.name == "q2"


def test_parse_unknown_caret_stem_is_reported():
    with pytest.raises(UnknownIdentifier) as err:
        parse("y1^2", ["t1"])
    assert err.value.name == "y1"


def test_parse_function_requires_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse("sin t1", ["t1"])


def test_parse_rejects_fractional_exponents():
    with pytest.raises(ExprSyntaxError):
        parse("x1^2.5", ["x1"])


def test_parse_rejects_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("x1 x1", ["x1"])


def test_parse_scientific_notation_and_unary_minus():
    assert parse("-1e-2", []) == Const(-0.01)
    assert parse("--x1", ["x1"]) == X1


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_basic_arithmetic():
    e = parse("2*x1^3 - sin(t1)*p1_2", ["t1", "x1", "p1_2"])
    got = evaluate(e, {"x1": 0.5, "t1": 0.3, "p1_2": 2.0})
    assert got == pytest.approx(2 * 0.5 ** 3 - math.sin(0.3) * 2.0, abs=1e-15)


def test_evaluate_unbound_variable():
    with pytest.raises(UnboundVariable) as err:
        evaluate(X1 + T1, {"x1": 1.0})
    assert err.value.name == "t1"


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(ln(X1), {"x1": -1.0})
    with pytest.raises(DomainError):
        evaluate(sqrt(X1), {"x1": -0.5})
    with pytest.raises(DomainError):
        evaluate(div(Const(1), X1), {"x1": 0.0})


# ---------------------------------------------------------------------------
# differentiation

def test_derivative_of_monomial_product():
    e = mul(power(X1, 2), P11)
    assert differentiate(e, "x1") == mul(Const(2), X1, P11)
    assert differentiate(e, "p1_1") == power(X1, 2)
    assert differentiate(e, "t1") == Const(0.0)


def test_derivative_chain_rules_against_hand_results():
    assert equiv(differentiate(ln(X1 ** 2 + 1), "x1"),
                 2 * X1 / (X1 ** 2 + 1))
    assert equiv(differentiate(sqrt(X1 ** 2 + 1), "x1"),
                 X1 / sqrt(X1 ** 2 + 1))
    assert equiv(differentiate(sin(T1) * exp(T1), "t1"),
                 cos(T1) * exp(T1) + sin(T1) * exp(T1))
    assert equiv(differentiate(cos(2 * T1), "t1"), -2 * sin(2 * T1))


def test_quotient_rule():
    e = div(X1, X1 ** 2 + 1)
    want = div(1 - X1 ** 2, (X1 ** 2 + 1) ** 2)
    assert equiv(differentiate(e, "x1"), want)


# strategy: evaluation-safe expressions (function args and denominators are
# kept positive-definite so every sampled point is in-domain)
_names = st.sampled_from(["t1", "x1", "p1_1"])
_leaf = st.one_of(
    _names.map(var),
    st.integers(min_value=-4, max_value=4).map(lambda k: Const(float(k))),
)


def _poly(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: add(*ab)),
        st.tuples(children, children).map(lambda ab: mul(*ab)),
        st.tuples(children, st.integers(2, 3)).map(lambda bk: power(*bk)),
        children.map(neg),
    )


_poly_expr = st.recursive(_leaf, _poly, max_leaves=8)


def _wrap(children):
    return st.one_of(
        _poly(children),
        children.map(lambda u: ln(u ** 2 + 1)),
        children.map(lambda u: sqrt(u ** 2 + 1)),
        children.map(sin),
        children.map(cos),
        st.tuples(children, children).map(lambda ab: div(ab[0], ab[1] ** 2 + 1)),
    )


_safe_expr = st.recursive(_leaf, _wrap, max_leaves=8)


@settings(max_examples=80, deadline=None)
@given(_safe_expr, st.integers(0, 10 ** 6))
def test_symbolic_derivative_matches_finite_difference(e, seed):
    dom = SampleDomain.default(["t1", "x1", "p1_1"], count=3, seed=seed)
    for name in ("t1", "x1", "p1_1"):
        de = differentiate(e, name)
        for pt in dom.points():
            sym = evaluate(de, pt)
            fd = central_diff_partial(lambda q: evaluate(e, q), pt, name)
            assert abs(sym - fd) <= 2e-5 * max(1.0, abs(sym))


@settings(max_examples=60, deadline=None)
@given(_safe_expr, _safe_expr)
def test_derivative_is_linear(e1, e2):
    d1 = differentiate(add(e1, mul(Const(3), e2)), "x1")
    d2 = add(differentiate(e1, "x1"), mul(Const(3), differentiate(e2, "x1")))
    assert equiv(d1, d2, SampleDomain.default(["t1", "x1", "p1_1"], count=6, seed=7))


@settings(max_examples=60, deadline=None)
@given(_safe_expr)
def test_mixed_partials_commute(e):
    dxt = differentiate(differentiate(e, "x1"), "t1")
    dtx = differentiate(differentiate(e, "t1"), "x1")
    assert equiv(dxt, dtx, SampleDomain.default(["t1", "x1", "p1_1"], count=6, seed=11))


# ---------------------------------------------------------------------------
# substitution

def test_substitute_rebuilds_canonically():
    e = (X1 + T1) ** 2
    got = substitute(e, {"t1": 2 * X1})
    assert equiv(got, 9 * X1 ** 2)
    assert substitute(X1 + T1, {"x1": Const(0.0)}) == T1


def test_substitute_into_functions():
    e = ln(X1 ** 2 + 1)
    got = substitute(e, {"x1": T1 + 1})
    assert equiv(got, ln((T1 + 1) ** 2 + 1))


def test_variables_listing():
    e = parse("2*x1^3 - sin(t1)*p1_2", ["t1", "x1", "p1_2"])
    assert variables(e) == frozenset({"x1", "t1", "p1_2"})


# ---------------------------------------------------------------------------
# printing round trips

@settings(max_examples=120, deadline=None)
@given(_safe_expr)
def test_print_parse_round_trip_is_identity(e):
    assert parse(to_string(e), variables(e)) == e


def test_print_parse_fixed_point_on_sources():
    sources = [
        "2*x1^3 - sin(t1)*p1_2",
        "1 + t1^2",
        "-(x1 + t1)^2/(1 + x1^2)",
        "exp(x1)*ln(1 + t1^2) - sqrt(1 + p1_1^2)",
        "x1/t1/p1_1",
        "x1/(t1/p1_1)",
        "(x1 + 1)*(t1 - 2)",
    ]
    vs = ["t1", "x1", "p1_1", "p1_2"]
    for src in sources:
        once = to_string(parse(src, vs))
        twice = to_string(parse(once, vs))
        assert once == twice
        assert parse(once, vs) == parse(src, vs)


def test_print_keeps_caret_variables_whole():
    v = var("p_1^1")
    e = power(v, 2)
    assert to_string(e) == "(p_1^1)^2" or parse(to_string(e), ["p_1^1"]) == e


# ---------------------------------------------------------------------------
# numeric equivalence and sampling

def test_equiv_detects_equal_polynomials():
    assert equiv((X1 + 1) ** 2, X1 ** 2 + 2 * X1 + 1)
    assert not equiv((X1 + 1) ** 2, X1 ** 2 - 2 * X1 + 1)


def test_equiv_uses_relative_scale():
    big = mul(Const(1e12), X1)
    assert equiv(big, mul(Const(1e12), X1) + Const(1.0), tol=1e-9)
    assert not equiv(X1, X1 + Const(1e-6), tol=1e-9)


def test_sample_domain_is_deterministic():
    d1 = SampleDomain.default(["t1", "x1", "p1_1"], count=5, seed=42)
    d2 = SampleDomain.default(["t1", "x1", "p1_1"], count=5, seed=42)
    assert d1.points() == d2.points()
    d3 = d1.with_options(seed=43)
    assert d1.points() != d3.points()


def test_sample_domain_default_ranges_follow_naming():
    d = SampleDomain.default(["t1", "x2", "p3_1"], count=50, seed=1)
    for pt in d.points():
        assert -0.9 <= pt["t1"] <= 0.9
        assert -0.9 <= pt["x2"] <= 0.9
        assert -2.0 <= pt["p3_1"] <= 2.0


def test_sample_domain_extension_preserves_existing_draws():
    d = SampleDomain.default(["t1"], count=4, seed=5)
    e = d.extended(["x1"])
    for p, q in zip(d.points(), e.points()):
        assert p["t1"] == q["t1"]
        assert "x1" in q


def test_sample_domain_needs_at_least_one_point():
    with pytest.raises(ConfigError):
        SampleDomain.default(["t1"], count=0)
    with pytest.raises(ConfigError):
        SampleDomain.default(["t1"], count=3).with_options(count=0)
