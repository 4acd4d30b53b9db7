import copy
import gc
import math
import pickle
import timeit
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyjet.errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)
from polyjet import symbolic
from polyjet.symbolic import (
    MAX_NESTING,
    Call,
    Const,
    Neg,
    Power,
    Product,
    Quotient,
    SampleDomain,
    Sum,
    Var,
    ZERO,
    add,
    as_expr,
    call,
    compile_block,
    cos,
    differentiate,
    div,
    equiv,
    evaluate,
    exp,
    deviation,
    expr_array,
    is_zero,
    jacobian,
    keeping,
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

from oracles import (
    add_two_pass,
    central_diff_partial,
    close,
    differentiate_walk,
    mul_two_pass,
    subexpressions,
    substitute_walk,
    to_string_walk,
    variables_walk,
)

X1 = var("x1")
T1 = var("t1")
P11 = var("p1_1")
P12 = var("p1_2")


# ---------------------------------------------------------------------------
# construction invariants

def _parts(e) -> tuple:
    """A node's kind and fields, read without building a node, for
    structural asserts."""
    return (type(e), *(getattr(e, name) for name in type(e).__slots__))


def test_sums_and_products_stay_flat():
    e = add(add(X1, T1), add(P11, Const(0.0)))
    assert _parts(e) == (Sum, (X1, T1, P11))
    f = mul(mul(X1, T1), mul(P11, Const(1.0)))
    assert _parts(f) == (Product, (X1, T1, P11))


def test_constant_folding_collapses_constant_subtrees():
    assert add(Const(2), Const(3)) == Const(5.0)
    assert _parts(mul(Const(2), Const(3), X1)) == (Product, (Const(6.0), X1))
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


@pytest.mark.parametrize("build", [
    lambda: parse("1e400*x1", ["x1"]),
    lambda: parse("1e308 + 1e308"),
    lambda: parse("1e200*1e200*x1", ["x1"]),
    lambda: add(Const(-1e308), Const(-1e308)),
    lambda: mul(Const(1e200), X1, Const(1e200)),
    lambda: div(Const(1e300), Const(1e-300)),
    lambda: div(X1, Const(1e-320)),
    lambda: mul(Const(1e300), Const(1e300), Const(0.0), X1),  # folds to NaN
])
def test_constant_overflow_is_a_domain_error(build):
    with pytest.raises(DomainError, match="overflows"):
        build()


def test_non_finite_input_constants_still_fold():
    nan, inf = float("nan"), float("inf")
    assert math.isnan(add(Const(nan), Const(1.0)).value)
    assert math.isnan(mul(Const(nan), Const(2.0), X1).factors[0].value)
    assert add(Const(inf), Const(1.0)) == Const(inf)
    assert mul(Const(inf), Const(2.0)) == Const(inf)


def test_division_by_constant_zero_is_rejected():
    with pytest.raises(DomainError):
        div(X1, Const(0.0))


def test_adjacent_equal_factors_merge_to_powers():
    assert _parts(mul(X1, X1)) == (Power, X1, 2)
    assert _parts(mul(X1, X1, X1)) == (Power, X1, 3)
    assert _parts(mul(power(X1, 2), X1)) == (Power, X1, 3)


def test_negative_power_becomes_reciprocal():
    q = power(X1, -2)
    assert _parts(q) == (Quotient, Const(1.0), q.denominator)
    assert _parts(q.denominator) == (Power, X1, 2)


_COMPOUND = [  # each compound class, its function and a call that it refuses
    (Sum, "add", ((X1, T1),)),
    (Product, "mul", ((X1,),)),
    (Power, "power", (X1, 1)),
    (Neg, "neg", (Const(2.0),)),
    (Quotient, "div", (X1, T1)),
    (Call, "call", ("tan", X1)),
]


@pytest.mark.parametrize("kind, builder, fields", _COMPOUND,
                         ids=[kind.__name__ for kind, _, _ in _COMPOUND])
def test_a_compound_class_refuses_a_call_and_names_its_function(kind, builder, fields):
    # only the constructor functions build compound nodes, so no node is
    # left uncanonical: x1^1 or -2 as a negation would print text that
    # parses back to another node
    gc.collect()
    before = dict(symbolic._NODES)
    for args, kwargs in ((fields, {}), ((), {}), ((), {"arg": X1})):
        with pytest.raises(TypeError, match=rf"^build {kind.__name__} nodes with {builder}\(\),"):
            kind(*args, **kwargs)
    assert symbolic._NODES == before


def test_nodes_are_hashable_and_compare_structurally():
    a = add(X1, mul(Const(2), T1))
    b = add(X1, mul(Const(2), T1))
    assert a == b and hash(a) == hash(b)
    assert a != add(X1, mul(Const(3), T1))
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# interning: one node per structure

def _deep(rounds):
    e = X1
    for _ in range(rounds):
        e = add(mul(Const(0.5), power(e, 2)), Const(0.1))
    return e


def test_deep_trees_compare_hash_and_multiply_without_recursion():
    a, b = _deep(300), _deep(300)
    assert a == b
    assert hash(a) == hash(b)
    assert mul(a, b) is power(a, 2)


def _chain(levels):
    """x1 under ``levels`` steps that alternate e -> sin(e) and
    e -> e*e + 0.5, with its value and x1-derivative at x1 = 0.3 taken by
    the same steps in floats (the derivative by the chain rule)."""
    e, v, dv = X1, 0.3, 1.0
    for k in range(levels):
        if k % 2 == 0:
            e, v, dv = sin(e), math.sin(v), math.cos(v) * dv
        else:
            e, v, dv = e * e + 0.5, v ** 2 + 0.5, 2 * v * dv
    return e, v, dv


@pytest.mark.parametrize("levels", [600, 1500, 10000])
def test_deep_trees_evaluate_differentiate_substitute_and_compile(levels):
    e, v, dv = _chain(levels)
    point = {"x1": 0.3}
    # printing walks the DAG too: str and repr of a deep node do not raise
    text = "x1"
    for k in range(levels):
        text = f"sin({text})" if k % 2 == 0 else f"{text}^2 + 0.5"
    assert to_string(e) == str(e) == text
    assert repr(e) == f"Expr({text[:117] + '...'!r})"
    # the same float operations: a two-term fsum is the correctly rounded sum
    assert evaluate(e, point) == v
    assert compile_block([e, sin(e)]).run([point, point]).tolist() == [[v, math.sin(v)]] * 2
    assert substitute(e, {"x1": Const(0.3)}) is Const(v)
    assert evaluate(substitute(e, {"x1": T1}), {"t1": 0.3}) == v
    # the derivative's constant coefficient is 2 ** (levels // 2)
    if levels // 2 < 1024:
        # each pair of levels scales it by about 0.16, so at 1,500 levels
        # both values underflow to 0
        got = evaluate(differentiate(e, "x1"), point)
        assert abs(got - dv) <= 1e-12 * abs(dv)
    else:
        with pytest.raises(DomainError, match="constant folding overflows to inf"):
            differentiate(e, "x1")


def test_parsing_twice_gives_the_same_node():
    source = "2*x1^3 - sin(t1)*p1_2/(1 + x1^2)"
    names = ["t1", "x1", "p1_2"]
    assert parse(source, names) is parse(source, names)


def test_signed_zero_constants_are_two_nodes():
    assert Const(0.0) is not Const(-0.0)
    assert Const(0) is Const(0.0)


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        X1.name = "x2"
    with pytest.raises(AttributeError):
        del X1.name
    assert X1.name == "x1"


def test_copies_and_pickles_are_the_same_node():
    # every kind of node, the constants -0.0 (equal to 0.0 as a float) and
    # NaN (unequal to itself) among them, and one parsed expression
    nodes = [Const(-0.0), Const(math.nan), Const(2.5), X1, add(X1, T1), mul(X1, T1),
             power(X1, 3), neg(X1), div(X1, T1), sin(X1),
             parse("exp(x1)*sin(t1)/(1 + x1^2) - t1", ["x1", "t1"])]
    assert {type(e) for e in nodes} == {Const, Var, Sum, Product, Power, Neg, Quotient, Call}
    for e in nodes:
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(nodes)), nodes))


def test_intern_table_frees_dropped_expressions():
    gc.collect()
    before = len(symbolic._NODES)
    e = parse("sin(x9)*x9^2 + ln(x9 + 3)/x9 - 2.75*x9", ["x9"])
    assert len(symbolic._NODES) > before
    del e
    gc.collect()
    assert len(symbolic._NODES) == before


def test_a_dead_nodes_entry_leaves_the_intern_table_by_reference_counting():
    y = var("y6")
    gc.disable()
    try:
        e = mul(y, sin(y))
        key = (Product, e.factors)
        entry = symbolic._NODES[key]
        assert entry() is e
        del e
        assert entry() is None and key not in symbolic._NODES
        again = mul(y, sin(y))
        assert symbolic._NODES[key]() is again
        # a late callback of the dead node's entry leaves the newer node's
        symbolic._forget(entry)
        assert symbolic._NODES[key]() is again and mul(y, sin(y)) is again
    finally:
        gc.enable()


def test_operator_sugar_matches_constructors():
    assert X1 + 1 == add(X1, Const(1))
    assert 2 * X1 == mul(Const(2), X1)
    assert X1 - T1 == add(X1, neg(T1))
    assert X1 / T1 is div(X1, T1)
    assert X1 ** 3 is power(X1, 3)
    assert -X1 is neg(X1)
    # a number on the left
    assert 1 + X1 is add(Const(1.0), X1)
    assert 1 / X1 is div(Const(1.0), X1)


def test_a_value_or_function_that_is_no_expression_is_refused():
    with pytest.raises(TypeError) as err:
        as_expr("x1")
    assert str(err.value) == "cannot interpret 'x1' as an expression"
    with pytest.raises(UnknownIdentifier) as err:
        call("tan", X1)
    assert str(err.value) == "unknown identifier 'tan'" and err.value.position is None


# ---------------------------------------------------------------------------
# parsing

def test_parse_polynomial_with_functions():
    got = parse("2*x1^3 - sin(t1)*p1_2", ["t1", "x1", "p1_2"])
    want = add(mul(Const(2), power(X1, 3)), neg(mul(sin(T1), P12)))
    assert got == want


def test_parse_constant_quotient_folds_away():
    assert parse("(1/1)*x1", ["x1"]) == X1


def test_parse_power_splits_off_exponent():
    got = parse("t1^2 + 1", ["t1"])
    assert _parts(got) == (Sum, (power(T1, 2), Const(1.0)))
    # a negative exponent is a signed integer too
    assert parse("x1^-2", ["x1"]) is power(X1, -2)
    assert evaluate(parse("x1^-2", ["x1"]), {"x1": 2.0}) == 0.25


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


def test_a_caret_is_no_part_of_a_name():
    with pytest.raises(ValueError) as err:
        Var("p_1^1")
    assert str(err.value) == "invalid variable name 'p_1^1'"
    # declaring a caret name does not make it one: the caret starts an exponent
    with pytest.raises(UnknownIdentifier) as err:
        parse("p_1^1", ["p_1^1"])
    assert err.value.name == "p_1" and err.value.position == 0


def test_parse_function_requires_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse("sin t1", ["t1"])
    for source in ("(x1+1", "sin(x1", "(x1 + sin(x1)"):
        with pytest.raises(ExprSyntaxError, match="expected '\\)'"):
            parse(source, ["x1"])


def test_parse_rejects_fractional_exponents():
    for source in ("x1^2.5", "x1^", "x1^-", "x1^x1"):
        with pytest.raises(ExprSyntaxError, match="integer exponent expected after '\\^'"):
            parse(source, ["x1"])


def test_parse_rejects_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse("x1 x1", ["x1"])


def test_parse_scientific_notation_and_unary_minus():
    assert parse("-1e-2", []) == Const(-0.01)
    assert parse("--x1", ["x1"]) == X1


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("sin(", ")"), ("-", "")])
def test_parse_bounds_the_nesting_depth(opening, closing):
    def nested(depth):
        return opening * depth + "x1" + closing * depth

    assert variables(parse(nested(MAX_NESTING), ["x1"])) == {"x1"}
    # depth is nesting, not a count: siblings at the limit parse too
    assert variables(parse(nested(MAX_NESTING) + " + " + nested(MAX_NESTING), ["x1"])) == {"x1"}
    with pytest.raises(ExprSyntaxError, match="nests deeper than") as err:
        parse(nested(MAX_NESTING + 1), ["x1"])
    # the offset of the character that opens the level too many
    assert err.value.position == (MAX_NESTING + 1) * len(opening) - 1


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


_coefficient = st.sampled_from([Const(-2.0), Const(0.5), Const(3.0)])


def _poly(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: add(*ab)),
        st.tuples(children, children).map(lambda ab: mul(*ab)),
        # a coefficient and a repeated factor (c*a*b*a), so derivatives
        # spliced into the factors meet equal bases at their seams
        st.tuples(_coefficient, children, children).map(
            lambda cab: mul(cab[0], cab[1], cab[2], cab[1])),
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


def test_jacobian_appends_an_axis_of_names_whose_entries_are_the_derivatives():
    names = ("x1", "t1", "p1_1")
    e = parse("x1^2*t1 + sin(p1_1)", names)
    for block, shape in ((e, ()), ([e, X1, P11], (3,)),
                         ([[e, X1], [P11, mul(X1, T1)]], (2, 2))):
        table = jacobian(block, names)
        assert table.shape == (*shape, len(names))
        entries = np.asarray(block, dtype=object)
        for index in np.ndindex(*shape):
            for k, name in enumerate(names):
                assert table[(*index, k)] is differentiate(entries[index], name)
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = ZERO


def test_jacobian_derives_a_repeated_entry_once_per_name(monkeypatch):
    e = parse("x1*t1 + x1^3", ["x1", "t1"])
    calls = []
    real = symbolic.differentiate

    def counted(node, name):
        calls.append((node, name))
        return real(node, name)

    monkeypatch.setattr(symbolic, "differentiate", counted)
    table = jacobian([[e, X1], [X1, e]], ["x1", "t1"])
    assert calls == [(e, "x1"), (e, "t1"), (X1, "x1"), (X1, "t1")]
    assert all(table[1, 1, k] is table[0, 0, k] and table[1, 0, k] is table[0, 1, k]
               for k in range(2))


_SPECIAL = [Const(-0.0), Const(math.nan), Const(math.inf), Const(-math.inf), Const(1e200),
            Const(-1e300), Const(0.0), Const(1.0), Const(-1.5)]
# repeated bases, powers of them and products that hold them
_FACTORS = _SPECIAL + [
    X1, X1, T1, sin(X1), power(X1, 2), power(X1, 3), power(sin(X1), 2), power(T1, 2),
    mul(Const(2.0), X1, T1), mul(T1, power(X1, 2)), mul(X1, sin(X1)), mul(Const(1e200), X1),
    add(X1, T1),
]
_TERMS = _SPECIAL + [
    X1, T1, neg(X1), mul(Const(2.0), X1), add(X1, Const(3.0)), add(T1, X1, Const(1e308)),
    add(X1, Const(2.0), T1),
]


def _built_or_error(build, operands):
    try:
        return build(*operands), None
    except DomainError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FACTORS), max_size=7),
       st.lists(st.sampled_from(_TERMS), max_size=7))
@example([Const(1e200), Const(1e200), X1], [Const(1e308), Const(1e308)])
@example([mul(Const(1e200), X1), Const(1e200)], [add(T1, X1, Const(1e308)), Const(1e308)])
@example([power(X1, 2), mul(X1, T1), power(T1, 2), X1], [Const(math.inf), Const(-math.inf)])
def test_one_pass_sums_and_products_are_the_two_pass_nodes(factors, terms):
    for build, oracle, operands in ((mul, mul_two_pass, factors), (add, add_two_pass, terms)):
        node, error = _built_or_error(build, operands)
        want, want_error = _built_or_error(oracle, operands)
        assert node is want and error == want_error


# ---------------------------------------------------------------------------
# the derivative store of a keeping block, and the memo of one call

_RICH = "exp(x7*t1)*ln(x7^2 + 1) + sqrt(x7^2 + t1^2 + 1)/sin(x7 + 2) - cos(exp(x7))*x7^3"


def _counted_walks(monkeypatch) -> list:
    """Patch ``_post_order`` to append one entry per node it yields."""
    steps, walk = [], symbolic._post_order

    def counted(*args):
        for step in walk(*args):
            steps.append(None)
            yield step

    monkeypatch.setattr(symbolic, "_post_order", counted)
    return steps


def _counted_interning(monkeypatch) -> list:
    """Patch ``symbolic._intern``, the one function every node is built
    through, to append the class of each node it is asked for."""
    built, intern = [], symbolic._intern
    monkeypatch.setattr(symbolic, "_intern",
                        lambda cls, *a: built.append(cls) or intern(cls, *a))
    return built


def test_the_interning_count_sees_every_kind_of_node(monkeypatch):
    # a positive control, so that ``built == []`` elsewhere cannot pass
    # because the patch went blind to some constructor
    y = var("y8")
    built = _counted_interning(monkeypatch)
    fresh = [add(y, X1), mul(y, X1), Const(0.8125), var("y8"), power(y, 3), neg(y),
             div(X1, y), sin(y)]
    assert built == [Sum, Product, Const, Var, Power, Neg, Quotient, Call]
    assert [type(e) for e in fresh] == built


class _CountingStore(dict):
    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def test_derivation_work_does_not_depend_on_what_a_caller_holds(monkeypatch):
    e = parse(_RICH, ["x7", "t1"])
    steps = _counted_walks(monkeypatch)

    differentiate(e, "x7")
    once = len(steps)
    # outside a block a call has only its own memo: whether the first
    # result is held or dropped, the second call takes the same walk
    held = differentiate(e, "x7")
    del steps[:]
    assert differentiate(e, "x7") is held and len(steps) == once
    del held
    differentiate(e, "x7")
    del steps[:]
    differentiate(e, "x7")
    assert len(steps) == once > 0
    # inside a block the second call walks nothing and interns no node
    with keeping({}):
        first = differentiate(e, "x7")
        del steps[:]
        built = _counted_interning(monkeypatch)
        assert differentiate(e, "x7") is first
    assert steps == [] and built == []


def test_a_held_derivative_is_reused_without_building_a_node(monkeypatch):
    e = parse(_RICH, ["x7", "t1"])
    store = {}
    with keeping(store):
        first = weakref.ref(differentiate(e, "x7"))  # held by the store alone
        gc.collect()
        size = len(symbolic._NODES)
        built = _counted_interning(monkeypatch)
        assert first() is not None and differentiate(e, "x7") is first()
    assert built == [] and len(symbolic._NODES) == size


def test_a_shared_subtree_is_derived_once_per_call(monkeypatch):
    # du is the constant 10.875, which each power rule folds into its own
    # coefficient, so no result holds it: only the call itself keeps it
    u = add(mul(Const(2.125), X1), mul(Const(3.25), X1), mul(Const(5.5), X1))
    e = add(power(u, 2), power(u, 3))
    compound = [n for n in subexpressions(e) if not isinstance(n, (Const, Var))]
    steps = _counted_walks(monkeypatch)
    differentiate(e, "x1")  # outside a block only the call's memo shares u
    assert len(steps) == len(compound) == 7
    store = _CountingStore()
    with keeping(store):
        differentiate(e, "x1")
    assert store.writes == len(store) == 7
    assert {node for node, _ in store} == set(compound)


def test_derivatives_leave_no_nodes_and_no_cycles_behind():
    gc.collect()
    before = len(symbolic._NODES)
    gc.disable()
    try:
        e = parse(_RICH, ["x7", "t1"])
        first = differentiate(e, "x7")
        assert differentiate(e, "x7") is first  # derived again, the same node
        second = differentiate(differentiate(e, "t1"), "x7")
        assert len(symbolic._NODES) > before
        del e, first, second
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(symbolic._NODES) == before


def test_a_derivative_no_caller_holds_is_freed():
    e = parse(_RICH, ["x7", "t1"])
    ref = weakref.ref(differentiate(e, "x7"))
    assert ref() is None  # freed by reference counting, no collection needed
    again = differentiate(e, "x7")
    assert again is not None and variables(again) == frozenset({"x7", "t1"})


def test_a_keeping_block_holds_what_differentiate_builds_for_as_long_as_its_store():
    e = parse(_RICH, ["x7", "t1"])
    outer, inner = {}, {}
    with keeping(outer):
        ref = weakref.ref(differentiate(e, "x7"))
        assert ref() is not None and outer[e, "x7"] is ref()
        with keeping(inner):
            second = weakref.ref(differentiate(e, "t1"))
        assert second() is not None and inner[e, "t1"] is second()
        # the innermost store takes it
        assert {name for _, name in outer} == {"x7"} and {name for _, name in inner} == {"t1"}
        assert all(d not in outer.values() for d in inner.values())
        assert differentiate(e, "x7") is ref()  # a cache hit builds nothing
    with pytest.raises(ZeroDivisionError):
        with keeping({}):
            1 / 0
    assert symbolic._KEEPERS == []  # an error inside a block closes it
    del outer
    assert ref() is None  # freed with its store, by reference counting
    del inner
    assert second() is None


def test_a_dropped_hamilton_space_frees_the_derivatives_it_kept():
    """The derivatives a space keeps are held by its store alone: dropping
    the space frees every one that did not exist before, by reference
    counting, and leaves no cycle for the collector."""
    from polyjet.hamilton import (
        HamiltonSpace,
        canonical_connection_closed_form,
        canonical_connection_middle_form,
        canonical_nonlinear_connection,
    )
    from polyjet.metrics import Metric

    gc.collect()
    held = [ref() for ref in list(symbolic._NODES.values())]  # so no id here is reused
    existing = set(map(id, held))
    before = len(held)
    gc.disable()
    try:
        names = ("t1", "t2", "x1", "x2", "p1_1", "p1_2", "p2_1", "p2_2")
        h = Metric.temporal([[Const(1.0), Const(0.0)],
                             [Const(0.0), parse("t1^2 + 1", ["t1"])]])
        H = parse("exp(-2*x1)*(p1_1^2 + (t1^2 + 1)*p1_2^2) + (p2_1^2 + (t1^2 + 1)*p2_2^2)"
                  " + x2*p1_1 + sin(x1)*p2_2 + x1*x2", names)
        space = HamiltonSpace(h, 2, H)
        forms = [build(space) for build in (canonical_nonlinear_connection,
                                            canonical_connection_middle_form,
                                            canonical_connection_closed_form)]
        refs = [weakref.ref(d) for d in space._kept.values() if id(d) not in existing]
        assert refs and all(r() is not None for r in refs)
        del space, forms, h, H
        assert [r for r in refs if r() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(symbolic._NODES) == before


def test_variables_of_a_deep_shared_dag_is_a_read():
    e = X1
    for k in range(1000):
        e = add(mul(e, var(f"x{k % 3 + 1}")), sin(e))
    # every level doubles the tree (2^1000 tree nodes), while the DAG that
    # a walk would visit has a few nodes per level
    assert len(subexpressions(e)) < 5000
    seconds = min(timeit.repeat(lambda: variables(e), number=1, repeat=5))
    assert seconds < 1e-4  # walking those nodes takes about a millisecond
    assert variables(e) == variables_walk(e) == frozenset({"x1", "x2", "x3"})


# ---------------------------------------------------------------------------
# free-variable sets recorded at intern time

def test_every_node_class_records_its_variables():
    u = add(X1, T1)
    nodes = [Const(2.5), X1, u, mul(X1, P11), power(u, 3), neg(u),
             div(P11, u), sin(u), mul(Const(2), neg(X1))]
    assert {type(n) for n in nodes} == {Const, Var, Sum, Product, Power, Neg,
                                        Quotient, Call}
    for node in nodes:
        assert variables(node) == variables_walk(node)
    # equal sets are one object
    assert variables(u) is variables(mul(T1, X1)) is variables(sin(u))
    assert variables(Const(2.5)) is variables(Const(-1.0))


@settings(max_examples=80, deadline=None)
@given(_safe_expr, st.sampled_from(["t1", "x1", "p1_1"]), _poly_expr)
def test_recorded_variables_match_the_walk(e, name, replacement):
    for root in (e, differentiate(e, name), substitute(e, {name: replacement})):
        for node in subexpressions(root):
            assert variables(node) == variables_walk(node)


def test_substitute_and_differentiate_record_variables_of_new_nodes():
    y9 = var("y9")
    assert variables(substitute(sin(X1) * T1, {"x1": y9})) == frozenset({"y9", "t1"})
    assert variables(substitute(sin(X1), {"x1": Const(2.0)})) == frozenset()
    d = differentiate(sin(X1 * y9) * T1, "x1")  # builds cos(x1*y9)
    assert variables(d) == frozenset({"x1", "y9", "t1"})
    assert variables(differentiate(exp(T1), "x1")) == frozenset()


# ---------------------------------------------------------------------------
# walks pruned by the recorded variable sets

@settings(max_examples=120, deadline=None)
@given(_safe_expr, st.sampled_from(["t1", "x1", "p1_1", "y9"]), _poly_expr)
# both walks give Const(-0.0) here, the rules' own zero: -(1 - 1)
@example(neg(add(X1, neg(X1))), "x1", T1)
def test_pruned_walks_return_the_nodes_of_the_full_walks(e, name, replacement):
    got, want = differentiate(e, name), differentiate_walk(e, name)
    # the one difference: the rules can sign the zero of a root without name
    if want is Const(-0.0) and name not in variables(e):
        assert got is ZERO
    else:
        assert got is want
    assert substitute(e, {name: replacement}) is substitute_walk(e, {name: replacement})


# ---------------------------------------------------------------------------
# the product rule builds each factor's term with mul

_NAUGHT = add(X1, neg(X1))  # x1 - x1: its derivative is add(1, -1), ZERO
_SEAMS = [
    # x1 and x1 meet where t1 was: x1^2
    (mul(X1, T1, X1), "t1"),
    # x1^2 and x1 meet: x1^3
    (mul(power(X1, 2), T1, X1), "t1"),
    (mul(X1, T1, power(X1, 2)), "t1"),
    # df = 2*cos(x1^2)*x1 is a product with its own coefficient, and its
    # last factor meets the x1 after it
    (mul(sin(X1 ** 2), X1), "x1"),
    (mul(Const(-3.0), T1, sin(X1 ** 2), X1), "x1"),
    # df = x1 meets both neighbours: x1*x1*x1^2 is x1^4
    (mul(X1, add(mul(T1, X1), P11), power(X1, 2)), "t1"),
    # df = -(x1 - x1)' = Const(-0.0) annihilates its term
    (mul(T1, neg(_NAUGHT)), "x1"),
    (mul(Const(2.0), T1, neg(_NAUGHT), X1), "x1"),
]


@pytest.mark.parametrize("e, name", _SEAMS)
def test_the_spliced_product_rule_gives_the_node_of_mul(e, name):
    assert isinstance(e, Product)
    assert differentiate(e, name) is differentiate_walk(e, name)


def test_a_signed_zero_derivative_gives_zero_terms():
    assert differentiate(neg(_NAUGHT), "x1") is Const(-0.0)
    assert differentiate(mul(T1, neg(_NAUGHT)), "x1") is ZERO
    # only the x1 factor's term is left
    assert (differentiate(mul(Const(2.0), T1, neg(_NAUGHT), X1), "x1")
            is mul(Const(2.0), T1, neg(_NAUGHT)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_coefficient_overflow_in_the_product_rule_raises_as_mul_does(sign):
    # 1e300 times the 1e10 that d sin(1e10*x1) brings overflows
    e = mul(Const(sign * 1e300), T1, sin(mul(Const(1e10), X1)))
    with pytest.raises(DomainError) as want:
        differentiate_walk(e, "x1")
    with pytest.raises(DomainError) as got:
        differentiate(e, "x1")
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"constant folding overflows to {sign * math.inf!r}"


def test_a_root_without_the_variable_differentiates_to_zero():
    for e in (neg(X1), cos(X1), neg(sin(X1) * T1)):
        assert differentiate_walk(e, "y9") is Const(-0.0)
        assert differentiate(e, "y9") is ZERO


def test_differentiating_by_an_absent_name_touches_no_cache():
    x8 = var("x8")
    e = sin(x8) * exp(x8 + T1)
    store = {}
    with keeping(store):
        assert differentiate(e, "p1_1") is ZERO
        assert store == {}
        differentiate(e, "x8")  # a name it has does fill the store
    nodes = [n for n in subexpressions(e) if not isinstance(n, (Const, Var))]
    assert {node for node, _ in store} == set(nodes)


def test_substituting_an_absent_name_returns_the_expression_itself(monkeypatch):
    e = parse(_RICH, ["x7", "t1"])
    mapping = {"p1_1": X1, "y9": Const(2.0)}
    built = _counted_interning(monkeypatch)
    assert substitute(e, mapping) is e
    assert built == []


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


def test_every_walk_takes_a_quotients_denominator_first():
    # with a fault on both sides, the denominator's is raised, as evaluation
    # tests the denominator before it computes the numerator
    e = div(ln(X1), ln(T1))
    with pytest.raises(DomainError, match=r"ln of non-positive value -2\.0$"):
        evaluate(e, {"x1": -1.0, "t1": -2.0})
    with pytest.raises(DomainError, match=r"ln of non-positive value -2\.0$"):
        substitute(e, {"x1": Const(-1.0), "t1": Const(-2.0)})
    # both derivatives fold an overflowing coefficient, of opposite signs
    q = div(mul(Const(-1e308), X1 ** 2), add(mul(Const(1e308), X1 ** 2), Const(1.0)))
    with pytest.raises(DomainError, match="constant folding overflows to inf$"):
        differentiate(q, "x1")


def test_variables_listing():
    e = parse("2*x1^3 - sin(t1)*p1_2", ["t1", "x1", "p1_2"])
    assert variables(e) == frozenset({"x1", "t1", "p1_2"})


# ---------------------------------------------------------------------------
# printing round trips

@settings(max_examples=120, deadline=None)
@given(_safe_expr)
@example(Const(-0.0))
@example(Const(math.nan))
@example(mul(Const(-math.inf), X1))
def test_print_parse_round_trip_is_identity(e):
    # the stated exceptions: NaN and infinite constants print as nan and
    # inf, which parse refuses, and the constant -0.0 prints as 0, so it
    # reads back as the node 0.0
    if not all(math.isfinite(n.value) for n in subexpressions(e) if type(n) is Const):
        with pytest.raises(UnknownIdentifier):
            parse(to_string(e), variables(e))
        return
    got = parse(to_string(e), variables(e))
    assert got is e or (isinstance(got, Const) and isinstance(e, Const)
                        and got.value == e.value == 0.0)


def test_print_parse_fixed_point_on_sources():
    sources = [
        "2*x1^3 - sin(t1)*p1_2",
        "1 + t1^2",
        "-(x1 + t1)^2/(1 + x1^2)",
        "exp(x1)*ln(1 + t1^2) - sqrt(1 + p1_1^2)",
        "x1/t1/p1_1",
        "x1/(t1/p1_1)",
        "x1^-2 + t1",
        "(x1 + 1)*(t1 - 2)",
        # a negated power, product or quotient that leads a sum
        "-(x1^2) + t1",
        "-(x1*t1) + p1_1",
        "-(t1/(t1^2 + 1)) + t1",
    ]
    vs = ["t1", "x1", "p1_1", "p1_2"]
    for src in sources:
        once = to_string(parse(src, vs))
        twice = to_string(parse(once, vs))
        assert once == twice
        assert parse(once, vs) == parse(src, vs)


_NAN, _INF = float("nan"), float("inf")
# Each case's id is fixed, so adding or removing a case renames no other;
# the ids are the text each case printed when the ids were fixed.
_PRINTED = [
    # a negated sum, product or power, or a negative constant, as a later term
    pytest.param(add(X1, neg(add(T1, P11))), id="x1 - (t1 + p1_1)"),
    pytest.param(add(X1, neg(mul(T1, P11))), id="x1 - t1*p1_1"),
    pytest.param(add(X1, neg(power(T1, 2))), id="x1 - t1^2"),
    pytest.param(add(X1, Const(-2.0)), id="x1 - 2"),
    pytest.param(add(neg(X1), T1), id="-x1 + t1"),
    # a quotient as the first and as a later factor
    pytest.param(mul(div(X1, T1), P11), id="(x1/t1)*p1_1"),
    pytest.param(mul(P11, div(X1, T1)), id="p1_1*(x1/t1)"),
    pytest.param(mul(Const(3.0), div(X1, T1), div(T1, add(X1, P11))),
                 id="3*(x1/t1)*(t1/(x1 + p1_1))"),
    # a product or a quotient as a denominator, a sum as a numerator
    pytest.param(div(X1, mul(T1, P11)), id="x1/(t1*p1_1)"),
    pytest.param(div(X1, div(T1, P11)), id="x1/(t1/p1_1)"),
    pytest.param(div(add(X1, T1), add(T1, P11)), id="(x1 + t1)/(t1 + p1_1)"),
    # negations
    pytest.param(neg(sin(X1)), id="-sin(x1)"),
    pytest.param(neg(power(X1, 2)), id="-(x1^2)"),
    pytest.param(neg(div(X1, T1)), id="-(x1/t1)"),
    # powers of a call, a sum and a negation
    pytest.param(power(sin(X1), 2), id="sin(x1)^2"),
    pytest.param(power(add(X1, T1), 3), id="(x1 + t1)^3"),
    pytest.param(power(neg(X1), 2), id="(-x1)^2"),
    # non-finite constants
    pytest.param(Const(_NAN), id="nan"),
    pytest.param(Const(_INF), id="inf"),
    pytest.param(Const(-_INF), id="-inf"),
    pytest.param(add(X1, Const(-_INF)), id="x1 - inf"),
    pytest.param(mul(Const(_INF), X1), id="inf*x1"),
]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_poly_expr, _safe_expr))
def test_the_printer_matches_the_recursive_printer(e):
    assert to_string(e) == to_string_walk(e)


@pytest.mark.parametrize("e", _PRINTED)
def test_the_printer_matches_the_recursive_printer_on_hand_picked_cases(e):
    assert to_string(e) == to_string_walk(e)


def test_print_non_finite_constants():
    assert to_string(add(Const(float("nan")), X1)) == "x1 + nan"
    assert to_string(mul(Const(float("inf")), X1)) == "inf*x1"
    assert to_string(Const(float("-inf"))) == "-inf"


# ---------------------------------------------------------------------------
# expression arrays

def test_expr_array_is_a_checked_read_only_block():
    block = expr_array([[X1, 2], [0.5, T1]], (2, 2), ["x1", "t1"], "B")
    assert block.shape == (2, 2) and block.dtype == object
    assert block[0][1] == Const(2.0) and block[1, 0] == Const(0.5)
    with pytest.raises(ValueError):
        block[0, 0] = T1
    scalar = expr_array(X1, (), ["x1"], "H")
    assert scalar.shape == () and scalar.item() is X1


@pytest.mark.parametrize("components, shape, message", [
    ([[X1, X1]], (2, 2), r"B must have shape \(2, 2\), got \(1, 2\)"),
    ([[X1], [X1, X1]], (2, 2), r"B must have shape \(2, 2\)"),
    ([[X1, P11], [X1, X1]], (2, 2), r"B\[1,2\] uses foreign variables \['p1_1'\]"),
    (P11, (), r"B uses foreign variables \['p1_1'\]"),
    # blocks numpy cannot lay out side by side
    ([np.full((2, 2), X1), np.full((2, 3), X1)], (2, 2, 2), r"B must have shape \(2, 2, 2\)$"),
])
def test_expr_array_names_its_block_in_errors(components, shape, message):
    with pytest.raises(ConfigError, match=message):
        expr_array(components, shape, ["x1"], "B")


# ---------------------------------------------------------------------------
# numeric equivalence and sampling

def test_equiv_detects_equal_polynomials():
    assert equiv((X1 + 1) ** 2, X1 ** 2 + 2 * X1 + 1)
    assert not equiv((X1 + 1) ** 2, X1 ** 2 - 2 * X1 + 1)


def test_equiv_uses_relative_scale():
    big = mul(Const(1e12), X1)
    assert equiv(big, mul(Const(1e12), X1) + Const(1.0), tol=1e-9)
    assert not equiv(X1, X1 + Const(1e-6), tol=1e-9)


@pytest.mark.parametrize("e1, e2", [
    (Const(math.nan), Const(0.0)),
    (Const(math.nan), Const(1.0)),
    (mul(X1, Const(math.nan)), Const(2.0)),
])
def test_a_nan_is_never_equivalent(e1, e2):
    assert not equiv(e1, e2)
    assert not equiv(e2, e1)
    assert not is_zero(add(e1, neg(e2)))


@pytest.mark.parametrize("e1, e2", [
    (Const(math.inf), Const(1.0)),
    (Const(-math.inf), Const(0.0)),
    (mul(X1, Const(math.inf)), Const(2.0)),
])
def test_an_infinity_is_never_equivalent(e1, e2):
    # the relative scale max(1, |e1|, |e2|) would be infinite
    assert not equiv(e1, e2)
    assert not equiv(e2, e1)
    assert not equiv(e1, e1)
    assert not is_zero(add(e1, neg(e2)))


_SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, -1.0,
                   1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


@st.composite
def _value_pairs(draw):
    """A tolerance and pairs of values: special values, any floats, and
    pairs whose scaled difference lies within a few parts in 10^12 of
    the tolerance."""
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1]))
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats())
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        v1 = draw(value)
        if draw(st.booleans()) and math.isfinite(v1):
            step = tol * max(1.0, abs(v1)) * draw(st.floats(1 - 1e-12, 1 + 1e-12))
            v2 = v1 + draw(st.sampled_from([-1.0, 1.0])) * step
        else:
            v2 = draw(value)
        pairs.append((v1, v2))
    return tol, pairs


@settings(max_examples=300, deadline=None)
@given(_value_pairs())
@example((1e-9, [(math.nan, math.nan), (math.inf, math.inf), (-math.inf, 1.0),
                 (-0.0, 0.0), (1e300, -1e300), (1.7976931348623157e308, -1e308),
                 (1.0, 1.0 + 1e-9), (1e300, 1e300 * (1 + 1e-9))]))
def test_deviation_decides_as_the_scalar_rule(case):
    """Each pair's column of ``deviation`` is within ``tol`` at every point
    exactly when ``oracles.close`` accepts the pair.  The two round apart:
    close compares |a - b| with tol * scale, deviation |a - b| / scale with
    tol, so they may disagree only where that quotient is within one ulp
    of tol."""
    tol, pairs = case
    points, residual = deviation([Const(a) for a, _ in pairs], [Const(b) for _, b in pairs],
                                 SampleDomain((), count=2))
    assert residual.shape == (len(points), len(pairs)) == (2, len(pairs))
    for (a, b), column in zip(pairs, residual.T):
        held = bool((column <= tol).all())
        if held != close(a, b, tol):
            assert abs(column[0] - tol) <= math.ulp(tol), (a, b, column[0])


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


@pytest.mark.parametrize("constant", ["TEMPORAL_RANGE", "SPATIAL_RANGE", "MOMENTUM_RANGE"])
def test_each_kind_of_name_reads_its_own_default_range(monkeypatch, constant):
    monkeypatch.setattr(symbolic, constant, (-0.25, 0.5))
    intervals = SampleDomain.default(["t1", "x2", "p3_1", "y1"]).intervals
    want = {"t1": symbolic.TEMPORAL_RANGE, "x2": symbolic.SPATIAL_RANGE,
            "p3_1": symbolic.MOMENTUM_RANGE, "y1": symbolic.TEMPORAL_RANGE}
    assert intervals == tuple((name, *want[name]) for name in ("t1", "x2", "p3_1", "y1"))


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
