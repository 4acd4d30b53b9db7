"""The compiled block evaluator against the recursive scalar reference.

``compile_block`` value-numbers a block of expressions into one program,
walking it with an explicit stack; ``Program.run`` must give the very bits
that ``oracles.evaluate_walk`` gives and raise the very error it raises,
for the lowest failing sample.  The library's ``evaluate`` is a one-point
run of a compiled program, so it is checked here through the program.
A program's memo of its last batch must give, on every repeat, the bits
and the errors of a fresh program.
"""

from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polyjet.charts
import polyjet.symbolic
from polyjet.charts import pullback_scalar
from polyjet.cli import load_manifest
from polyjet.connections import (
    canonical_metric_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.dtensors import builtin_dtensors
from polyjet.errors import DomainError, NotRegular, UnboundVariable
from polyjet.hamilton import HamiltonSpace, canonical_nonlinear_connection
from polyjet.metrics import pullback_metric
from polyjet.semisprays import canonical_spatial, canonical_temporal
from polyjet.symbolic import (
    Const,
    ONE,
    Product,
    Program,
    Sum,
    ZERO,
    add,
    compile_block,
    cos,
    differentiate,
    div,
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
    var,
)

from oracles import evaluate_walk, subexpressions

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
X1, T1, P11 = var("x1"), var("t1"), var("p1_1")


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def reference(exprs, points):
    """Per point, per expression: the reference value, or the error the
    reference raises first when the points are visited in order."""
    rows = []
    for pt in points:
        row = []
        for e in exprs:
            try:
                row.append(evaluate_walk(e, pt))
            except Exception as exc:  # any error, to compare with the program's
                return rows, exc
        rows.append(row)
    return rows, None


def assert_matches_evaluate(exprs, points, later=None):
    """A fresh program run on ``points``, then on ``later`` followed by
    ``points`` (``points`` twice over by default), gives the reference's
    bits or raises its error both times.  The second batch is longer than
    the first, so it is a pass of its own: the first pass walks the ops
    and the second runs the level plan."""
    program = compile_block(exprs)
    for batch in (points, [*(points if later is None else later), *points]):
        rows, error = reference(exprs, batch)
        if error is not None:
            with pytest.raises(type(error)) as got:
                program.run(batch)
            assert str(got.value) == str(error)
            continue
        got = program.run(batch)
        assert got.shape == (len(batch), len(exprs))
        assert np.array_equal(bits(got), bits(np.reshape(rows, got.shape)))
    assert program._plan, "the second batch ran no pass"


# ---------------------------------------------------------------------------
# every block of the shipped manifests, both charts

def flat(block) -> list:
    if isinstance(block, (tuple, list)):
        return [e for item in block for e in flat(item)]
    if isinstance(block, np.ndarray):
        return list(block.ravel())
    return [block]


def _manifest_blocks(name: str) -> list:
    """(label, expression block, batched values, points) for every block
    the commands evaluate, in the source chart and, with a transition, the
    target chart."""
    man = load_manifest(str(MANIFESTS / name))
    dom = man.domain(man.sample_seed)
    points = dom.points()
    h, phi, H, tm = (man.temporal_metric, man.spatial_metric, man.hamiltonian,
                     man.transition)
    blocks = []
    sides = [("A", h, phi, H, points)]
    if tm is not None:
        frames = tm.map_points(points)
        images = frames.images
        inv = tm.inverted()
        blocks += [
            ("Jt", tm.t_jacobian, frames.jt, points),
            ("Jx", tm.x_jacobian, frames.jx, points),
            ("dp/dt", tm.momentum_forward_dt, tm.momentum_derivatives(points)[0], points),
            ("dp/dx", tm.momentum_forward_dx, tm.momentum_derivatives(points)[1], points),
            ("inverse dp/dt", inv.momentum_forward_dt, inv.momentum_derivatives(images)[0],
             images),
            ("inverse dp/dx", inv.momentum_forward_dx, inv.momentum_derivatives(images)[1],
             images),
        ]
        sides.append(("B", pullback_metric(h, tm), pullback_metric(phi, tm),
                      pullback_scalar(H, tm), images))
    for side, h_s, phi_s, H_s, pts in sides:
        for key, T in builtin_dtensors(h_s, man.n).items():
            blocks.append((f"{side} {key}", T.components, T.at_points(pts), pts))
        for S in (canonical_temporal(h_s, man.n), canonical_spatial(phi_s, man.m)):
            blocks.append((f"{side} {type(S).__name__}", S.components,
                           S.at_points(pts), pts))
        try:
            N = canonical_nonlinear_connection(HamiltonSpace(h_s, man.n, H_s, dom=dom))
        except NotRegular:
            N = canonical_metric_connection(h_s, phi_s)
        n1, n2 = N.at_points(pts)
        blocks += [(f"{side} N1", N.n1, n1, pts), (f"{side} N2", N.n2, n2, pts),
                   (f"{side} h", h_s.components, h_s.at_points(pts), pts)]
    return blocks


@pytest.mark.parametrize("name", ["flat.json", "curved.json", "nonregular.json"])
def test_manifest_blocks_are_bit_identical_to_evaluate(name):
    for label, block, values, points in _manifest_blocks(name):
        entries = flat(block)
        for pt, got in zip(points, values, strict=True):
            want = [evaluate_walk(e, pt) for e in entries]
            assert np.array_equal(bits(np.ravel(got)), bits(want)), label


# ---------------------------------------------------------------------------
# hypothesis: arbitrary expressions, including ones that leave the domain

def _try(build, fallback):
    """Build a node; constant folding may itself leave the domain."""
    try:
        return build()
    except DomainError:
        return fallback


_leaf = st.one_of(
    st.sampled_from([X1, T1, P11]),
    st.integers(-3, 3).map(lambda k: Const(float(k))),
    st.sampled_from([Const(0.5), Const(1e150), Const(-2.5)]),
)


def _node(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).map(
            lambda ts: _try(lambda: add(*ts), ts[0])),
        st.lists(children, min_size=2, max_size=4).map(
            lambda fs: _try(lambda: mul(*fs), fs[0])),
        st.tuples(children, st.integers(2, 5)).map(
            lambda bk: _try(lambda: power(*bk), bk[0])),
        children.map(neg),
        st.tuples(children, children).map(lambda ab: _try(lambda: div(*ab), ab[0])),
        st.tuples(st.sampled_from([exp, ln, sin, cos, sqrt]), children).map(
            lambda fu: _try(lambda: fu[0](fu[1]), fu[1])),
    )


_any_expr = st.recursive(_leaf, _node, max_leaves=10)
_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 2.0, 3.0, 1e150, -1e150,
                          1e-200, 700.0])
_point = st.fixed_dictionaries({"x1": _value, "t1": _value, "p1_1": _value})


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_expr, min_size=1, max_size=4),
       st.lists(_point, min_size=1, max_size=5),
       st.lists(_point, min_size=1, max_size=5))
def test_random_blocks_match_evaluate_bits_and_errors(exprs, points, later):
    assert_matches_evaluate(exprs, points, later)


def _derivative(e, name):
    """d e / d name, or e itself when the derivative's constants overflow."""
    try:
        return differentiate(e, name)
    except DomainError as exc:
        assert "overflows" in str(exc)
        return e


@settings(max_examples=60, deadline=None)
@given(_any_expr, _point, _point)
def test_derivatives_share_the_block_with_their_source(e, point, later):
    block = [e, _derivative(e, "x1"), _derivative(e, "t1"), e]
    assert_matches_evaluate(block, [point], [later])


# ---------------------------------------------------------------------------
# value numbering

def test_equal_trees_built_apart_share_one_root_slot():
    source = "sin(x1)*x1^2 + ln(t1^2 + 1)/(x1^2 + 1) - 3*x1"
    a, b = parse(source, ["x1", "t1"]), parse(source, ["x1", "t1"])
    assert a is b
    program = compile_block([a, b])
    assert program.roots[0] == program.roots[1]
    assert len(program.ops) == len(subexpressions(a))


def test_op_count_is_the_structural_dag_size():
    man = load_manifest(str(MANIFESTS / "curved.json"))
    tm = man.transition
    H_b = pullback_scalar(man.hamiltonian, tm)
    entries = [differentiate(differentiate(H_b, "p1_1"), "x1"), H_b,
               substitute(H_b, {"t1": Const(0.5)})]
    nodes = set().union(*map(subexpressions, entries))
    assert len(compile_block(entries).ops) == len(nodes)


def test_plain_numbers_in_a_block_keep_their_own_values():
    assert compile_block([3.0, 5.0, 7.0]).run([{}]).tolist() == [[3.0, 5.0, 7.0]]


def test_signed_zero_constants_keep_their_own_slots():
    program = compile_block([Const(0.0), Const(-0.0)])
    assert len(program.ops) == 2
    got = program.run([{}])
    assert math.copysign(1.0, got[0, 1]) == -1.0


def test_program_holds_no_expressions():
    e = parse("exp(x1)*sin(t1) + x1^3", ["x1", "t1"])
    program = compile_block([e])
    for code, payload, kids in program.ops:
        assert isinstance(payload, (type(None), int, float, str))
        assert all(isinstance(k, int) for k in kids)


# ---------------------------------------------------------------------------
# faults

def test_domain_fault_names_the_first_bad_sample():
    e = add(ln(X1), div(Const(1.0), T1))
    points = [{"x1": 1.0, "t1": 1.0}, {"x1": 2.0, "t1": 3.0},
              {"x1": -0.25, "t1": 1.0}, {"x1": -0.5, "t1": 0.0}]
    with pytest.raises(DomainError, match=r"ln of non-positive value -0\.25$"):
        compile_block([e]).run(points)
    # the division fault at sample 1 comes before the ln fault at sample 2
    points[1]["t1"] = 0.0
    with pytest.raises(DomainError, match="division by zero during evaluation"):
        compile_block([e]).run(points)


def test_quotient_checks_its_denominator_before_its_numerator():
    e = div(ln(X1), T1)
    pt = {"x1": -1.0, "t1": 0.0}
    with pytest.raises(DomainError) as want:
        evaluate_walk(e, pt)
    assert "division by zero" in str(want.value)
    assert_matches_evaluate([e], [pt])


def test_an_earlier_denominator_is_tested_where_its_quotient_is_reached():
    # t1 has a slot before sqrt(x1) faults, but evaluation reaches the
    # quotient, and so tests t1 for zero, only after that fault
    block = [T1, sqrt(X1), div(ln(X1), T1)]
    pt = {"x1": -1.0, "t1": 0.0}
    with pytest.raises(DomainError, match="sqrt of negative value"):
        compile_block(block).run([pt])
    assert_matches_evaluate(block, [pt])


@pytest.mark.parametrize("source, point", [
    ("(10*x1)^400", {"x1": 0.9}),
    ("exp(x1^2)", {"x1": 30.0}),
    ("1e300*x1*exp(x1 + 700)", {"x1": 2.0}),
    ("1e300/x1", {"x1": 1e-300}),
    ("sin(1e308*x1*x1*x1)", {"x1": 2.0}),
    # overflows whose infinity a quotient or exp turns back into 0
    ("1/(1e300*x1*x1)", {"x1": 1e10}),
    ("exp(-1e300*x1*x1)", {"x1": 1e10}),
])
def test_overflow_is_a_domain_error_on_both_paths(source, point):
    e = parse(source, ["x1"])
    with pytest.raises(DomainError) as scalar:
        evaluate_walk(e, point)
    with pytest.raises(DomainError) as batched:
        compile_block([e]).run([{"x1": 0.1}, point])
    assert str(batched.value) == str(scalar.value)
    assert "overflow" in str(scalar.value)


def test_sin_and_cos_of_infinity_are_domain_errors_on_both_paths():
    for func in ("sin", "cos"):
        # a product of finite values that overflows raises first, so the
        # infinity comes from the input
        e = parse(f"{func}(2*p1_1)", ["p1_1"])
        point = {"p1_1": math.inf}
        with pytest.raises(DomainError) as scalar:
            evaluate_walk(e, point)
        with pytest.raises(DomainError) as batched:
            compile_block([e]).run([{"p1_1": 1.0}, point])
        assert str(batched.value) == str(scalar.value)
        assert f"{func} of infinite value" in str(scalar.value)


@pytest.mark.parametrize("point", [
    {"x1": math.inf, "t1": 2.0},
    {"x1": 1.0, "t1": -math.inf},
    {"x1": math.nan, "t1": 1e-300},
])
def test_infinities_and_nans_in_the_input_pass_through(point):
    # like constant folding, evaluation may pass on what it was given
    assert_matches_evaluate([mul(Const(2.0), X1, T1), div(X1, T1), div(T1, X1)],
                            [{"x1": 1.0, "t1": 1.0}, point])


# ---------------------------------------------------------------------------
# product columns: multiplied left to right, as the replay's math.prod

_FACTORS = [var(f"x{k}") for k in range(1, 9)]
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200,
                         -1e-160, 0.5, -3.0, 1e150, -1e200, 1e308, math.inf, -math.inf,
                         math.nan])


_EDGE_ROWS = st.lists(st.lists(_EDGE, min_size=8, max_size=8), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8), st.sampled_from([None, Const(-1.5), Const(1e300)]),
       _EDGE_ROWS, _EDGE_ROWS)
def test_product_columns_match_the_replay_on_edge_values(k, coefficient, rows, later):
    factors = _FACTORS[:k] if coefficient is None else [coefficient, *_FACTORS[:k]]
    block = [mul(*factors), mul(*_FACTORS[:k][::-1]), add(mul(*factors), X1)]
    points, later = ([{f"x{j + 1}": v for j, v in enumerate(row)} for row in batch]
                     for batch in (rows, later))
    assert_matches_evaluate(block, points, later)


@pytest.mark.parametrize("values, message", [
    ([1e200, -1e200, 1e200], "product overflows to -inf"),
    ([1e200, 1e200, 1e-300, 1e200, 1e200], "product overflows to inf"),
    ([-1e100] * 7, "product overflows to -inf"),
    ([1e-300, 1e300, 1e10, 1e300, 2.0, 0.5, 1e-10, 1.0], "product overflows to inf"),
])
def test_an_overflowing_product_column_raises_the_replays_error(values, message):
    e = mul(*_FACTORS[:len(values)])
    point = {f"x{j + 1}": v for j, v in enumerate(values)}
    ok = {f"x{j + 1}": 1.0 for j in range(len(values))}
    with pytest.raises(DomainError, match=f"^{message}$"):
        evaluate_walk(e, point)
    assert_matches_evaluate([e], [ok, point])


def test_a_product_built_with_one_factor_is_that_factor():
    # only mul and add build products and sums, and they return a lone
    # operand as it is, so no product or sum has fewer than two children
    e = mul(X1)
    assert e is X1 and add(X1) is X1 and mul() is ONE and add() is ZERO
    points = [{"x1": v} for v in (0.5, -0.0, 5e-324, -math.inf, math.nan)]
    assert_matches_evaluate([e, add(e, T1)], [{**pt, "t1": 2.0} for pt in points])
    assert_matches_evaluate([e], points)
    for kind, builder in ((Product, "mul"), (Sum, "add")):
        with pytest.raises(TypeError, match=rf"with {builder}\(\)"):
            kind(())


def test_unbound_variable_matches_evaluate():
    with pytest.raises(UnboundVariable) as err:
        compile_block([X1 + T1]).run([{"x1": 1.0, "t1": 2.0}, {"x1": 1.0}])
    assert err.value.name == "t1"


def test_empty_batches_and_blocks():
    assert compile_block([X1]).run([]).shape == (0, 1)
    assert compile_block([]).run([{"x1": 1.0}]).shape == (1, 0)


def test_run_returns_the_shape_of_the_block():
    block = [[[X1, T1, add(X1, T1)]], [[mul(X1, T1), neg(X1), Const(3.0)]]]
    points = [{"x1": 0.5, "t1": 2.0}, {"x1": -1.0, "t1": 0.25}]
    got = compile_block(block).run(points)
    assert got.shape == (2, 2, 1, 3)
    flat_values = compile_block(flat(block)).run(points)
    assert np.array_equal(bits(got.reshape(2, -1)), bits(flat_values))
    assert compile_block(np.array(block, dtype=object)).run(points[:1]).shape == (1, 2, 1, 3)


# ---------------------------------------------------------------------------
# the last-batch memo

def count_passes(monkeypatch) -> list:
    """The programs of every column pass from here on, in order."""
    passes = []
    columns = Program._columns
    monkeypatch.setattr(Program, "_columns",
                        lambda self, points: passes.append(self) or columns(self, points))
    return passes


def outcome(program, batch):
    """The shape and bits of a run, or the type and text of its error."""
    try:
        got = program.run(batch)
    except Exception as exc:  # any error, to compare with a fresh program's
        return type(exc), str(exc)
    return got.shape, got.tobytes()


def count_paths(monkeypatch) -> list:
    """The path of every column pass from here on, in order, and "plan"
    for every level plan built."""
    paths = []
    for name, label in (("_walk_columns", "walk"), ("_level_columns", "level")):
        monkeypatch.setattr(Program, name, lambda self, points, real=getattr(Program, name),
                            label=label: paths.append(label) or real(self, points))
    build = polyjet.symbolic._level_plan
    monkeypatch.setattr(polyjet.symbolic, "_level_plan",
                        lambda ops, roots: paths.append("plan") or build(ops, roots))
    return paths


def test_the_first_pass_walks_and_every_later_pass_runs_the_plan(monkeypatch):
    paths = count_paths(monkeypatch)
    program = compile_block([div(mul(X1, T1, X1), add(T1, Const(1.0))), neg(X1)])
    a, b = [{"x1": 0.5, "t1": 2.0}], [{"x1": -1.0, "t1": 0.25}]
    program.run(a)
    assert paths == ["walk"]
    program.run(a)  # the stored batch: no pass
    program.run(b)
    program.run(a)
    program.run(b + a)
    assert paths == ["walk", "plan", "level", "level", "level"]
    # a first pass that faults is still the first pass
    paths.clear()
    program = compile_block([div(X1, T1)])
    with pytest.raises(DomainError, match="division by zero"):
        program.run([{"x1": 1.0, "t1": 0.0}])
    with pytest.raises(DomainError, match="division by zero"):
        program.run([{"x1": 1.0, "t1": 0.0}])
    assert program.run(a).tolist() == [[0.25]]
    assert paths == ["walk", "plan", "level", "level"]


def test_an_unreadable_value_on_a_rerun_fails_as_the_walk_does():
    """A value ``float`` refuses sends either pass to the replay, which
    reads the variables in slot order: behind an op that faults first it
    gives the fault's error on both passes."""
    program = compile_block([ln(X1), T1])
    assert program.run([{"x1": 1.0, "t1": 2.0}]).tolist() == [[0.0, 2.0]]
    for _ in range(2):
        with pytest.raises(DomainError, match="^ln of non-positive value 0.0$"):
            program.run([{"x1": 0.0, "t1": None}])
    assert program._plan
    with pytest.raises(TypeError):
        program.run([{"x1": 1.0, "t1": None}])


def test_an_unreadable_value_at_a_later_point_fails_as_the_walk_does():
    """Both passes read a whole column before the next op, so the
    unreadable value at the second point is met before the fault at the
    first; the replay goes point by point, as the walk does."""
    program = compile_block([T1, ln(X1)])
    batch = [{"x1": 0.0, "t1": 1.0}, {"x1": 1.0, "t1": None}]
    with pytest.raises(DomainError, match="^ln of non-positive value 0.0$"):
        evaluate_walk(ln(X1), batch[0])
    for _ in range(2):
        with pytest.raises(DomainError, match="^ln of non-positive value 0.0$"):
            program.run(batch)
    assert program._plan


def test_a_product_that_overflows_on_a_rerun_raises_the_replays_error(monkeypatch):
    e = mul(*_FACTORS[:3])
    program = compile_block([add(e, Const(1.0)), e])
    ok = {"x1": 2.0, "x2": 3.0, "x3": 4.0}
    assert program.run([ok]).tolist() == [[25.0, 24.0]]
    paths = count_paths(monkeypatch)
    bad = {"x1": 1e200, "x2": -1e200, "x3": 1e200}
    with pytest.raises(DomainError, match="^product overflows to -inf$"):
        program.run([ok, bad])
    assert paths == ["plan", "level"]


@settings(max_examples=150, deadline=None)
@given(st.lists(_any_expr, min_size=1, max_size=3),
       st.lists(st.lists(_point, max_size=3), min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=2, max_size=8))
def test_repeated_batches_give_the_bits_of_a_fresh_program(exprs, batches, order):
    program = compile_block(exprs)
    for i in order:
        batch = batches[i % len(batches)]
        assert outcome(program, batch) == outcome(compile_block(exprs), batch)


def test_signed_zero_batches_keep_their_own_sign_bits():
    program = compile_block([neg(X1), X1])
    for v in (0.0, -0.0, -0.0, 0.0):
        assert program.run([{"x1": v}]).tobytes() == np.array([[-v, v]]).tobytes()


def test_changing_a_returned_array_changes_no_later_result():
    program = compile_block([add(X1, T1), mul(X1, T1)])
    batch = [{"x1": 0.5, "t1": 2.0}, {"x1": -1.0, "t1": 0.25}]
    first = program.run(batch)
    want = first.tobytes()
    first[:] = 99.0
    second = program.run(batch)
    assert second.tobytes() == want
    second[0, 0] = -5.0
    assert program.run(batch).tobytes() == want


def test_a_failing_batch_raises_every_time_and_keeps_the_stored_batch(monkeypatch):
    program = compile_block([div(T1, X1)])
    good = [{"x1": 2.0, "t1": 1.0}]
    bad = [{"x1": 1.0, "t1": 1.0}, {"x1": 0.0, "t1": 1.0}]
    want = program.run(good).tobytes()
    passes = count_passes(monkeypatch)
    errors = []
    for _ in range(3):
        with pytest.raises(DomainError) as err:
            program.run(bad)
        errors.append(str(err.value))
    assert errors == ["division by zero during evaluation"] * 3
    ran = len(passes)
    assert program.run(good).tobytes() == want
    assert len(passes) == ran


def test_a_batch_missing_a_variable_raises_unbound_variable_every_time():
    program = compile_block([X1 + T1])
    program.run([{"x1": 1.0, "t1": 2.0}])
    for _ in range(3):
        with pytest.raises(UnboundVariable) as err:
            program.run([{"x1": 1.0, "t1": 2.0}, {"x1": 1.0}])
        assert err.value.name == "t1"


def test_empty_batches_and_constant_programs_keep_their_shapes():
    program = compile_block([X1, T1])
    for batch in ([], [{"x1": 1.0, "t1": 2.0}], [], []):
        assert program.run(batch).shape == (len(batch), 2)
    constant = compile_block([Const(3.0), Const(-0.0)])
    for count in (2, 0, 0, 2, 5, 5):
        got = constant.run([{}] * count)
        assert got.shape == (count, 2)
        assert got.tobytes() == np.array([[3.0, -0.0]] * count).tobytes()


def _curved_law_objects():
    """Fresh chart-A and chart-B connections, transition map and domain of
    curved.json, with no program compiled or run yet."""
    man = load_manifest(str(MANIFESTS / "curved.json"))
    h, phi, tm = man.temporal_metric, man.spatial_metric, man.transition
    return (canonical_metric_connection(h, phi),
            canonical_metric_connection(pullback_metric(h, tm), pullback_metric(phi, tm)),
            tm, man.domain(man.sample_seed))


def test_the_coframe_check_reruns_no_program_the_connection_law_ran(monkeypatch):
    N_a, N_b, tm, dom = _curved_law_objects()
    passes = count_passes(monkeypatch)
    law = verify_connection_law(N_a, N_b, tm, dom=dom)
    shared = [N_a._program, N_b._program, tm._base_program]
    assert all(any(p is q for q in passes) for p in shared)
    ran = len(passes)
    coframe = verify_adapted_coframe(N_a, N_b, tm, dom=dom)
    assert passes[ran:] == [tm.inverted()._momentum_program]
    monkeypatch.undo()
    for check, report in ((verify_connection_law, law), (verify_adapted_coframe, coframe)):
        N_a, N_b, tm, dom = _curved_law_objects()
        fresh = check(N_a, N_b, tm, dom=dom)
        assert json.dumps(fresh.to_dict()) == json.dumps(report.to_dict())


# ---------------------------------------------------------------------------
# caching and reference cycles

def test_a_second_evaluation_reuses_the_cached_programs(monkeypatch):
    calls = []

    def counting(exprs):
        calls.append(1)
        return compile_block(exprs)

    monkeypatch.setattr(polyjet.symbolic, "compile_block", counting)
    monkeypatch.setattr(polyjet.charts, "compile_block", counting)
    man = load_manifest(str(MANIFESTS / "curved.json"))
    tm = man.transition
    N_a = canonical_metric_connection(man.temporal_metric, man.spatial_metric)
    N_b = canonical_metric_connection(pullback_metric(man.temporal_metric, tm),
                                      pullback_metric(man.spatial_metric, tm))
    point = man.evaluation_point
    first = N_a.n2_at(point)
    assert len(calls) == 1
    assert np.array_equal(N_a.n2_at(point), first)
    assert len(calls) == 1
    dom = man.domain(1).with_options(count=3)
    verify_connection_law(N_a, N_b, tm, dom=dom)
    compiled = len(calls)
    assert verify_connection_law(N_a, N_b, tm, dom=dom.with_options(seed=2)).passed
    assert len(calls) == compiled


def test_walks_leave_no_reference_cycles():
    e = parse("sin(x1)*x1^2 + ln(x1 + 3)/x1 + exp(t1)", ["x1", "t1"])
    point = {"x1": 0.5, "t1": 0.25}
    gc.collect()
    gc.disable()
    try:
        for call in (lambda: evaluate(e, point),
                     lambda: differentiate(e, "x1"),
                     lambda: substitute(e, {"x1": T1}),
                     lambda: compile_block([e, e]).run([point, point])):
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
