"""Shared oracles for the test suite.

Finite differences are used only here, as an independent check on exact
symbolic derivatives; library code never differentiates numerically.  The
walk over an expression's nodes checks the free-variable sets that nodes
record when they are interned, and the full walks of ``differentiate_walk``
and ``substitute_walk`` check the library's, which skip every subtree
whose recorded set shows the result.  ``evaluate_walk`` is the recursive
scalar evaluator that compiled programs, and so ``evaluate``, must match
bit for bit and error for error.
"""

from __future__ import annotations

from polyjet.errors import DomainError, UnboundVariable
from polyjet.symbolic import (
    Call,
    Const,
    Neg,
    ONE,
    Power,
    Product,
    Quotient,
    Sum,
    Var,
    ZERO,
    add,
    as_expr,
    call,
    div,
    mul,
    neg,
    power,
    _apply_function,
    _power_value,
    _product_value,
    _quotient_value,
    _sum_value,
)


def central_diff(f, x0: float, h: float = 1.0e-6) -> float:
    """Second-order central difference of a scalar callable."""
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def central_diff_partial(f, point: dict, name: str, h: float = 1.0e-6) -> float:
    """Central difference of f(assignment) in one coordinate of a point dict."""

    def g(v):
        q = dict(point)
        q[name] = v
        return f(q)

    return central_diff(g, point[name], h)


def subexpressions(e) -> list:
    """Every distinct node of an expression, each once, by walking its DAG
    with an explicit stack."""
    seen: set = set()
    order = []
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        if isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Product):
            stack.extend(node.factors)
        elif isinstance(node, Power):
            stack.append(node.base)
        elif isinstance(node, (Neg, Call)):
            stack.append(node.arg)
        elif isinstance(node, Quotient):
            stack.append(node.numerator)
            stack.append(node.denominator)
    return order


def variables_walk(e) -> frozenset:
    """The variable names occurring in an expression, found by walking it:
    the reference for the sets that nodes record when they are interned."""
    return frozenset(node.name for node in subexpressions(e) if isinstance(node, Var))


def evaluate_walk(e, assignment) -> float:
    """The value of an expression at a point, by recursion over its nodes
    with a per-call memo: a quotient's denominator is computed and tested
    for zero before its numerator, children otherwise left to right."""
    memo: dict = {}

    def ev(node):
        if node in memo:
            return memo[node]
        if isinstance(node, Const):
            val = node.value
        elif isinstance(node, Var):
            try:
                val = float(assignment[node.name])
            except KeyError:
                raise UnboundVariable(node.name) from None
        elif isinstance(node, Sum):
            val = _sum_value([ev(t) for t in node.terms])
        elif isinstance(node, Product):
            val = _product_value([ev(f) for f in node.factors])
        elif isinstance(node, Power):
            val = _power_value(ev(node.base), node.exponent)
        elif isinstance(node, Neg):
            val = -ev(node.arg)
        elif isinstance(node, Quotient):
            den = ev(node.denominator)
            if den == 0.0:
                raise DomainError("division by zero during evaluation")
            val = _quotient_value(ev(node.numerator), den)
        else:
            val = _apply_function(node.func, ev(node.arg))
        memo[node] = val
        return val

    return ev(e)


def differentiate_walk(e, name: str):
    """The derivative by the rules at every node, with a per-call memo and
    no look at recorded variable sets or cached derivatives.  It equals
    ``differentiate(e, name)`` except that a root without ``name`` can give
    ``Const(-0.0)`` (``neg(x1)`` or ``cos(x1)`` by ``y``) where the library
    gives ``ZERO``."""
    memo: dict = {}

    def d(node):
        if node in memo:
            return memo[node]
        if isinstance(node, Const):
            out = ZERO
        elif isinstance(node, Var):
            out = ONE if node.name == name else ZERO
        elif isinstance(node, Sum):
            out = add(*(d(t) for t in node.terms))
        elif isinstance(node, Product):
            fs = node.factors
            out = add(*(mul(*fs[:i], df, *fs[i + 1:])
                        for i, df in enumerate(map(d, fs)) if df is not ZERO))
        elif isinstance(node, Power):
            out = mul(Const(node.exponent), power(node.base, node.exponent - 1),
                      d(node.base))
        elif isinstance(node, Neg):
            out = neg(d(node.arg))
        elif isinstance(node, Quotient):
            u, v = node.numerator, node.denominator
            du, dv = d(u), d(v)
            out = div(add(mul(du, v), neg(mul(u, dv))), power(v, 2))
        else:
            u, du = node.arg, d(node.arg)
            out = {"exp": lambda: mul(node, du),
                   "ln": lambda: div(du, u),
                   "sin": lambda: mul(call("cos", u), du),
                   "cos": lambda: neg(mul(call("sin", u), du)),
                   "sqrt": lambda: div(du, mul(Const(2.0), node))}[node.func]()
        memo[node] = out
        return out

    return d(e)


def substitute_walk(e, mapping):
    """Substitution that rebuilds every node through the smart
    constructors, with no look at recorded variable sets: the reference
    for ``substitute``."""
    table = {k: as_expr(v) for k, v in mapping.items()}
    memo: dict = {}

    def sub(node):
        if node in memo:
            return memo[node]
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Var):
            out = table.get(node.name, node)
        elif isinstance(node, Sum):
            out = add(*map(sub, node.terms))
        elif isinstance(node, Product):
            out = mul(*map(sub, node.factors))
        elif isinstance(node, Power):
            out = power(sub(node.base), node.exponent)
        elif isinstance(node, Neg):
            out = neg(sub(node.arg))
        elif isinstance(node, Quotient):
            out = div(sub(node.numerator), sub(node.denominator))
        else:
            out = call(node.func, sub(node.arg))
        memo[node] = out
        return out

    return sub(e)
