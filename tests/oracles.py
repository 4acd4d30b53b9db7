"""Shared oracles for the test suite.

Finite differences are used only here, as an independent check on exact
symbolic derivatives; library code never differentiates numerically.  The
walk over an expression's nodes checks the free-variable sets that nodes
record when they are interned.
"""

from __future__ import annotations

from polyjet.symbolic import Call, Neg, Power, Product, Quotient, Sum, Var


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
