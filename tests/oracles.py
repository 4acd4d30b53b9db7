"""Shared oracles for the test suite.

Finite differences are used only here, as an independent check on exact
symbolic derivatives; library code never differentiates numerically.  The
walk over an expression's nodes checks the free-variable sets that nodes
record when they are interned, and the full walks of ``differentiate_walk``
and ``substitute_walk`` check the library's, which skip every subtree
whose recorded set shows the result.  ``evaluate_walk`` is the recursive
scalar evaluator that compiled programs, and so ``evaluate``, must match
bit for bit and error for error, and ``to_string_walk`` is the recursive
printer whose text ``to_string`` must match byte for byte.
``add_two_pass`` and ``mul_two_pass`` build sums and products as two
passes, one to flatten and one to fold and merge, with every merged factor
rebuilt as a power: the one-pass ``add`` and ``mul`` must return their
very nodes and raise their very errors.
``laplace_inverse`` is the adjugate over plain Laplace expansion, with
every cofactor expanded afresh: ``linalg.sym_inverse`` must return its
very nodes.  ``christoffel_direct`` differentiates both g_ij and g_ji,
and ``metrics.christoffel``, which derives each distinct entry once, must
return its very nodes.  ``pullback_metric_sandwich`` writes a metric in
the target chart by the direct two-factor contraction, and
``metrics.pullback_metric``, a d-tensor pullback, must return its very
nodes.  ``n1_from_semispray_direct`` re-derives d G1 / d p for every
entry of N1, and ``connections.connection_from_semispray``, which derives
each once, must return its very nodes.  The formulas of the
Hamilton layer are written out here one loop each, as they read in the
paper: the gravitational and both electrodynamic hamiltonians, the
direct spatial block of the canonical connection, the deviation block T,
and a d-tensor pulled back with Jacobian factors differentiated afresh.
The library, which builds each from shared pieces, must return their very
nodes.  ``written_out_pieces`` writes out the potential and free term as
H minus the other terms of its normal form: at p = 0 they must be the
very nodes the library extracts as dH/dp and H there.
``piece_momentum_derivatives`` differentiates both by every momentum, as
the extraction's momentum tests once did; the deviation identities that
the library reads instead must match it in value.  ``map_components``
rebuilds a d-tensor field entry by entry, so a test can corrupt one
component.
``close`` is the scalar rule of a sampled comparison, one pair of values
at a time, whose verdict ``symbolic.deviation`` must give, and
``first_nonzero`` tests entries one by one with ``is_zero``, in order.

The law layer works on whole batches of sample points.  ``sweep_loop``
is the per-point loop that ``report.sweep`` must match field for field,
and ``dtensor_image``, ``semispray_image``, ``connection_image``,
``coframe_rows`` and ``coframe_image`` are the per-point bodies of the
chart-change images, which the batched images must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from polyjet.charts import JetChart, p_name, x_name
from polyjet.dtensors import DTensorField
from polyjet.errors import DomainError, UnboundVariable
from polyjet.metrics import Metric
from polyjet.report import VerificationReport
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
    differentiate,
    div,
    is_zero,
    mul,
    neg,
    power,
    substitute,
    _apply_function,
    _fmt_const,
    _intern,
    _power_value,
    _product_value,
    _quotient_value,
    _sum_value,
)


def _flattened(operands, kind) -> list:
    flat = []
    for e in operands:
        if isinstance(e, kind):
            flat.extend(e.children())
        else:
            flat.append(e)
    return flat


def _folded_two_pass(value: float, flat) -> Const:
    consts = [e.value for e in flat if isinstance(e, Const)]
    if not math.isfinite(value) and all(map(math.isfinite, consts)):
        raise DomainError(f"constant folding overflows to {value!r}")
    return Const(value)


def _node(kind, *fields):
    """The node of ``kind`` with ``fields``, interned under the key the
    constructor functions use, without their canonicalization."""
    return _intern(kind, (kind, *fields), fields)


def add_two_pass(*terms):
    """A sum flattened in one pass and folded in a second."""
    flat = _flattened(terms, Sum)
    acc = 0.0
    out = []
    for t in flat:
        if isinstance(t, Const):
            acc += t.value
        else:
            out.append(t)
    if acc != 0.0:
        out.append(_folded_two_pass(acc, flat))
    if not out:
        return ZERO
    return out[0] if len(out) == 1 else _node(Sum, tuple(out))


def mul_two_pass(*factors):
    """A product flattened in one pass, then folded, with runs of one base
    merged into a list of (base, exponent) and every factor rebuilt from
    it: ``x`` for exponent 1, a power of ``x`` otherwise."""
    flat = _flattened(factors, Product)
    coeff = 1.0
    rest = []
    for f in flat:
        if isinstance(f, Const):
            coeff *= f.value
        else:
            rest.append(f)
    if coeff == 0.0:
        return ZERO
    merged = []
    for f in rest:
        base, k = (f.base, f.exponent) if isinstance(f, Power) else (f, 1)
        if merged and merged[-1][0] is base:
            merged[-1] = (base, merged[-1][1] + k)
        else:
            merged.append((base, k))
    out = [base if k == 1 else _node(Power, base, k) for base, k in merged]
    if coeff != 1.0:
        out.insert(0, _folded_two_pass(coeff, flat))
    if not out:
        return ONE
    return out[0] if len(out) == 1 else _node(Product, tuple(out))


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


def laplace_det(rows):
    """Determinant by Laplace expansion along the first row, with no memo."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    terms = []
    for j in range(d):
        minor = [[rows[r][c] for c in range(d) if c != j] for r in range(1, d)]
        cof = mul(rows[0][j], laplace_det(minor))
        terms.append(cof if j % 2 == 0 else neg(cof))
    return add(*terms)


def laplace_cofactor(rows, r, c):
    d = len(rows)
    minor = [[rows[i][j] for j in range(d) if j != c] for i in range(d) if i != r]
    det = laplace_det(minor) if minor else ONE
    return det if (r + c) % 2 == 0 else neg(det)


def laplace_inverse(rows):
    """The exact inverse as adjugate over ``laplace_det``: the reference
    for ``linalg.sym_inverse``."""
    d = len(rows)
    det = laplace_det(rows)
    return tuple(tuple(div(laplace_cofactor(rows, j, i), det) for j in range(d))
                 for i in range(d))


def pullback_metric_sandwich(g, tm):
    """g_ij~ = g_kl(x(x~)) (dx^k/dx~^i) (dx^l/dx~^j), the inverse map's
    Jacobian in target variables on both lower slots (t for a temporal
    metric, x otherwise)."""
    chart = tm.chart
    if g.kind == "temporal":
        names, inverse = chart.t_names, tm.t_inverse
    else:
        names, inverse = chart.x_names, tm.x_inverse
    jac = [[differentiate(inverse[r], names[c]) for c in range(len(names))]
           for r in range(len(names))]
    d = g.dim
    pulled = [[substitute(g.components[k][l], tm.pullback_map) for l in range(d)]
              for k in range(d)]
    rows = [[add(*[mul(pulled[k][l], jac[k][i], jac[l][j])
                   for k in range(d) for l in range(d)])
             for j in range(d)] for i in range(d)]
    return Metric(g.kind, g.m, g.n, rows)


def christoffel_direct(g):
    """Gamma^k_ij = 1/2 g^kl (d g_li / d v^j + d g_lj / d v^i - d g_ij / d v^l),
    every entry of g differentiated afresh in every variable, g_ij and g_ji
    alike."""
    d = g.dim
    inv = g.inverse_components
    names = g.christoffel_names
    derivs = [[[differentiate(g.components[i][j], names[k]) for k in range(d)]
               for j in range(d)] for i in range(d)]
    return [[[add(*[mul(Const(0.5), inv[k][l],
                        add(derivs[l][i][j], derivs[l][j][i], neg(derivs[i][j][l])))
                    for l in range(d)])
              for j in range(d)] for i in range(d)] for k in range(d)]


def gravitational_hamiltonian(h, phi, mass=1.0, light_speed=1.0):
    """H = (1 / (mass * light_speed)) h_ab phi^{ij} p_i^a p_j^b."""
    m, n = h.dim, phi.dim
    chart = JetChart(m, n)
    phi_upper = phi.inverse_components
    coeff = Const(1.0 / (float(mass) * float(light_speed)))
    return add(*[mul(coeff, h.components[a][b], phi_upper[i][j],
                     chart.p_var(i, a), chart.p_var(j, b))
                 for a in range(m) for b in range(m)
                 for i in range(n) for j in range(n)])


def autonomous_electrodynamic_hamiltonian(h, phi, A, mass=1.0, light_speed=1.0,
                                          charge=1.0):
    """H = H_grav - (2 charge / (mass c^2)) A^{(i)}_{(a)} p_i^a
    + (charge^2 / (mass c^3)) h^{ab} phi_{ij} A^{(i)}_{(a)} A^{(j)}_{(b)}."""
    m, n = h.dim, phi.dim
    chart = JetChart(m, n)
    phi_upper = phi.inverse_components
    h_upper = h.inverse_components
    quad = [mul(Const(1.0 / (mass * light_speed)), h.components[a][b], phi_upper[i][j],
                chart.p_var(i, a), chart.p_var(j, b))
            for a in range(m) for b in range(m) for i in range(n) for j in range(n)]
    linear = [mul(Const(-2.0 * charge / (mass * light_speed ** 2)), A[i][a],
                  chart.p_var(i, a))
              for i in range(n) for a in range(m)]
    free = mul(Const(charge ** 2 / (mass * light_speed ** 3)),
               add(*[mul(h_upper[a][b], phi.components[i][j], A[i][a], A[j][b])
                     for a in range(m) for b in range(m)
                     for i in range(n) for j in range(n)]))
    return add(add(*quad), add(*linear), free)


def general_electrodynamic_hamiltonian(h, g, U, F):
    """H = h_ab g^{ij} p_i^a p_j^b + U^{(i)}_{(a)} p_i^a + F."""
    m, n = h.dim, g.dim
    chart = JetChart(m, n)
    g_upper = g.inverse_components
    quad = [mul(h.components[a][b], g_upper[i][j],
                chart.p_var(i, a), chart.p_var(j, b))
            for a in range(m) for b in range(m) for i in range(n) for j in range(n)]
    linear = [mul(U[i][a], chart.p_var(i, a)) for i in range(n) for a in range(m)]
    return add(add(*quad), add(*linear), F)


def written_out_pieces(H, h, cand) -> tuple:
    """The potential U^{(i)}_{(a)} = dH/dp_i^a - 2 h_ab g^{ij} p_j^b, as
    (n, m) nested lists, and the free term
    F = H - h_ab g^{ij} p_i^a p_j^b - U^{(i)}_{(a)} p_i^a, written out with
    g^{ij} = ``cand``.  ``hamilton._potential_and_free_term`` builds U and
    F as dH/dp and H at p = 0, which for a regular H must be the very
    nodes of these at p = 0."""
    m, n = h.dim, len(cand)
    P = JetChart(m, n).p_vars()
    U = [[add(differentiate(H, p_name(i, a)),
              mul(Const(-2.0), add(*[mul(h.components[a][b], cand[i][j], P[j][b])
                                      for b in range(m) for j in range(n)])))
          for a in range(m)] for i in range(n)]
    quad = [mul(h.components[a][b], cand[i][j], P[i][a], P[j][b])
            for a in range(m) for b in range(m) for i in range(n) for j in range(n)]
    F = add(H, neg(add(*quad)), neg(add(*[mul(U[i][a], P[i][a])
                                          for i in range(n) for a in range(m)])))
    return U, F


def piece_momentum_derivatives(H, h, cand) -> list:
    """The extraction's momentum tests as they read when they differentiate
    the ``written_out_pieces``.  One (momentum name, derivatives) pair per
    momentum, in ``p_names`` order; the derivatives are those of every U
    entry, in (i, a) order, and then of F.
    ``hamilton._potential_and_free_term`` reads them from the deviation
    block instead, and must give them in value."""
    U, F = written_out_pieces(H, h, cand)
    pieces = [e for row in U for e in row] + [F]
    return [(name, [differentiate(e, name) for e in pieces])
            for name in JetChart(h.dim, len(cand)).p_names]


def close(v1: float, v2: float, tol: float) -> bool:
    """|v1 - v2| <= tol * max(1, |v1|, |v2|) with both values finite: a NaN
    compares false, and an infinity would make the scale infinite."""
    return (math.isfinite(v1) and math.isfinite(v2)
            and abs(v1 - v2) <= tol * max(1.0, abs(v1), abs(v2)))


def first_nonzero(exprs, tol: float, dom) -> int | None:
    """The index of the first of ``exprs`` that ``is_zero`` rejects on
    ``dom``, or None."""
    return next((k for k, e in enumerate(exprs) if not is_zero(e, dom, tol)), None)


def n1_from_semispray_direct(G1, phi):
    """N1[a][r][b] = phi^{jk} (d G1[a][j][k] / d p_i^b) phi_{ir}, every
    derivative taken afresh inside the r loop."""
    m, n = G1.m, G1.n
    phi_upper = phi.inverse_components
    return [[[add(*[mul(phi_upper[j][k], differentiate(G1.components[a][j][k], p_name(i, b)),
                        phi.components[i][r])
                    for i in range(n) for j in range(n) for k in range(n)])
              for b in range(m)] for r in range(n)] for a in range(m)]


def canonical_n2_direct(space):
    """N2[a][i][j] = (h^{ab}/4) [ dg_ij/dx^k dH/dp_k^b - dg_ij/dp_k^b dH/dx^k
    + g_ik d^2 H / dx^j dp_k^b + g_jk d^2 H / dx^i dp_k^b ], the momentum
    term only where dg_ij/dp_k^b is not ``ZERO``."""
    m, n = space.m, space.n
    h_upper = space.h.inverse_components
    g = space.g.components
    H = space.hamiltonian
    dH_dp = [[differentiate(H, p_name(k, b)) for b in range(m)] for k in range(n)]
    dH_dx = [differentiate(H, x_name(k)) for k in range(n)]
    n2 = [[[None] * n for _ in range(n)] for _ in range(m)]
    for a in range(m):
        for i in range(n):
            for j in range(n):
                outer = []
                for b in range(m):
                    inner = []
                    for k in range(n):
                        inner.append(mul(differentiate(g[i][j], x_name(k)),
                                         dH_dp[k][b]))
                        dg_dp = differentiate(g[i][j], p_name(k, b))
                        if dg_dp is not ZERO:
                            inner.append(mul(Const(-1.0), dg_dp, dH_dx[k]))
                        inner.append(mul(g[i][k],
                                         differentiate(dH_dp[k][b], x_name(j))))
                        inner.append(mul(g[j][k],
                                         differentiate(dH_dp[k][b], x_name(i))))
                    outer.append(mul(Const(0.25), h_upper[a][b], add(*inner)))
                n2[a][i][j] = add(*outer)
    return n2


def t_block_direct(g, U, h):
    """T[a][i][j] = (h^{ab}/4) [ dg_ij/dx^k U^{(k)}_{(b)}
    + g_ik dU^{(k)}_{(b)}/dx^j + g_jk dU^{(k)}_{(b)}/dx^i ]."""
    m, n = h.dim, g.dim
    h_upper = h.inverse_components
    comps = np.empty((m, n, n), dtype=object)
    for a in range(m):
        for i in range(n):
            for j in range(n):
                outer = []
                for b in range(m):
                    inner = []
                    for k in range(n):
                        u = U.components[k, b]
                        inner.append(mul(differentiate(g.components[i][j],
                                                       x_name(k)), u))
                        inner.append(mul(g.components[i][k],
                                         differentiate(u, x_name(j))))
                        inner.append(mul(g.components[j][k],
                                         differentiate(u, x_name(i))))
                    outer.append(mul(Const(0.25), h_upper[a][b], add(*inner)))
                comps[a, i, j] = add(*outer)
    return comps


def pullback_dtensor_direct(T, tm):
    """Target-chart components of a d-tensor, one factor per slot: an upper
    slot's d (target new) / d (source old) differentiated from the forward
    map and moved to the preimage, a lower slot's d (source old) / d
    (target new) differentiated from the inverse map."""
    chart = tm.chart

    def factor_matrix(slot):
        if slot.family == "temporal":
            size, names, fwd, inverse = tm.m, chart.t_names, tm.t_forward, tm.t_inverse
        else:
            size, names, fwd, inverse = tm.n, chart.x_names, tm.x_forward, tm.x_inverse
        out = [[None] * size for _ in range(size)]
        for new in range(size):
            for old in range(size):
                if slot.variance == "upper":
                    out[new][old] = substitute(
                        differentiate(fwd[new], names[old]), tm.pullback_map)
                else:
                    out[new][old] = differentiate(inverse[old], names[new])
        return out

    factors = [factor_matrix(s) for s in T.slots]
    shape = T.shape
    comps = np.empty(shape, dtype=object)
    pulled = {old_idx: substitute(T.components[old_idx], tm.pullback_map)
              for old_idx in np.ndindex(shape)}
    for new_idx in np.ndindex(shape):
        terms = []
        for old_idx, value in pulled.items():
            fs = [factors[k][new_idx[k]][old_idx[k]] for k in range(len(shape))]
            terms.append(mul(value, *fs))
        comps[new_idx] = add(*terms)
    return comps


def map_components(T, f):
    """The d-tensor field ``T`` with ``f`` applied to every component, in
    index order."""
    comps = np.empty(T.shape, dtype=object)
    for idx in np.ndindex(T.shape):
        comps[idx] = f(T.components[idx])
    return DTensorField(T.m, T.n, T.slots, comps, T.name)


def to_string_walk(e) -> str:
    """The text of an expression, by recursion over its tree with no memo:
    the reference for ``to_string``."""
    return _print_expr(e)


def _print_expr(e) -> str:
    if isinstance(e, Sum):
        parts = [_print_term(e.terms[0])]
        for t in e.terms[1:]:
            sign, body = _signed_term(t)
            parts.append(f" {sign} {body}")
        return "".join(parts)
    return _print_term(e)


def _signed_term(t):
    if isinstance(t, Neg):
        return "-", _print_term(t.arg)
    if isinstance(t, Const) and t.value < 0:
        return "-", _fmt_const(-t.value)
    return "+", _print_term(t)


def _print_term(e) -> str:
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            body = _print_factor(f)
            # a '/' inside a later factor would re-associate; parenthesize
            if i > 0 and isinstance(f, Quotient):
                body = f"({_print_expr(f)})"
            parts.append(body)
        return "*".join(parts)
    if isinstance(e, Quotient):
        num = _print_term(e.numerator)
        den = _print_factor(e.denominator)
        if isinstance(e.denominator, (Product, Quotient)):
            den = f"({_print_expr(e.denominator)})"
        return f"{num}/{den}"
    return _print_factor(e)


def _print_factor(e) -> str:
    if isinstance(e, Power):
        return f"{_print_power_base(e.base)}^{e.exponent}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _fmt_const(-e.value)
        return _fmt_const(e.value)
    if isinstance(e, Call):
        return f"{e.func}({_print_expr(e.arg)})"
    if isinstance(e, Neg):
        inner = e.arg
        if isinstance(inner, (Var, Call)) or (isinstance(inner, Const) and inner.value >= 0):
            return "-" + _print_factor(inner)
        return f"-({_print_expr(inner)})"
    return f"({_print_expr(e)})"


def _print_power_base(b) -> str:
    if isinstance(b, Var):
        return b.name
    if isinstance(b, Call):
        return f"{b.func}({_print_expr(b.arg)})"
    return f"({_print_expr(b)})"


# ---------------------------------------------------------------------------
# the law layer, one point at a time

def sweep_loop(name: str, tolerance: float, points, blocks) -> VerificationReport:
    """``report.sweep`` point by point and, within a point, block by block:
    a residual replaces the worst when it is larger, or when it is not
    finite, and once the worst is not finite it stays."""
    worst, worst_point, worst_entry, samples = 0.0, None, None, 0
    for k, point in enumerate(points):
        for labeler, lhs, rhs in blocks:
            diff = np.abs(lhs[k] - rhs[k])
            residual = float(diff.max())
            if math.isfinite(worst) and not residual <= worst:
                worst, worst_point = residual, dict(point)
                worst_entry = labeler(np.unravel_index(np.argmax(diff), diff.shape))
        samples += 1
    return VerificationReport(name, worst <= tolerance, tolerance, worst, worst_point,
                              samples, worst_entry)


def dtensor_image(slots, jt, jx, kt, kx, arr) -> np.ndarray:
    """Target-chart d-tensor components at one point: per slot, a
    ``tensordot`` with its Jacobian factor."""
    for axis, slot in enumerate(slots):
        if slot.family == "temporal":
            mat = jt if slot.variance == "upper" else kt.T
        else:
            mat = jx if slot.variance == "upper" else kx.T
        arr = np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)
    return arr


def semispray_image(kind: str, values, jt, kx, dpdt, dpdx, p) -> np.ndarray:
    """Target-chart semispray block at one point, from the source block,
    the momentum-map derivatives and the source momenta p[i][a]."""
    if kind == "temporal":
        two_g = 2.0 * np.einsum("bji,cb,jk,ir->ckr", values, jt, kx, kx)
        correction = np.einsum("ir,kca,ia->ckr", kx, dpdt, p)
    else:
        two_g = 2.0 * np.einsum("bji,db,js,ik->dsk", values, jt, kx, kx)
        correction = np.einsum("ik,sdi->dsk", kx, dpdx)
    return 0.5 * (two_g - correction)


def connection_image(n1, n2, jt, kt, kx, dpdt, dpdx) -> tuple:
    """Target-chart connection blocks (N1~, N2~) at one point."""
    out1 = np.einsum("cka,bc,kj,ad->bjd", n1, jt, kx, kt)
    out1 -= np.einsum("ad,jba->bjd", kt, dpdt)
    out2 = np.einsum("cki,bc,kj,ir->bjr", n2, jt, kx, kx)
    out2 -= np.einsum("ir,jbi->bjr", kx, dpdx)
    return out1, out2


def coframe_rows(n1, n2) -> np.ndarray:
    """The rows of delta p_i^a at one point, row (i, a) at i*m + a."""
    m, n = n1.shape[0], n1.shape[1]
    rows = np.zeros((m * n, m + n + m * n))
    for i in range(n):
        for a in range(m):
            r = i * m + a
            rows[r, :m] = n1[a][i]
            rows[r, m:m + n] = n2[a][i]
            rows[r, m + n + r] = 1.0
    return rows


def coframe_image(n1, n2, coframe, jt, kx) -> np.ndarray:
    """The source coframe rows at one point in target differentials,
    mixed like the polymomenta."""
    n, m = kx.shape[0], jt.shape[0]
    pushed = (coframe_rows(n1, n2) @ coframe).reshape(n, m, -1)
    return np.einsum("ij,ba,iak->jbk", kx, jt, pushed).reshape(n * m, -1)
