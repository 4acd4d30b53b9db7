"""Exact symbolic expressions over named real variables.

The expression language is deliberately small: sums, products, integer
powers, quotients and negations of float constants, named variables, and
the unary functions exp, ln, sin, cos, sqrt.  Trees are immutable and
hashable; sums and products are kept flat; all-constant subtrees are
folded at construction time.  Two expressions therefore compare equal
with ``==`` exactly when they are structurally identical after this
canonicalization.

Differentiation and substitution are exact tree rewrites.  Semantic
equality of expressions is decided by ``equiv``, which samples a seeded
box, because symbolic normal forms are out of scope here.

Variable naming convention used by the geometry layers: temporal
coordinates ``t1..tm``, spatial coordinates ``x1..xn``, polymomenta
``p<i>_<a>`` (so ``p2_1`` has spatial index 2, temporal index 1).
``SampleDomain.default`` gives ``t*``/``x*`` variables the interval
[-0.9, 0.9] and ``p*`` variables [-2, 2].
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_^]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_DIGITS_RE = re.compile(r"\d+")


class Expr:
    """Base class for expression nodes.  Immutable, hashable, comparable."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        text = to_string(self)
        if len(text) > 120:
            text = text[:117] + "..."
        return f"Expr({text!r})"


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True, slots=True, repr=False)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True, slots=True, repr=False)
class Product(Expr):
    factors: tuple


@dataclass(frozen=True, slots=True, repr=False)
class Power(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Quotient(Expr):
    numerator: Expr
    denominator: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Call(Expr):
    func: str
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(value) -> Expr:
    """Coerce a number into a Const, passing Exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def const(value) -> Const:
    return Const(float(value))


def var(name: str) -> Var:
    return Var(name)


def add(*terms: Expr) -> Expr:
    """Flattened, constant-folded sum.  Zero terms are absorbed."""
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    acc = 0.0
    out = []
    for t in flat:
        if isinstance(t, Const):
            acc += t.value
        else:
            out.append(t)
    if acc != 0.0:
        out.append(Const(acc))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _merge_adjacent_factors(factors):
    """Collapse runs of the same base into integer powers (x*x -> x^2)."""
    merged = []
    for f in factors:
        base, k = (f.base, f.exponent) if isinstance(f, Power) else (f, 1)
        if merged:
            pbase, pk = merged[-1]
            if pbase == base:
                merged[-1] = (pbase, pk + k)
                continue
        merged.append((base, k))
    out = []
    for base, k in merged:
        out.append(base if k == 1 else Power(base, k))
    return out


def mul(*factors: Expr) -> Expr:
    """Flattened, constant-folded product.  A zero factor annihilates;
    unit factors are absorbed; adjacent equal factors merge to powers."""
    flat = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = 1.0
    out = []
    for f in flat:
        if isinstance(f, Const):
            coeff *= f.value
        else:
            out.append(f)
    if coeff == 0.0:
        return ZERO
    out = _merge_adjacent_factors(out)
    if coeff != 1.0:
        out.insert(0, Const(coeff))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Product(tuple(out))


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def power(base: Expr, exponent) -> Expr:
    n = operator.index(exponent)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if n < 0:
        return div(ONE, power(base, -n))
    if isinstance(base, Const):
        return Const(_power_value(base.value, n))
    if isinstance(base, Power):
        return Power(base.base, base.exponent * n)
    return Power(base, n)


def div(numerator: Expr, denominator: Expr) -> Expr:
    if isinstance(denominator, Const):
        if denominator.value == 0.0:
            raise DomainError("division by constant zero")
        if isinstance(numerator, Const):
            return Const(numerator.value / denominator.value)
        # fold the reciprocal into a coefficient
        return mul(Const(1.0 / denominator.value), numerator)
    if isinstance(numerator, Const) and numerator.value == 0.0:
        return ZERO
    return Quotient(numerator, denominator)


def _power_value(base: float, exponent: int) -> float:
    try:
        return base ** exponent
    except OverflowError as exc:
        raise DomainError(f"power overflow at {base!r}^{exponent}") from exc


def _sum_value(values) -> float:
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"{exc} during evaluation") from exc


def _apply_function(name: str, value: float) -> float:
    if name == "exp":
        try:
            return math.exp(value)
        except OverflowError as exc:
            raise DomainError(f"exp overflow at {value!r}") from exc
    if name == "ln":
        if value <= 0.0:
            raise DomainError(f"ln of non-positive value {value!r}")
        return math.log(value)
    if name == "sin":
        return math.sin(value)
    if name == "cos":
        return math.cos(value)
    if name == "sqrt":
        if value < 0.0:
            raise DomainError(f"sqrt of negative value {value!r}")
        return math.sqrt(value)
    raise UnknownIdentifier(name)


def call(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise UnknownIdentifier(name)
    arg = as_expr(arg)
    if isinstance(arg, Const):
        return Const(_apply_function(name, arg.value))
    return Call(name, arg)


def exp(e) -> Expr:
    return call("exp", as_expr(e))


def ln(e) -> Expr:
    return call("ln", as_expr(e))


def sin(e) -> Expr:
    return call("sin", as_expr(e))


def cos(e) -> Expr:
    return call("cos", as_expr(e))


def sqrt(e) -> Expr:
    return call("sqrt", as_expr(e))


def evaluate(e: Expr, assignment: Mapping[str, float]) -> float:
    """Evaluate an expression at a point.  The memo makes shared subtrees
    (ubiquitous after differentiation) cost one visit each."""
    memo: dict[int, float] = {}

    def ev(node):
        key = id(node)
        if key in memo:
            return memo[key]
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
            val = 1.0
            for f in node.factors:
                val *= ev(f)
        elif isinstance(node, Power):
            val = _power_value(ev(node.base), node.exponent)
        elif isinstance(node, Neg):
            val = -ev(node.arg)
        elif isinstance(node, Quotient):
            den = ev(node.denominator)
            if den == 0.0:
                raise DomainError("division by zero during evaluation")
            val = ev(node.numerator) / den
        elif isinstance(node, Call):
            val = _apply_function(node.func, ev(node.arg))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[key] = val
        return val

    try:
        return ev(e)
    finally:
        del ev  # the closure refers to itself; drop that cycle with the memo


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the named variable."""
    memo: dict[int, Expr] = {}

    def d(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            out = ZERO
        elif isinstance(node, Var):
            out = ONE if node.name == name else ZERO
        elif isinstance(node, Sum):
            out = add(*(d(t) for t in node.terms))
        elif isinstance(node, Product):
            pieces = []
            fs = node.factors
            for i, f in enumerate(fs):
                df = d(f)
                if df is ZERO or df == ZERO:
                    continue
                pieces.append(mul(*fs[:i], df, *fs[i + 1:]))
            out = add(*pieces)
        elif isinstance(node, Power):
            out = mul(Const(node.exponent), power(node.base, node.exponent - 1),
                      d(node.base))
        elif isinstance(node, Neg):
            out = neg(d(node.arg))
        elif isinstance(node, Quotient):
            u, v = node.numerator, node.denominator
            du, dv = d(u), d(v)
            out = div(add(mul(du, v), neg(mul(u, dv))), power(v, 2))
        elif isinstance(node, Call):
            u = node.arg
            du = d(u)
            if node.func == "exp":
                out = mul(node, du)
            elif node.func == "ln":
                out = div(du, u)
            elif node.func == "sin":
                out = mul(call("cos", u), du)
            elif node.func == "cos":
                out = neg(mul(call("sin", u), du))
            elif node.func == "sqrt":
                out = div(du, mul(Const(2.0), node))
            else:
                raise UnknownIdentifier(node.func)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[key] = out
        return out

    try:
        return d(e)
    finally:
        del d  # the closure refers to itself; drop that cycle with the memo


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding through the smart
    constructors (so folding applies to the result)."""
    table = {k: as_expr(v) for k, v in mapping.items()}
    memo: dict[int, Expr] = {}

    def sub(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Var):
            out = table.get(node.name, node)
        elif isinstance(node, Sum):
            out = add(*(sub(t) for t in node.terms))
        elif isinstance(node, Product):
            out = mul(*(sub(f) for f in node.factors))
        elif isinstance(node, Power):
            out = power(sub(node.base), node.exponent)
        elif isinstance(node, Neg):
            out = neg(sub(node.arg))
        elif isinstance(node, Quotient):
            out = div(sub(node.numerator), sub(node.denominator))
        elif isinstance(node, Call):
            out = call(node.func, sub(node.arg))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[key] = out
        return out

    try:
        return sub(e)
    finally:
        del sub  # the closure refers to itself; drop that cycle with the memo


def variables(e: Expr) -> frozenset:
    """The set of variable names occurring in the expression."""
    seen: set[int] = set()
    names: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Product):
            stack.extend(node.factors)
        elif isinstance(node, Power):
            stack.append(node.base)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Quotient):
            stack.append(node.numerator)
            stack.append(node.denominator)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return frozenset(names)


# ---------------------------------------------------------------------------
# compiled evaluation

_CONST, _VAR, _SUM, _PRODUCT, _POWER, _NEG, _QUOTIENT, _CALL = range(8)

_CALL_VALUE = {"exp": math.exp, "ln": math.log, "sin": math.sin,
               "cos": math.cos, "sqrt": math.sqrt}

# what the scalar operations above raise where ``evaluate`` would fail
_FAULTS = (ArithmeticError, ValueError, KeyError)


def _node_op(node):
    """(opcode, payload, children) of one expression node."""
    kind = type(node)
    if kind is Sum:
        return _SUM, None, node.terms
    if kind is Product:
        return _PRODUCT, None, node.factors
    if kind is Power:
        return _POWER, node.exponent, (node.base,)
    if kind is Neg:
        return _NEG, None, (node.arg,)
    if kind is Quotient:
        return _QUOTIENT, None, (node.numerator, node.denominator)
    if kind is Call:
        if node.func not in _CALL_VALUE:
            raise UnknownIdentifier(node.func)
        return _CALL, node.func, (node.arg,)
    if kind is Var:
        return _VAR, node.name, ()
    if kind is Const:
        return _CONST, node.value, ()
    raise TypeError(f"not an expression node: {node!r}")


def compile_block(exprs) -> "Program":
    """Compile a block of expressions into one value-numbered program.

    The union of the roots is walked once with one identity memo, to the
    same depth as ``evaluate``.  Every node gets the slot of its structural
    key (opcode, payload, child slots), so structurally equal subtrees
    share a slot and no tree is ever hashed whole.  The program keeps no
    reference to the expressions.
    """
    slot_of: dict[int, int] = {}
    table: dict[tuple, int] = {}
    ops: list[tuple] = []

    def visit(node) -> int:
        slot = slot_of.get(id(node))
        if slot is not None:
            return slot
        code, arg, kids = _node_op(node)
        slots = tuple([visit(c) for c in kids])
        # hex keeps -0.0 and 0.0 apart
        key = (code, arg.hex() if code == _CONST else arg, slots)
        slot = table.setdefault(key, len(ops))
        if slot == len(ops):
            ops.append((code, arg, slots))
        slot_of[id(node)] = slot
        return slot

    try:
        roots = [visit(e) for e in map(as_expr, exprs)]
    finally:
        del visit  # the closure refers to itself; drop that cycle with the memo
    return Program(ops, roots)


def _guarded(fn, rows, failed: list) -> list:
    """Apply fn to each argument tuple; a fault marks its sample in
    ``failed`` and leaves NaN in its place."""
    out = []
    for index, row in enumerate(rows):
        try:
            out.append(fn(*row))
        except _FAULTS:
            failed.append(index)
            out.append(math.nan)
    return out


class Program:
    """A straight-line program over value-numbered slots.

    ``run`` evaluates every op over all sample points at once, column by
    column.  Each op applies the very scalar operation ``evaluate`` applies
    (``math.fsum`` per point for sums, left-to-right products, Python
    ``float ** int`` and the ``math`` functions), so results are
    bit-identical to ``evaluate``.  A sample at which some op leaves the
    domain is replayed alone in ``evaluate``'s visiting order, which raises
    exactly the error ``evaluate`` raises there, for the lowest such sample.
    """

    __slots__ = ("ops", "roots")

    def __init__(self, ops, roots):
        self.ops = tuple(ops)
        self.roots = tuple(roots)

    def run(self, points) -> np.ndarray:
        """Values at each point: an array of shape (len(points), len(roots))."""
        points = list(points)
        count = len(points)
        failed: list[int] = []
        vals: list[list] = []
        for code, arg, kids in self.ops:
            try:
                if code == _PRODUCT:
                    col = list(map(math.prod, zip(*[vals[k] for k in kids])))
                elif code == _SUM:
                    col = list(map(math.fsum, zip(*[vals[k] for k in kids])))
                elif code == _POWER:
                    col = [v ** arg for v in vals[kids[0]]]
                elif code == _NEG:
                    col = [-v for v in vals[kids[0]]]
                elif code == _QUOTIENT:
                    col = list(map(operator.truediv, vals[kids[0]], vals[kids[1]]))
                elif code == _CALL:
                    col = list(map(_CALL_VALUE[arg], vals[kids[0]]))
                elif code == _VAR:
                    col = [float(pt[arg]) for pt in points]
                else:
                    col = [arg] * count
            except _FAULTS:
                col = self._faulty_column(code, arg, kids, vals, points, failed)
            vals.append(col)
        out = np.array([vals[r] for r in self.roots], dtype=float)
        out = np.ascontiguousarray(out.reshape(len(self.roots), count).T)
        for index in sorted(set(failed)):
            # raises at the first sample where evaluate raises
            out[index] = self._replay(points[index])
        return out

    @staticmethod
    def _faulty_column(code, arg, kids, vals, points, failed) -> list:
        """The column of an op that raised somewhere, sample by sample.
        Products, negations and constants never raise."""
        if code == _VAR:
            return _guarded(lambda pt: float(pt[arg]), zip(points), failed)
        if code == _POWER:
            return _guarded(lambda v: v ** arg, zip(vals[kids[0]]), failed)
        if code == _QUOTIENT:
            return _guarded(operator.truediv, zip(vals[kids[0]], vals[kids[1]]), failed)
        if code == _CALL:
            return _guarded(_CALL_VALUE[arg], zip(vals[kids[0]]), failed)
        return _guarded(lambda *t: math.fsum(t), zip(*[vals[k] for k in kids]), failed)

    def _replay(self, point) -> list:
        memo: dict[int, float] = {}
        return [_replay_slot(self.ops, r, point, memo) for r in self.roots]


def _replay_slot(ops, slot: int, point, memo: dict) -> float:
    """``evaluate`` over program slots: same order, same checks, same errors."""
    if slot in memo:
        return memo[slot]
    code, arg, kids = ops[slot]
    if code == _CONST:
        val = arg
    elif code == _VAR:
        try:
            val = float(point[arg])
        except KeyError:
            raise UnboundVariable(arg) from None
    elif code == _SUM:
        val = _sum_value([_replay_slot(ops, k, point, memo) for k in kids])
    elif code == _PRODUCT:
        val = 1.0
        for k in kids:
            val *= _replay_slot(ops, k, point, memo)
    elif code == _POWER:
        val = _power_value(_replay_slot(ops, kids[0], point, memo), arg)
    elif code == _NEG:
        val = -_replay_slot(ops, kids[0], point, memo)
    elif code == _QUOTIENT:
        den = _replay_slot(ops, kids[1], point, memo)
        if den == 0.0:
            raise DomainError("division by zero during evaluation")
        val = _replay_slot(ops, kids[0], point, memo) / den
    else:
        val = _apply_function(arg, _replay_slot(ops, kids[0], point, memo))
    memo[slot] = val
    return val


# ---------------------------------------------------------------------------
# printing

def _fmt_const(v: float) -> str:
    if v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print_expr(e) -> str:
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            sign, body = _signed_term(t)
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
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


def to_string(e: Expr) -> str:
    """Render to source text.  parse(to_string(e), variables(e)) == e."""
    return _print_expr(e)


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    """Recursive descent over the grammar

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := base ('^' integer)?
        base   := number | ident | func '(' expr ')' | '(' expr ')' | '-' base

    Identifiers may themselves contain carets (e.g. a declared variable
    "p_1^1"), so identifier lexing munches maximally and then backs off to
    the longest allowed-variable prefix that ends at a caret boundary.
    """

    def __init__(self, source: str, allowed: frozenset):
        self.src = source
        self.pos = 0
        self.allowed = allowed

    def parse(self) -> Expr:
        e = self._expr()
        self._skip_ws()
        if self.pos != len(self.src):
            self._error("unexpected trailing input")
        return e

    def _error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        if self.pos < len(self.src):
            return self.src[self.pos]
        return ""

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            self._skip_ws()
            c = self._peek()
            if c == "+":
                self.pos += 1
                e = add(e, self._term())
            elif c == "-":
                self.pos += 1
                e = add(e, neg(self._term()))
            else:
                return e

    def _term(self) -> Expr:
        e = self._factor()
        while True:
            self._skip_ws()
            c = self._peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self._factor())
            elif c == "/":
                self.pos += 1
                e = div(e, self._factor())
            else:
                return e

    def _factor(self) -> Expr:
        b = self._base()
        self._skip_ws()
        if self._peek() == "^":
            self.pos += 1
            return power(b, self._integer())
        return b

    def _integer(self) -> int:
        self._skip_ws()
        sign = 1
        if self._peek() == "-":
            sign = -1
            self.pos += 1
        m = _DIGITS_RE.match(self.src, self.pos)
        if not m:
            self._error("integer exponent expected after '^'")
        self.pos = m.end()
        if self._peek() == ".":
            self._error("integer exponent expected after '^'")
        return sign * int(m.group())

    def _base(self) -> Expr:
        self._skip_ws()
        c = self._peek()
        if not c:
            self._error("expected an expression")
        if c == "(":
            self.pos += 1
            e = self._expr()
            self._skip_ws()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return e
        if c == "-":
            self.pos += 1
            return neg(self._base())
        if c.isdigit():
            m = _NUMBER_RE.match(self.src, self.pos)
            self.pos = m.end()
            return Const(float(m.group()))
        if c.isalpha():
            return self._identifier()
        self._error(f"unexpected character {c!r}")

    def _identifier(self) -> Expr:
        start = self.pos
        m = _IDENT_RE.match(self.src, start)
        s = m.group()
        if s in FUNCTIONS:
            self.pos = m.end()
            self._skip_ws()
            if self._peek() != "(":
                self._error(f"expected '(' after function {s!r}")
            self.pos += 1
            arg = self._expr()
            self._skip_ws()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return call(s, arg)
        if s in self.allowed:
            self.pos = m.end()
            return Var(s)
        # back off to the longest allowed prefix ending before a caret
        for k in (i for i in range(len(s) - 1, 0, -1) if s[i] == "^"):
            prefix = s[:k]
            if prefix in self.allowed:
                self.pos = start + k
                return Var(prefix)
        stem = s.split("^", 1)[0]
        raise UnknownIdentifier(stem, position=start)


def parse(source: str, allowed_vars: Iterable[str] = ()) -> Expr:
    """Parse source text into a canonical expression tree.

    Every identifier must be a declared variable name or one of the known
    functions; anything else raises UnknownIdentifier.
    """
    return _Parser(source, frozenset(allowed_vars)).parse()


# ---------------------------------------------------------------------------
# sampling and numeric equivalence

TEMPORAL_RANGE = (-0.9, 0.9)
SPATIAL_RANGE = (-0.9, 0.9)
MOMENTUM_RANGE = (-2.0, 2.0)


@dataclass(frozen=True)
class SampleDomain:
    """A box of variable intervals plus a sample count and RNG seed.

    ``points()`` is deterministic: the same domain always produces the
    same list of assignments.
    """

    intervals: tuple
    count: int = 20
    seed: int = 0

    def __post_init__(self):
        # an empty batch would let every check pass vacuously
        if self.count < 1:
            raise ConfigError(f"sample count must be at least 1, got {self.count}")

    @classmethod
    def default(cls, names: Iterable[str], count: int = 20, seed: int = 0) -> "SampleDomain":
        ivs = []
        for nm in names:
            lo, hi = MOMENTUM_RANGE if nm.startswith("p") else TEMPORAL_RANGE
            ivs.append((nm, lo, hi))
        return cls(tuple(ivs), count, seed)

    def names(self):
        return tuple(nm for nm, _, _ in self.intervals)

    def points(self) -> list:
        # one draw stream per variable, so extending the domain with new
        # variables never disturbs the values drawn for existing ones
        rng = np.random.default_rng(self.seed)
        columns = {nm: rng.uniform(lo, hi, self.count) for nm, lo, hi in self.intervals}
        return [{nm: float(col[i]) for nm, col in columns.items()}
                for i in range(self.count)]

    def with_options(self, count=None, seed=None) -> "SampleDomain":
        return replace(self,
                       count=self.count if count is None else count,
                       seed=self.seed if seed is None else seed)

    def extended(self, names: Iterable[str]) -> "SampleDomain":
        """Add default intervals for any names not already covered."""
        have = set(self.names())
        extra = [nm for nm in names if nm not in have]
        if not extra:
            return self
        more = SampleDomain.default(extra).intervals
        return replace(self, intervals=self.intervals + more)


def equiv(e1: Expr, e2: Expr, dom: SampleDomain | None = None, tol: float = 1e-9) -> bool:
    """Numeric equivalence on a sampled box.

    True iff |e1 - e2| <= tol * max(1, |e1|, |e2|) at every sampled point.
    """
    e1, e2 = as_expr(e1), as_expr(e2)
    if dom is None:
        dom = SampleDomain.default(sorted(variables(e1) | variables(e2)))
    else:
        dom = dom.extended(sorted(variables(e1) | variables(e2)))
    for v1, v2 in compile_block((e1, e2)).run(dom.points()).tolist():
        if abs(v1 - v2) > tol * max(1.0, abs(v1), abs(v2)):
            return False
    return True


def is_zero(e: Expr, dom: SampleDomain | None = None, tol: float = 1e-9) -> bool:
    return equiv(as_expr(e), ZERO, dom, tol)
