"""Exact symbolic expressions over named real variables.

The expression language is deliberately small: sums, products, integer
powers, quotients and negations of float constants, named variables, and
the unary functions exp, ln, sin, cos, sqrt.  Sums and products are kept
flat and all-constant subtrees are folded at construction time; ``add``
and ``mul`` flatten, fold and merge their operands in one pass.  Only
the constructor functions ``add``, ``mul``, ``power``, ``neg``, ``div``
and ``call``, and the leaf classes ``Const`` and ``Var``, build nodes: a
compound node class refuses a call.  Nodes are immutable and hash-consed
by ``_intern``: there is one live node per structure, so two expressions
are equal exactly when they are the same object, and ``==`` is ``is``.
The intern table is a plain dict from a node's key to a weak reference to
the node, so it keeps no node alive: a node is freed by reference counting
as soon as nothing holds it, and the reference's callback drops its entry.

Interning also makes a node a sound cache key.  Every node records its
set of free variable names when it is interned, built from its children's
sets (equal sets are one shared object), so ``variables`` is a read, not a
walk.  Derivatives are cached in one place only: inside a
``keeping(store)`` block, ``differentiate`` reads and records them in
``store``, a dict keyed by (node, name).  So an owner such as a Hamilton
space derives each derivative of its build once and keeps it exactly as
long as itself.  Outside any block a call has only its own memo.

Differentiation and substitution are exact tree rewrites.  They,
compiling, one-point evaluation and printing walk the DAG with one
explicit stack, and evaluation is a one-point run of a program, so only
the parser recurses.  Semantic equality of expressions is decided by
sampling a seeded box, because symbolic normal forms are out of scope
here: ``equiv`` and every sampled check of the geometry layers compare
the scaled residual that ``deviation`` gives with their tolerance.

Variable naming convention used by the geometry layers: temporal
coordinates ``t1..tm``, spatial coordinates ``x1..xn``, polymomenta
``p<i>_<a>`` (so ``p2_1`` has spatial index 2, temporal index 1).
``SampleDomain.default`` gives ``p*`` variables ``MOMENTUM_RANGE``, [-2, 2],
``x*`` variables ``SPATIAL_RANGE`` and any other ``TEMPORAL_RANGE``, both
[-0.9, 0.9].
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import chain
import operator
import re
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
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

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_DIGITS_RE = re.compile(r"\d+")

# Deepest nesting of parentheses, function calls and unary minus that the
# parser accepts.  The parser recurses, several stack frames per level; at
# this depth it runs with room to spare below Python's default recursion
# limit.  The other walks (evaluate, differentiate, substitute,
# compile_block, to_string) keep their own stack, and equality, hashing
# and variables are identity and a recorded set, so none of them needs a
# frame per level.
MAX_NESTING = 64


class _Entry(weakref.ref):
    """A weak reference to a node that carries the node's intern key.
    Unlike ``weakref.KeyedRef`` it is built without a Python-level call."""

    __slots__ = ("key",)


# The intern table: one live node per structure.  It maps a node's key to
# an ``_Entry`` of the node, so it keeps no node alive: when a node dies,
# the entry's callback drops it, unless a newer node has taken the key by
# then.
_NODES: dict[tuple, _Entry] = {}


def _forget(entry, nodes=_NODES):
    # the table is bound here, not looked up: interpreter shutdown may
    # clear the module's globals while nodes still die
    if nodes.get(entry.key) is entry:
        del nodes[entry.key]


# Every free-variable set a node has recorded, so that equal sets are one
# object.  It holds sets of names only: a (3, 3) connection build records
# about 200 of them for 10^4 nodes.
_VARSETS: dict[frozenset, frozenset] = {}
_NO_VARS = _VARSETS.setdefault(frozenset(), frozenset())


def _shared_vars(names: frozenset) -> frozenset:
    return _VARSETS.setdefault(names, names)


class Expr:
    """Base class for expression nodes.  Immutable and interned.

    A compound node class refuses a call, whatever its arguments, with a
    TypeError naming ``_BUILDER``, the function that builds its nodes.
    Building a node whose structure already exists returns the existing
    object, so ``==`` and ``hash`` are those of identity.

    Besides its fields, a node carries ``_vars``, its free-variable set,
    fixed when it is interned.  A node refers to nothing else: no cache
    hangs off it, so it is freed as soon as nothing holds it.
    """

    __slots__ = ("__weakref__", "_vars")
    _BUILDER = "the constructor functions"

    def __new__(cls, *args, **kwargs):
        raise TypeError(f"build {cls.__name__} nodes with {cls._BUILDER}, "
                        "not by calling the class")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copies and unpickled nodes are interned again, compound ones
        # without a class call
        cls, fields = type(self), tuple(getattr(self, name) for name in self.__slots__)
        if cls is Const or cls is Var:
            return cls, fields
        return _intern, (cls, (cls, *fields), fields)

    def children(self) -> tuple:
        """The child nodes, in the order every walk visits them."""
        return ()

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


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)
        # keyed by its hex text, so -0.0 and 0.0 stay two nodes
        return _intern(cls, (cls, value.hex()), (value,))


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        return _intern(cls, (cls, name), (name,), frozenset((name,)))


class Sum(Expr):
    __slots__ = ("terms",)
    _BUILDER = "add()"

    def children(self):
        return self.terms


class Product(Expr):
    """A product.  Only ``mul`` builds one, so its factors are canonical: at
    least two, flat, at most one constant (the leading coefficient, never
    0 or 1), and no two adjacent factors with the same base."""

    __slots__ = ("factors",)
    _BUILDER = "mul()"

    def children(self):
        return self.factors


class Power(Expr):
    __slots__ = ("base", "exponent")
    _BUILDER = "power()"

    def children(self):
        return (self.base,)


class Neg(Expr):
    __slots__ = ("arg",)
    _BUILDER = "neg()"

    def children(self):
        return (self.arg,)


class Quotient(Expr):
    __slots__ = ("numerator", "denominator")
    _BUILDER = "div()"

    def children(self):
        # the denominator first: evaluation tests it for zero before it
        # computes the numerator, and every walk shares this order
        return (self.denominator, self.numerator)


class Call(Expr):
    __slots__ = ("func", "arg")
    _BUILDER = "call()"

    def children(self):
        return (self.arg,)


def _free_vars(fields) -> frozenset:
    """The union of the free-variable sets of the child nodes in ``fields``
    (a node's fields hold its children directly or in one tuple)."""
    out = _NO_VARS
    for field in fields:
        for kid in field if type(field) is tuple else (field,):
            if isinstance(kid, Expr):
                names = kid._vars
                if not (names is out or names <= out):
                    out = names if out <= names else out | names
    return _shared_vars(out)


def _intern(cls, key, fields, names=None):
    """The live node of kind ``cls`` under ``key``, made from ``fields``
    (with ``names`` as its free variables, or its children's union) when
    there is none.  Every node is built here."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_vars", _free_vars(fields) if names is None
                       else _shared_vars(names))
    entry = _Entry(node, _forget)
    entry.key = key
    _NODES[key] = entry
    return node


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(value) -> Expr:
    """Coerce a number into a Const, passing Exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def expr_array(components, shape, allowed=None, label: str = "expression block") -> np.ndarray:
    """The one storage format of expression blocks: a read-only object
    array of the given shape whose entries went through ``as_expr``.

    With ``allowed`` given, every entry may use only those variable names.
    A wrong shape or a foreign variable raises ConfigError naming ``label``.
    """
    shape = tuple(shape)
    try:
        source = np.asarray(components, dtype=object)
    except ValueError:  # ragged nesting that numpy cannot lay out
        raise ConfigError(f"{label} must have shape {shape}") from None
    if source.shape != shape:
        raise ConfigError(f"{label} must have shape {shape}, got {source.shape}")
    block = np.fromiter(map(as_expr, source.flat), dtype=object,
                        count=source.size).reshape(shape)
    if allowed is not None:
        allowed = frozenset(allowed)
        for index, e in np.ndenumerate(block):
            extra = variables(e) - allowed
            if extra:
                where = f"{label}[{','.join(str(i + 1) for i in index)}]" if index else label
                raise ConfigError(f"{where} uses foreign variables {sorted(extra)}")
    block.flags.writeable = False
    return block


def var(name: str) -> Var:
    return Var(name)


def add(*terms: Expr) -> Expr:
    """Flattened, constant-folded sum.  Zero terms are absorbed."""
    acc = 0.0
    out = []
    for t in terms:
        for t in t.terms if type(t) is Sum else (t,):
            if type(t) is Const:
                acc += t.value
            else:
                out.append(t)
    if acc != 0.0:
        out.append(_folded(acc, terms, Sum))
    if len(out) > 1:
        out = tuple(out)
        return _intern(Sum, (Sum, out), (out,))
    return out[0] if out else ZERO


def mul(*factors: Expr) -> Expr:
    """Flattened, constant-folded product.  A zero factor annihilates;
    unit factors are absorbed; adjacent equal factors merge to powers
    (x*x -> x^2), in the one pass that flattens and folds.  A factor that
    merges with nothing is kept as it is."""
    coeff = 1.0
    out = []
    last, k_last, merged = None, 0, False  # the base and exponent of out[-1]
    for f in factors:
        for f in f.factors if type(f) is Product else (f,):
            kind = type(f)
            if kind is Const:
                coeff *= f.value
                continue
            base, k = (f.base, f.exponent) if kind is Power else (f, 1)
            if base is last:
                k_last += k
                merged = True
                continue
            if merged:
                out[-1] = _intern(Power, (Power, last, k_last), (last, k_last))
                merged = False
            out.append(f)
            last, k_last = base, k
    if coeff == 0.0:
        return ZERO
    if merged:
        out[-1] = _intern(Power, (Power, last, k_last), (last, k_last))
    if coeff != 1.0:
        out.insert(0, _folded(coeff, factors, Product))
    if len(out) > 1:
        out = tuple(out)
        return _intern(Product, (Product, out), (out,))
    return out[0] if out else ONE


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return _intern(Neg, (Neg, e), (e,))


def power(base: Expr, exponent) -> Expr:
    """``base`` to an integer power; a negative one is the reciprocal of
    the positive power."""
    n = operator.index(exponent)
    k = abs(n)
    if k == 0:
        out = ONE
    elif k == 1:
        out = base
    elif isinstance(base, Const):
        out = Const(_power_value(base.value, k))
    else:
        if isinstance(base, Power):
            base, k = base.base, base.exponent * k
        out = _intern(Power, (Power, base, k), (base, k))
    return div(ONE, out) if n < 0 else out


def div(numerator: Expr, denominator: Expr) -> Expr:
    if isinstance(denominator, Const):
        if denominator.value == 0.0:
            raise DomainError("division by constant zero")
        if isinstance(numerator, Const):
            return _folded(numerator.value / denominator.value, (numerator, denominator))
        # fold the reciprocal into a coefficient
        return mul(_folded(1.0 / denominator.value, (denominator,)), numerator)
    if isinstance(numerator, Const) and numerator.value == 0.0:
        return ZERO
    return _intern(Quotient, (Quotient, numerator, denominator), (numerator, denominator))


def _folded(value: float, operands, flat=None) -> Const:
    """The constant folded from ``operands``, where an operand of kind
    ``flat`` stands for its children.  The operands are read only when
    ``value`` is not finite, to raise when finite constants overflowed."""
    if not math.isfinite(value):
        _no_overflow(value, [e.value for e in operands
                             for e in (e.children() if type(e) is flat else (e,))
                             if type(e) is Const], "constant folding")
    return Const(value)


def _no_overflow(value: float, operands, what: str) -> float:
    """``value``, computed by ``what`` from ``operands``.  It may pass on an
    infinity or NaN it was given, but must not make one out of finite
    operands."""
    if not math.isfinite(value) and all(map(math.isfinite, operands)):
        raise DomainError(f"{what} overflows to {value!r}")
    return value


def _power_value(base: float, exponent: int) -> float:
    try:
        return base ** exponent
    except OverflowError as exc:
        raise DomainError(f"power overflow at {base!r}^{exponent}") from exc


def _product_value(values) -> float:
    return _no_overflow(math.prod(values), values, "product")


def _quotient_value(numerator: float, denominator: float) -> float:
    return _no_overflow(numerator / denominator, (numerator, denominator), "quotient")


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
    if name in ("sin", "cos"):
        if math.isinf(value):
            raise DomainError(f"{name} of infinite value {value!r}")
        return math.sin(value) if name == "sin" else math.cos(value)
    if value < 0.0:  # sqrt, the last of FUNCTIONS
        raise DomainError(f"sqrt of negative value {value!r}")
    return math.sqrt(value)


def call(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise UnknownIdentifier(name)
    arg = as_expr(arg)
    if isinstance(arg, Const):
        return Const(_apply_function(name, arg.value))
    return _intern(Call, (Call, name, arg), (name, arg))


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


def _post_order(roots, memo: dict, settle):
    """Yield ``(node, values of its children)`` for each node under
    ``roots`` that ``memo`` lacks, once, children first, depth first from
    the first root.  The walk keeps its own stack, so depth costs no Python
    frames.  The loop must put each yielded node's value in ``memo``.

    ``settle(node)`` is called once per node reached that ``memo`` lacks,
    before its children: a value it returns (never None) goes into
    ``memo``, and the children are not walked; None walks the node.
    """
    stack = [(None, iter(roots), [])]
    while stack:
        node, kids, values = stack[-1]
        for kid in kids:
            value = memo.get(kid)
            if value is None:
                value = settle(kid)
                if value is None:
                    stack.append((kid, iter(kid.children()), []))
                    break
                memo[kid] = value
            values.append(value)
        else:
            stack.pop()
            if stack:
                yield node, values
                stack[-1][2].append(memo[node])


def evaluate(e: Expr, assignment: Mapping[str, float]) -> float:
    """Evaluate an expression at a point: a one-point run of a fresh
    program, which walks the expression once and compiles it only to
    replay a fault, so it raises exactly the errors ``Program.run``
    raises."""
    return float(compile_block([as_expr(e)]).run([assignment])[0, 0])


# The stores of the active ``keeping`` blocks, innermost last.
_KEEPERS: list[dict] = []


@contextmanager
def keeping(store: dict):
    """Within the block, ``differentiate`` caches every derivative in
    ``store`` (the innermost block's, when blocks nest), keyed by
    (node, name): it reuses what the store holds and records what it
    builds there.  The derivatives then live as long as ``store`` does and
    are freed with it by reference counting: a node never refers to a
    store."""
    _KEEPERS.append(store)
    try:
        yield store
    finally:
        _KEEPERS.pop()


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the named variable.

    A node whose recorded variable set lacks ``name`` has derivative
    ``ZERO``, settled without a walk and without touching a store.  So the
    result is ``ZERO``, never the ``Const(-0.0)`` that the rules would
    build for ``neg(y)`` or ``cos(y)`` by ``x``.  The call's memo keeps
    its own results, so a subtree shared within the expression is derived
    once.  Inside a ``keeping`` block any other node's derivative is also
    looked up in the block's store before it is computed and recorded
    there after, so it is derived once for as long as the store lives.
    Outside any block nothing outlives the call, so the work a call does
    never depends on which derivatives a caller holds.  Either way the
    result is the same node.
    """
    kept = _KEEPERS[-1] if _KEEPERS else {}  # outside a block, one that dies with the call

    def settle(node):
        if name not in node._vars:
            return ZERO
        if type(node) is Var:
            return ONE
        return kept.get((node, name))

    e, memo = as_expr(e), {}
    for node, ds in _post_order([e], memo, settle):
        kind = type(node)
        if kind is Sum:
            out = add(*ds)
        elif kind is Product:
            fs = node.factors
            out = add(*[mul(*fs[:i], df, *fs[i + 1:]) for i, df in enumerate(ds)
                        if df is not ZERO])
        elif kind is Power:
            out = mul(Const(node.exponent), power(node.base, node.exponent - 1), ds[0])
        elif kind is Neg:
            out = neg(ds[0])
        elif kind is Quotient:
            (dv, du), u, v = ds, node.numerator, node.denominator
            out = div(add(mul(du, v), neg(mul(u, dv))), power(v, 2))
        else:
            u, du = node.arg, ds[0]
            if node.func == "exp":
                out = mul(node, du)
            elif node.func == "ln":
                out = div(du, u)
            elif node.func == "sin":
                out = mul(call("cos", u), du)
            elif node.func == "cos":
                out = neg(mul(call("sin", u), du))
            else:  # sqrt
                out = div(du, mul(Const(2.0), node))
        memo[node] = kept[node, name] = out
    return memo[e]


def jacobian(block, names) -> np.ndarray:
    """The derivative table of a block: a read-only ``expr_array`` of shape
    (*block's shape, len(names)) whose entry [..., k] is
    ``differentiate(entry, names[k])``.  ``block`` is an expression, an
    array or a nested sequence of expressions.  Each distinct entry node is
    derived once per name, so a symmetric block's (i, j) and (j, i) share
    one derivation."""
    entries = np.asarray(block, dtype=object)
    derived = {e: [differentiate(e, nm) for nm in names] for e in dict.fromkeys(entries.flat)}
    shape = (*entries.shape, len(names))
    table = np.array([derived[e] for e in entries.flat], dtype=object).reshape(shape)
    return expr_array(table, shape)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding through the smart
    constructors (so folding applies to the result).  A subtree whose
    recorded variable set names no mapped variable is returned as it is,
    without a walk: rebuilding it would give the same node."""
    table = {k: as_expr(v) for k, v in mapping.items()}

    def settle(node):
        if node._vars.isdisjoint(table):
            return node
        return table[node.name] if type(node) is Var else None

    e, memo = as_expr(e), {}
    for node, kids in _post_order([e], memo, settle):
        memo[node] = _rebuild(node, kids)
    return memo[e]


def _rebuild(node: Expr, kids) -> Expr:
    """A compound node's kind over new children, in ``children()`` order,
    built through the smart constructors (so folding applies)."""
    kind = type(node)
    if kind is Sum:
        return add(*kids)
    if kind is Product:
        return mul(*kids)
    if kind is Power:
        return power(kids[0], node.exponent)
    if kind is Neg:
        return neg(kids[0])
    if kind is Quotient:
        return div(kids[1], kids[0])
    return call(node.func, kids[0])


def variables(e: Expr) -> frozenset:
    """The set of variable names occurring in the expression, as recorded
    when the node was interned."""
    return e._vars


# ---------------------------------------------------------------------------
# compiled evaluation

_CONST, _VAR, _SUM, _PRODUCT, _POWER, _NEG, _QUOTIENT, _CALL = range(8)

_CALL_VALUE = {"exp": math.exp, "ln": math.log, "sin": math.sin,
               "cos": math.cos, "sqrt": math.sqrt}

# what reading a batch raises for a missing or unreadable variable, and a
# column pass where ``evaluate`` may fail at some sample
_FAULTS = (ArithmeticError, ValueError, LookupError, TypeError)


def _node_op(node):
    """(opcode, payload) of one expression node."""
    kind = type(node)
    if kind is Sum:
        return _SUM, None
    if kind is Product:
        return _PRODUCT, None
    if kind is Power:
        return _POWER, node.exponent
    if kind is Neg:
        return _NEG, None
    if kind is Quotient:
        return _QUOTIENT, None
    if kind is Call:
        return _CALL, node.func
    if kind is Var:
        return _VAR, node.name
    return _CONST, node.value


def compile_block(exprs) -> "Program":
    """A block of expressions as one straight-line program.

    ``exprs`` is an array or a nested sequence of expressions, and the
    program keeps its shape.  Compiling records the roots, the shape and
    the variables the roots read; the ops are built only when a run first
    needs them (``Program``), so a block evaluated once at one point is
    walked, never compiled.
    """
    block = np.asarray(exprs, dtype=object)
    return Program(list(map(as_expr, block.flat)), block.shape)


def _build_ops(roots) -> tuple:
    """The ops of a program over ``roots``: (ops, root slots, checks).

    The union of the roots is walked once with one memo.  Nodes are
    interned, so each distinct node is one structure and gets one slot:
    structurally equal subtrees share it.  Slots are numbered as the walk
    finishes nodes, a quotient's denominator before its numerator, the
    order in which a replay computes and checks them.
    """
    slot_of: dict[Expr, int] = {}
    ops: list[tuple] = []
    # op index -> denominator slots tested for zero before that op, which
    # is the first new slot of the quotient's numerator (or the quotient)
    checks: dict[int, list] = {}
    entered: dict[Expr, int] = {}

    def settle(node):
        if type(node) is Quotient:
            entered[node] = len(ops)

    for node, kids in _post_order(roots, slot_of, settle):
        code, payload = _node_op(node)
        kids = tuple(kids)
        if code == _QUOTIENT:
            # the numerator's new slots start right after a new denominator,
            # or where the quotient's walk began when the denominator is older
            den = kids[0]
            checks.setdefault(max(den + 1, entered.pop(node)), []).append(den)
        slot_of[node] = len(ops)
        ops.append((code, payload, kids))
    return tuple(ops), tuple(slot_of[r] for r in roots), checks


def _level_plan(ops, roots) -> tuple:
    """The level plan of a program's ops: (constant values, steps, root
    rows).

    The plan gives every op a row of the value matrix: the variables
    first, in name order (the order of ``Program.reads``), then the
    constants, then the ops of one level, kind, payload and arity after
    another, in level order, so that each such group fills one run of
    rows.  A step is (opcode, payload, first
    row, end row, kid rows), the kid rows an (arity, group size) matrix.
    Every op's children are on lower levels, so a step reads only rows
    that the steps before it, or the variables and constants, filled.
    """
    levels, names, constants, groups = [], [], [], {}
    for slot, (code, arg, kids) in enumerate(ops):
        if not kids:
            levels.append(0)
            (names if code == _VAR else constants).append((slot, arg))
            continue
        level = 1 + max(map(levels.__getitem__, kids))
        levels.append(level)
        groups.setdefault((level, code, arg, len(kids)), []).append(slot)
    row = [0] * len(ops)
    for index, (slot, _) in enumerate(sorted(names, key=lambda item: item[1]) + constants):
        row[slot] = index
    end, steps = len(names) + len(constants), []
    for (_, code, arg, _), slots in sorted(groups.items(), key=lambda group: group[0][0]):
        start = end
        for slot in slots:
            row[slot] = end
            end += 1
        kids = [[row[k] for k in ops[slot][2]] for slot in slots]
        steps.append((code, arg, start, end, np.array(kids, dtype=np.intp).T.copy()))
    return (np.array([v for _, v in constants], dtype=float), tuple(steps),
            np.array([row[r] for r in roots], dtype=np.intp))


class Program:
    """A straight-line program with one slot per distinct node of a block.

    ``reads`` is the sorted union of the roots' recorded variable sets,
    known without a walk.  ``run`` reads a batch once, into a float64
    matrix of (point, ``reads``) values, and evaluates every op over all
    sample points at once, with the very scalar operations of a one-point
    replay, so results are bit-identical to it: ``math.fsum`` per point
    for sums, products multiplied left to right, Python ``float ** int``
    and the ``math`` functions.  Where some op faults, or any value of the
    pass is not finite (from the input, or an overflow), every sample is
    replayed in order instead, with every domain check: the first sample
    at which one fails raises its error, and when none does, the replayed
    values are the result.  A batch that cannot be read (a missing
    variable, a value ``float`` refuses) goes to the replay without a
    pass, and the replay, reading the points itself, raises the error
    evaluation raises.  The replay is the only code that raises an
    evaluation error.

    The ops (``ops`` and the root slots ``roots``, with the replay's zero
    tests) are built from the root expressions the first time they are
    needed, and from then on the program keeps no reference to the
    expressions.  A program that has never run and is given one point
    does not need them: it walks the roots' DAG once with ``_post_order``
    and computes each node as a Python float, with the operations of the
    passes below.  If the point cannot be read, an op faults or some value
    is not finite, the ops are built and the batch takes the path of any
    first run, so every error stays the replay's.  A walked point takes
    the stored-batch slot, and only a later, different batch builds the
    ops.

    A program's first column pass walks the ops in slot order, one list
    of values per op.  A program that runs again was worth more than that
    walk: its second pass builds a level plan, kept from then on, and
    every later pass runs it.  An op's level is one more than its
    children's highest (variables and constants are level 0), and the
    plan groups the ops of one level by kind, payload and arity.  Each
    pass then fills one float64 matrix of (op, point) values a group at a
    time.  Products, quotients and negations are one numpy gather and
    elementwise arithmetic per group; IEEE rounds each multiplication,
    division and negation as Python does, and products chain their
    factors first to last, as the walk does.  Sums, powers and calls stay
    per value in Python, through ``math.fsum``, ``**`` and the ``math``
    functions, because numpy's sums, powers and transcendental functions
    may round differently.  The plan costs more to build than one walk,
    so a program that runs once never builds it.  Both passes take their
    variable values from the batch's matrix.

    A program remembers its last successful batch, in one slot.  The key
    is the point count and the bytes of the batch's matrix, so ``-0.0``
    and ``0.0`` are two batches.  A batch with the slot's key gets a copy
    of the stored result without a pass; any other batch is run and, when
    the run succeeds, takes the slot.  A run that raises stores nothing.
    Every caller gets an array of its own: changing it changes no later
    result.
    """

    __slots__ = ("shape", "reads", "_exprs", "_code", "_last", "_plan")

    def __init__(self, roots, shape):
        self.shape = tuple(shape)
        self.reads = tuple(sorted(_NO_VARS.union(*(e._vars for e in roots))))
        self._exprs = tuple(roots)  # the root expressions, until the ops are built
        self._code = None  # (ops, root slots, checks), once built
        self._last = (None, None)  # (batch key, result) of the last successful run
        self._plan = None  # None before the first column pass, False after it, then the plan

    def _built(self) -> tuple:
        if self._code is None:
            self._code = _build_ops(self._exprs)
            self._exprs = None
        return self._code

    @property
    def ops(self) -> tuple:
        """(opcode, payload, child slots) per distinct node, in slot order."""
        return self._built()[0]

    @property
    def roots(self) -> tuple:
        """The slot of each root, in the block's flat order."""
        return self._built()[1]

    def run(self, points) -> np.ndarray:
        """Values at each point: an array of shape (len(points), *shape)."""
        points = list(points)
        try:
            read = np.array([float(pt[name]) for pt in points for name in self.reads],
                            dtype=float).reshape(len(points), len(self.reads))
        except _FAULTS:
            # the replay reads the points itself and raises evaluation's error
            for point in points:
                self._replay(point)
            raise
        key = (len(points), read.tobytes())
        if key == self._last[0]:
            return self._last[1].copy()
        out = None
        if len(points) == 1 and self._code is None and self._last[0] is None:
            out = self._walk_point(dict(zip(self.reads, read[0].tolist())))
        if out is None:
            try:
                out = self._columns(read)
            except _FAULTS:
                out = np.array([self._replay(point) for point in points], dtype=float)
        out = np.ascontiguousarray(out).reshape(len(points), *self.shape)
        self._last = (key, out)
        return out.copy()

    def _walk_point(self, point) -> list | None:
        """The roots' values at one point, a dict from each name of
        ``reads`` to its value, by one walk of the expressions; or None
        where the replay may differ: some op faults or some value is not
        finite.  Each node's arithmetic is that of ``_walk_columns``, kept
        inline in both: at one point a function call per node costs about
        as much as the arithmetic it would share."""
        def settle(node):
            kind = type(node)
            if kind is Const:
                return node.value
            if kind is Var:
                return point[node.name]
            return None

        memo: dict[Expr, float] = {}
        try:
            for node, kids in _post_order(self._exprs, memo, settle):
                kind = type(node)
                if kind is Product:
                    value = math.prod(kids)  # 1*x is x for the finite values kept
                elif kind is Sum:
                    value = math.fsum(kids)
                elif kind is Power:
                    value = kids[0] ** node.exponent
                elif kind is Neg:
                    value = -kids[0]
                elif kind is Quotient:  # kids are (denominator, numerator)
                    value = kids[1] / kids[0]
                else:
                    value = _CALL_VALUE[node.func](kids[0])
                memo[node] = value
        except _FAULTS:
            return None
        # any value that is not finite sends the point to the column pass
        if not math.isfinite(sum(memo.values())):
            return None
        return [memo[e] for e in self._exprs]

    def _columns(self, read) -> np.ndarray:
        """The roots' values at every point of the (point, variable) matrix
        ``read``, shape (points, roots), or a fault where the replay may
        differ at some sample: the slot-order walk on the first pass, the
        level plan on every later one."""
        if self._plan is None:
            self._plan = False
            return self._walk_columns(read)
        if self._plan is False:
            self._plan = _level_plan(self.ops, self.roots)
        return self._level_columns(read)

    def _walk_columns(self, read) -> np.ndarray:
        """The roots' values, op by op in slot order.  A product column is
        a chain of elementwise multiplications, first factor to last; a sum
        column is ``math.fsum`` per point."""
        columns = dict(zip(self.reads, read.T.tolist()))  # one per variable
        vals: list[list] = []
        for code, arg, kids in self.ops:
            if code == _PRODUCT:
                # left to right, as math.prod multiplies from 1.0, and 1.0*x
                # is x (a NaN's sign bit may differ, but a NaN is never
                # kept: it sends the run to the replay)
                col = vals[kids[0]]
                for k in kids[1:]:
                    col = map(operator.mul, col, vals[k])
                col = list(col)
            elif code == _SUM:
                col = list(map(math.fsum, zip(*[vals[k] for k in kids])))
            elif code == _POWER:
                col = [v ** arg for v in vals[kids[0]]]
            elif code == _NEG:
                col = [-v for v in vals[kids[0]]]
            elif code == _QUOTIENT:  # kids are (denominator, numerator)
                col = list(map(operator.truediv, vals[kids[1]], vals[kids[0]]))
            elif code == _CALL:
                col = list(map(_CALL_VALUE[arg], vals[kids[0]]))
            elif code == _VAR:
                col = columns[arg]
            else:
                col = [arg] * len(read)
            vals.append(col)
        # any value that is not finite sends the batch to the replay
        if not math.isfinite(sum(chain.from_iterable(vals))):
            raise OverflowError("non-finite value")
        return np.array([vals[r] for r in self.roots], dtype=float).T

    def _level_columns(self, read) -> np.ndarray:
        """The roots' values, one group of one level's ops at a time, in a
        matrix of one row per op and one column per point."""
        constants, steps, roots = self._plan
        values = np.empty((len(self.ops), len(read)))
        values[:len(self.reads)] = read.T
        values[len(self.reads):len(self.reads) + len(constants)] = constants[:, None]
        # a zero denominator gives an infinity or NaN here instead of
        # raising, and the test below sends it to the replay
        with np.errstate(all="ignore"):
            for code, arg, start, end, kids in steps:
                operands = values.take(kids, axis=0)  # (arity, ops, points)
                out = values[start:end]
                if code == _PRODUCT:
                    out[...] = operands[0]
                    for factor in operands[1:]:
                        out *= factor
                elif code == _QUOTIENT:  # kids are (denominator, numerator)
                    np.divide(operands[1], operands[0], out=out)
                elif code == _NEG:
                    np.negative(operands[0], out=out)
                else:
                    if code == _SUM:
                        per_value = map(math.fsum, operands.transpose(1, 2, 0)
                                        .reshape(-1, len(operands)).tolist())
                    elif code == _POWER:
                        per_value = [v ** arg for v in operands.ravel().tolist()]
                    else:
                        per_value = map(_CALL_VALUE[arg], operands.ravel().tolist())
                    out[...] = np.fromiter(per_value, float, out.size).reshape(out.shape)
        if not np.isfinite(values).all():
            raise OverflowError("non-finite value")
        return values.take(roots, axis=0).T

    def _replay(self, point) -> list:
        """The roots' values at one point, op by op in slot order, with
        every domain check; the first check that fails raises."""
        ops, roots, checks = self._built()
        vals: list[float] = []
        for index, (code, arg, kids) in enumerate(ops):
            for den in checks.get(index, ()):
                if vals[den] == 0.0:
                    raise DomainError("division by zero during evaluation")
            if code == _CONST:
                val = arg
            elif code == _VAR:
                try:
                    val = float(point[arg])
                except KeyError:
                    raise UnboundVariable(arg) from None
            elif code == _SUM:
                val = _sum_value([vals[k] for k in kids])
            elif code == _PRODUCT:
                val = _product_value([vals[k] for k in kids])
            elif code == _POWER:
                val = _power_value(vals[kids[0]], arg)
            elif code == _NEG:
                val = -vals[kids[0]]
            elif code == _QUOTIENT:
                val = _quotient_value(vals[kids[1]], vals[kids[0]])
            else:
                val = _apply_function(arg, vals[kids[0]])
            vals.append(val)
        return [vals[r] for r in roots]


def cut(values: np.ndarray, *shapes) -> tuple:
    """Split the (P, k) values of a program compiled over several flat
    blocks, one after another, into one (P, *shape) array per block."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(values[:, start:start + size].reshape(len(values), *shape))
        start += size
    return tuple(out)


class Compiled:
    """An object whose ``expr_array`` blocks, the attributes ``BLOCKS``
    names, are evaluated at sample points.

    The blocks compile into one program on first use, in ``BLOCKS`` order,
    and every evaluation runs it and cuts the blocks out, so an evaluation
    fails at the first failing point with the first failing block's error.
    The program remembers its last batch, and builds its ops only when a
    run needs them (``Program``): an object evaluated once, at one point,
    is walked and never compiled.
    """

    BLOCKS = ("components",)

    @cached_property
    def _program(self) -> Program:
        return compile_block([e for name in self.BLOCKS for e in getattr(self, name).flat])

    def at_points(self, points):
        """One (P, *shape) array per block at each assignment: the array
        itself for a single block, a tuple in ``BLOCKS`` order otherwise."""
        values = cut(self._program.run(points),
                     *(getattr(self, name).shape for name in self.BLOCKS))
        return values[0] if len(values) == 1 else values

    def at(self, assignment):
        """The values of ``at_points`` at one assignment."""
        values = self.at_points([assignment])
        return values[0] if len(self.BLOCKS) == 1 else tuple(v[0] for v in values)


# ---------------------------------------------------------------------------
# printing

def _fmt_const(v: float) -> str:
    if abs(v) < 1e16 and v == math.floor(v):
        return str(int(v))
    return repr(v)


def _leaf_text(node):
    """The text of a variable or constant; None for any other node."""
    if type(node) is Var:
        return node.name
    if type(node) is Const:
        return "-" + _fmt_const(-node.value) if node.value < 0 else _fmt_const(node.value)
    return None


def to_string(e: Expr) -> str:
    """Render to source text.  parse(to_string(e), variables(e)) is e,
    except that the constant -0.0 prints as 0 and so reads back as 0.0,
    and NaN and infinite constants print as nan and inf, which parse
    refuses with UnknownIdentifier.

    The walk prints each distinct node once, so the cost follows the DAG,
    not the tree.  A parent parenthesizes a child's text by the child's
    kind alone: a factor or a denominator when it is a sum, product or
    quotient; a numerator or a negated term's argument when it is a sum;
    a power base or a negated argument unless it is a variable or call.
    """

    def paren(text, wrap):
        return f"({text})" if wrap else text

    compound = (Sum, Product, Quotient)
    e, memo = as_expr(e), {}
    for node, texts in _post_order([e], memo, _leaf_text):
        kind = type(node)
        if kind is Sum:
            parts = [texts[0]]
            for t, text in zip(node.terms[1:], texts[1:]):
                if type(t) is Neg:
                    parts.append(" - " + paren(memo[t.arg], type(t.arg) is Sum))
                elif type(t) is Const and t.value < 0:
                    parts.append(" - " + _fmt_const(-t.value))
                else:
                    parts.append(" + " + text)
            text = "".join(parts)
        elif kind is Product:
            text = "*".join(paren(s, type(f) in compound) for f, s in zip(node.factors, texts))
        elif kind is Quotient:
            den, num = texts
            text = (paren(num, type(node.numerator) is Sum) + "/"
                    + paren(den, type(node.denominator) in compound))
        elif kind is Power:
            text = paren(texts[0], type(node.base) not in (Var, Call)) + f"^{node.exponent}"
        elif kind is Neg:
            text = "-" + paren(texts[0], type(node.arg) not in (Var, Call))
        else:
            text = f"{node.func}({texts[0]})"
        memo[node] = text
    return memo[e]


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    """Recursive descent over the grammar

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := base ('^' integer)?
        base   := number | ident | func '(' expr ')' | '(' expr ')' | '-' base

    Parentheses, function calls and unary minus nest at most MAX_NESTING
    levels deep; deeper input is an ExprSyntaxError.  An identifier is a
    letter followed by letters, digits and underscores, so a caret always
    starts an exponent.
    """

    def __init__(self, source: str, allowed: frozenset):
        self.src = source
        self.pos = 0
        self.allowed = allowed
        self.depth = 0

    def parse(self) -> Expr:
        e = self._expr()
        self._skip_ws()
        if self.pos != len(self.src):
            self._error("unexpected trailing input")
        return e

    def _error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def _nested(self, parse_inner) -> Expr:
        """Consume the character that opens a nesting level, then
        ``parse_inner()`` one level further in."""
        if self.depth == MAX_NESTING:
            self._error(f"expression nests deeper than {MAX_NESTING} levels")
        self.pos += 1
        self.depth += 1
        e = parse_inner()
        self.depth -= 1
        return e

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
            e = self._nested(self._expr)
            self._skip_ws()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return e
        if c == "-":
            return neg(self._nested(self._base))
        if c.isdigit():
            m = _NUMBER_RE.match(self.src, self.pos)
            value = float(m.group())
            if math.isinf(value):
                raise DomainError(f"numeric literal {m.group()} overflows")
            self.pos = m.end()
            return Const(value)
        if c.isalpha():
            return self._identifier()
        self._error(f"unexpected character {c!r}")

    def _identifier(self) -> Expr:
        m = _IDENT_RE.match(self.src, self.pos)
        s = m.group()
        if s in FUNCTIONS:
            self.pos = m.end()
            self._skip_ws()
            if self._peek() != "(":
                self._error(f"expected '(' after function {s!r}")
            arg = self._nested(self._expr)
            self._skip_ws()
            if self._peek() != ")":
                self._error("expected ')'")
            self.pos += 1
            return call(s, arg)
        if s in self.allowed:
            self.pos = m.end()
            return Var(s)
        raise UnknownIdentifier(s, position=self.pos)


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
        if self.seed < 0:
            raise ConfigError(f"sample seed must be non-negative, got {self.seed}")

    @classmethod
    def default(cls, names: Iterable[str], count: int = 20, seed: int = 0) -> "SampleDomain":
        ivs = []
        for nm in names:
            lo, hi = (MOMENTUM_RANGE if nm.startswith("p")
                      else SPATIAL_RANGE if nm.startswith("x") else TEMPORAL_RANGE)
            ivs.append((nm, lo, hi))
        return cls(tuple(ivs), count, seed)

    def names(self):
        return tuple(nm for nm, _, _ in self.intervals)

    def points(self) -> list:
        # one generator draws every interval's column in turn, in interval
        # order: appending names (``extended``) keeps the values drawn for
        # the earlier ones, but a name at another position, or after other
        # names, gets other values, so domains over different name lists
        # sample different points
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


def scaled_residual(a, b) -> np.ndarray:
    """|a - b| / max(1, |a|, |b|) elementwise: not finite, so above every
    tolerance, where either side is a NaN or an infinity."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def deviation(lhs, rhs, dom: SampleDomain | None = None) -> tuple:
    """The points of ``dom`` and the (P, k) ``scaled_residual`` of k pairs
    of expressions, ``lhs[j]`` against ``rhs[j]``, there.  Both blocks run
    as one program on ``dom`` extended by the names they read, or on
    ``SampleDomain.default`` of those names when no box is given.  A pair
    holds at tolerance ``tol`` where its column is ``<= tol`` everywhere.
    """
    program = compile_block([*lhs, *rhs])
    dom = SampleDomain.default(program.reads) if dom is None else dom.extended(program.reads)
    points = dom.points()
    values = program.run(points)
    return points, scaled_residual(values[:, :len(lhs)], values[:, len(lhs):])


def equiv(e1: Expr, e2: Expr, dom: SampleDomain | None = None, tol: float = 1e-9) -> bool:
    """The ``deviation`` of e1 from e2 is within ``tol`` at every point, so
    a NaN or an infinity at any point makes it False."""
    return bool((deviation([e1], [e2], dom)[1] <= tol).all())


def is_zero(e: Expr, dom: SampleDomain | None = None, tol: float = 1e-9) -> bool:
    return equiv(e, ZERO, dom, tol)
