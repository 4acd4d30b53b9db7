"""Charts and chart transitions on the dual 1-jet bundle.

A chart on the total space carries coordinates (t^a, x^i, p_i^a) with
a = 1..m temporal and i = 1..n spatial indices; p_i^a are the polymomenta.
Coordinate names follow the fixed convention t1..tm, x1..xn, p<i>_<a>,
and both sides of a transition reuse the same names (data is always
chart-relative; there is no global manifold object).

A transition factors through the base: ttilde depends only on t, xtilde
only on x.  The induced transform of polymomenta is

    ptilde_i^a = (dx^j/dxtilde^i) (dttilde^a/dt^b) p_j^b

which this module also builds *symbolically* in source-chart variables:
the inverse spatial Jacobian comes from the adjugate of the forward
Jacobian, so the induced map and its t/x partial derivatives (the
correction terms of every non-homogeneous transformation law) are exact
and never require the explicit inverse map.

Explicit inverse expressions, when supplied, are what pullbacks, coframe
rows and inversion use; operations that need them say so.

``TransitionMap.map_points`` gives the numeric chart change at a batch of
points as one ``Frames`` record, which every law, transform and frame reads.
``TransitionMap.sample_frames`` gives it at the points of a sample domain
and remembers the last domain's record, so the laws of one battery and
``validate`` map their shared samples once.

``_derivatives`` builds both Jacobians and the momentum map's derivatives,
which the d-tensor pullback also reads; ``_through`` substitutes one map
into another for ``compose`` and ``validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SingularJacobian
from .linalg import checked_inverses, sym_inverse
from .symbolic import (
    Expr,
    Program,
    SampleDomain,
    Var,
    add,
    compile_block,
    cut,
    differentiate,
    equiv,
    expr_array,
    mul,
    substitute,
)


def t_name(a: int) -> str:
    return f"t{a + 1}"


def x_name(i: int) -> str:
    return f"x{i + 1}"


def p_name(i: int, a: int) -> str:
    return f"p{i + 1}_{a + 1}"


@dataclass(frozen=True)
class JetChart:
    """Dimensions plus the canonical coordinate names.

    Indices in code are 0-based; names are 1-based per the convention
    (p2_1 is the momentum with spatial index 2, temporal index 1).
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("chart dimensions must be positive")

    @cached_property
    def t_names(self):
        return tuple(t_name(a) for a in range(self.m))

    @cached_property
    def x_names(self):
        return tuple(x_name(i) for i in range(self.n))

    @cached_property
    def p_names(self):
        return tuple(p_name(i, a) for i in range(self.n) for a in range(self.m))

    @cached_property
    def names(self):
        return self.t_names + self.x_names + self.p_names

    @property
    def total_dim(self) -> int:
        return self.m + self.n + self.m * self.n

    def t_vars(self):
        return tuple(Var(nm) for nm in self.t_names)

    def x_vars(self):
        return tuple(Var(nm) for nm in self.x_names)

    def p_var(self, i: int, a: int) -> Var:
        return Var(p_name(i, a))

    def p_vars(self):
        """P[i][a] = p_i^a, one row per spatial index."""
        return tuple(tuple(self.p_var(i, a) for a in range(self.m)) for i in range(self.n))

    def sample_domain(self, count: int = 20, seed: int = 0) -> SampleDomain:
        return SampleDomain.default(self.names, count=count, seed=seed)

    def assignment(self, point: "JetPoint") -> dict:
        out = {t_name(a): float(point.t[a]) for a in range(self.m)}
        out.update({x_name(i): float(point.x[i]) for i in range(self.n)})
        for i in range(self.n):
            for a in range(self.m):
                out[p_name(i, a)] = float(point.p[i][a])
        return out

    def point(self, assignment) -> "JetPoint":
        t = np.array([assignment[t_name(a)] for a in range(self.m)], dtype=float)
        x = np.array([assignment[x_name(i)] for i in range(self.n)], dtype=float)
        p = np.array([[assignment[p_name(i, a)] for a in range(self.m)]
                      for i in range(self.n)], dtype=float)
        return JetPoint(t, x, p)


class JetPoint:
    """A point of the total space: t (m,), x (n,), p (n, m) with p[i][a]."""

    def __init__(self, t, x, p):
        self.t = np.asarray(t, dtype=float).reshape(-1)
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.p = np.asarray(p, dtype=float)
        if self.p.shape != (self.x.size, self.t.size):
            raise ValueError(f"p must have shape (n, m) = {(self.x.size, self.t.size)}, "
                             f"got {self.p.shape}")

    @property
    def m(self) -> int:
        return self.t.size

    @property
    def n(self) -> int:
        return self.x.size

    def __repr__(self):
        return f"JetPoint(t={self.t.tolist()}, x={self.x.tolist()}, p={self.p.tolist()})"


class Frames(NamedTuple):
    """One chart change at a batch of source points, from
    ``TransitionMap.map_points``.

    ``points`` are the source assignments and ``images`` their target
    assignments, in chart-name order.  ``jt`` (P, m, m) and ``jx`` (P, n, n)
    are the forward Jacobians d ttilde / d t and d xtilde / d x, ``kt`` and
    ``kx`` their inverses, and ``p`` (P, n, m) the source momenta p[i][a].
    A record from ``sample_frames`` is shared by every law that samples the
    same domain, so it is read-only: its points and images are tuples of
    read-only mappings and its arrays refuse writes.
    """

    points: list
    images: list
    jt: np.ndarray
    jx: np.ndarray
    kt: np.ndarray
    kx: np.ndarray
    p: np.ndarray


@dataclass(frozen=True, eq=False)
class TransitionMap:
    """A chart change t -> ttilde(t), x -> xtilde(x) with optional explicit
    inverses (expressions in the *target* chart's same-named variables).

    Forward expressions are enough for momentum and frame transforms
    and for all transformation-law checks; inverses are required by
    ``inverted``, ``coframe_matrix`` and the pullback helpers.  All four
    are ``expr_array`` blocks of shape (m,) or (n,).
    """

    m: int
    n: int
    t_forward: np.ndarray
    x_forward: np.ndarray
    t_inverse: np.ndarray | None = None
    x_inverse: np.ndarray | None = None

    def __post_init__(self):
        chart = JetChart(self.m, self.n)
        for attr, names, label in (("t_forward", chart.t_names, "temporal transition"),
                                   ("x_forward", chart.x_names, "spatial transition"),
                                   ("t_inverse", chart.t_names, "temporal inverse transition"),
                                   ("x_inverse", chart.x_names, "spatial inverse transition")):
            exprs = getattr(self, attr)
            if exprs is not None:
                object.__setattr__(self, attr, expr_array(exprs, (len(names),), names, label))
        # (domain key, frames) of the last successful ``sample_frames``
        object.__setattr__(self, "_frames_slot", (None, None))

    # -- charts ------------------------------------------------------------

    @property
    def chart(self) -> JetChart:
        return JetChart(self.m, self.n)

    @property
    def has_inverse(self) -> bool:
        return self.t_inverse is not None and self.x_inverse is not None

    @classmethod
    def identity(cls, m: int, n: int) -> "TransitionMap":
        chart = JetChart(m, n)
        return cls(m, n,
                   t_forward=chart.t_vars(), x_forward=chart.x_vars(),
                   t_inverse=chart.t_vars(), x_inverse=chart.x_vars())

    def inverted(self) -> "TransitionMap":
        if not self.has_inverse:
            raise ConfigError("transition map carries no inverse expressions")
        return self._inverse

    @cached_property
    def _inverse(self) -> "TransitionMap":
        # cached, so the inverse map's derivatives and programs are built once
        return TransitionMap(self.m, self.n,
                             t_forward=self.t_inverse, x_forward=self.x_inverse,
                             t_inverse=self.t_forward, x_inverse=self.x_forward)

    # -- symbolic jacobians and the induced momentum map --------------------

    @cached_property
    def t_jacobian(self):
        """J[a][b] = d ttilde^a / d t^b, expressions in source t variables."""
        return _derivatives(self.t_forward, self.chart.t_names)

    @cached_property
    def x_jacobian(self):
        """J[i][j] = d xtilde^i / d x^j, expressions in source x variables."""
        return _derivatives(self.x_forward, self.chart.x_names)

    @cached_property
    def x_jacobian_inverse_source(self):
        """K[j][i] = d x^j / d xtilde^i as expressions in *source* x variables
        (adjugate of the forward Jacobian; no explicit inverse map needed)."""
        return sym_inverse(self.x_jacobian, "inverting the x Jacobian")

    @cached_property
    def momentum_forward(self):
        """ptilde[i][a] as expressions in source-chart (t, x, p) variables."""
        chart = self.chart
        kx = self.x_jacobian_inverse_source
        jt = self.t_jacobian
        out = []
        for i in range(self.n):
            row = []
            for a in range(self.m):
                terms = [mul(kx[j][i], jt[a][b], chart.p_var(j, b))
                         for j in range(self.n) for b in range(self.m)]
                row.append(add(*terms))
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def pullback_map(self) -> dict:
        """The substitution of every pullback: each source coordinate t, x
        and p as an expression in target variables.  Needs the inverses."""
        chart = self.chart
        inv_momenta = self.inverted().momentum_forward
        mapping = dict(zip(chart.t_names, self.t_inverse))
        mapping.update(zip(chart.x_names, self.x_inverse))
        mapping.update(zip(chart.p_names, (e for row in inv_momenta for e in row)))
        return mapping

    @cached_property
    def momentum_forward_dt(self):
        """d ptilde[i][a] / d t^b, exact."""
        return _derivatives(self.momentum_forward, self.chart.t_names)

    @cached_property
    def momentum_forward_dx(self):
        """d ptilde[i][a] / d x^j, exact."""
        return _derivatives(self.momentum_forward, self.chart.x_names)

    # -- numeric maps ---------------------------------------------------------

    @cached_property
    def _t_program(self) -> Program:
        """ttilde, then its Jacobian row by row; reads t only."""
        return compile_block([*self.t_forward, *(e for row in self.t_jacobian for e in row)])

    @cached_property
    def _x_program(self) -> Program:
        """xtilde, then its Jacobian row by row; reads x only."""
        return compile_block([*self.x_forward, *(e for row in self.x_jacobian for e in row)])

    @cached_property
    def _momentum_program(self) -> Program:
        """d ptilde / dt, then d ptilde / dx, in index order."""
        return compile_block(
            [e for table in (self.momentum_forward_dt, self.momentum_forward_dx)
             for rows in table for row in rows for e in row])

    def momentum_derivatives(self, points):
        """d ptilde_i^a / d t^b (P, n, m, m) and d ptilde_i^a / d x^j
        (P, n, m, n) at each source assignment, exact."""
        m, n = self.m, self.n
        return cut(self._momentum_program.run(points), (n, m, m), (n, m, n))

    def map_points(self, points) -> Frames:
        """The chart change at a batch of source assignments: their images
        and the Jacobians with their inverses, invertibility enforced in
        point order, temporal before spatial."""
        m, n, chart = self.m, self.n, self.chart
        t_img, jt = cut(self._t_program.run(points), (m,), (m, m))
        x_img, jx = cut(self._x_program.run(points), (n,), (n, n))
        kt, kx = checked_inverses(points, SingularJacobian,
                                  ("temporal jacobian", jt), ("spatial jacobian", jx))
        p = np.array([[pt[nm] for nm in chart.p_names] for pt in points],
                     dtype=float).reshape(len(points), n, m)
        p_img = kx.transpose(0, 2, 1) @ p @ jt.transpose(0, 2, 1)
        rows = np.concatenate((t_img, x_img, p_img.reshape(len(points), -1)), axis=1)
        images = [dict(zip(chart.names, row)) for row in rows.tolist()]
        return Frames(list(points), images, jt, jx, kt, kx, p)

    def sample_frames(self, dom: SampleDomain) -> Frames:
        """``map_points(dom.points())``, remembered in one slot per map.

        The key is the domain's variable names, the exact bits of its
        interval bounds (so ``-0.0`` and ``0.0`` are two domains), and its
        count and seed with their types.  A domain with the slot's key gets
        the stored record, read-only, without drawing or mapping its
        points; any other domain is mapped and, when that succeeds, takes
        the slot.  A mapping that raises stores nothing, so every call on
        a domain with a singular Jacobian raises the same error."""
        key = _domain_key(dom)
        if key == self._frames_slot[0]:
            return self._frames_slot[1]
        frames = _read_only(self.map_points(dom.points()))
        object.__setattr__(self, "_frames_slot", (key, frames))
        return frames

    def map_point(self, q: JetPoint) -> JetPoint:
        return self.chart.point(self.map_points([self.chart.assignment(q)]).images[0])

    # -- frame and coframe ----------------------------------------------------

    def frame_matrix(self, q: JetPoint) -> np.ndarray:
        """Rows: source frame (d/dt^a, d/dx^i, d/dp_i^a) expressed on the
        target frame (columns, same ordering)."""
        m, n = self.m, self.n
        frames = self.map_points([self.chart.assignment(q)])
        jt, jx, kx = frames.jt[0], frames.jx[0], frames.kx[0]
        dpdt, dpdx = (v[0] for v in self.momentum_derivatives(frames.points))
        dim = self.chart.total_dim
        F = np.zeros((dim, dim))
        F[:m, :m] = jt.T
        F[m:m + n, m:m + n] = jx.T
        # column p_i^a: d ptilde_i^a / dt^b, d ptilde_i^a / dx^j, Kx[j, i] Jt[a, b]
        F[:m, m + n:] = dpdt.reshape(n * m, m).T
        F[m:m + n, m + n:] = dpdx.reshape(n * m, n).T
        F[m + n:, m + n:] = np.multiply.outer(kx, jt).transpose(0, 3, 1, 2).reshape(n * m, n * m)
        return F

    def coframe_matrices(self, frames: Frames) -> np.ndarray:
        """Rows: source coframe (dt^a, dx^i, dp_i^a) expressed on the target
        coframe (columns), (P, dim, dim) over a ``map_points`` batch.
        Requires explicit inverse expressions because the dp rows
        differentiate the inverse momentum map in target variables."""
        m, n = self.m, self.n
        dpdt, dpdx = self.inverted().momentum_derivatives(frames.images)
        size = len(frames.points)
        dim = self.chart.total_dim
        C = np.zeros((size, dim, dim))
        C[:, :m, :m] = frames.kt
        C[:, m:m + n, m:m + n] = frames.kx
        # row p_i^a: inverse-map derivatives, then Jx[j, i] Kt[a, b]
        C[:, m + n:, :m] = dpdt.reshape(size, n * m, m)
        C[:, m + n:, m:m + n] = dpdx.reshape(size, n * m, n)
        C[:, m + n:, m + n:] = np.einsum("kji,kab->kiajb", frames.jx, frames.kt).reshape(
            size, n * m, n * m)
        return C

    def coframe_matrix(self, q: JetPoint) -> np.ndarray:
        return self.coframe_matrices(self.map_points([self.chart.assignment(q)]))[0]

    # -- validation -------------------------------------------------------------

    def validate(self, dom: SampleDomain | None = None, tol: float = 1e-9):
        """Check round trips of the explicit inverses and Jacobian
        invertibility over a sample domain.  Raises ConfigError /
        SingularJacobian on failure."""
        chart = self.chart
        if dom is None:
            dom = chart.sample_domain()
        if self.has_inverse:
            for family, names, forward, inverse in (
                    ("temporal", chart.t_names, self.t_forward, self.t_inverse),
                    ("spatial", chart.x_names, self.x_forward, self.x_inverse)):
                for k, name in enumerate(names):
                    for side, outer, inner in (("left", inverse, forward),
                                               ("right", forward, inverse)):
                        if not equiv(_through(outer[k], names, inner), Var(name), dom, tol):
                            raise ConfigError(f"{family} inverse is not a {side} inverse in {name}")
        self.sample_frames(dom)


def _domain_key(dom: SampleDomain) -> tuple:
    """What ``dom.points()`` depends on: the names in order, the exact bits
    of every bound, and the count and seed with their types."""
    bounds = np.array([b for _, lo, hi in dom.intervals for b in (lo, hi)], dtype=float)
    return (dom.names(), bounds.tobytes(),
            type(dom.count), dom.count, type(dom.seed), dom.seed)


def _read_only(frames: Frames) -> Frames:
    for values in (frames.jt, frames.jx, frames.kt, frames.kx, frames.p):
        values.flags.writeable = False
    return frames._replace(points=tuple(map(MappingProxyType, frames.points)),
                           images=tuple(map(MappingProxyType, frames.images)))


def _derivatives(exprs, names) -> tuple:
    """d e / d name for every entry e of a nested block, one name per
    entry of a new last axis, as nested tuples."""
    if isinstance(exprs, Expr):
        return tuple(differentiate(exprs, nm) for nm in names)
    return tuple(_derivatives(e, names) for e in exprs)


def _through(e: Expr, names, values) -> Expr:
    """e with each variable of ``names`` replaced by its entry of ``values``."""
    return substitute(e, dict(zip(names, values)))


def compose(outer: TransitionMap, inner: TransitionMap) -> TransitionMap:
    """The transition 'outer after inner' (A -> C from inner: A -> B and
    outer: B -> C)."""
    if (outer.m, outer.n) != (inner.m, inner.n):
        raise ConfigError("cannot compose transitions of different dimensions")
    t, x = inner.chart.t_names, inner.chart.x_names
    t_fwd = tuple(_through(f, t, inner.t_forward) for f in outer.t_forward)
    x_fwd = tuple(_through(f, x, inner.x_forward) for f in outer.x_forward)
    t_inv = x_inv = None
    if outer.has_inverse and inner.has_inverse:
        t_inv = tuple(_through(g, t, outer.t_inverse) for g in inner.t_inverse)
        x_inv = tuple(_through(g, x, outer.x_inverse) for g in inner.x_inverse)
    return TransitionMap(inner.m, inner.n, t_fwd, x_fwd, t_inv, x_inv)


def pullback_scalar(e: Expr, tm: TransitionMap) -> Expr:
    """Express a scalar on the total space in the target chart:
    the result, read in target variables, equals e at the source preimage."""
    if not tm.has_inverse:
        raise ConfigError("pullback requires a transition map with explicit inverses")
    return substitute(e, tm.pullback_map)


def image_sample_domain(tm: TransitionMap, dom: SampleDomain) -> SampleDomain:
    """A target-chart sample box: the bounding box of the images of the
    source samples (count and seed carried over)."""
    images = tm.map_points(dom.points()).images
    intervals = tuple((nm, min(q[nm] for q in images), max(q[nm] for q in images))
                      for nm in tm.chart.names)
    return SampleDomain(intervals, count=dom.count, seed=dom.seed)
