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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, SingularJacobian
from .linalg import checked_inverse, sym_inverse
from .symbolic import (
    Expr,
    Program,
    SampleDomain,
    Var,
    add,
    as_expr,
    compile_block,
    differentiate,
    equiv,
    mul,
    substitute,
    variables,
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


class JetVelocityPoint:
    """A point of the velocity bundle: t, x, and v (n, m) with v[i][a] = x^i_a."""

    def __init__(self, t, x, v):
        self.t = np.asarray(t, dtype=float).reshape(-1)
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.v = np.asarray(v, dtype=float)
        if self.v.shape != (self.x.size, self.t.size):
            raise ValueError(f"v must have shape (n, m) = {(self.x.size, self.t.size)}, "
                             f"got {self.v.shape}")

    def __repr__(self):
        return f"JetVelocityPoint(t={self.t.tolist()}, x={self.x.tolist()}, v={self.v.tolist()})"


def _as_expr_tuple(exprs):
    return tuple(as_expr(e) for e in exprs)


@dataclass(frozen=True)
class TransitionMap:
    """A chart change t -> ttilde(t), x -> xtilde(x) with optional explicit
    inverses (expressions in the *target* chart's same-named variables).

    Forward expressions are enough for velocity/momentum/frame transforms
    and for all transformation-law checks; inverses are required by
    ``inverted``, ``coframe_matrix`` and the pullback helpers.
    """

    m: int
    n: int
    t_forward: tuple
    x_forward: tuple
    t_inverse: tuple | None = None
    x_inverse: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_forward", _as_expr_tuple(self.t_forward))
        object.__setattr__(self, "x_forward", _as_expr_tuple(self.x_forward))
        if self.t_inverse is not None:
            object.__setattr__(self, "t_inverse", _as_expr_tuple(self.t_inverse))
        if self.x_inverse is not None:
            object.__setattr__(self, "x_inverse", _as_expr_tuple(self.x_inverse))
        chart = JetChart(self.m, self.n)
        if len(self.t_forward) != self.m or len(self.x_forward) != self.n:
            raise ConfigError("transition map has wrong number of components")
        for label, exprs, allowed in (
            ("temporal", self.t_forward, set(chart.t_names)),
            ("spatial", self.x_forward, set(chart.x_names)),
            ("temporal inverse", self.t_inverse or (), set(chart.t_names)),
            ("spatial inverse", self.x_inverse or (), set(chart.x_names)),
        ):
            for e in exprs:
                extra = variables(e) - allowed
                if extra:
                    raise ConfigError(
                        f"{label} transition component uses foreign variables {sorted(extra)}")

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
        names = self.chart.t_names
        return tuple(tuple(differentiate(f, nm) for nm in names) for f in self.t_forward)

    @cached_property
    def x_jacobian(self):
        """J[i][j] = d xtilde^i / d x^j, expressions in source x variables."""
        names = self.chart.x_names
        return tuple(tuple(differentiate(f, nm) for nm in names) for f in self.x_forward)

    @cached_property
    def x_jacobian_inverse_source(self):
        """K[j][i] = d x^j / d xtilde^i as expressions in *source* x variables
        (adjugate of the forward Jacobian; no explicit inverse map needed)."""
        return sym_inverse(self.x_jacobian)

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
    def momentum_forward_dt(self):
        """d ptilde[i][a] / d t^b, exact."""
        names = self.chart.t_names
        return tuple(tuple(tuple(differentiate(self.momentum_forward[i][a], nm)
                                 for nm in names)
                           for a in range(self.m))
                     for i in range(self.n))

    @cached_property
    def momentum_forward_dx(self):
        """d ptilde[i][a] / d x^j, exact."""
        names = self.chart.x_names
        return tuple(tuple(tuple(differentiate(self.momentum_forward[i][a], nm)
                                 for nm in names)
                           for a in range(self.m))
                     for i in range(self.n))

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

    def _t_values(self, points):
        """Images of t (P, m) and Jt (P, m, m)."""
        m = self.m
        vals = self._t_program.run(points)
        return vals[:, :m], vals[:, m:].reshape(-1, m, m)

    def _x_values(self, points):
        """Images of x (P, n) and Jx (P, n, n)."""
        n = self.n
        vals = self._x_program.run(points)
        return vals[:, :n], vals[:, n:].reshape(-1, n, n)

    def momentum_derivatives(self, points):
        """d ptilde_i^a / d t^b (P, n, m, m) and d ptilde_i^a / d x^j
        (P, n, m, n) at each source assignment, exact."""
        m, n = self.m, self.n
        vals = self._momentum_program.run(points)
        k = n * m * m
        return vals[:, :k].reshape(-1, n, m, m), vals[:, k:].reshape(-1, n, m, n)

    @staticmethod
    def _frame(jt, jx, assignment):
        kt = checked_inverse(jt, SingularJacobian, "temporal jacobian", assignment)
        kx = checked_inverse(jx, SingularJacobian, "spatial jacobian", assignment)
        return jt, jx, kt, kx

    def frames(self, points) -> list:
        """(Jt, Jx, Kt, Kx) at each source assignment, with invertibility
        enforced in point order."""
        _, jt = self._t_values(points)
        _, jx = self._x_values(points)
        return [self._frame(jt[k], jx[k], asg) for k, asg in enumerate(points)]

    def map_points(self, points):
        """Image JetPoints and frames (Jt, Jx, Kt, Kx) of source assignments."""
        chart = self.chart
        t_img, jt = self._t_values(points)
        x_img, jx = self._x_values(points)
        images, frames = [], []
        for k, asg in enumerate(points):
            frame = self._frame(jt[k], jx[k], asg)
            p_img = frame[3].T @ chart.point(asg).p @ frame[0].T
            images.append(JetPoint(t_img[k], x_img[k], p_img))
            frames.append(frame)
        return images, frames

    def t_jacobian_at(self, assignment) -> np.ndarray:
        return self._t_values([assignment])[1][0]

    def x_jacobian_at(self, assignment) -> np.ndarray:
        return self._x_values([assignment])[1][0]

    def jacobians_at(self, assignment):
        """(Jt, Jx, Kt, Kx) at a point, with invertibility enforced."""
        return self.frames([assignment])[0]

    def map_point(self, q: JetPoint) -> JetPoint:
        return self.map_points([self.chart.assignment(q)])[0][0]

    def map_velocity(self, vq: JetVelocityPoint) -> JetVelocityPoint:
        asg = {nm: float(v) for nm, v in zip(self.chart.t_names, vq.t)}
        asg.update({nm: float(v) for nm, v in zip(self.chart.x_names, vq.x)})
        (t_img,), (jt,) = self._t_values([asg])
        (x_img,), (jx,) = self._x_values([asg])
        kt = checked_inverse(jt, SingularJacobian, "temporal jacobian", asg)
        return JetVelocityPoint(t_img, x_img, jx @ vq.v @ kt)

    # -- frame and coframe ----------------------------------------------------

    def frame_matrix(self, q: JetPoint) -> np.ndarray:
        """Rows: source frame (d/dt^a, d/dx^i, d/dp_i^a) expressed on the
        target frame (columns, same ordering)."""
        m, n = self.m, self.n
        asg = self.chart.assignment(q)
        jt, jx, kt, kx = self.jacobians_at(asg)
        dpdt, dpdx = (v[0] for v in self.momentum_derivatives([asg]))
        dim = self.chart.total_dim
        F = np.zeros((dim, dim))
        F[:m, :m] = jt.T
        F[m:m + n, m:m + n] = jx.T
        # column p_i^a: d ptilde_i^a / dt^b, d ptilde_i^a / dx^j, Kx[j, i] Jt[a, b]
        F[:m, m + n:] = dpdt.reshape(n * m, m).T
        F[m:m + n, m + n:] = dpdx.reshape(n * m, n).T
        F[m + n:, m + n:] = np.multiply.outer(kx, jt).transpose(0, 3, 1, 2).reshape(n * m, n * m)
        return F

    def coframe_matrices(self, images, frames) -> list:
        """Rows: source coframe (dt^a, dx^i, dp_i^a) expressed on the target
        coframe (columns), at each source point of a ``map_points`` batch
        (its images and frames).  Requires explicit inverse expressions
        because the dp rows differentiate the inverse momentum map in
        target variables."""
        inv = self.inverted()
        m, n = self.m, self.n
        chart = self.chart
        dpdt, dpdx = inv.momentum_derivatives([chart.assignment(q) for q in images])
        dim = chart.total_dim
        out = []
        for (jt, jx, kt, kx), dt, dx in zip(frames, dpdt, dpdx):
            C = np.zeros((dim, dim))
            C[:m, :m] = kt
            C[m:m + n, m:m + n] = kx
            # row p_i^a: inverse-map derivatives, then Jx[j, i] Kt[a, b]
            C[m + n:, :m] = dt.reshape(n * m, m)
            C[m + n:, m:m + n] = dx.reshape(n * m, n)
            C[m + n:, m + n:] = np.multiply.outer(jx.T, kt).transpose(0, 2, 1, 3).reshape(n * m, n * m)
            out.append(C)
        return out

    def coframe_matrix(self, q: JetPoint) -> np.ndarray:
        return self.coframe_matrices(*self.map_points([self.chart.assignment(q)]))[0]

    # -- validation -------------------------------------------------------------

    def validate(self, dom: SampleDomain | None = None, tol: float = 1e-9):
        """Check round trips of the explicit inverses and Jacobian
        invertibility over a sample domain.  Raises ConfigError /
        SingularJacobian on failure."""
        chart = self.chart
        if dom is None:
            dom = chart.sample_domain()
        if self.has_inverse:
            for a in range(self.m):
                rt = substitute(self.t_inverse[a], dict(zip(chart.t_names, self.t_forward)))
                if not equiv(rt, Var(t_name(a)), dom, tol):
                    raise ConfigError(f"temporal inverse is not a left inverse in t{a + 1}")
                ft = substitute(self.t_forward[a], dict(zip(chart.t_names, self.t_inverse)))
                if not equiv(ft, Var(t_name(a)), dom, tol):
                    raise ConfigError(f"temporal inverse is not a right inverse in t{a + 1}")
            for i in range(self.n):
                rt = substitute(self.x_inverse[i], dict(zip(chart.x_names, self.x_forward)))
                if not equiv(rt, Var(x_name(i)), dom, tol):
                    raise ConfigError(f"spatial inverse is not a left inverse in x{i + 1}")
                ft = substitute(self.x_forward[i], dict(zip(chart.x_names, self.x_inverse)))
                if not equiv(ft, Var(x_name(i)), dom, tol):
                    raise ConfigError(f"spatial inverse is not a right inverse in x{i + 1}")
        self.frames(dom.points())


def compose(outer: TransitionMap, inner: TransitionMap) -> TransitionMap:
    """The transition 'outer after inner' (A -> C from inner: A -> B and
    outer: B -> C)."""
    if (outer.m, outer.n) != (inner.m, inner.n):
        raise ConfigError("cannot compose transitions of different dimensions")
    chart = inner.chart
    t_fwd = tuple(substitute(f, dict(zip(chart.t_names, inner.t_forward)))
                  for f in outer.t_forward)
    x_fwd = tuple(substitute(f, dict(zip(chart.x_names, inner.x_forward)))
                  for f in outer.x_forward)
    t_inv = x_inv = None
    if outer.has_inverse and inner.has_inverse:
        t_inv = tuple(substitute(g, dict(zip(chart.t_names, outer.t_inverse)))
                      for g in inner.t_inverse)
        x_inv = tuple(substitute(g, dict(zip(chart.x_names, outer.x_inverse)))
                      for g in inner.x_inverse)
    return TransitionMap(inner.m, inner.n, t_fwd, x_fwd, t_inv, x_inv)


# -- module-level transform API ------------------------------------------------

def transform_velocity(tm: TransitionMap, vq: JetVelocityPoint) -> np.ndarray:
    """Target-chart velocity components xtilde^i_a at the image point."""
    return tm.map_velocity(vq).v


def transform_polymomenta(tm: TransitionMap, q: JetPoint) -> np.ndarray:
    """Target-chart polymomenta ptilde_i^a at the image point."""
    return tm.map_point(q).p


def frame_transform(tm: TransitionMap, q: JetPoint) -> np.ndarray:
    return tm.frame_matrix(q)


def coframe_transform(tm: TransitionMap, q: JetPoint) -> np.ndarray:
    return tm.coframe_matrix(q)


def pullback_scalar(e: Expr, tm: TransitionMap) -> Expr:
    """Express a scalar on the total space in the target chart:
    the result, read in target variables, equals e at the source preimage."""
    if not tm.has_inverse:
        raise ConfigError("pullback requires a transition map with explicit inverses")
    inv = tm.inverted()
    chart = tm.chart
    mapping = dict(zip(chart.t_names, tm.t_inverse))
    mapping.update(zip(chart.x_names, tm.x_inverse))
    for i in range(tm.n):
        for a in range(tm.m):
            mapping[p_name(i, a)] = inv.momentum_forward[i][a]
    return substitute(e, mapping)


def image_sample_domain(tm: TransitionMap, dom: SampleDomain) -> SampleDomain:
    """A target-chart sample box: the bounding box of the images of the
    source samples (count and seed carried over)."""
    chart = tm.chart
    los: dict[str, float] = {}
    his: dict[str, float] = {}
    for image in tm.map_points(dom.points())[0]:
        for nm, v in chart.assignment(image).items():
            los[nm] = min(v, los.get(nm, v))
            his[nm] = max(v, his.get(nm, v))
    intervals = tuple((nm, los[nm], his[nm]) for nm in chart.names)
    return SampleDomain(intervals, count=dom.count, seed=dom.seed)
