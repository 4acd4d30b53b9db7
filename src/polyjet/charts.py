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

A point is an assignment, a dict from coordinate name to value; it is
the only point type.  ``TransitionMap.map_points`` gives the numeric chart
change at a batch of them as one ``Frames`` record, which every law and
frame reads; ``map_point`` and ``frame_matrix`` map a batch of one.
``TransitionMap.sample_frames`` gives it at the points of a sample domain
and remembers the last domain's record, so the laws of one battery and
``validate`` map their shared samples once.  ``JetChart.assignment`` and
``JetChart.point`` only copy an assignment; the benchmark still calls them.

``symbolic.jacobian`` builds both Jacobians and the momentum map's
derivatives, which the d-tensor pullback also reads; ``_through``
substitutes one map into another for ``compose`` and ``validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SingularJacobian
from .linalg import checked_inverses, sym_inverse
from .report import VerificationReport, sweep
from .symbolic import (
    Expr,
    Program,
    SampleDomain,
    Var,
    add,
    compile_block,
    cut,
    deviation,
    expr_array,
    jacobian,
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

    # Copies of an assignment in chart-name order.  They remain only because
    # the pullback workload of ``perfbench/workloads.py`` still calls
    # ``chart.assignment(tm.map_point(chart.point(point_a)))``.
    def assignment(self, point) -> dict:
        return {nm: float(point[nm]) for nm in self.names}

    def point(self, assignment) -> dict:
        return {nm: float(assignment[nm]) for nm in self.names}


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
    ``inverted``, ``coframe_matrices`` and the pullback helpers.  All four
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
        return jacobian(self.t_forward, self.chart.t_names)

    @cached_property
    def x_jacobian(self):
        """J[i][j] = d xtilde^i / d x^j, expressions in source x variables."""
        return jacobian(self.x_forward, self.chart.x_names)

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
        """d ptilde[i][a] / d t^b, exact, (n, m, m)."""
        return jacobian(self.momentum_forward, self.chart.t_names)

    @cached_property
    def momentum_forward_dx(self):
        """d ptilde[i][a] / d x^j, exact, (n, m, n)."""
        return jacobian(self.momentum_forward, self.chart.x_names)

    # -- numeric maps ---------------------------------------------------------

    @cached_property
    def _base_program(self) -> Program:
        """ttilde, its Jacobian row by row, then xtilde and its Jacobian, so
        a point's temporal errors come before its spatial ones."""
        return compile_block([*self.t_forward, *self.t_jacobian.flat,
                              *self.x_forward, *self.x_jacobian.flat])

    @cached_property
    def _momentum_program(self) -> Program:
        """d ptilde / dt, then d ptilde / dx, in index order."""
        return compile_block([*self.momentum_forward_dt.flat, *self.momentum_forward_dx.flat])

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
        t_img, jt, x_img, jx = cut(self._base_program.run(points), (m,), (m, m), (n,), (n, n))
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

    def map_point(self, point) -> dict:
        """The image assignment of one source assignment."""
        return self.map_points([point]).images[0]

    # -- frame and coframe ----------------------------------------------------

    def frame_matrix(self, point) -> np.ndarray:
        """Rows: source frame (d/dt^a, d/dx^i, d/dp_i^a) expressed on the
        target frame (columns, same ordering), at one source assignment."""
        m, n = self.m, self.n
        frames = self.map_points([point])
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

    # -- validation -------------------------------------------------------------

    def validate(self, dom: SampleDomain | None = None, tol: float = 1e-9) -> VerificationReport:
        """Check round trips of the explicit inverses and Jacobian
        invertibility over a sample domain.  Raises ConfigError /
        SingularJacobian on failure.  Every round trip is compared with the
        identity in one ``symbolic.deviation``; the first failed one is
        named, left before right, t before x.  Otherwise the sweep of the
        scaled residual, ``transition:round-trip``, is returned; a map
        without inverses gives one of no pairs."""
        chart = self.chart
        if dom is None:
            dom = chart.sample_domain()
        trips = [((family, side, name), _through(outer[k], names, inner), Var(name))
                 for family, names, forward, inverse in (
                     ("temporal", chart.t_names, self.t_forward, self.t_inverse),
                     ("spatial", chart.x_names, self.x_forward, self.x_inverse))
                 if self.has_inverse
                 for k, name in enumerate(names)
                 for side, outer, inner in (("left", inverse, forward),
                                            ("right", forward, inverse))]
        points, residual = deviation([t[1] for t in trips], [t[2] for t in trips], dom)
        failed = np.flatnonzero(~(residual <= tol).all(axis=0))
        if failed.size:
            raise ConfigError("{} inverse is not a {} inverse in {}".format(*trips[failed[0]][0]))
        self.sample_frames(dom)
        label = lambda idx: "{} {} inverse in {}".format(*trips[idx[0]][0])
        return sweep("transition:round-trip", tol, points,
                     [(label, residual, 0.0)] if trips else [])


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

