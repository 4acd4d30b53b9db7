"""Metrics on the time manifold, the space manifold, or mixed, plus their
Christoffel symbols.

Three kinds are supported:

* ``temporal``:  h_ab(t1..tm), an (m, m) symmetric field; its Christoffel
  symbols (differentiation in t) are the temporal symbols kappa^a_bc.
* ``spatial``:   phi_ij(x1..xn); Christoffel symbols gamma^k_ij.
* ``spatiotemporal``: g_ij(t, x) of spatial shape (n, n) whose entries may
  also carry t (and, when the flag is set for one-time geometry, p);
  Christoffel symbols differentiate in x only.

Symbolic inverses use the adjugate and are limited to dimension 4; larger
metrics still produce Christoffel values through numeric closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .charts import JetChart, TransitionMap, p_name
from .errors import ConfigError, SingularMetric
from .linalg import SYM_INVERSE_MAX_DIM, checked_inverse, sym_det, sym_inverse
from .symbolic import (
    Const,
    Expr,
    Program,
    SampleDomain,
    add,
    as_expr,
    compile_block,
    differentiate,
    equiv,
    mul,
    neg,
    substitute,
    variables,
)

KINDS = ("temporal", "spatial", "spatiotemporal")


def _rows(components):
    return tuple(tuple(as_expr(e) for e in row) for row in components)


@dataclass(frozen=True)
class Metric:
    """A symmetric second-order field with lower indices.

    ``components[i][j]`` are expressions in the kind's base variables.
    Symmetry is checked by ``validate`` (loaders call it), not assumed at
    construction.
    """

    kind: str
    m: int
    n: int
    components: tuple
    p_dependent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", _rows(self.components))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown metric kind {self.kind!r}")
        d = self.dim
        if len(self.components) != d or any(len(r) != d for r in self.components):
            raise ConfigError(f"{self.kind} metric must be {d}x{d}")
        if self.p_dependent and self.kind != "spatiotemporal":
            raise ConfigError("only spatiotemporal metrics may depend on p")
        allowed = set(self.base_names)
        for row in self.components:
            for e in row:
                extra = variables(e) - allowed
                if extra:
                    raise ConfigError(
                        f"{self.kind} metric component uses foreign variables {sorted(extra)}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def temporal(cls, components, m: int | None = None) -> "Metric":
        m = len(components) if m is None else m
        return cls("temporal", m, 1, _rows(components))

    @classmethod
    def spatial(cls, components, n: int | None = None) -> "Metric":
        n = len(components) if n is None else n
        return cls("spatial", 1, n, _rows(components))

    @classmethod
    def spatiotemporal(cls, components, m: int, p_dependent: bool = False) -> "Metric":
        return cls("spatiotemporal", m, len(components), _rows(components), p_dependent)

    # -- structure -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.m if self.kind == "temporal" else self.n

    @cached_property
    def base_names(self):
        chart = JetChart(self.m, self.n)
        if self.kind == "temporal":
            return chart.t_names
        if self.kind == "spatial":
            return chart.x_names
        names = chart.t_names + chart.x_names
        if self.p_dependent:
            names = names + chart.p_names
        return names

    @cached_property
    def christoffel_names(self):
        """Differentiation variables for the Christoffel formula."""
        chart = JetChart(self.m, self.n)
        return chart.t_names if self.kind == "temporal" else chart.x_names

    # -- numerics ----------------------------------------------------------------

    @cached_property
    def _program(self) -> Program:
        return compile_block([e for row in self.components for e in row])

    def at_points(self, points) -> np.ndarray:
        """Component matrices at each assignment, shape (P, dim, dim)."""
        return self._program.run(points).reshape(-1, self.dim, self.dim)

    def at(self, assignment) -> np.ndarray:
        return self.at_points([assignment])[0]

    def inverse_at(self, assignment) -> np.ndarray:
        """Numeric inverse with the |det| >= 1e-8 floor (SingularMetric)."""
        return self._checked_inverse(self.at(assignment), assignment)

    def _checked_inverse(self, mat, assignment) -> np.ndarray:
        return checked_inverse(mat, SingularMetric, f"{self.kind} metric", assignment)

    @cached_property
    def det_expr(self) -> Expr:
        return sym_det(self.components)

    @cached_property
    def inverse_components(self):
        """Exact inverse components (upper indices); dimension <= 4 only."""
        if self.dim > SYM_INVERSE_MAX_DIM:
            raise ConfigError(
                f"symbolic metric inverse limited to dimension {SYM_INVERSE_MAX_DIM}")
        return sym_inverse(self.components)

    def validate(self, dom: SampleDomain | None = None, tol: float = 1e-9):
        """Equiv-check symmetry and enforce invertibility over the domain."""
        if dom is None:
            dom = SampleDomain.default(self.base_names)
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                if not equiv(self.components[i][j], self.components[j][i], dom, tol):
                    raise ConfigError(
                        f"{self.kind} metric is not symmetric in entry ({i + 1},{j + 1})")
        points = dom.points()
        for pt, mat in zip(points, self.at_points(points)):
            self._checked_inverse(mat, pt)


@dataclass(frozen=True)
class ChristoffelField:
    """Second-kind Christoffel symbols Gamma^k_ij of a metric.

    ``components[k][i][j]`` are exact expressions when the dimension allows
    a symbolic inverse; beyond that the field still evaluates numerically
    through ``at`` (sampled inverse times exact derivative expressions).
    """

    kind: str
    dim: int
    components: tuple | None
    metric: Metric = field(repr=False, compare=False, default=None)
    derivatives: tuple = field(repr=False, compare=False, default=None)

    @cached_property
    def _program(self) -> Program:
        block = self.derivatives if self.components is None else self.components
        return compile_block([e for plane in block for row in plane for e in row])

    def _block_at(self, assignment) -> np.ndarray:
        d = self.dim
        return self._program.run([assignment]).reshape(d, d, d)

    def at(self, assignment) -> np.ndarray:
        if self.components is not None:
            return self._block_at(assignment)
        inv = self.metric.inverse_at(assignment)
        d = self.dim
        dg = self._block_at(assignment)
        out = np.zeros((d, d, d))
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    out[k, i, j] = 0.5 * sum(
                        inv[k, l] * (dg[l][i][j] + dg[l][j][i] - dg[i][j][l])
                        for l in range(d))
        return out


def christoffel(g: Metric) -> ChristoffelField:
    """Gamma^k_ij = 1/2 g^kl (d g_li / d v^j + d g_lj / d v^i - d g_ij / d v^l)
    with v the metric's differentiation variables (t for temporal metrics,
    x otherwise)."""
    d = g.dim
    names = g.christoffel_names
    derivs = tuple(
        tuple(tuple(differentiate(g.components[i][j], names[k]) for k in range(d))
              for j in range(d))
        for i in range(d))
    if d > SYM_INVERSE_MAX_DIM:
        return ChristoffelField(g.kind, d, None, metric=g, derivatives=derivs)
    inv = g.inverse_components
    comps = []
    for k in range(d):
        plane = []
        for i in range(d):
            row = []
            for j in range(d):
                terms = [
                    mul(Const(0.5), inv[k][l],
                        add(derivs[l][i][j], derivs[l][j][i], neg(derivs[i][j][l])))
                    for l in range(d)
                ]
                row.append(add(*terms))
            plane.append(tuple(row))
        comps.append(tuple(plane))
    return ChristoffelField(g.kind, d, tuple(comps), metric=g, derivatives=derivs)


def pullback_metric(g: Metric, tm: TransitionMap) -> Metric:
    """The same metric written in the target chart of a transition.

    Temporal metrics transform with two inverse temporal Jacobian factors,
    spatial/spatiotemporal ones with two inverse spatial factors; base
    points are pulled back through the explicit inverse maps.
    """
    if not tm.has_inverse:
        raise ConfigError("metric pullback requires explicit inverse expressions")
    chart = tm.chart
    if g.kind == "temporal":
        names, inverse = chart.t_names, tm.t_inverse
    else:
        names, inverse = chart.x_names, tm.x_inverse
    point_map = {}
    if g.kind == "temporal":
        point_map.update(zip(chart.t_names, tm.t_inverse))
    elif g.kind == "spatial":
        point_map.update(zip(chart.x_names, tm.x_inverse))
    else:
        point_map.update(zip(chart.t_names, tm.t_inverse))
        point_map.update(zip(chart.x_names, tm.x_inverse))
        if g.p_dependent:
            inv_momenta = tm.inverted().momentum_forward
            for i in range(tm.n):
                for a in range(tm.m):
                    point_map[p_name(i, a)] = inv_momenta[i][a]
    # jacobian of the inverse map, expressions in target variables
    jac = tuple(tuple(differentiate(inverse[r], names[c]) for c in range(len(names)))
                for r in range(len(names)))
    d = g.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            terms = [
                mul(substitute(g.components[k][l], point_map), jac[k][i], jac[l][j])
                for k in range(d) for l in range(d)
            ]
            row.append(add(*terms))
        rows.append(tuple(row))
    return Metric(g.kind, g.m, g.n, tuple(rows), g.p_dependent)
