"""Metrics on the time manifold, the space manifold, or mixed, plus their
Christoffel symbols.

Three kinds are supported:

* ``temporal``:  h_ab(t1..tm), an (m, m) symmetric field; its Christoffel
  symbols (differentiation in t) are the temporal symbols kappa^a_bc.
* ``spatial``:   phi_ij(x1..xn); Christoffel symbols gamma^k_ij.
* ``spatiotemporal``: g_ij(t, x) of spatial shape (n, n) whose entries may
  also carry t and, for one-time geometry, p (``p_dependent`` reads this
  from the entries); Christoffel symbols differentiate in x only.

Christoffel symbols are exact expressions over the metric's symbolic
inverse, so a metric past ``linalg.SYM_INVERSE_MAX_DIM`` has none: building
them raises ConfigError.  They read one ``symbolic.jacobian`` table of the
metric's derivatives; ``christoffel`` builds them once and keeps them on it.

``pullback_metric`` writes a metric in a transition's target chart as the
``dtensors.pullback_dtensor`` of a field with two lower slots, so metrics
and d-tensors change charts through one construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import JetChart, TransitionMap
from .errors import ConfigError, SingularMetric
from .linalg import checked_inverses, sym_inverse
from .report import VerificationReport, entry_label, sweep
from .symbolic import (
    Compiled,
    Const,
    SampleDomain,
    add,
    deviation,
    expr_array,
    jacobian,
    mul,
    neg,
    variables,
)

KINDS = ("temporal", "spatial", "spatiotemporal")


@dataclass(frozen=True, eq=False)
class Metric(Compiled):
    """A symmetric second-order field with lower indices.

    ``components`` is a (dim, dim) ``expr_array`` in the kind's base
    variables, so ``at_points`` gives (P, dim, dim).  Symmetry is checked
    by ``validate`` (each CLI command calls it once), not assumed at
    construction.
    """

    kind: str
    m: int
    n: int
    components: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown metric kind {self.kind!r}")
        object.__setattr__(self, "components", expr_array(
            self.components, (self.dim, self.dim), self.base_names, f"{self.kind} metric"))

    # -- constructors --------------------------------------------------------

    @classmethod
    def temporal(cls, components) -> "Metric":
        return cls("temporal", len(components), 1, components)

    @classmethod
    def spatial(cls, components) -> "Metric":
        return cls("spatial", 1, len(components), components)

    @classmethod
    def spatiotemporal(cls, components, m: int) -> "Metric":
        return cls("spatiotemporal", m, len(components), components)

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
        return chart.t_names + chart.x_names + chart.p_names

    @property
    def p_dependent(self) -> bool:
        """True when some entry names a momentum, which only a
        spatiotemporal metric may."""
        p_names = set(JetChart(self.m, self.n).p_names)
        return any(variables(e) & p_names for e in self.components.flat)

    @cached_property
    def christoffel_names(self):
        """Differentiation variables for the Christoffel formula."""
        chart = JetChart(self.m, self.n)
        return chart.t_names if self.kind == "temporal" else chart.x_names

    # -- numerics ----------------------------------------------------------------

    def _checked_inverses(self, points) -> np.ndarray:
        """Numeric inverses (P, dim, dim) with the |det| >= 1e-8 floor
        (SingularMetric), in point order."""
        return checked_inverses(points, SingularMetric,
                                (f"{self.kind} metric", self.at_points(points)))[0]

    @cached_property
    def _christoffel(self) -> "ChristoffelField":
        """The field ``christoffel`` returns, built on its first call."""
        d = self.dim
        inv = self.inverse_components
        # a symmetric metric's g_ij and g_ji are one node, derived once
        derivs = jacobian(self.components, self.christoffel_names)
        comps = [[[add(*[mul(Const(0.5), inv[k][l],
                             add(derivs[l][i][j], derivs[l][j][i], neg(derivs[i][j][l])))
                         for l in range(d)])
                   for j in range(d)] for i in range(d)] for k in range(d)]
        return ChristoffelField(self.kind, d, expr_array(comps, (d, d, d)))

    @cached_property
    def inverse_components(self):
        """Exact inverse components (upper indices); past the dimension
        ``linalg.SYM_INVERSE_MAX_DIM`` they raise ConfigError."""
        return sym_inverse(self.components, f"inverting the {self.kind} metric")

    def validate(self, dom: SampleDomain | None = None, tol: float = 1e-9) -> VerificationReport:
        """Check symmetry, (i, j) against (j, i) in one ``symbolic.deviation``,
        and enforce invertibility (SingularMetric) over the domain.  The first
        pair above ``tol``, in row order, raises ConfigError; otherwise the
        sweep of the scaled residual, ``metric:<kind>``, is returned."""
        if dom is None:
            dom = SampleDomain.default(self.base_names)
        pairs = [(i, j) for i in range(self.dim) for j in range(i + 1, self.dim)]
        points, residual = deviation([self.components[i][j] for i, j in pairs],
                                     [self.components[j][i] for i, j in pairs], dom)
        failed = np.flatnonzero(~(residual <= tol).all(axis=0))
        if failed.size:
            i, j = pairs[failed[0]]
            raise ConfigError(f"{self.kind} metric is not symmetric in entry ({i + 1},{j + 1})")
        self._checked_inverses(dom.points())
        label = lambda idx: entry_label(self.kind, pairs[idx[0]])
        return sweep(f"metric:{self.kind}", tol, points,
                     [(label, residual, 0.0)] if pairs else [])


@dataclass(frozen=True, eq=False)
class ChristoffelField(Compiled):
    """Second-kind Christoffel symbols Gamma^k_ij of a metric.

    ``components[k][i][j]`` is a (dim, dim, dim) ``expr_array`` of exact
    expressions.
    """

    kind: str
    dim: int
    components: np.ndarray


def christoffel(g: Metric) -> ChristoffelField:
    """Gamma^k_ij = 1/2 g^kl (d g_li / d v^j + d g_lj / d v^i - d g_ij / d v^l)
    with v the metric's differentiation variables (t for temporal metrics,
    x otherwise).  The field is built on the first call and kept on the
    metric, so every later call returns the same field.  Past the
    symbolic-inverse limit it raises ConfigError."""
    return g._christoffel


def pullback_metric(g: Metric, tm: TransitionMap) -> Metric:
    """The same metric written in the target chart of a transition: the
    ``pullback_dtensor`` of its components as a field with two lower
    slots, temporal for a temporal metric and spatial otherwise."""
    from .dtensors import DTensorField, lower_t, lower_x, pullback_dtensor

    slot = lower_t() if g.kind == "temporal" else lower_x()
    # a temporal metric fixes no n and a spatial one no m: the transition's stand in
    m = tm.m if g.kind == "spatial" else g.m
    n = tm.n if g.kind == "temporal" else g.n
    T = pullback_dtensor(DTensorField(m, n, (slot, slot), g.components, f"{g.kind} metric"), tm)
    return Metric(g.kind, g.m, g.n, T.components)
