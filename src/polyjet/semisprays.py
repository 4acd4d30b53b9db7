"""Semisprays of polymomenta: temporal and spatial second-order fields.

Both kinds are (m, n, n) blocks of expressions, G1[b][j][i] for the
temporal family and G2[b][j][i] for the spatial one.  Neither transforms
as a d-tensor: the chart-change law picks up an inhomogeneous correction
built from derivatives of the induced momentum map, and the exact
symbolic form of that map (``TransitionMap.momentum_forward_dt/dx``)
supplies it here.  Differences of two semisprays of the same kind do
transform homogeneously, which ``decompose`` exploits to split a
semispray into its metric-canonical part plus a d-tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import JetChart, TransitionMap
from .dtensors import DTensorField, builtin_dtensors, lower_x, upper_t
from .errors import ConfigError
from .metrics import Metric, christoffel
from .report import ResidualTracker, VerificationReport
from .symbolic import (Const, Program, SampleDomain, add, as_expr, compile_block,
                       mul, variables)


def _coerce_block3(m: int, n: int, components, label: str):
    allowed = set(JetChart(m, n).names)
    rows = tuple(tuple(tuple(as_expr(e) for e in row) for row in sheet)
                 for sheet in components)
    if len(rows) != m or any(len(sheet) != n or any(len(row) != n for row in sheet)
                             for sheet in rows):
        raise ConfigError(f"{label} components must form an (m, n, n) block")
    for sheet in rows:
        for row in sheet:
            for e in row:
                extra = variables(e) - allowed
                if extra:
                    raise ConfigError(
                        f"{label} component uses foreign variables {sorted(extra)}")
    return rows


class _Block3:
    """Evaluation shared by both semispray kinds: one cached program over
    the (m, n, n) block."""

    @cached_property
    def _program(self) -> Program:
        return compile_block([e for sheet in self.components for row in sheet for e in row])

    def at_points(self, points) -> np.ndarray:
        """Block values at each assignment, shape (P, m, n, n)."""
        return self._program.run(points).reshape(-1, self.m, self.n, self.n)

    def at(self, assignment) -> np.ndarray:
        return self.at_points([assignment])[0]


@dataclass(frozen=True)
class TemporalSemispray(_Block3):
    """First-kind semispray block G1[b][j][i] (expressions in t, x, p)."""

    m: int
    n: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _coerce_block3(self.m, self.n, self.components,
                                          "temporal semispray"))

    def map_components(self, f) -> "TemporalSemispray":
        return TemporalSemispray(self.m, self.n, tuple(
            tuple(tuple(f(e) for e in row) for row in sheet)
            for sheet in self.components))


@dataclass(frozen=True)
class SpatialSemispray(_Block3):
    """Second-kind semispray block G2[b][j][i] (expressions in t, x, p)."""

    m: int
    n: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components",
                           _coerce_block3(self.m, self.n, self.components,
                                          "spatial semispray"))

    def map_components(self, f) -> "SpatialSemispray":
        return SpatialSemispray(self.m, self.n, tuple(
            tuple(tuple(f(e) for e in row) for row in sheet)
            for sheet in self.components))


def _symbolic_christoffel(g: Metric):
    field = christoffel(g)
    if field.components is None:
        raise ConfigError(
            "canonical semisprays need symbolic Christoffel symbols; "
            f"metric dimension {g.dim} exceeds the symbolic-inverse limit")
    return field.components


def canonical_temporal(h: Metric, n: int) -> TemporalSemispray:
    """G1[a][j][k] = 1/2 kappa^a_bc(t) p_j^b p_k^c for a temporal metric h."""
    if h.kind != "temporal":
        raise ConfigError("canonical temporal semispray requires a temporal metric")
    m = h.dim
    chart = JetChart(m, n)
    kappa = _symbolic_christoffel(h)
    comps = [[[None] * n for _ in range(n)] for _ in range(m)]
    for a in range(m):
        for j in range(n):
            for k in range(n):
                terms = [mul(kappa[a][b][c], chart.p_var(j, b), chart.p_var(k, c))
                         for b in range(m) for c in range(m)]
                comps[a][j][k] = mul(Const(0.5), add(*terms))
    return TemporalSemispray(m, n, comps)


def canonical_spatial(phi: Metric, m: int) -> SpatialSemispray:
    """G2[b][j][k] = -1/2 gamma^i_jk(x) p_i^b for a spatial metric phi."""
    if phi.kind != "spatial":
        raise ConfigError("canonical spatial semispray requires a spatial metric")
    n = phi.dim
    chart = JetChart(m, n)
    gamma = _symbolic_christoffel(phi)
    comps = [[[None] * n for _ in range(n)] for _ in range(m)]
    for b in range(m):
        for j in range(n):
            for k in range(n):
                terms = [mul(gamma[i][j][k], chart.p_var(i, b)) for i in range(n)]
                comps[b][j][k] = mul(Const(-0.5), add(*terms))
    return SpatialSemispray(m, n, comps)


def _temporal_image(values, frame, dpdt, dpdx, p) -> np.ndarray:
    jt, jx, kt, kx = frame
    two_g = 2.0 * np.einsum("bji,cb,jk,ir->ckr", values, jt, kx, kx)
    # dpdt[k, c, a] = d ptilde_k^c / d t^a
    correction = np.einsum("ir,kca,ia->ckr", kx, dpdt, p)
    return 0.5 * (two_g - correction)


def _spatial_image(values, frame, dpdt, dpdx, p) -> np.ndarray:
    jt, jx, kt, kx = frame
    two_g = 2.0 * np.einsum("bji,db,js,ik->dsk", values, jt, kx, kx)
    # dpdx[s, d, i] = d ptilde_s^d / d x^i
    correction = np.einsum("ik,sdi->dsk", kx, dpdx)
    return 0.5 * (two_g - correction)


def _transform(image, S, tm: TransitionMap, q) -> np.ndarray:
    asg = tm.chart.assignment(q)
    dpdt, dpdx = tm.momentum_derivatives([asg])
    return image(S.at(asg), tm.jacobians_at(asg), dpdt[0], dpdx[0], q.p)


def transform_temporal_semispray(S: TemporalSemispray, tm: TransitionMap, q) -> np.ndarray:
    """Numeric target-chart block G1~[c][k][r] at the image of q."""
    return _transform(_temporal_image, S, tm, q)


def transform_spatial_semispray(S: SpatialSemispray, tm: TransitionMap, q) -> np.ndarray:
    """Numeric target-chart block G2~[d][s][k] at the image of q."""
    return _transform(_spatial_image, S, tm, q)


def verify_semispray_law(S_A, S_B, tm: TransitionMap,
                         dom: SampleDomain | None = None, tol: float = 1e-8,
                         name: str | None = None) -> VerificationReport:
    """Check the inhomogeneous chart-change law between two semisprays."""
    if type(S_A) is not type(S_B):
        raise ConfigError("cannot compare semisprays of different kinds")
    if isinstance(S_A, TemporalSemispray):
        kind, image = "temporal", _temporal_image
    elif isinstance(S_A, SpatialSemispray):
        kind, image = "spatial", _spatial_image
    else:
        raise ConfigError(f"not a semispray: {type(S_A).__name__}")
    chart = tm.chart
    if dom is None:
        dom = chart.sample_domain()
    tracker = ResidualTracker(name or f"semispray-law:{kind}", tol)
    label = "G1" if kind == "temporal" else "G2"
    points = dom.points()
    images, frames = tm.map_points(points)
    dpdt, dpdx = tm.momentum_derivatives(points)
    values_a = S_A.at_points(points)
    values_b = S_B.at_points([chart.assignment(q) for q in images])
    for k, asg in enumerate(points):
        lhs = image(values_a[k], frames[k], dpdt[k], dpdx[k], chart.point(asg).p)
        diff = np.abs(lhs - values_b[k])
        idx = np.unravel_index(np.argmax(diff), diff.shape)
        tracker.update(float(diff.max()), asg,
                       f"{label}[{idx[0] + 1},{idx[1] + 1},{idx[2] + 1}]")
        tracker.count_sample()
    return tracker.report()


def check_characterization(block, kind: str, h: Metric,
                           dom: SampleDomain | None = None,
                           tol: float = 1e-9) -> VerificationReport:
    """Algebraic test singling out the metric-canonical first block.

    ``block`` holds expressions: shape (m, n) for kind 'temporal'
    (entries B[c][i]) or (n, n) for kind 'spatial' (entries B[k][i]).
    The temporal block passes iff contracting it into the builtin J field
    reproduces L, which pins B[c][i] = p_i^c; the spatial one passes iff
    the contraction reproduces J itself, pinning B[k][i] = delta^k_i.
    """
    if kind not in ("temporal", "spatial"):
        raise ConfigError(f"unknown characterization kind {kind!r}")
    if h.kind != "temporal":
        raise ConfigError("characterization requires the temporal metric h")
    m = h.dim
    rows = tuple(tuple(as_expr(e) for e in row) for row in block)
    n = len(rows[0]) if kind == "temporal" else len(rows)
    if kind == "temporal" and len(rows) != m:
        raise ConfigError("temporal block must have shape (m, n)")
    if kind == "spatial" and any(len(r) != n for r in rows):
        raise ConfigError("spatial block must have shape (n, n)")
    chart = JetChart(m, n)
    built = builtin_dtensors(h, n)
    if dom is None:
        dom = chart.sample_domain()
    tracker = ResidualTracker(f"characterization:{kind}", tol)
    points = dom.points()
    j_values = built["J"].at_points(points)  # [P, i, a, b, j]
    l_values = built["L"].at_points(points)  # [P, c, j, a, b]
    b_values = compile_block([e for r in rows for e in r]).run(points).reshape(
        -1, len(rows), len(rows[0]))
    for asg, jv, lv, bv in zip(points, j_values, l_values, b_values):
        if kind == "temporal":
            lhs = np.einsum("iabj,ci->cjab", jv, bv)
            rhs = lv
        else:
            lhs = np.einsum("iabj,ki->kjab", jv, bv)
            rhs = np.transpose(jv, (0, 3, 1, 2))  # J[k][a][b][j] -> [k, j, a, b]
        diff = np.abs(lhs - rhs)
        idx = np.unravel_index(np.argmax(diff), diff.shape)
        tracker.update(float(diff.max()), asg,
                       "[" + ",".join(str(i + 1) for i in idx) + "]")
        tracker.count_sample()
    return tracker.report()


def decompose(S, metric: Metric):
    """Split S into (deviation d-tensor, metric-canonical semispray).

    The deviation T = S - S0 transforms homogeneously (the inhomogeneous
    corrections cancel), so it is returned as a DTensorField with slots
    (upper temporal doubled, lower spatial doubled, lower spatial).
    """
    if isinstance(S, TemporalSemispray):
        canonical = canonical_temporal(metric, S.n)
    elif isinstance(S, SpatialSemispray):
        canonical = canonical_spatial(metric, S.m)
    else:
        raise ConfigError(f"not a semispray: {type(S).__name__}")
    comps = np.empty((S.m, S.n, S.n), dtype=object)
    for a in range(S.m):
        for j in range(S.n):
            for k in range(S.n):
                comps[a, j, k] = add(S.components[a][j][k],
                                     mul(Const(-1.0), canonical.components[a][j][k]))
    slots = (upper_t(1), lower_x(0), lower_x())
    kind = "T1" if isinstance(S, TemporalSemispray) else "T2"
    return DTensorField(S.m, S.n, slots, comps, name=kind), canonical
