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
from functools import partial

import numpy as np

from .charts import JetChart, TransitionMap
from .dtensors import DTensorField, builtin_dtensors, lower_x, upper_t
from .errors import ConfigError
from .metrics import Metric, christoffel
from .report import VerificationReport, chart_law, entry_label, sweep
from .symbolic import Compiled, Const, SampleDomain, add, compile_block, expr_array, mul


@dataclass(frozen=True, eq=False)
class Semispray(Compiled):
    """An (m, n, n) ``expr_array`` block of expressions in (t, x, p):
    G1[b][j][i] when ``kind`` is 'temporal', G2[b][j][i] when it is
    'spatial'; ``at_points`` gives (P, m, n, n)."""

    kind: str
    m: int
    n: int
    components: np.ndarray

    def __post_init__(self):
        if self.kind not in ("temporal", "spatial"):
            raise ConfigError(f"unknown semispray kind {self.kind!r}")
        object.__setattr__(self, "components", expr_array(
            self.components, (self.m, self.n, self.n), JetChart(self.m, self.n).names,
            f"{self.kind} semispray"))


def canonical_temporal(h: Metric, n: int) -> Semispray:
    """G1[a][j][k] = 1/2 kappa^a_bc(t) p_j^b p_k^c for a temporal metric h."""
    if h.kind != "temporal":
        raise ConfigError("canonical temporal semispray requires a temporal metric")
    m = h.dim
    chart = JetChart(m, n)
    kappa = christoffel(h).components
    comps = [[[None] * n for _ in range(n)] for _ in range(m)]
    for a in range(m):
        for j in range(n):
            for k in range(n):
                terms = [mul(kappa[a][b][c], chart.p_var(j, b), chart.p_var(k, c))
                         for b in range(m) for c in range(m)]
                comps[a][j][k] = mul(Const(0.5), add(*terms))
    return Semispray("temporal", m, n, comps)


def canonical_spatial(phi: Metric, m: int) -> Semispray:
    """G2[b][j][k] = -1/2 gamma^i_jk(x) p_i^b for a spatial metric phi."""
    if phi.kind != "spatial":
        raise ConfigError("canonical spatial semispray requires a spatial metric")
    n = phi.dim
    chart = JetChart(m, n)
    gamma = christoffel(phi).components
    comps = [[[None] * n for _ in range(n)] for _ in range(m)]
    for b in range(m):
        for j in range(n):
            for k in range(n):
                terms = [mul(gamma[i][j][k], chart.p_var(i, b)) for i in range(n)]
                comps[b][j][k] = mul(Const(-0.5), add(*terms))
    return Semispray("spatial", m, n, comps)


def _semispray_images(kind: str, tm: TransitionMap, frames, values) -> np.ndarray:
    """Target-chart blocks (P, m, n, n) at the images of a ``map_points``
    batch, from the source blocks (P, m, n, n) of a semispray of ``kind``:
    the homogeneous part minus the momentum-map correction."""
    dpdt, dpdx = tm.momentum_derivatives(frames.points)
    jt, kx = frames.jt, frames.kx
    if kind == "temporal":
        two_g = 2.0 * np.einsum("pbji,pcb,pjk,pir->pckr", values, jt, kx, kx)
        # dpdt[p, k, c, a] = d ptilde_k^c / d t^a
        correction = np.einsum("pir,pkca,pia->pckr", kx, dpdt, frames.p)
    else:
        two_g = 2.0 * np.einsum("pbji,pdb,pjs,pik->pdsk", values, jt, kx, kx)
        # dpdx[p, s, d, i] = d ptilde_s^d / d x^i
        correction = np.einsum("pik,psdi->pdsk", kx, dpdx)
    return 0.5 * (two_g - correction)


def transform_semispray(S: Semispray, tm: TransitionMap, q) -> np.ndarray:
    """Numeric target-chart block (G1~[c][k][r] or G2~[d][s][k]) at the
    image of q."""
    frames = tm.map_points([tm.chart.assignment(q)])
    return _semispray_images(S.kind, tm, frames, S.at_points(frames.points))[0]


def verify_semispray_law(S_A: Semispray, S_B: Semispray, tm: TransitionMap,
                         dom: SampleDomain | None = None, tol: float = 1e-8) -> VerificationReport:
    """Check the inhomogeneous chart-change law between two semisprays."""
    if S_A.kind != S_B.kind:
        raise ConfigError("cannot compare semisprays of different kinds")

    def compare(frames, values_a, values_b):
        return ((_semispray_images(S_A.kind, tm, frames, values_a), values_b),)

    return chart_law(f"semispray-law:{S_A.kind}", tol, tm, dom,
                     (partial(entry_label, "G1" if S_A.kind == "temporal" else "G2"),),
                     S_A, S_B, compare)


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
    n = len(block[0]) if kind == "temporal" else len(block)
    block = expr_array(block, (m, n) if kind == "temporal" else (n, n),
                       label=f"{kind} block")
    chart = JetChart(m, n)
    built = builtin_dtensors(h, n)
    if dom is None:
        dom = chart.sample_domain()
    points = dom.points()
    j_values = built["J"].at_points(points)  # [P, i, a, b, j]
    l_values = built["L"].at_points(points)  # [P, c, j, a, b]
    b_values = compile_block(block).run(points)
    if kind == "temporal":
        lhs, rhs = np.einsum("piabj,pci->pcjab", j_values, b_values), l_values
    else:
        # J[k][a][b][j] -> [k, j, a, b]
        lhs, rhs = (np.einsum("piabj,pki->pkjab", j_values, b_values),
                    np.transpose(j_values, (0, 1, 4, 2, 3)))
    return sweep(f"characterization:{kind}", tol, points,
                 [(partial(entry_label, ""), lhs, rhs)])


def decompose(S: Semispray, metric: Metric):
    """Split S into (deviation d-tensor, metric-canonical semispray).

    The deviation T = S - S0 transforms homogeneously (the inhomogeneous
    corrections cancel), so it is returned as a DTensorField with slots
    (upper temporal doubled, lower spatial doubled, lower spatial).
    """
    if S.kind == "temporal":
        canonical = canonical_temporal(metric, S.n)
    else:
        canonical = canonical_spatial(metric, S.m)
    comps = np.empty((S.m, S.n, S.n), dtype=object)
    for a in range(S.m):
        for j in range(S.n):
            for k in range(S.n):
                comps[a, j, k] = add(S.components[a][j][k],
                                     mul(Const(-1.0), canonical.components[a][j][k]))
    slots = (upper_t(1), lower_x(0), lower_x())
    return DTensorField(S.m, S.n, slots, comps, name="T1" if S.kind == "temporal" else "T2"), canonical
