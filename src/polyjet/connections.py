"""Nonlinear connections on the dual 1-jet bundle.

A connection is a pair of blocks N1[a][i][b] (shape (m, n, m)) and
N2[a][i][j] (shape (m, n, n)) of expressions in (t, x, p).  Like the
semisprays they correspond to, connections transform with an
inhomogeneous correction under chart changes; the correction again comes
from exact derivatives of the induced momentum map.

The adapted coframe rows delta p_i^a = dp_i^a + N1[a][i][b] dt^b
+ N2[a][i][j] dx^j are the practical payoff: when both connections
satisfy the chart-change law, those rows mix tensorially with the same
coefficients as the polymomenta themselves, which is what
``verify_adapted_coframe`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import JetChart, TransitionMap, p_name
from .errors import ConfigError
from .metrics import Metric, christoffel
from .report import ResidualTracker, VerificationReport
from .semisprays import SpatialSemispray, TemporalSemispray
from .symbolic import (
    Const,
    Program,
    SampleDomain,
    add,
    as_expr,
    compile_block,
    differentiate,
    mul,
    variables,
)


def _coerce_block(m: int, n: int, components, shape, label: str):
    allowed = set(JetChart(m, n).names)
    rows = tuple(tuple(tuple(as_expr(e) for e in row) for row in sheet)
                 for sheet in components)
    if len(rows) != shape[0] or any(
            len(sheet) != shape[1] or any(len(row) != shape[2] for row in sheet)
            for sheet in rows):
        raise ConfigError(f"{label} must have shape {shape}")
    for sheet in rows:
        for row in sheet:
            for e in row:
                extra = variables(e) - allowed
                if extra:
                    raise ConfigError(
                        f"{label} component uses foreign variables {sorted(extra)}")
    return rows


@dataclass(frozen=True)
class NonlinearConnection:
    """Connection blocks N1 (m, n, m) and N2 (m, n, n)."""

    m: int
    n: int
    n1: tuple
    n2: tuple

    def __post_init__(self):
        object.__setattr__(self, "n1", _coerce_block(
            self.m, self.n, self.n1, (self.m, self.n, self.m), "N1"))
        object.__setattr__(self, "n2", _coerce_block(
            self.m, self.n, self.n2, (self.m, self.n, self.n), "N2"))

    @cached_property
    def _program(self) -> Program:
        return compile_block([e for block in (self.n1, self.n2) for sheet in block
                              for row in sheet for e in row])

    def at_points(self, points):
        """N1 (P, m, n, m) and N2 (P, m, n, n) at each assignment."""
        m, n = self.m, self.n
        vals = self._program.run(points)
        k = m * n * m
        return vals[:, :k].reshape(-1, m, n, m), vals[:, k:].reshape(-1, m, n, n)

    def n1_at(self, assignment) -> np.ndarray:
        return self.at_points([assignment])[0][0]

    def n2_at(self, assignment) -> np.ndarray:
        return self.at_points([assignment])[1][0]

    def map_components(self, f) -> "NonlinearConnection":
        n1 = tuple(tuple(tuple(f(e) for e in row) for row in sheet) for sheet in self.n1)
        n2 = tuple(tuple(tuple(f(e) for e in row) for row in sheet) for sheet in self.n2)
        return NonlinearConnection(self.m, self.n, n1, n2)


def canonical_metric_connection(h: Metric, phi: Metric, n: int | None = None) -> NonlinearConnection:
    """The connection induced by a temporal metric h and spatial metric phi:

    N1[a][i][b] = kappa^a_cb(t) p_i^c,   N2[a][i][j] = -gamma^k_ij(x) p_k^a.
    """
    if h.kind != "temporal" or phi.kind != "spatial":
        raise ConfigError("canonical connection requires temporal h and spatial phi")
    m, nn = h.dim, phi.dim
    chart = JetChart(m, nn)
    kappa = christoffel(h).components
    gamma = christoffel(phi).components
    if kappa is None or gamma is None:
        raise ConfigError("canonical connection needs symbolic Christoffel symbols")
    n1 = [[[add(*[mul(kappa[a][c][b], chart.p_var(i, c)) for c in range(m)])
            for b in range(m)] for i in range(nn)] for a in range(m)]
    n2 = [[[mul(Const(-1.0), add(*[mul(gamma[k][i][j], chart.p_var(k, a))
                                   for k in range(nn)]))
            for j in range(nn)] for i in range(nn)] for a in range(m)]
    return NonlinearConnection(m, nn, n1, n2)


def _connection_image(n1, n2, frame, dpdt, dpdx):
    jt, jx, kt, kx = frame
    out1 = np.einsum("cka,bc,kj,ad->bjd", n1, jt, kx, kt)
    out1 -= np.einsum("ad,jba->bjd", kt, dpdt)  # dpdt[j, b, a] = d ptilde_j^b / d t^a
    out2 = np.einsum("cki,bc,kj,ir->bjr", n2, jt, kx, kx)
    out2 -= np.einsum("ir,jbi->bjr", kx, dpdx)  # dpdx[j, b, i] = d ptilde_j^b / d x^i
    return out1, out2


def transform_connection(N: NonlinearConnection, tm: TransitionMap, q):
    """Numeric target-chart blocks (N1~, N2~) at the image of q."""
    asg = tm.chart.assignment(q)
    n1, n2 = N.at_points([asg])
    dpdt, dpdx = tm.momentum_derivatives([asg])
    return _connection_image(n1[0], n2[0], tm.jacobians_at(asg), dpdt[0], dpdx[0])


def verify_connection_law(N_A: NonlinearConnection, N_B: NonlinearConnection,
                          tm: TransitionMap, dom: SampleDomain | None = None,
                          tol: float = 1e-8, name: str | None = None) -> VerificationReport:
    """Check the inhomogeneous chart-change law for both connection blocks."""
    chart = tm.chart
    if dom is None:
        dom = chart.sample_domain()
    tracker = ResidualTracker(name or "connection-law", tol)
    points = dom.points()
    images, frames = tm.map_points(points)
    dpdt, dpdx = tm.momentum_derivatives(points)
    a1, a2 = N_A.at_points(points)
    b1, b2 = N_B.at_points([chart.assignment(q) for q in images])
    for k, asg in enumerate(points):
        lhs1, lhs2 = _connection_image(a1[k], a2[k], frames[k], dpdt[k], dpdx[k])
        for label, lhs, rhs in (("N1", lhs1, b1[k]), ("N2", lhs2, b2[k])):
            diff = np.abs(lhs - rhs)
            idx = np.unravel_index(np.argmax(diff), diff.shape)
            tracker.update(float(diff.max()), asg,
                           f"{label}[{idx[0] + 1},{idx[1] + 1},{idx[2] + 1}]")
        tracker.count_sample()
    return tracker.report()


def connection_from_semispray(G1: TemporalSemispray, G2: SpatialSemispray,
                              phi: Metric) -> NonlinearConnection:
    """Connection associated to a semispray pair.

    N2 = 2 G2 directly.  N1 needs the spatial metric to strip the momenta
    off the quadratic temporal block:

        N1[a][r][b] = phi^{jk} (d G1[a][j][k] / d p_i^b) phi_{ir}.

    For p-quadratic blocks K^a_cb p_j^c p_k^b this returns the
    (c, b)-symmetric part of K contracted with p, so it inverts
    ``semispray_from_connection`` exactly on connections whose N1 is
    p-linear with symmetric coefficients (the metric-canonical class).
    """
    if phi.kind != "spatial":
        raise ConfigError("semispray-to-connection conversion needs a spatial metric")
    m, n = G1.m, G1.n
    if (G2.m, G2.n) != (m, n) or phi.dim != n:
        raise ConfigError("semispray pair and metric dimensions disagree")
    chart = JetChart(m, n)
    phi_upper = phi.inverse_components
    n1 = [[[None] * m for _ in range(n)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            # d G1[a][j][k] / d p_i^b, then sandwich with phi
            for r in range(n):
                terms = []
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            terms.append(mul(
                                phi_upper[j][k],
                                differentiate(G1.components[a][j][k], p_name(i, b)),
                                phi.components[i][r]))
                n1[a][r][b] = add(*terms)
    n2 = [[[mul(Const(2.0), G2.components[b][j][k]) for k in range(n)]
           for j in range(n)] for b in range(m)]
    return NonlinearConnection(m, n, n1, n2)


def semispray_from_connection(N: NonlinearConnection):
    """The semispray pair associated to a connection:

    G1[a][i][j] = 1/2 N1[a][i][b] p_j^b, G2 = 1/2 N2.
    """
    m, n = N.m, N.n
    chart = JetChart(m, n)
    g1 = [[[mul(Const(0.5), add(*[mul(N.n1[a][i][b], chart.p_var(j, b))
                                  for b in range(m)]))
            for j in range(n)] for i in range(n)] for a in range(m)]
    g2 = [[[mul(Const(0.5), N.n2[b][j][k]) for k in range(n)]
           for j in range(n)] for b in range(m)]
    return TemporalSemispray(m, n, g1), SpatialSemispray(m, n, g2)


def _coframe_rows(n1, n2) -> np.ndarray:
    m, n = n1.shape[0], n1.shape[1]
    rows = np.zeros((m * n, m + n + m * n))
    for i in range(n):
        for a in range(m):
            r = i * m + a
            rows[r, :m] = n1[a][i]
            rows[r, m:m + n] = n2[a][i]
            rows[r, m + n + r] = 1.0
    return rows


def adapted_coframe(N: NonlinearConnection, q) -> np.ndarray:
    """Rows of delta p_i^a in the chart's (dt, dx, dp) basis at q.

    Row (i, a) sits at flat position i*m + a, matching the chart's
    momentum ordering; columns are dt^b, dx^j, then dp in the same flat
    order.
    """
    n1, n2 = N.at_points([JetChart(N.m, N.n).assignment(q)])
    return _coframe_rows(n1[0], n2[0])


def verify_adapted_coframe(N_A: NonlinearConnection, N_B: NonlinearConnection,
                           tm: TransitionMap, dom: SampleDomain | None = None,
                           tol: float = 1e-8, name: str | None = None) -> VerificationReport:
    """Check that the adapted coframe rows transform tensorially.

    Chart-A rows are rewritten in chart-B differentials through the full
    coordinate coframe, then mixed with the polymomentum coefficients
    Kx[i][j] Jt[b][a]; the result must equal chart-B's own rows at the
    image point.
    """
    if not tm.has_inverse:
        raise ConfigError("coframe verification requires inverse expressions")
    chart = tm.chart
    m, n = tm.m, tm.n
    if dom is None:
        dom = chart.sample_domain()
    col_names = ["d" + nm for nm in chart.names]
    tracker = ResidualTracker(name or "adapted-coframe", tol)
    points = dom.points()
    images, frames = tm.map_points(points)
    coframes = tm.coframe_matrices(images, frames)
    a1, a2 = N_A.at_points(points)
    b1, b2 = N_B.at_points([chart.assignment(q) for q in images])
    for k, asg in enumerate(points):
        jt, jx, kt, kx = frames[k]
        pushed = _coframe_rows(a1[k], a2[k]) @ coframes[k]
        pushed = pushed.reshape(n, m, -1)
        expected = np.einsum("ij,ba,iak->jbk", kx, jt, pushed).reshape(n * m, -1)
        got = _coframe_rows(b1[k], b2[k])
        diff = np.abs(got - expected)
        r, c = np.unravel_index(np.argmax(diff), diff.shape)
        j, b = divmod(int(r), m)
        tracker.update(float(diff.max()), asg,
                       f"coframe[{p_name(j, b)}, {col_names[int(c)]}]")
        tracker.count_sample()
    return tracker.report()
