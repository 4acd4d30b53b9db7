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
from functools import partial

import numpy as np

from .charts import JetChart, TransitionMap, p_name
from .errors import ConfigError
from .metrics import Metric, christoffel
from .report import VerificationReport, chart_law, entry_label
from .semisprays import Semispray
from .symbolic import (
    Compiled,
    Const,
    SampleDomain,
    add,
    expr_array,
    jacobian,
    mul,
)


@dataclass(frozen=True, eq=False)
class NonlinearConnection(Compiled):
    """Connection blocks N1 (m, n, m) and N2 (m, n, n), both ``expr_array``
    blocks.

    Both blocks compile into one ``Compiled`` program, N1's entries
    first, so ``at_points`` gives the pair N1 (P, m, n, m), N2 (P, m, n, n)
    and ``at`` the pair at one point.  ``n1_at`` and ``n2_at`` take their
    block from ``at``, so either raises when N1 or N2 cannot be evaluated
    there, N1's error first, and ``n2_at`` right after ``n1_at`` at the
    same point gets copies of the remembered batch without another pass.
    """

    BLOCKS = ("n1", "n2")

    m: int
    n: int
    n1: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        names = JetChart(self.m, self.n).names
        object.__setattr__(self, "n1", expr_array(self.n1, (self.m, self.n, self.m), names, "N1"))
        object.__setattr__(self, "n2", expr_array(self.n2, (self.m, self.n, self.n), names, "N2"))

    def n1_at(self, assignment) -> np.ndarray:
        return self.at(assignment)[0]

    def n2_at(self, assignment) -> np.ndarray:
        return self.at(assignment)[1]


def metric_n1(kappa, n: int) -> list:
    """N1[a][i][b] = kappa^a_cb p_i^c from the temporal Christoffel
    symbols kappa[a][c][b]."""
    m = len(kappa)
    chart = JetChart(m, n)
    return [[[add(*[mul(kappa[a][c][b], chart.p_var(i, c)) for c in range(m)])
              for b in range(m)] for i in range(n)] for a in range(m)]


def metric_n2(gamma, m: int) -> list:
    """N2[a][i][j] = -gamma^k_ij p_k^a from the spatial Christoffel
    symbols gamma[k][i][j]."""
    n = len(gamma)
    chart = JetChart(m, n)
    return [[[mul(Const(-1.0), add(*[mul(gamma[k][i][j], chart.p_var(k, a))
                                     for k in range(n)]))
              for j in range(n)] for i in range(n)] for a in range(m)]


def canonical_metric_connection(h: Metric, phi: Metric) -> NonlinearConnection:
    """The connection induced by a temporal metric h and spatial metric phi:

    N1[a][i][b] = kappa^a_cb(t) p_i^c,   N2[a][i][j] = -gamma^k_ij(x) p_k^a.
    """
    if h.kind != "temporal" or phi.kind != "spatial":
        raise ConfigError("canonical connection requires temporal h and spatial phi")
    m, n = h.dim, phi.dim
    return NonlinearConnection(m, n, metric_n1(christoffel(h).components, n),
                               metric_n2(christoffel(phi).components, m))


def _connection_images(tm: TransitionMap, frames, values):
    """Target-chart blocks N1~ (P, m, n, m) and N2~ (P, m, n, n) at the
    images of a ``map_points`` batch, from the source blocks N1 and N2."""
    dpdt, dpdx = tm.momentum_derivatives(frames.points)
    jt, kt, kx = frames.jt, frames.kt, frames.kx
    n1, n2 = values
    out1 = np.einsum("pcka,pbc,pkj,pad->pbjd", n1, jt, kx, kt)
    out1 -= np.einsum("pad,pjba->pbjd", kt, dpdt)  # dpdt[p, j, b, a] = d ptilde_j^b / d t^a
    out2 = np.einsum("pcki,pbc,pkj,pir->pbjr", n2, jt, kx, kx)
    out2 -= np.einsum("pir,pjbi->pbjr", kx, dpdx)  # dpdx[p, j, b, i] = d ptilde_j^b / d x^i
    return out1, out2


def verify_connection_law(N_A: NonlinearConnection, N_B: NonlinearConnection,
                          tm: TransitionMap, dom: SampleDomain | None = None,
                          tol: float = 1e-8) -> VerificationReport:
    """Check the inhomogeneous chart-change law for both connection blocks."""

    def compare(frames, values_a, values_b):
        return zip(_connection_images(tm, frames, values_a), values_b)

    return chart_law("connection-law", tol, tm, dom,
                     (partial(entry_label, "N1"), partial(entry_label, "N2")),
                     N_A, N_B, compare)


def connection_from_semispray(G1: Semispray, G2: Semispray,
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
    phi_upper = phi.inverse_components
    # dG[a, j, k, i, b] = d G1[a][j][k] / d p_i^b, once for every r
    dG = jacobian(G1.components, JetChart(m, n).p_names).reshape(m, n, n, n, m)
    n1 = [[[add(*[mul(phi_upper[j][k], dG[a, j, k, i, b], phi.components[i][r])
                  for i in range(n) for j in range(n) for k in range(n)])
            for b in range(m)] for r in range(n)] for a in range(m)]
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
    return Semispray("temporal", m, n, g1), Semispray("spatial", m, n, g2)


def _coframe_rows(n1, n2) -> np.ndarray:
    """The rows of delta p_i^a, (P, m*n, m + n + m*n), from the blocks N1
    (P, m, n, m) and N2 (P, m, n, n)."""
    size, m, n = n1.shape[:3]
    rows = np.zeros((size, n * m, m + n + m * n))
    rows[:, :, :m] = n1.transpose(0, 2, 1, 3).reshape(size, n * m, m)
    rows[:, :, m:m + n] = n2.transpose(0, 2, 1, 3).reshape(size, n * m, n)
    rows[:, :, m + n:] = np.eye(n * m)
    return rows


def _coframe_images(tm: TransitionMap, frames, values) -> np.ndarray:
    """The source coframe rows of N1, N2 (``values``) at a ``map_points``
    batch, rewritten in target differentials through the full coordinate
    coframe and mixed like the polymomenta: (P, m*n, m + n + m*n)."""
    size, m, n, dim = len(frames.points), tm.m, tm.n, tm.chart.total_dim
    pushed = (_coframe_rows(*values) @ tm.coframe_matrices(frames)).reshape(size, n, m, dim)
    mixed = np.einsum("pij,pba,piak->pjbk", frames.kx, frames.jt, pushed)
    return mixed.reshape(size, n * m, dim)


def adapted_coframe(N: NonlinearConnection, assignment) -> np.ndarray:
    """Rows of delta p_i^a in the chart's (dt, dx, dp) basis at one
    assignment, as ``N.at`` takes it.

    Row (i, a) sits at flat position i*m + a, matching the chart's
    momentum ordering; columns are dt^b, dx^j, then dp in the same flat
    order.
    """
    return _coframe_rows(*N.at_points([assignment]))[0]


def verify_adapted_coframe(N_A: NonlinearConnection, N_B: NonlinearConnection,
                           tm: TransitionMap, dom: SampleDomain | None = None,
                           tol: float = 1e-8) -> VerificationReport:
    """Check that the adapted coframe rows transform tensorially.

    Chart-A rows are rewritten in chart-B differentials through the full
    coordinate coframe, then mixed with the polymomentum coefficients
    Kx[i][j] Jt[b][a]; the result must equal chart-B's own rows at the
    image point.
    """
    if not tm.has_inverse:
        raise ConfigError("coframe verification requires inverse expressions")
    m = tm.m
    col_names = ["d" + nm for nm in tm.chart.names]

    def label(idx):
        j, b = divmod(int(idx[0]), m)
        return f"coframe[{p_name(j, b)}, {col_names[int(idx[1])]}]"

    def compare(frames, values_a, values_b):
        return ((_coframe_rows(*values_b), _coframe_images(tm, frames, values_a)),)

    return chart_law("adapted-coframe", tol, tm, dom, (label,), N_A, N_B, compare)
