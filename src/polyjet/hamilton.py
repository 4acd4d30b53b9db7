"""Multi-time Hamilton spaces: regularity, extraction, canonical connection.

A Hamilton space here is a temporal metric h_ab(t) together with a scalar
hamiltonian H(t, x, p) whose fundamental vertical block

    G[i][a][j][b] = 1/2 d^2 H / dp_i^a dp_j^b

factors, up to tolerance, as h_ab(t) g^{ij}, with g^{ij} invertible.  For
several time dimensions the factor g must not depend on the momenta; with
a single time dimension the factorization is automatic and a momentum-
dependent g is allowed.

When the factorization holds with m >= 2, the hamiltonian is forced into
the quadratic-plus-linear-plus-scalar shape

    H = h_ab g^{ij} p_i^a p_j^b + U^{(i)}_{(a)} p_i^a + F

and ``check_kronecker_regularity``, the one test of regularity, recovers
(U, F) exactly: a hamiltonian whose pieces do not come out momentum-free
or do not reassemble it is not regular.  ``HamiltonSpace`` runs that test
and lowers g once, for every m.  The canonical nonlinear connection is
then available three ways: the direct second-derivative formula, a middle
form through the deviation block T, and a closed form through covariant
derivatives of the lowered potential.  All three agree; the redundancy is
deliberate and checked by the tests.

Each metric fact has one home: g^{ij} is the regularity result's
``candidate``, the lowered g_ij is the ``Metric`` g (momentum-dependent
when an entry names a momentum), and the symbols of h and g are
``metrics.christoffel``, kept on each metric.

``_quadratic`` and ``_linear`` build the normal form's terms for every
hamiltonian builder and for ``_potential_and_free_term``; ``_spatial_block``
builds both the direct spatial block (from dH/dp) and T (from U).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, wraps

import numpy as np

from .charts import JetChart, p_name, x_name
from .connections import NonlinearConnection, metric_n1, metric_n2
from .dtensors import DTensorField, lower_t, lower_x, upper_t, upper_x
from .errors import ConfigError, NotRegular
from .linalg import DET_MIN, sym_inverse
from .metrics import Metric, christoffel
from .report import entry_label, sweep
from .symbolic import (
    Const,
    Expr,
    SampleDomain,
    ZERO,
    add,
    as_expr,
    compile_block,
    differentiate,
    equiv,
    expr_array,
    first_nonzero,
    keeping,
    mul,
    substitute,
    variables,
)


def fundamental_vertical_dtensor(H: Expr, m: int, n: int) -> DTensorField:
    """G[i][a][j][b] = 1/2 d^2 H / dp_i^a dp_j^b, with both (i, a) and
    (j, b) as doubled pairs."""
    H = as_expr(H)
    comps = np.empty((n, m, n, m), dtype=object)
    first = [[differentiate(H, p_name(i, a)) for a in range(m)] for i in range(n)]
    for i in range(n):
        for a in range(m):
            for j in range(n):
                for b in range(m):
                    comps[i, a, j, b] = mul(
                        Const(0.5), differentiate(first[i][a], p_name(j, b)))
    slots = (upper_x(1), lower_t(0), upper_x(3), lower_t(2))
    return DTensorField(m, n, slots, comps, name="G")


@dataclass
class RegularityResult:
    """Outcome of the Kronecker factorization test.  ``potential`` (U) and
    ``free_term`` (F) are set only when the result is regular and m >= 2."""

    regular: bool
    max_residual: float
    candidate: list  # the n rows of g^{ij} expressions
    p_dependent: bool
    tolerance: float
    samples: int
    reason: str = ""
    potential: DTensorField | None = None
    free_term: Expr | None = None

    def to_dict(self) -> dict:
        return {
            "regular": bool(self.regular),
            "max_residual": self.max_residual,
            "p_dependent": bool(self.p_dependent),
            "tolerance": self.tolerance,
            "samples": self.samples,
            "reason": self.reason,
        }


def _candidate_block(vertical: DTensorField, h: Metric) -> list:
    """g^{ij} = (1/m) h^{ab} G[i][a][j][b]: the unique factor if one exists."""
    m, n = h.dim, vertical.n
    h_upper = h.inverse_components
    cand = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            terms = [mul(h_upper[a][b], vertical.components[i, a, j, b])
                     for a in range(m) for b in range(m)]
            cand[i][j] = mul(Const(1.0 / m), add(*terms))
    return cand


def _really_p_dependent(exprs, chart: JetChart, tol: float) -> bool:
    """True when some entry's momentum derivative is nonzero in value, not
    merely in syntax."""
    p_names = set(chart.p_names)
    return first_nonzero((differentiate(e, nm) for row in exprs for e in row
                          for nm in sorted(variables(e) & p_names)), tol) is not None


def check_kronecker_regularity(H: Expr, h: Metric, n: int,
                               dom: SampleDomain | None = None,
                               tol: float = 1e-9) -> RegularityResult:
    """Test whether G factors as h_ab(t) g^{ij} with invertible g.

    Failure is reported, not raised: a singular candidate block or a
    residual above tolerance gives ``regular=False`` with a reason.  With
    m >= 2 the candidate must additionally be momentum-independent, and
    then the test extracts (U, F) with ``_potential_and_free_term``; pieces
    that depend on a momentum or do not reassemble H fail it too.  A single
    time dimension factors trivially and may keep the dependence.
    """
    if h.kind != "temporal":
        raise ConfigError("regularity is defined against a temporal metric")
    m = h.dim
    chart = JetChart(m, n)
    H = expr_array(H, (), chart.names, "hamiltonian").item()
    vertical = fundamental_vertical_dtensor(H, m, n)
    cand = _candidate_block(vertical, h)
    if dom is None:
        dom = chart.sample_domain()

    points = dom.points()
    # evaluated g, then h, then G: the first to fail raises
    g_values = compile_block(cand).run(points)
    h_values = h.at_points(points)
    rep = sweep("kronecker-regularity", tol, points,
                [(partial(entry_label, "G"), vertical.at_points(points),
                  np.einsum("pab,pij->piajb", h_values, g_values))])
    max_residual, samples = rep.max_residual, rep.samples
    # a non-finite candidate fails on its residual below, with its own reason
    with np.errstate(invalid="ignore"):
        singular = bool((np.abs(np.linalg.det(g_values)) < DET_MIN).any())

    p_dep = _really_p_dependent(cand, chart, tol)

    if singular:
        reason = "candidate spatial block is singular on the sample domain"
    elif not math.isfinite(max_residual):
        reason = f"factorization residual is not finite ({max_residual})"
    elif not max_residual <= tol:
        reason = f"factorization residual {max_residual:.3e} exceeds tolerance {tol:.1e}"
    elif m >= 2 and p_dep:
        reason = "candidate block depends on momenta, which only a single time dimension admits"
    else:
        reason = ""
    U = F = None
    if m >= 2 and not reason:
        U, F, reason = _potential_and_free_term(H, h, cand, dom, tol)
    return RegularityResult(not reason, max_residual, cand, p_dep, tol, samples, reason, U, F)


def _lowered_metric(cand, m: int) -> Metric:
    """The candidate block g^ij inverted into a spatiotemporal metric g_ij."""
    return Metric.spatiotemporal(sym_inverse([list(row) for row in cand], "lowering g^ij"), m=m)


def _quadratic(h, g, P, *coeff) -> list:
    """The terms mul(*coeff, h[a][b], g[i][j], P[i][a], P[j][b]) of a
    quadratic form, in (a, b, i, j) order."""
    m, n = len(h), len(g)
    return [mul(*coeff, h[a][b], g[i][j], P[i][a], P[j][b])
            for a in range(m) for b in range(m) for i in range(n) for j in range(n)]


def _linear(U, P, *coeff) -> list:
    """The terms mul(*coeff, U[i][a], P[i][a]), in (i, a) order."""
    return [mul(*coeff, U[i][a], P[i][a])
            for i in range(len(U)) for a in range(len(U[i]))]


def _potential_and_free_term(H: Expr, h: Metric, cand, dom: SampleDomain,
                             tol: float) -> tuple:
    """The exact (U, F) of a regular H with m >= 2, given its block g^ij:

        U^{(i)}_{(a)} = dH/dp_i^a - 2 h_ab g^{ij} p_j^b
        F = H - h_ab g^{ij} p_i^a p_j^b - U^{(i)}_{(a)} p_i^a

    Returns (U, F, ""), or (None, None, reason) when they do not come out
    momentum-free or do not reassemble to H identically.
    """
    m, n = h.dim, len(cand)
    chart = JetChart(m, n)
    u_comps = np.empty((n, m), dtype=object)
    for i, a in np.ndindex(n, m):
        quad = [mul(Const(2.0), h.components[a][b], cand[i][j], chart.p_var(j, b))
                for b in range(m) for j in range(n)]
        u_comps[i, a] = add(differentiate(H, p_name(i, a)), mul(Const(-1.0), add(*quad)))

    P = chart.p_vars()
    quad_terms = _quadratic(h.components, cand, P)
    free = add(H, mul(Const(-1.0), add(*quad_terms)),
               mul(Const(-1.0), add(*_linear(u_comps, P))))

    # per momentum, every potential entry and then the free term
    pieces = (*u_comps.flat, free)
    bad = first_nonzero((differentiate(e, nm) for nm in chart.p_names for e in pieces), tol)
    if bad is not None:
        k, piece = divmod(bad, len(pieces))
        what = "free" if piece == len(pieces) - 1 else "potential"
        return None, None, f"extracted {what} term depends on momentum {chart.p_names[k]}"

    # momentum independence is established, so setting p = 0 is harmless and
    # strips the syntactic momentum terms that cancel only in value
    wipe = {nm: ZERO for nm in chart.p_names}
    for i, a in np.ndindex(n, m):
        u_comps[i, a] = substitute(u_comps[i, a], wipe)
    free = substitute(free, wipe)

    rebuilt = add(add(*quad_terms), add(*_linear(u_comps, P)), free)
    if not equiv(rebuilt, H, dom=dom, tol=max(tol, 1e-10)):
        return None, None, "extracted pieces do not reassemble the hamiltonian"
    return DTensorField(m, n, (upper_x(1), lower_t(0)), u_comps, name="U"), free, ""


class HamiltonSpace:
    """A regular hamiltonian over a temporal metric, with derived data.

    Construction runs ``check_kronecker_regularity`` and raises NotRegular,
    carrying the failed result as ``exc.result``, when it fails.  Otherwise
    the result is ``regularity``, and the potential U and the free term F
    are its extracted pieces (None for m = 1).  The lowered metric g is
    built once, for every m, and may depend on the momenta only when
    m = 1.  The block g^ij is ``regularity.candidate`` and g_ij is
    ``g.components``.

    The space owns the derivative cache of its own build: construction and
    the three canonical-connection builders run in a ``symbolic.keeping``
    block over the space's store, a dict keyed by (node, variable name).
    So a derivative one of them builds (dH/dp, dg_ij/dx^k and their
    subtrees) is derived once for the life of the space and freed with it.
    """

    def __init__(self, h: Metric, n: int, hamiltonian, constants=None,
                 tol: float = 1e-9, dom: SampleDomain | None = None):
        if h.kind != "temporal":
            raise ConfigError("a Hamilton space needs a temporal metric")
        self.h = h
        self.m = h.dim
        self.n = int(n)
        self.chart = JetChart(self.m, self.n)
        self.hamiltonian = expr_array(hamiltonian, (), self.chart.names, "hamiltonian").item()
        self.constants = dict(constants or {})
        self._kept = {}
        with keeping(self._kept):
            self.regularity = check_kronecker_regularity(self.hamiltonian, h, self.n,
                                                         dom=dom, tol=tol)
            if not self.regularity.regular:
                raise NotRegular(self.regularity)
            self.U, self.F = self.regularity.potential, self.regularity.free_term
            # after the test, so a NotRegular comes before the inverse's
            # dimension limit
            self.g = _lowered_metric(self.regularity.candidate, self.m)


def _kept_by_the_space(build):
    """Run a canonical-connection builder in its space's ``keeping`` block."""

    @wraps(build)
    def run(space: HamiltonSpace) -> NonlinearConnection:
        with keeping(space._kept):
            return build(space)

    return run


@_kept_by_the_space
def canonical_nonlinear_connection(space: HamiltonSpace) -> NonlinearConnection:
    """The connection canonically induced by (h, H): the temporal block is
    the metric one, the spatial block is the direct formula

        N2[a][i][j] = (h^{ab}/4) [ dg_ij/dx^k dH/dp_k^b
                                   - dg_ij/dp_k^b dH/dx^k
                                   + g_ik d^2 H / dx^j dp_k^b
                                   + g_jk d^2 H / dx^i dp_k^b ]   (sum over b, k)

    which keeps the momentum-derivative term so the single-time,
    momentum-dependent case works verbatim (the term vanishes otherwise).
    """
    m, n = space.m, space.n
    n1 = metric_n1(christoffel(space.h).components, n)
    H = space.hamiltonian
    dH_dp = [[differentiate(H, p_name(k, b)) for b in range(m)] for k in range(n)]
    n2 = _spatial_block(space.h.inverse_components, space.g.components, dH_dp, H)
    return NonlinearConnection(m, n, n1, n2)


def _spatial_block(h_upper, g, X, H=None) -> np.ndarray:
    """The (m, n, n) block of ``canonical_nonlinear_connection`` (X[k][b] =
    dH/dp_k^b) or of ``electrodynamic_t_block`` (X = U).  Each derivative
    is taken once per index, into a table, before the (a, b) loops.
    dg_ij/dx^k is derived only where some X[k][b] is not ``ZERO``.  The
    dg/dp dH/dx term is built only with the hamiltonian ``H``, where
    dg_ij/dp_k^b is not ``ZERO``, and dH/dx^k is derived only there: a g
    without momenta, as every m >= 2 space has, never needs it."""
    m, n = len(h_upper), len(g)
    pairs = list(np.ndindex(n, n))
    dg_dx = {(i, j, k): differentiate(g[i][j], x_name(k)) for k in range(n)
             if any(X[k][b] is not ZERO for b in range(m)) for i, j in pairs}
    dX_dx = [[[differentiate(X[k][b], x_name(j)) for j in range(n)] for b in range(m)]
             for k in range(n)]
    dg_dp, dH_dx = {}, {}
    if H is not None:
        dg_dp = {(i, j, k, b): differentiate(g[i][j], p_name(k, b))
                 for i, j in pairs for k in range(n) for b in range(m)}
        dH_dx = {k: differentiate(H, x_name(k)) for k in range(n)
                 if any(dg_dp[i, j, k, b] is not ZERO for i, j in pairs for b in range(m))}
    out = np.empty((m, n, n), dtype=object)
    for a, i, j in np.ndindex(m, n, n):
        outer = []
        for b in range(m):
            inner = []
            for k in range(n):
                if X[k][b] is not ZERO:
                    inner.append(mul(dg_dx[i, j, k], X[k][b]))
                if dg_dp.get((i, j, k, b), ZERO) is not ZERO:
                    inner.append(mul(Const(-1.0), dg_dp[i, j, k, b], dH_dx[k]))
                inner.append(mul(g[i][k], dX_dx[k][b][j]))
                inner.append(mul(g[j][k], dX_dx[k][b][i]))
            outer.append(mul(Const(0.25), h_upper[a][b], add(*inner)))
        out[a, i, j] = add(*outer)
    return out


def electrodynamic_t_block(g: Metric, U: DTensorField, h: Metric) -> DTensorField:
    """Deviation of the canonical spatial block from the pure metric one:

        T[a][i][j] = (h^{ab}/4) [ dg_ij/dx^k U^{(k)}_{(b)}
                                  + g_ik dU^{(k)}_{(b)}/dx^j
                                  + g_jk dU^{(k)}_{(b)}/dx^i ]   (sum b, k)
    """
    if g.kind != "spatiotemporal" or h.kind != "temporal":
        raise ConfigError("expected a spatiotemporal g and temporal h")
    m, n = h.dim, g.dim
    if (U.m, U.n) != (m, n):
        raise ConfigError("potential term dimensions disagree with the metrics")
    comps = _spatial_block(h.inverse_components, g.components, U.components)
    return DTensorField(m, n, (upper_t(1), lower_x(0), lower_x()), comps, name="T")


def _require_extraction(space: HamiltonSpace, what: str):
    if space.U is None:
        raise ConfigError(f"{what} needs the extracted potential term; "
                          "it exists only for m >= 2")


@_kept_by_the_space
def canonical_connection_middle_form(space: HamiltonSpace) -> NonlinearConnection:
    """Spatial block as metric part plus the T deviation block."""
    _require_extraction(space, "the middle form")
    m, n = space.m, space.n
    metric_part = metric_n2(christoffel(space.g).components, m)
    T = electrodynamic_t_block(space.g, space.U, space.h)
    n2 = [[[add(metric_part[a][i][j], T.components[a, i, j])
            for j in range(n)] for i in range(n)] for a in range(m)]
    return NonlinearConnection(m, n, metric_n1(christoffel(space.h).components, n), n2)


@_kept_by_the_space
def canonical_connection_closed_form(space: HamiltonSpace) -> NonlinearConnection:
    """Spatial block through covariant derivatives of the lowered potential:

        N2[a][i][j] = -Gamma^k_ij p_k^a
                      + (h^{ab}/4) (U_{ib;j} + U_{jb;i})

    with U_{ib} = g_ik U^{(k)}_{(b)} and ; the g-covariant x-derivative.
    """
    _require_extraction(space, "the closed form")
    m, n = space.m, space.n
    gamma = christoffel(space.g).components
    metric_part = metric_n2(gamma, m)
    g = space.g.components
    h_upper = space.h.inverse_components

    lowered = [[add(*[mul(g[i][k], space.U.components[k, b]) for k in range(n)])
                for b in range(m)] for i in range(n)]
    cov = [[[add(differentiate(lowered[k][b], x_name(r)),
                 mul(Const(-1.0), add(*[mul(lowered[s][b], gamma[s][k][r])
                                        for s in range(n)])))
             for r in range(n)] for b in range(m)] for k in range(n)]

    n2 = [[[add(metric_part[a][i][j],
                add(*[mul(Const(0.25), h_upper[a][b],
                          add(cov[i][b][j], cov[j][b][i])) for b in range(m)]))
            for j in range(n)] for i in range(n)] for a in range(m)]
    return NonlinearConnection(m, n, metric_n1(christoffel(space.h).components, n), n2)


def _check_positive(**consts):
    for key, value in consts.items():
        v = float(value)
        if not v > 0:
            raise ConfigError(f"constant {key} must be positive, got {value}")


def gravitational_space(h: Metric, phi: Metric, mass: float = 1.0,
                        light_speed: float = 1.0) -> HamiltonSpace:
    """H = (1 / (mass * light_speed)) h_ab phi^{ij} p_i^a p_j^b."""
    if phi.kind != "spatial":
        raise ConfigError("gravitational spaces take a spatial metric phi")
    _check_positive(mass=mass, light_speed=light_speed)
    n = phi.dim
    coeff = Const(1.0 / (float(mass) * float(light_speed)))
    H = add(*_quadratic(h.components, phi.inverse_components,
                        JetChart(h.dim, n).p_vars(), coeff))
    return HamiltonSpace(h, n, H, constants={
        "mass": float(mass), "light_speed": float(light_speed)})


def autonomous_electrodynamic_space(h: Metric, phi: Metric, potential,
                                    mass: float = 1.0, light_speed: float = 1.0,
                                    charge: float = 1.0) -> HamiltonSpace:
    """Gravitational H plus a linear coupling to a potential A^(i)_(a)(x):

        H = H_grav - (2 charge / (mass c^2)) A^{(i)}_{(a)} p_i^a
                   + (charge^2 / (mass c^3)) h^{ab} phi_{ij} A^{(i)}_{(a)} A^{(j)}_{(b)}

    The potential must depend on x only.
    """
    if phi.kind != "spatial":
        raise ConfigError("electrodynamic spaces take a spatial metric phi")
    _check_positive(mass=mass, light_speed=light_speed, charge=charge)
    m, n = h.dim, phi.dim
    chart = JetChart(m, n)
    A = expr_array(potential, (n, m), chart.x_names, "autonomous potential")
    mass, light_speed, charge = float(mass), float(light_speed), float(charge)
    phi_upper, h_upper, P = phi.inverse_components, h.inverse_components, chart.p_vars()
    quad = _quadratic(h.components, phi_upper, P, Const(1.0 / (mass * light_speed)))
    linear = _linear(A, P, Const(-2.0 * charge / (mass * light_speed ** 2)))
    free = mul(Const(charge ** 2 / (mass * light_speed ** 3)),
               add(*_quadratic(h_upper, phi.components, A)))
    H = add(add(*quad), add(*linear), free)
    return HamiltonSpace(h, n, H, constants={
        "mass": mass, "light_speed": light_speed, "charge": charge})


def general_electrodynamic_space(h: Metric, g: Metric, potential,
                                 free_term=ZERO) -> HamiltonSpace:
    """H = h_ab g^{ij} p_i^a p_j^b + U^{(i)}_{(a)} p_i^a + F from explicit
    pieces; g is the lowered spatial block (its exact inverse enters H),
    and U, F may depend on t and x."""
    if g.kind != "spatiotemporal":
        raise ConfigError("the lowered spatial block must be spatiotemporal")
    if g.p_dependent:
        raise ConfigError("an explicit electrodynamic g must not depend on momenta")
    m, n = h.dim, g.dim
    if g.m != m:
        raise ConfigError("temporal dimensions of h and g disagree")
    chart = JetChart(m, n)
    allowed = chart.t_names + chart.x_names
    U = expr_array(potential, (n, m), allowed, "potential")
    F = expr_array(free_term, (), allowed, "free term").item()
    P = chart.p_vars()
    H = add(add(*_quadratic(h.components, g.inverse_components, P)),
            add(*_linear(U, P)), F)
    return HamiltonSpace(h, n, H)
