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

so its pieces are its Taylor coefficients at p = 0, each taken there:

    g^{ij} = (1/2m) h^{ab} d^2 H / dp_i^a dp_j^b,  U^{(i)}_{(a)} = dH/dp_i^a,  F = H

``check_kronecker_regularity``, the one test of regularity, extracts them
so, and a hamiltonian that is not of that form in its momenta, or whose
pieces do not reassemble it, is not regular.  Every part of the test
samples one box, the caller's.  The form is tested without a derivative:
with E = G - h (x) g, the deviation the factorization sweep already
evaluated, the remainders dH/dp_i^a - 2 h_ab g^{ij} p_j^b and H minus the
quadratic part minus that remainder times p_i^a have the momentum
derivatives 2 E[i][a][k][c] and -2 E[i][a][k][c] p_i^a.  ``HamiltonSpace``
runs that test and lowers g once, for every m.  The canonical nonlinear
connection is then available three ways: the direct second-derivative
formula, a middle form through the deviation block T, and a closed form
through covariant derivatives of the lowered potential.  All three agree;
the redundancy is deliberate and checked by the tests.

Each metric fact has one home: g^{ij} is the regularity result's
``candidate``, the lowered g_ij is the ``Metric`` g (momentum-dependent
only when m = 1 and an entry names a momentum), and the symbols of h and
g are ``metrics.christoffel``, kept on each metric.

``_quadratic`` and ``_linear`` build the normal form's terms for every
hamiltonian builder and for ``_potential_and_free_term``; ``_spatial_block``
builds both the direct spatial block (from dH/dp) and T (from U).  Every
derivative table is a ``symbolic.jacobian`` except that block's dg/dx and
dH/dx, taken only where a term reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, wraps

import numpy as np

from .charts import JetChart, x_name
from .connections import NonlinearConnection, metric_n1, metric_n2
from .dtensors import DTensorField, lower_t, lower_x, upper_t, upper_x
from .errors import ConfigError, NotRegular
from .linalg import DET_MIN, sym_inverse
from .metrics import Metric, christoffel
from .report import VerificationReport, entry_label, sweep
from .symbolic import (
    Const,
    Expr,
    SampleDomain,
    ZERO,
    add,
    compile_block,
    deviation,
    differentiate,
    expr_array,
    jacobian,
    keeping,
    mul,
    scaled_residual,
    substitute,
)


def fundamental_vertical_dtensor(H: Expr, m: int, n: int) -> DTensorField:
    """G[i][a][j][b] = 1/2 d^2 H / dp_i^a dp_j^b, with both (i, a) and
    (j, b) as doubled pairs."""
    p_names = JetChart(m, n).p_names
    second = jacobian(jacobian(H, p_names), p_names)
    comps = np.reshape([mul(Const(0.5), e) for e in second.flat], (n, m, n, m))
    slots = (upper_x(1), lower_t(0), upper_x(3), lower_t(2))
    return DTensorField(m, n, slots, comps, name="G")


@dataclass
class RegularityResult:
    """Outcome of the Kronecker factorization test.  ``potential`` (U),
    ``free_term`` (F) and ``round_trip``, the report of their reassembly,
    are set only when the result is regular and m >= 2."""

    regular: bool
    max_residual: float
    candidate: list  # the n rows of g^{ij} expressions
    p_dependent: bool
    tolerance: float
    samples: int
    reason: str = ""
    potential: DTensorField | None = None
    free_term: Expr | None = None
    round_trip: VerificationReport | None = None

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


def _really_p_dependent(exprs, chart: JetChart, dom: SampleDomain, tol: float) -> bool:
    """True when some entry's momentum derivative is nonzero in value on
    ``dom``, not merely in syntax."""
    derivatives = [d for d in jacobian(exprs, chart.p_names).flat if d is not ZERO]
    return bool(derivatives) and not (
        deviation(derivatives, [ZERO] * len(derivatives), dom)[1] <= tol).all()


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

    One box decides every part of the test: ``dom`` (the chart's default
    box when None), with default intervals for any chart name it lacks.
    The factorization sweep evaluates G and h (x) g on its points, and the
    deviation E = G - h (x) g it measures there is also what the
    extraction's momentum tests read.  Every part but that sweep, whose
    residual is absolute, decides by ``symbolic.deviation``'s scaled one.
    """
    if h.kind != "temporal":
        raise ConfigError("regularity is defined against a temporal metric")
    m = h.dim
    chart = JetChart(m, n)
    H = expr_array(H, (), chart.names, "hamiltonian").item()
    vertical = fundamental_vertical_dtensor(H, m, n)
    cand = _candidate_block(vertical, h)
    dom = chart.sample_domain() if dom is None else dom.extended(chart.names)

    points = dom.points()
    # evaluated g, then h, then G: the first to fail raises
    g_values = compile_block(cand).run(points)
    h_values = h.at_points(points)
    G_values = vertical.at_points(points)
    hg_values = np.einsum("pab,pij->piajb", h_values, g_values)
    rep = sweep("kronecker-regularity", tol, points,
                [(partial(entry_label, "G"), G_values, hg_values)])
    max_residual, samples = rep.max_residual, rep.samples
    # a non-finite candidate fails on its residual below, with its own reason
    with np.errstate(invalid="ignore"):
        singular = bool((np.abs(np.linalg.det(g_values)) < DET_MIN).any())

    p_dep = _really_p_dependent(cand, chart, dom, tol)

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
    U = F = round_trip = None
    if m >= 2 and not reason:
        momenta = np.array([[pt[nm] for nm in chart.p_names] for pt in points])
        U, F, round_trip, reason = _potential_and_free_term(
            H, h, cand, dom, G_values - hg_values, momenta, tol)
    return RegularityResult(not reason, max_residual, cand, p_dep, tol, samples, reason,
                            U, F, round_trip)


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
                             E: np.ndarray, momenta: np.ndarray, tol: float) -> tuple:
    """The exact (U, F) of a regular H with m >= 2, given its block g^ij:
    U^{(i)}_{(a)} = dH/dp_i^a and F = H, both at p = 0, where they are H's
    Taylor coefficients as g^ij is.

    Returns (U, F, round trip, ""), the round trip being the sweep of the
    reassembly's ``deviation`` from H at tolerance max(tol, 1e-10), or
    (None, None, None, reason) when H is not of the normal form in its
    momenta or the pieces do not reassemble to H on ``dom``.

    H has the normal form when the remainders
    R^{(i)}_{(a)} = dH/dp_i^a - 2 h_ab g^{ij} p_j^b and
    H - h_ab g^{ij} p_i^a p_j^b - R^{(i)}_{(a)} p_i^a are free of momenta;
    then they are U and F.  The momentum tests differentiate neither.
    ``E`` is E = G - h (x) g at the P points of ``dom``, shape
    (P, n, m, n, m), and ``momenta`` their (P, n m) momentum values in
    ``JetChart.p_names`` order.  Since d^2 H / dp_i^a dp_k^c =
    2 G[i][a][k][c], a g^ij free of momenta gives their derivatives by
    p_k^c identically as

        2 E[i][a][k][c]   and   -2 E[i][a][k][c] p_i^a   (sum over i, a)

    and each test reads these values.  Per momentum, every potential entry
    and then the free term must have a ``scaled_residual`` from 0 within
    ``tol`` at every point; the first that has not names the reason.  The
    caller reaches this only after its candidate passed the momentum test
    on the same box, so a g^ij that names a momentum in syntax has
    momentum derivatives within ``tol`` there.  The terms they would add,
    -2 h_ab (dg^{ij}/dp_k^c) p_j^b to dR/dp_k^c and their p-weighted sum to
    the other remainder's, are left out: they vanish where the derivatives
    vanish in value, and stay of order ``tol`` |p| where they are merely
    small.
    """
    m, n = h.dim, len(cand)
    chart = JetChart(m, n)
    E = E.reshape(len(E), n * m, n * m)  # rows (i, a), columns (k, c)
    # per piece and momentum: is the derivative above tolerance at some point
    d_potential = ~(scaled_residual(2.0 * E, 0.0) <= tol).all(axis=0)
    d_free = ~(scaled_residual(-2.0 * np.einsum("pik,pi->pk", E, momenta), 0.0) <= tol).all(axis=0)
    for k, name in enumerate(chart.p_names):
        # every potential entry and then the free term
        for what, failed in (("potential", d_potential[:, k].any()), ("free", d_free[k])):
            if failed:
                return None, None, None, f"extracted {what} term depends on momentum {name}"

    wipe = {nm: ZERO for nm in chart.p_names}
    u_comps = np.reshape([substitute(e, wipe) for e in jacobian(H, chart.p_names)], (n, m))
    free = substitute(H, wipe)

    P = chart.p_vars()
    rebuilt = add(add(*_quadratic(h.components, cand, P)), add(*_linear(u_comps, P)), free)
    points, residual = deviation([rebuilt], [H], dom)
    round_trip = sweep("reconstruction-round-trip", max(tol, 1e-10), points,
                       [(lambda _: "H", residual, 0.0)])
    if not round_trip.passed:
        return None, None, None, "extracted pieces do not reassemble the hamiltonian"
    return DTensorField(m, n, (upper_x(1), lower_t(0)), u_comps, name="U"), free, round_trip, ""


class HamiltonSpace:
    """A regular hamiltonian over a temporal metric, with derived data.

    Construction runs ``check_kronecker_regularity`` and raises NotRegular,
    carrying the failed result as ``exc.result``, when it fails.  Otherwise
    the result is ``regularity``, and the potential U and the free term F
    are its extracted pieces (None for m = 1).  The lowered metric g is
    built once, for every m, and may depend on the momenta only when
    m = 1: with m >= 2 it inverts the candidate at p = 0.  The block g^ij
    is ``regularity.candidate``, as the test found it, and g_ij is
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
            cand = self.regularity.candidate
            if self.m >= 2:
                # the test found g^ij free of momenta in value, so p = 0
                # drops the terms that name one only in syntax
                wipe = {nm: ZERO for nm in self.chart.p_names}
                cand = [[substitute(e, wipe) for e in row] for row in cand]
            # after the test, so a NotRegular comes before the inverse's
            # dimension limit
            self.g = Metric.spatiotemporal(sym_inverse(cand, "lowering g^ij"), m=self.m)


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
    dH_dp = jacobian(H, space.chart.p_names).reshape(n, m)
    n2 = _spatial_block(space.h.inverse_components, space.g.components, dH_dp, H)
    return NonlinearConnection(m, n, n1, n2)


def _spatial_block(h_upper, g, X, H=None) -> np.ndarray:
    """The (m, n, n) block of ``canonical_nonlinear_connection`` (X[k][b] =
    dH/dp_k^b) or of ``electrodynamic_t_block`` (X = U).  Each derivative
    is taken once per index before the (a, b) loops: dX/dx and dg/dp are
    ``jacobian`` tables, and dg_ij/dx^k is derived only where some X[k][b]
    is not ``ZERO``.  The dg/dp dH/dx term is built only with the
    hamiltonian ``H``, where dg_ij/dp_k^b is not ``ZERO``, and dH/dx^k is
    derived only there: a g without momenta, as every m >= 2 space has,
    never needs it."""
    m, n = len(h_upper), len(g)
    chart = JetChart(m, n)
    dg_dx = {(i, j, k): differentiate(g[i][j], x_name(k)) for k in range(n)
             if any(X[k][b] is not ZERO for b in range(m)) for i, j in np.ndindex(n, n)}
    dX_dx = jacobian(X, chart.x_names)
    dg_dp, dH_dx = np.full((n, n, n, m), ZERO, dtype=object), {}
    if H is not None:
        dg_dp = jacobian(g, chart.p_names).reshape(n, n, n, m)
        dH_dx = {k: differentiate(H, x_name(k)) for k in range(n)
                 if any(e is not ZERO for e in dg_dp[:, :, k].flat)}
    out = np.empty((m, n, n), dtype=object)
    for a, i, j in np.ndindex(m, n, n):
        outer = []
        for b in range(m):
            inner = []
            for k in range(n):
                if X[k][b] is not ZERO:
                    inner.append(mul(dg_dx[i, j, k], X[k][b]))
                if dg_dp[i, j, k, b] is not ZERO:
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
    d_lowered = jacobian(lowered, space.chart.x_names)
    cov = [[[add(d_lowered[k, b, r],
                 mul(Const(-1.0), add(*[mul(lowered[s][b], gamma[s][k][r])
                                        for s in range(n)])))
             for r in range(n)] for b in range(m)] for k in range(n)]

    n2 = [[[add(metric_part[a][i][j],
                add(*[mul(Const(0.25), h_upper[a][b],
                          add(cov[i][b][j], cov[j][b][i])) for b in range(m)]))
            for j in range(n)] for i in range(n)] for a in range(m)]
    return NonlinearConnection(m, n, metric_n1(christoffel(space.h).components, n), n2)


def _check_positive(**consts):
    """Refuse, naming it, a constant that is not a finite positive number."""
    for key, value in consts.items():
        try:
            ok = 0 < float(value) < math.inf
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"constant {key} must be a finite positive number, got {value!r}")


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
