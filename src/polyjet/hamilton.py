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

and ``extract_electrodynamic_form`` recovers (g, U, F) exactly.  The
canonical nonlinear connection is then available three ways: the direct
second-derivative formula, a middle form through the deviation block T,
and a closed form through covariant derivatives of the lowered potential.
All three agree; the redundancy is deliberate and checked by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .charts import JetChart, p_name, x_name
from .connections import NonlinearConnection, metric_n1, metric_n2
from .dtensors import DTensorField, lower_t, lower_x, upper_t, upper_x
from .errors import ConfigError, NotRegular, ResidualTooLarge
from .linalg import DET_MIN, sym_inverse
from .metrics import Metric, christoffel_symbols
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
    """Outcome of the Kronecker factorization test."""

    regular: bool
    max_residual: float
    candidate: tuple | None  # g^{ij} expressions, or None if untestable
    p_dependent: bool
    tolerance: float
    samples: int
    reason: str = ""

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


def _syntactic_p_names(exprs, chart: JetChart):
    p_names = set(chart.p_names)
    seen = set()
    for row in exprs:
        for e in row:
            seen |= variables(e) & p_names
    return seen


def _really_p_dependent(exprs, chart: JetChart, tol: float) -> bool:
    """True when some entry's momentum derivative is nonzero in value, not
    merely in syntax."""
    p_names = set(chart.p_names)
    return first_nonzero((differentiate(e, nm) for row in exprs for e in row
                          for nm in sorted(variables(e) & p_names)), tol) is not None


def check_kronecker_regularity(H: Expr, h: Metric, n: int,
                               dom: SampleDomain | None = None,
                               tol: float = 1e-9,
                               vertical: DTensorField | None = None) -> RegularityResult:
    """Test whether G factors as h_ab(t) g^{ij} with invertible g.

    Failure is reported, not raised: a singular candidate block or a
    residual above tolerance gives ``regular=False`` with a reason.  With
    m >= 2 the candidate must additionally be momentum-independent; a
    single time dimension factors trivially and may keep the dependence.
    """
    if h.kind != "temporal":
        raise ConfigError("regularity is defined against a temporal metric")
    m = h.dim
    chart = JetChart(m, n)
    H = expr_array(H, (), chart.names, "hamiltonian").item()
    if vertical is None:
        vertical = fundamental_vertical_dtensor(H, m, n)
    cand = _candidate_block(vertical, h)
    if dom is None:
        dom = chart.sample_domain()

    points = dom.points()
    g_values = compile_block(cand).run(points)
    label = partial(entry_label, "G")
    rep = sweep("kronecker-regularity", tol, points,
                (((label, big, np.einsum("ab,ij->iajb", hv, gv)),)
                 for gv, hv, big in zip(g_values, h.at_points(points),
                                        vertical.at_points(points))))
    max_residual, samples = rep.max_residual, rep.samples
    # a non-finite candidate fails on its residual below, with its own reason
    with np.errstate(invalid="ignore"):
        singular = any(abs(np.linalg.det(gv)) < DET_MIN for gv in g_values)

    p_dep = _really_p_dependent(cand, chart, tol)

    if singular:
        return RegularityResult(False, max_residual, cand, p_dep, tol, samples,
                                reason="candidate spatial block is singular on the "
                                       "sample domain")
    if not math.isfinite(max_residual):
        return RegularityResult(False, max_residual, cand, p_dep, tol, samples,
                                reason=f"factorization residual is not finite "
                                       f"({max_residual})")
    if not max_residual <= tol:
        return RegularityResult(False, max_residual, cand, p_dep, tol, samples,
                                reason=f"factorization residual {max_residual:.3e} "
                                       f"exceeds tolerance {tol:.1e}")
    if m >= 2 and p_dep:
        return RegularityResult(False, max_residual, cand, p_dep, tol, samples,
                                reason="candidate block depends on momenta, which "
                                       "only a single time dimension admits")
    return RegularityResult(True, max_residual, cand, p_dep, tol, samples)


@dataclass
class ExtractionResult:
    """Exact (g, U, F) pieces of a regular hamiltonian with m >= 2."""

    g: Metric  # lowered spatial block g_ij, spatiotemporal kind
    g_upper: tuple
    U: DTensorField  # shape (n, m), slots (upper spatial, lower temporal) doubled
    F: Expr


def _lowered_metric(cand, m: int, n: int):
    """(g, g_upper): the candidate block g^ij inverted into a spatiotemporal
    metric g_ij, momentum-dependent when some entry names a momentum, and
    g^ij itself as nested tuples."""
    g_lower = sym_inverse([list(row) for row in cand], "lowering g^ij")
    p_dep = bool(_syntactic_p_names(g_lower, JetChart(m, n)))
    return (Metric.spatiotemporal(g_lower, m=m, p_dependent=p_dep),
            tuple(tuple(row) for row in cand))


def extract_electrodynamic_form(H: Expr, h: Metric, n: int,
                                dom: SampleDomain | None = None,
                                tol: float = 1e-9,
                                regularity: RegularityResult | None = None) -> ExtractionResult:
    """Recover the exact quadratic/linear/scalar pieces of a regular H.

        U^{(i)}_{(a)} = dH/dp_i^a - 2 h_ab g^{ij} p_j^b
        F = H - h_ab g^{ij} p_i^a p_j^b - U^{(i)}_{(a)} p_i^a

    Both must come out momentum-free and reassemble to H identically;
    anything else raises ResidualTooLarge.  Needs m >= 2 (one time
    dimension does not pin the decomposition down).
    """
    m = h.dim
    if m < 2:
        raise ConfigError("extraction requires at least two time dimensions")
    chart = JetChart(m, n)
    H = as_expr(H)
    if regularity is None:
        regularity = check_kronecker_regularity(H, h, n, dom=dom, tol=tol)
    if not regularity.regular:
        raise NotRegular(f"cannot extract from a non-regular hamiltonian: "
                         f"{regularity.reason}")
    cand = regularity.candidate
    if dom is None:
        dom = chart.sample_domain()

    u_comps = np.empty((n, m), dtype=object)
    for i in range(n):
        for a in range(m):
            quad = [mul(Const(2.0), h.components[a][b], cand[i][j], chart.p_var(j, b))
                    for b in range(m) for j in range(n)]
            u_comps[i, a] = add(differentiate(H, p_name(i, a)),
                                mul(Const(-1.0), add(*quad)))

    quad_terms = [mul(h.components[a][b], cand[i][j],
                      chart.p_var(i, a), chart.p_var(j, b))
                  for a in range(m) for b in range(m)
                  for i in range(n) for j in range(n)]
    linear_terms = [mul(u_comps[i, a], chart.p_var(i, a))
                    for i in range(n) for a in range(m)]
    free = add(H, mul(Const(-1.0), add(*quad_terms)),
               mul(Const(-1.0), add(*linear_terms)))

    # per momentum, every potential entry and then the free term
    pieces = (*u_comps.flat, free)
    bad = first_nonzero((differentiate(e, nm) for nm in chart.p_names for e in pieces), tol)
    if bad is not None:
        k, piece = divmod(bad, len(pieces))
        what = "free" if piece == len(pieces) - 1 else "potential"
        raise ResidualTooLarge(f"extracted {what} term depends on momentum {chart.p_names[k]}")

    # momentum independence is established, so setting p = 0 is harmless and
    # strips the syntactic momentum terms that cancel only in value
    wipe = {nm: ZERO for nm in chart.p_names}
    for i in range(n):
        for a in range(m):
            u_comps[i, a] = substitute(u_comps[i, a], wipe)
    free = substitute(free, wipe)

    linear_terms = [mul(u_comps[i, a], chart.p_var(i, a))
                    for i in range(n) for a in range(m)]
    rebuilt = add(add(*quad_terms), add(*linear_terms), free)
    if not equiv(rebuilt, H, dom=dom, tol=max(tol, 1e-10)):
        raise ResidualTooLarge("extracted pieces do not reassemble the hamiltonian")

    g, g_upper = _lowered_metric(cand, m, n)
    U = DTensorField(m, n, (upper_x(1), lower_t(0)), u_comps, name="U")
    return ExtractionResult(g=g, g_upper=g_upper, U=U, F=free)


class HamiltonSpace:
    """A regular hamiltonian over a temporal metric, with derived data.

    Construction runs the regularity test, unless the result of one run
    on the same hamiltonian, domain and tolerance is passed in, and raises
    NotRegular on failure.  For m >= 2 the electrodynamic pieces (g, U, F)
    are extracted eagerly; for m = 1 only the (possibly momentum-dependent)
    lowered metric g is kept and U, F stay None.
    """

    def __init__(self, h: Metric, n: int, hamiltonian, constants=None,
                 tol: float = 1e-9, dom: SampleDomain | None = None,
                 regularity: RegularityResult | None = None):
        if h.kind != "temporal":
            raise ConfigError("a Hamilton space needs a temporal metric")
        self.h = h
        self.m = h.dim
        self.n = int(n)
        self.chart = JetChart(self.m, self.n)
        self.hamiltonian = expr_array(hamiltonian, (), self.chart.names, "hamiltonian").item()
        self.constants = dict(constants or {})
        self.tolerance = float(tol)
        if regularity is None:
            regularity = check_kronecker_regularity(
                self.hamiltonian, h, self.n, dom=dom, tol=tol, vertical=self.vertical)
        self.regularity = regularity
        if not self.regularity.regular:
            raise NotRegular(self.regularity.reason)
        if self.m >= 2:
            ex = extract_electrodynamic_form(
                self.hamiltonian, h, self.n, dom=dom, tol=tol,
                regularity=self.regularity)
            self.g = ex.g
            self.g_upper = ex.g_upper
            self.U = ex.U
            self.F = ex.F
        else:
            self.g, self.g_upper = _lowered_metric(self.regularity.candidate, 1, self.n)
            self.U = None
            self.F = None

    @cached_property
    def vertical(self) -> DTensorField:
        """The fundamental vertical d-tensor G of the hamiltonian."""
        return fundamental_vertical_dtensor(self.hamiltonian, self.m, self.n)

    @property
    def g_lower(self):
        return self.g.components


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
    kappa = christoffel_symbols(space.h)
    h_upper = space.h.inverse_components
    g = space.g_lower
    H = space.hamiltonian

    n1 = metric_n1(kappa, n)

    dH_dp = [[differentiate(H, p_name(k, b)) for b in range(m)] for k in range(n)]
    dH_dx = [differentiate(H, x_name(k)) for k in range(n)]

    n2 = [[[None] * n for _ in range(n)] for _ in range(m)]
    for a in range(m):
        for i in range(n):
            for j in range(n):
                outer = []
                for b in range(m):
                    inner = []
                    for k in range(n):
                        inner.append(mul(differentiate(g[i][j], x_name(k)),
                                         dH_dp[k][b]))
                        dg_dp = differentiate(g[i][j], p_name(k, b))
                        if dg_dp is not ZERO:
                            inner.append(mul(Const(-1.0), dg_dp, dH_dx[k]))
                        inner.append(mul(g[i][k],
                                         differentiate(dH_dp[k][b], x_name(j))))
                        inner.append(mul(g[j][k],
                                         differentiate(dH_dp[k][b], x_name(i))))
                    outer.append(mul(Const(0.25), h_upper[a][b], add(*inner)))
                n2[a][i][j] = add(*outer)
    return NonlinearConnection(m, n, n1, n2)


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
    h_upper = h.inverse_components
    comps = np.empty((m, n, n), dtype=object)
    for a in range(m):
        for i in range(n):
            for j in range(n):
                outer = []
                for b in range(m):
                    inner = []
                    for k in range(n):
                        u = U.components[k, b]
                        inner.append(mul(differentiate(g.components[i][j],
                                                       x_name(k)), u))
                        inner.append(mul(g.components[i][k],
                                         differentiate(u, x_name(j))))
                        inner.append(mul(g.components[j][k],
                                         differentiate(u, x_name(i))))
                    outer.append(mul(Const(0.25), h_upper[a][b], add(*inner)))
                comps[a, i, j] = add(*outer)
    return DTensorField(m, n, (upper_t(1), lower_x(0), lower_x()), comps, name="T")


def _require_extraction(space: HamiltonSpace, what: str):
    if space.U is None:
        raise ConfigError(f"{what} needs the extracted potential term; "
                          "it exists only for m >= 2")


def canonical_connection_middle_form(space: HamiltonSpace) -> NonlinearConnection:
    """Spatial block as metric part plus the T deviation block."""
    _require_extraction(space, "the middle form")
    m, n = space.m, space.n
    metric_part = metric_n2(christoffel_symbols(space.g), m)
    T = electrodynamic_t_block(space.g, space.U, space.h)
    n2 = [[[add(metric_part[a][i][j], T.components[a, i, j])
            for j in range(n)] for i in range(n)] for a in range(m)]
    return NonlinearConnection(m, n, metric_n1(christoffel_symbols(space.h), n), n2)


def canonical_connection_closed_form(space: HamiltonSpace) -> NonlinearConnection:
    """Spatial block through covariant derivatives of the lowered potential:

        N2[a][i][j] = -Gamma^k_ij p_k^a
                      + (h^{ab}/4) (U_{ib;j} + U_{jb;i})

    with U_{ib} = g_ik U^{(k)}_{(b)} and ; the g-covariant x-derivative.
    """
    _require_extraction(space, "the closed form")
    m, n = space.m, space.n
    gamma = christoffel_symbols(space.g)
    metric_part = metric_n2(gamma, m)
    g = space.g_lower
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
    return NonlinearConnection(m, n, metric_n1(christoffel_symbols(space.h), n), n2)


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
    m, n = h.dim, phi.dim
    chart = JetChart(m, n)
    phi_upper = phi.inverse_components
    coeff = Const(1.0 / (float(mass) * float(light_speed)))
    H = add(*[mul(coeff, h.components[a][b], phi_upper[i][j],
                  chart.p_var(i, a), chart.p_var(j, b))
              for a in range(m) for b in range(m)
              for i in range(n) for j in range(n)])
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
    phi_upper = phi.inverse_components
    h_upper = h.inverse_components
    quad_coeff = Const(1.0 / (mass * light_speed))
    lin_coeff = Const(-2.0 * charge / (mass * light_speed ** 2))
    free_coeff = Const(charge ** 2 / (mass * light_speed ** 3))
    quad = [mul(quad_coeff, h.components[a][b], phi_upper[i][j],
                chart.p_var(i, a), chart.p_var(j, b))
            for a in range(m) for b in range(m) for i in range(n) for j in range(n)]
    linear = [mul(lin_coeff, A[i][a], chart.p_var(i, a))
              for i in range(n) for a in range(m)]
    free = mul(free_coeff, add(*[mul(h_upper[a][b], phi.components[i][j],
                                     A[i][a], A[j][b])
                                 for a in range(m) for b in range(m)
                                 for i in range(n) for j in range(n)]))
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
    g_upper = g.inverse_components
    quad = [mul(h.components[a][b], g_upper[i][j],
                chart.p_var(i, a), chart.p_var(j, b))
            for a in range(m) for b in range(m) for i in range(n) for j in range(n)]
    linear = [mul(U[i][a], chart.p_var(i, a)) for i in range(n) for a in range(m)]
    H = add(add(*quad), add(*linear), F)
    return HamiltonSpace(h, n, H)
