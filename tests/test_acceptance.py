"""The eight headline guarantees, one test per criterion.

Each test prints a single ACCEPTANCE <n> PASS/FAIL line (shown with -s, or
in the captured output of a failing run) and asserts at the advertised
tolerances.  These are deliberately end-to-end: they cross-check exact
symbolic results against finite differences, covariance against freshly
drawn random transitions, and the CLI against its own determinism contract.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path

import numpy as np

from geomgen import (
    random_base_scalar,
    random_potential,
    random_spatiotemporal_metric,
    random_temporal_metric,
    random_transition,
)
from oracles import central_diff_partial
from polyjet.charts import JetChart, pullback_scalar
from polyjet.connections import (
    NonlinearConnection,
    canonical_metric_connection,
    connection_from_semispray,
    semispray_from_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.dtensors import (
    DTensorField,
    builtin_dtensors,
    lower_x,
    pullback_dtensor,
    upper_t,
    verify_dtensor_law,
)
from polyjet.hamilton import (
    HamiltonSpace,
    autonomous_electrodynamic_space,
    canonical_connection_closed_form,
    canonical_connection_middle_form,
    canonical_nonlinear_connection,
    check_kronecker_regularity,
    electrodynamic_t_block,
    general_electrodynamic_space,
    gravitational_space,
)
from polyjet.cli import EXIT_OK, main
from polyjet.metrics import Metric, christoffel, pullback_metric
from polyjet.semisprays import canonical_spatial, canonical_temporal, verify_semispray_law
from polyjet.symbolic import Const, add, equiv, evaluate, is_zero, mul, parse

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def criterion(num: int, label: str):
    """Emit the one-line verdict for an acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {label}")
                raise
            print(f"ACCEPTANCE {num} PASS: {label}")

        return wrapper

    return deco


def identity_metric(kind: str, d: int) -> Metric:
    rows = [[Const(1.0 if i == j else 0.0) for j in range(d)] for i in range(d)]
    return Metric.temporal(rows) if kind == "t" else Metric.spatial(rows)


def curved_h() -> Metric:
    return Metric.temporal([[Const(1.0), Const(0.0)],
                            [Const(0.0), parse("t1^2 + 1", ("t1", "t2"))]])


def curved_phi() -> Metric:
    return Metric.spatial([[parse("exp(2*x1)", ("x1", "x2")), Const(0.0)],
                           [Const(0.0), Const(1.0)]])


@criterion(1, "flat-space objects vanish identically")
def test_acceptance_1_flat_space_zeros():
    for m, n in ((1, 1), (2, 2), (3, 2)):
        h = identity_metric("t", m)
        phi = identity_metric("x", n)
        zero_blocks = [
            christoffel(h).components,
            christoffel(phi).components,
            canonical_temporal(h, n).components,
            canonical_spatial(phi, m).components,
            canonical_metric_connection(h, phi).n1,
            canonical_metric_connection(h, phi).n2,
        ]
        flat = [e for block in zero_blocks
                for e in np.asarray(block, dtype=object).ravel()]
        assert flat, (m, n)
        for e in flat:
            assert is_zero(e, tol=1e-12), (m, n, e)


@criterion(2, "curved Christoffel spot values match finite differences")
def test_acceptance_2_curved_spot_values_vs_fd():
    def fd_symbols(metric, asg):
        d = metric.dim
        names = metric.christoffel_names
        ginv = metric._checked_inverses([asg])[0]
        deriv = np.empty((d, d, d))  # deriv[l][i][j] = d g_ij / d v^l
        for l, nm in enumerate(names):
            for i in range(d):
                for j in range(d):
                    deriv[l][i][j] = central_diff_partial(
                        lambda q, i=i, j=j: evaluate(metric.components[i][j], q),
                        asg, nm)
        out = np.empty((d, d, d))
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    out[k][i][j] = 0.5 * sum(
                        ginv[k, l] * (deriv[j][l][i] + deriv[i][l][j]
                                      - deriv[l][i][j])
                        for l in range(d))
        return out

    def close(fd, exact):
        return np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(1.0, np.abs(exact)))

    h = curved_h()
    asg = {"t1": 1.0, "t2": 0.3}
    kappa = christoffel(h).at(asg)
    assert abs(kappa[1][0][1] - 0.5) < 1e-12
    assert abs(kappa[1][1][0] - 0.5) < 1e-12
    assert abs(kappa[0][1][1] + 1.0) < 1e-12
    assert close(fd_symbols(h, asg), kappa)

    phi = curved_phi()
    asg = {"x1": 0.3, "x2": -0.4}
    gamma = christoffel(phi).at(asg)
    assert abs(gamma[0][0][0] - 1.0) < 1e-12
    assert close(fd_symbols(phi, asg), gamma)


@criterion(3, "covariance laws hold over 10 random nonlinear transitions")
def test_acceptance_3_covariance_over_random_transitions():
    chart = JetChart(2, 2)
    h, phi = curved_h(), curved_phi()
    space_a = gravitational_space(h, phi)
    temporal_fails = 0
    rng = np.random.default_rng(20260817)
    for trial in range(10):
        tm = random_transition(2, 2, rng)
        dom = chart.sample_domain(count=12, seed=500 + trial)
        h_b = pullback_metric(h, tm)
        phi_b = pullback_metric(phi, tm)

        built_a = builtin_dtensors(h, 2)
        built_b = builtin_dtensors(h_b, 2)
        for key in ("C*", "L", "J"):
            rep = verify_dtensor_law(built_a[key], built_b[key], tm,
                                     dom=dom, tol=1e-8)
            assert rep.passed, (trial, key, rep.max_residual)

        g1_a, g1_b = canonical_temporal(h, 2), canonical_temporal(h_b, 2)
        rep = verify_semispray_law(g1_a, g1_b, tm, dom=dom, tol=1e-8)
        assert rep.passed, (trial, "temporal", rep.max_residual)
        rep = verify_semispray_law(canonical_spatial(phi, 2),
                                   canonical_spatial(phi_b, 2),
                                   tm, dom=dom, tol=1e-8)
        assert rep.passed, (trial, "spatial", rep.max_residual)

        # the same temporal blocks treated as if they were a d-tensor: the
        # homogeneous law must break once the temporal Jacobian varies
        slots = (upper_t(1), lower_x(0), lower_x())
        fake = verify_dtensor_law(DTensorField(2, 2, slots, g1_a.components),
                                  DTensorField(2, 2, slots, g1_b.components),
                                  tm, dom=dom, tol=1e-8)
        if not fake.passed and fake.max_residual > 1e-3:
            temporal_fails += 1

        n0_a = canonical_metric_connection(h, phi)
        n0_b = canonical_metric_connection(h_b, phi_b)
        space_b = HamiltonSpace(h_b, 2,
                                pullback_scalar(space_a.hamiltonian, tm))
        cnlc_a = canonical_nonlinear_connection(space_a)
        cnlc_b = canonical_nonlinear_connection(space_b)
        for N_a, N_b in ((n0_a, n0_b), (cnlc_a, cnlc_b)):
            rep = verify_connection_law(N_a, N_b, tm, dom=dom, tol=1e-8)
            assert rep.passed, (trial, "connection", rep.max_residual)
            rep = verify_adapted_coframe(N_a, N_b, tm, dom=dom, tol=1e-8)
            assert rep.passed, (trial, "coframe", rep.max_residual)
    assert temporal_fails >= 1


@criterion(4, "semispray/connection correspondence round trips")
def test_acceptance_4_correspondence():
    h, phi = curved_h(), curved_phi()
    chart = JetChart(2, 2)
    N0 = canonical_metric_connection(h, phi)
    G1, G2 = semispray_from_connection(N0)
    back = connection_from_semispray(G1, G2, phi)
    for a in range(2):
        for i in range(2):
            for j in range(2):
                # spatial: N2 -> G2 -> N2 is exact by construction
                assert equiv(back.n2[a][i][j], N0.n2[a][i][j], tol=1e-12)
                # temporal: the canonical block is p-linear, so it survives
                # the derivative round trip exactly
                assert equiv(back.n1[a][i][j], N0.n1[a][i][j], tol=1e-12)

    # canonical semispray pair feeds the correspondence and lands on the
    # canonical metric connection
    from_canonical = connection_from_semispray(
        canonical_temporal(h, 2), canonical_spatial(phi, 2), phi)
    dom = chart.sample_domain(count=20, seed=11)
    for a in range(2):
        for i in range(2):
            for j in range(2):
                assert equiv(from_canonical.n1[a][i][j], N0.n1[a][i][j],
                             dom, tol=1e-10)
                assert equiv(from_canonical.n2[a][i][j], N0.n2[a][i][j],
                             dom, tol=1e-10)


@criterion(5, "Kronecker regularity accepts the normal forms, rejects the rest")
def test_acceptance_5_regularity():
    h, phi = curved_h(), curved_phi()
    chart = JetChart(2, 2)

    h1 = gravitational_space(h, phi, mass=2.0, light_speed=1.5)
    assert h1.regularity.max_residual <= 1e-10

    potential = [[parse("x2", ("x1", "x2")), Const(0.0)],
                 [parse("x1^2", ("x1", "x2")), parse("x1*x2", ("x1", "x2"))]]
    h2 = autonomous_electrodynamic_space(h, phi, potential, mass=1.5,
                                         light_speed=2.0, charge=0.75)
    assert h2.regularity.max_residual <= 1e-10
    # linear coefficient forced by the normal form: -(2 charge / mass c^2) A
    coeff = -2.0 * 0.75 / (1.5 * 2.0 ** 2)
    dom = chart.sample_domain(count=20, seed=23)
    for i in range(2):
        for a in range(2):
            assert equiv(h2.U.components[i, a],
                         mul(Const(coeff), potential[i][a]), dom, tol=1e-10)

    rng = np.random.default_rng(71)
    g = random_spatiotemporal_metric(2, 2, rng)
    U = random_potential(2, 2, rng)
    F = random_base_scalar(2, 2, rng)
    h3 = general_electrodynamic_space(h, g, U, F)
    assert h3.regularity.max_residual <= 1e-10

    # round trip: extract from the assembled hamiltonian, rebuild, compare
    reg = check_kronecker_regularity(h3.hamiltonian, h, 2, tol=1e-10)
    ex = HamiltonSpace(h, 2, h3.hamiltonian, tol=1e-10, regularity=reg)
    rebuilt = ex.F
    for i in range(2):
        for a in range(2):
            rebuilt = add(rebuilt, mul(ex.U.components[i, a], chart.p_var(i, a)))
            for j in range(2):
                for b in range(2):
                    rebuilt = add(rebuilt, mul(
                        h.components[a][b], reg.candidate[i][j],
                        chart.p_var(i, a), chart.p_var(j, b)))
    assert equiv(rebuilt, h3.hamiltonian, dom, tol=1e-10)

    quartic = check_kronecker_regularity(
        parse("p1_1^4", chart.names), h, 2)
    assert not quartic.regular

    h_one = Metric.temporal([[Const(1.0)]])
    one_time = check_kronecker_regularity(
        parse("p1_1^2 + 1/4*p1_1^4", ("t1", "x1", "p1_1")), h_one, 1)
    assert one_time.regular and one_time.p_dependent


@criterion(6, "canonical connection: three formulas agree, T is a d-tensor")
def test_acceptance_6_cnlc_triple_agreement():
    chart = JetChart(2, 2)
    rng = np.random.default_rng(99)
    for trial in range(5):
        h = random_temporal_metric(2, rng)
        g = random_spatiotemporal_metric(2, 2, rng)
        U = random_potential(2, 2, rng)
        F = random_base_scalar(2, 2, rng)
        space = general_electrodynamic_space(h, g, U, F)
        forms = (canonical_nonlinear_connection(space),
                 canonical_connection_middle_form(space),
                 canonical_connection_closed_form(space))
        dom = chart.sample_domain(count=20, seed=900 + trial)
        for pt in dom.points():
            vals1 = [N.n1_at(pt) for N in forms]
            vals2 = [N.n2_at(pt) for N in forms]
            for u, v in itertools.combinations(range(3), 2):
                assert np.abs(vals1[u] - vals1[v]).max() <= 1e-9, trial
                assert np.abs(vals2[u] - vals2[v]).max() <= 1e-9, trial

        tm = random_transition(2, 2, rng)
        T_a = electrodynamic_t_block(space.g, space.U, space.h)
        T_b = electrodynamic_t_block(pullback_metric(space.g, tm),
                                     pullback_dtensor(space.U, tm),
                                     pullback_metric(h, tm))
        rep = verify_dtensor_law(T_a, T_b, tm,
                                 dom=dom.with_options(count=10), tol=1e-8)
        assert rep.passed, (trial, rep.max_residual)


@criterion(7, "a corrupted connection entry is caught and named")
def test_acceptance_7_fault_injection():
    h, phi = curved_h(), curved_phi()
    chart = JetChart(2, 2)
    tm = _shear()
    N_a = canonical_metric_connection(h, phi)
    N_good = canonical_metric_connection(pullback_metric(h, tm),
                                         pullback_metric(phi, tm))
    dom = chart.sample_domain(count=8, seed=5)
    for a in range(2):
        for i in range(2):
            for j in range(2):
                n2 = [[list(row) for row in sheet] for sheet in N_good.n2]
                n2[a][i][j] = add(n2[a][i][j], Const(0.1))
                N_bad = NonlinearConnection(2, 2, N_good.n1, n2)
                law = verify_connection_law(N_a, N_bad, tm, dom=dom, tol=1e-8)
                cof = verify_adapted_coframe(N_a, N_bad, tm, dom=dom, tol=1e-8)
                assert not law.passed and not cof.passed, (a, i, j)
                assert law.worst_entry == f"N2[{a + 1},{i + 1},{j + 1}]"
                assert abs(law.max_residual - 0.1) < 1e-9
                assert cof.worst_entry == f"coframe[p{i + 1}_{a + 1}, dx{j + 1}]"


def _shear():
    from polyjet.charts import TransitionMap

    t_names, x_names = ("t1", "t2"), ("x1", "x2")
    return TransitionMap(
        2, 2,
        (parse("t1 + 3/10*t2^2", t_names), parse("t2", t_names)),
        (parse("x1", x_names), parse("x2 + 1/2*x1^3", x_names)),
        (parse("t1 - 3/10*t2^2", t_names), parse("t2", t_names)),
        (parse("x1", x_names), parse("x2 - 1/2*x1^3", x_names)))


@criterion(8, "verify reports are byte-identical for a fixed seed")
def test_acceptance_8_report_determinism(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        code = main(["verify", str(MANIFESTS / "curved.json"),
                     "--json", str(out)])
        assert code == EXIT_OK
        outs.append([line for line in out.read_text().splitlines()
                     if '"wall_time_s"' not in line])
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
    assert outs[0] == outs[1]
