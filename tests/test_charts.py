import numpy as np
import pytest

from polyjet.charts import (
    JetChart,
    TransitionMap,
    compose,
    p_name,
    pullback_scalar,
    t_name,
)
from polyjet.errors import ConfigError, DomainError, SingularJacobian
from polyjet.symbolic import compile_block, evaluate, parse, var

from oracles import central_diff


def shear_map_22() -> TransitionMap:
    """Nonlinear polynomial transition with exact polynomial inverse."""
    tv = ["t1", "t2"]
    xv = ["x1", "x2"]
    return TransitionMap(
        2, 2,
        t_forward=[parse("t1 + 3/10*t2^2", tv), parse("t2", tv)],
        x_forward=[parse("x1", xv), parse("x2 + 1/2*x1^3", xv)],
        t_inverse=[parse("t1 - 3/10*t2^2", tv), parse("t2", tv)],
        x_inverse=[parse("x1", xv), parse("x2 - 1/2*x1^3", xv)],
    )


def sample_point_22() -> dict:
    return {"t1": 0.4, "t2": -0.3, "x1": 0.5, "x2": 0.2,
            "p1_1": 1.0, "p1_2": -0.5, "p2_1": 0.25, "p2_2": 2.0}


def point_from(chart: JetChart, t, x, p) -> dict:
    """The assignment of arrays t (m,), x (n,) and p (n, m) with p[i][a]."""
    return dict(zip(chart.names, map(float, [*t, *x, *np.ravel(p)])))


def momenta(chart: JetChart, point) -> np.ndarray:
    """p[i][a], (n, m), read from an assignment by name."""
    return np.reshape([point[nm] for nm in chart.p_names], (chart.n, chart.m))


# ---------------------------------------------------------------------------
# charts and points

def test_chart_names_follow_convention():
    chart = JetChart(2, 3)
    assert chart.t_names == ("t1", "t2")
    assert chart.x_names == ("x1", "x2", "x3")
    assert chart.p_names[:4] == ("p1_1", "p1_2", "p2_1", "p2_2")
    assert chart.total_dim == 2 + 3 + 6
    for m, n in ((0, 2), (2, 0)):
        with pytest.raises(ValueError) as err:
            JetChart(m, n)
        assert str(err.value) == "chart dimensions must be positive"


def test_point_assignment_round_trip():
    """Both converters copy an assignment into chart-name order, as floats."""
    chart = JetChart(2, 2)
    q = {**dict(reversed(sample_point_22().items())), "x1": 1}
    for copy in (chart.assignment(q), chart.point(q), chart.point(chart.assignment(q))):
        assert copy == q and copy is not q
        assert list(copy) == list(chart.names)
        assert type(copy["x1"]) is float


def test_transition_rejects_foreign_variables():
    with pytest.raises(ConfigError):
        TransitionMap(1, 1, t_forward=[parse("x1", ["x1"])], x_forward=[var("x1")])


# ---------------------------------------------------------------------------
# momentum and velocity transforms

def test_linear_momentum_transform_hand_value():
    # ttilde = 2t, xtilde = 3x: ptilde = (dx/dxtilde)(dttilde/dt) p = (2/3) p
    tm = TransitionMap(1, 1,
                       t_forward=[2 * var("t1")], x_forward=[3 * var("x1")],
                       t_inverse=[var("t1") / 2], x_inverse=[var("x1") / 3])
    q = {"t1": 0.2, "x1": 0.1, "p1_1": 0.9}
    assert tm.map_point(q)["p1_1"] == pytest.approx(0.6, abs=1e-14)


def test_time_preserving_transform_uses_spatial_jacobian_only():
    # ttilde = t: ptilde_i = (dx^j/dxtilde^i) p_j
    xv = ["x1", "x2"]
    tm = TransitionMap(1, 2,
                       t_forward=[var("t1")],
                       x_forward=[parse("x1 + x2^3", xv), parse("x2", xv)])
    q = {"t1": 0.0, "x1": 0.3, "x2": 0.5, "p1_1": 1.0, "p2_1": 2.0}
    # Jx = [[1, 3*x2^2], [0, 1]], inv = [[1, -3*x2^2], [0, 1]]
    got = momenta(tm.chart, tm.map_point(q))
    kx = np.array([[1.0, -3 * 0.5 ** 2], [0.0, 1.0]])
    want = kx.T @ momenta(tm.chart, q)
    assert np.allclose(got, want, atol=1e-14)


def test_momentum_round_trip_through_inverse():
    tm = shear_map_22()
    q = sample_point_22()
    image = tm.map_point(q)
    assert list(image) == list(tm.chart.names)
    back = tm.inverted().map_point(image)
    assert list(back) == list(tm.chart.names)
    assert np.allclose(list(back.values()), list(q.values()), atol=1e-12)
    assert not np.allclose(momenta(tm.chart, image), momenta(tm.chart, q), atol=1e-3)


def velocity_image(tm: TransitionMap, q: dict, v) -> np.ndarray:
    """xtilde^i_a = Jx[i, j] v[j, b] Kt[b, a], the velocity law at q."""
    frames = tm.map_points([q])
    return frames.jx[0] @ v @ frames.kt[0]


def test_velocity_transform_hand_value():
    tm = TransitionMap(1, 1,
                       t_forward=[2 * var("t1")], x_forward=[3 * var("x1")])
    q = {"t1": 0.1, "x1": 0.2, "p1_1": 0.0}
    assert velocity_image(tm, q, np.array([[1.0]]))[0, 0] == pytest.approx(1.5, abs=1e-14)


def test_momentum_velocity_pairing_is_invariant():
    tm = shear_map_22()
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = rng.uniform(-0.8, 0.8, 2)
        x = rng.uniform(-0.8, 0.8, 2)
        p = rng.uniform(-2, 2, (2, 2))
        v = rng.uniform(-2, 2, (2, 2))
        q = point_from(tm.chart, t, x, p)
        before = float(np.sum(p * v))
        after = float(np.sum(momenta(tm.chart, tm.map_point(q)) * velocity_image(tm, q, v)))
        assert after == pytest.approx(before, rel=1e-12)


# ---------------------------------------------------------------------------
# frames

def test_frame_momentum_block_matches_finite_difference():
    # forward-only nonlinear map: xtilde = x + x^3 has no in-grammar inverse
    tm = TransitionMap(1, 1,
                       t_forward=[var("t1")],
                       x_forward=[parse("x1 + x1^3", ["x1"])])
    q = {"t1": 0.2, "x1": 0.5, "p1_1": 1.0}
    F = tm.frame_matrix(q)
    # row d/dx1, column d/dptilde: compare against FD of the numeric transform
    def ptilde_of_x(xv):
        return tm.map_point({**q, "x1": xv})["p1_1"]
    fd = central_diff(ptilde_of_x, 0.5)
    assert F[1, 2] == pytest.approx(fd, abs=1e-6)


def test_frame_momentum_time_block_matches_finite_difference():
    tm = shear_map_22()
    q = sample_point_22()
    F = tm.frame_matrix(q)

    for b in range(2):
        for i in range(2):
            for a in range(2):
                def f(tb):
                    return tm.map_point({**q, t_name(b): tb})[p_name(i, a)]
                col = 2 + 2 + i * 2 + a
                assert F[b, col] == pytest.approx(central_diff(f, q[t_name(b)]), abs=1e-6)


def test_frame_base_blocks_are_jacobian_transposes():
    tm = shear_map_22()
    q = sample_point_22()
    frames = tm.map_points([q])
    F = tm.frame_matrix(q)
    assert np.allclose(F[:2, :2], frames.jt[0].T)
    assert np.allclose(F[2:4, 2:4], frames.jx[0].T)
    # d/dt and d/dx rows have no dxtilde / dttilde cross blocks
    assert np.allclose(F[:2, 2:4], 0)
    assert np.allclose(F[2:4, :2], 0)


def test_coframe_is_inverse_transpose_of_frame():
    tm = shear_map_22()
    rng = np.random.default_rng(11)
    for _ in range(4):
        q = point_from(tm.chart, rng.uniform(-0.7, 0.7, 2), rng.uniform(-0.7, 0.7, 2),
                       rng.uniform(-1.5, 1.5, (2, 2)))
        F = tm.frame_matrix(q)
        C = tm.coframe_matrices(tm.map_points([q]))[0]
        assert np.allclose(C @ F.T, np.eye(8), atol=1e-10)


def test_coframe_requires_inverse():
    tm = TransitionMap(1, 1, t_forward=[var("t1")],
                       x_forward=[parse("x1 + x1^3", ["x1"])])
    frames = tm.map_points([{"t1": 0.1, "x1": 0.2, "p1_1": 0.3}])
    with pytest.raises(ConfigError, match="no inverse expressions"):
        tm.coframe_matrices(frames)


def test_frame_composition_is_functorial():
    tm1 = shear_map_22()
    tv, xv = ["t1", "t2"], ["x1", "x2"]
    tm2 = TransitionMap(
        2, 2,
        t_forward=[parse("t2", tv), parse("t1 + t2", tv)],
        x_forward=[parse("x1 + 1/4*x2^2", xv), parse("x2", xv)],
        t_inverse=[parse("t2 - t1", tv), parse("t1", tv)],
        x_inverse=[parse("x1 - 1/4*x2^2", xv), parse("x2", xv)],
    )
    both = compose(tm2, tm1)
    q = sample_point_22()
    direct = both.frame_matrix(q)
    chained = tm1.frame_matrix(q) @ tm2.frame_matrix(tm1.map_point(q))
    assert np.allclose(direct, chained, atol=1e-10)
    # and the composed point maps agree, in every coordinate
    assert np.allclose(list(both.map_point(q).values()),
                       list(tm2.map_point(tm1.map_point(q)).values()), atol=1e-12)


# ---------------------------------------------------------------------------
# validation, pullback, domains

def test_validate_accepts_consistent_map():
    shear_map_22().validate()


def test_validate_rejects_wrong_inverse():
    tv = ["t1"]
    tm = TransitionMap(1, 1,
                       t_forward=[parse("2*t1", tv)], x_forward=[var("x1")],
                       t_inverse=[parse("t1", tv)], x_inverse=[var("x1")])
    with pytest.raises(ConfigError):
        tm.validate()


@pytest.mark.parametrize("t_pair, x_pair, message", [
    (("t1^2", "t1"), None, "temporal inverse is not a left inverse in t1"),
    (("sqrt(t1 + 1)", "t1^2 - 1"), None, "temporal inverse is not a right inverse in t1"),
    (None, ("x1", "x1^3"), "spatial inverse is not a left inverse in x1"),
    (None, ("sqrt(x1 + 1)", "x1^2 - 1"), "spatial inverse is not a right inverse in x1"),
    # a temporal fault is named before a spatial one
    (("sqrt(t1 + 1)", "t1^2 - 1"), ("x1", "x1^3"),
     "temporal inverse is not a right inverse in t1"),
])
def test_validate_names_the_first_failed_round_trip(t_pair, x_pair, message):
    """Forward (left) before inverse (right), t before x: (forward, inverse)
    pairs, the identity where None."""
    t_fwd, t_inv = (parse(e, ["t1"]) for e in t_pair or ("t1", "t1"))
    x_fwd, x_inv = (parse(e, ["x1"]) for e in x_pair or ("x1", "x1"))
    tm = TransitionMap(1, 1, t_forward=[t_fwd], x_forward=[x_fwd],
                       t_inverse=[t_inv], x_inverse=[x_inv])
    with pytest.raises(ConfigError) as excinfo:
        tm.validate()
    assert str(excinfo.value) == message


def test_validate_reports_the_scaled_round_trip_residual_and_names_its_worst_entry():
    # t1 rounds (0.1*3 against 1/0.3), but x2's inverse is off by 1e-12*x1
    tv, xv = ["t1"], ["x1", "x2"]
    tm = TransitionMap(1, 2, t_forward=[parse("0.1*3*t1", tv)],
                       x_forward=[var("x1"), parse("x2 + 0.3*x1^2", xv)],
                       t_inverse=[parse("t1/0.3", tv)],
                       x_inverse=[var("x1"), parse("x2 - 0.3*x1^2 + 1e-12*x1", xv)])
    dom = tm.chart.sample_domain(count=9, seed=4)
    rep = tm.validate(dom)
    assert rep.name == "transition:round-trip" and rep.passed and rep.samples == 9
    assert 1e-14 < rep.max_residual <= 1e-12 and rep.tolerance == 1e-9
    assert rep.worst_entry == "spatial left inverse in x2" and rep.worst_point in dom.points()
    # a map without inverses has no round trip to measure
    rep = TransitionMap(1, 2, t_forward=[var("t1")], x_forward=[var("x1"), var("x2")]).validate(dom)
    assert rep.passed and rep.samples == 9 and rep.max_residual == 0.0 and rep.worst_entry is None


def test_singular_jacobian_is_reported():
    tm = TransitionMap(1, 1, t_forward=[var("t1")],
                       x_forward=[parse("x1^2", ["x1"])])
    with pytest.raises(SingularJacobian):
        tm.map_point({"t1": 0.1, "x1": 0.0, "p1_1": 1.0})


def test_jacobian_whose_determinant_overflows_is_singular():
    xv = ["x1", "x2"]
    image = parse("1e308*x1 + 1e308*x2", xv)
    tm = TransitionMap(1, 2, t_forward=[var("t1")], x_forward=[image, image])
    with pytest.raises(SingularJacobian, match="spatial jacobian determinant overflows"):
        tm.map_points([{"t1": 0.1, "x1": 0.1, "x2": 0.2, "p1_1": 0.0, "p2_1": 0.0}])


def test_the_first_singular_point_names_the_temporal_jacobian_first():
    """Point order first, then temporal before spatial at that point."""
    tm = TransitionMap(1, 1, t_forward=[parse("t1^2", ["t1"])],
                       x_forward=[parse("x1^2", ["x1"])])
    points = [{"t1": 0.5, "x1": 0.5, "p1_1": 1.0},
              {"t1": 0.5, "x1": 0.0, "p1_1": 1.0},
              {"t1": 0.0, "x1": 0.0, "p1_1": 1.0}]
    with pytest.raises(SingularJacobian) as excinfo:
        tm.map_points(points[::2])
    assert str(excinfo.value) == f"temporal jacobian is singular (|det| = 0.000e+00) at {points[2]}"
    with pytest.raises(SingularJacobian) as excinfo:
        tm.map_points(points)
    assert str(excinfo.value) == f"spatial jacobian is singular (|det| = 0.000e+00) at {points[1]}"


def test_the_first_failing_point_names_its_temporal_map_first():
    """One program maps the base: point order first, then ttilde before
    xtilde at that point, as for singular Jacobians."""
    tm = TransitionMap(1, 1, t_forward=[parse("ln(t1)", ["t1"])],
                       x_forward=[parse("sqrt(x1)", ["x1"])])
    both = {"t1": -1.0, "x1": -1.0, "p1_1": 0.0}
    with pytest.raises(DomainError, match="ln of non-positive value"):
        tm.map_points([both])
    with pytest.raises(DomainError, match="sqrt of negative value"):
        tm.map_points([{**both, "t1": 1.0}, both])


def test_frames_are_the_bits_of_per_point_inverses_and_images():
    tm = shear_map_22()
    chart = tm.chart
    points = chart.sample_domain(count=10, seed=5).points()
    frames = tm.map_points(points)
    assert frames.points == points
    t_jac, x_jac = compile_block(tm.t_jacobian), compile_block(tm.x_jacobian)
    for k, pt in enumerate(points):
        jt, jx = t_jac.run([pt])[0], x_jac.run([pt])[0]
        kt, kx = np.linalg.inv(jt), np.linalg.inv(jx)
        for got, want in ((frames.jt[k], jt), (frames.jx[k], jx),
                          (frames.kt[k], kt), (frames.kx[k], kx)):
            assert got.tobytes() == want.tobytes()
        p = momenta(chart, pt)
        assert frames.p[k].tobytes() == p.tobytes()
        image = [evaluate(e, pt) for e in (*tm.t_forward, *tm.x_forward)]
        image += list((kx.T @ p @ jt.T).ravel())
        assert list(frames.images[k].values()) == image
        assert list(frames.images[k]) == list(chart.names)


def test_pullback_scalar_matches_source_values():
    tm = shear_map_22()
    chart = tm.chart
    vs = list(chart.names)
    e = parse("p1_1^2 + p2_2*x1 - t2*p1_2", vs)
    pulled = pullback_scalar(e, tm)
    q = sample_point_22()
    img = tm.map_point(q)
    assert evaluate(pulled, img) == pytest.approx(evaluate(e, q), rel=1e-12)
