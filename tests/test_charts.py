import numpy as np
import pytest

from polyjet.charts import (
    JetChart,
    JetPoint,
    TransitionMap,
    compose,
    image_sample_domain,
    pullback_scalar,
)
from polyjet.errors import ConfigError, SingularJacobian
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


def sample_point_22() -> JetPoint:
    return JetPoint(t=[0.4, -0.3], x=[0.5, 0.2], p=[[1.0, -0.5], [0.25, 2.0]])


# ---------------------------------------------------------------------------
# charts and points

def test_chart_names_follow_convention():
    chart = JetChart(2, 3)
    assert chart.t_names == ("t1", "t2")
    assert chart.x_names == ("x1", "x2", "x3")
    assert chart.p_names[:4] == ("p1_1", "p1_2", "p2_1", "p2_2")
    assert chart.total_dim == 2 + 3 + 6


def test_point_assignment_round_trip():
    chart = JetChart(2, 2)
    q = sample_point_22()
    asg = chart.assignment(q)
    assert asg["p2_1"] == 0.25 and asg["t2"] == -0.3
    q2 = chart.point(asg)
    assert np.allclose(q2.p, q.p) and np.allclose(q2.t, q.t) and np.allclose(q2.x, q.x)


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
    q = JetPoint(t=[0.2], x=[0.1], p=[[0.9]])
    assert tm.map_point(q).p[0, 0] == pytest.approx(0.6, abs=1e-14)


def test_time_preserving_transform_uses_spatial_jacobian_only():
    # ttilde = t: ptilde_i = (dx^j/dxtilde^i) p_j
    xv = ["x1", "x2"]
    tm = TransitionMap(1, 2,
                       t_forward=[var("t1")],
                       x_forward=[parse("x1 + x2^3", xv), parse("x2", xv)])
    q = JetPoint(t=[0.0], x=[0.3, 0.5], p=[[1.0], [2.0]])
    # Jx = [[1, 3*x2^2], [0, 1]], inv = [[1, -3*x2^2], [0, 1]]
    got = tm.map_point(q).p
    kx = np.array([[1.0, -3 * 0.5 ** 2], [0.0, 1.0]])
    want = kx.T @ q.p
    assert np.allclose(got, want, atol=1e-14)


def test_momentum_round_trip_through_inverse():
    tm = shear_map_22()
    q = sample_point_22()
    image = tm.map_point(q)
    back = tm.inverted().map_point(image)
    assert np.allclose(back.t, q.t, atol=1e-12)
    assert np.allclose(back.x, q.x, atol=1e-12)
    assert np.allclose(back.p, q.p, atol=1e-12)


def velocity_image(tm: TransitionMap, q: JetPoint, v) -> np.ndarray:
    """xtilde^i_a = Jx[i, j] v[j, b] Kt[b, a], the velocity law at q."""
    frames = tm.map_points([tm.chart.assignment(q)])
    return frames.jx[0] @ v @ frames.kt[0]


def test_velocity_transform_hand_value():
    tm = TransitionMap(1, 1,
                       t_forward=[2 * var("t1")], x_forward=[3 * var("x1")])
    q = JetPoint(t=[0.1], x=[0.2], p=[[0.0]])
    assert velocity_image(tm, q, np.array([[1.0]]))[0, 0] == pytest.approx(1.5, abs=1e-14)


def test_momentum_velocity_pairing_is_invariant():
    tm = shear_map_22()
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = rng.uniform(-0.8, 0.8, 2)
        x = rng.uniform(-0.8, 0.8, 2)
        p = rng.uniform(-2, 2, (2, 2))
        v = rng.uniform(-2, 2, (2, 2))
        q = JetPoint(t, x, p)
        before = float(np.sum(p * v))
        after = float(np.sum(tm.map_point(q).p * velocity_image(tm, q, v)))
        assert after == pytest.approx(before, rel=1e-12)


# ---------------------------------------------------------------------------
# frames

def test_frame_momentum_block_matches_finite_difference():
    # forward-only nonlinear map: xtilde = x + x^3 has no in-grammar inverse
    tm = TransitionMap(1, 1,
                       t_forward=[var("t1")],
                       x_forward=[parse("x1 + x1^3", ["x1"])])
    q = JetPoint(t=[0.2], x=[0.5], p=[[1.0]])
    F = tm.frame_matrix(q)
    # row d/dx1, column d/dptilde: compare against FD of the numeric transform
    def ptilde_of_x(xv):
        return tm.map_point(JetPoint(t=q.t, x=[xv], p=q.p)).p[0, 0]
    fd = central_diff(ptilde_of_x, 0.5)
    assert F[1, 2] == pytest.approx(fd, abs=1e-6)


def test_frame_momentum_time_block_matches_finite_difference():
    tm = shear_map_22()
    q = sample_point_22()
    F = tm.frame_matrix(q)
    chart = tm.chart

    def ptilde_entry(asg_t, i, a):
        return tm.map_point(JetPoint(asg_t, q.x, q.p)).p[i, a]

    for b in range(2):
        for i in range(2):
            for a in range(2):
                def f(tb):
                    t = q.t.copy()
                    t[b] = tb
                    return ptilde_entry(t, i, a)
                col = 2 + 2 + i * 2 + a
                assert F[b, col] == pytest.approx(central_diff(f, q.t[b]), abs=1e-6)


def test_frame_base_blocks_are_jacobian_transposes():
    tm = shear_map_22()
    q = sample_point_22()
    frames = tm.map_points([tm.chart.assignment(q)])
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
        q = JetPoint(rng.uniform(-0.7, 0.7, 2), rng.uniform(-0.7, 0.7, 2),
                     rng.uniform(-1.5, 1.5, (2, 2)))
        F = tm.frame_matrix(q)
        C = tm.coframe_matrix(q)
        assert np.allclose(C @ F.T, np.eye(8), atol=1e-10)


def test_coframe_requires_inverse():
    tm = TransitionMap(1, 1, t_forward=[var("t1")],
                       x_forward=[parse("x1 + x1^3", ["x1"])])
    with pytest.raises(ConfigError):
        tm.coframe_matrix(JetPoint([0.1], [0.2], [[0.3]]))


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
    # and the composed point maps agree
    assert np.allclose(both.map_point(q).p, tm2.map_point(tm1.map_point(q)).p, atol=1e-12)


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


def test_singular_jacobian_is_reported():
    tm = TransitionMap(1, 1, t_forward=[var("t1")],
                       x_forward=[parse("x1^2", ["x1"])])
    with pytest.raises(SingularJacobian):
        tm.map_point(JetPoint([0.1], [0.0], [[1.0]]))


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
        q = chart.point(pt)
        assert frames.p[k].tobytes() == q.p.tobytes()
        image = [evaluate(e, pt) for e in (*tm.t_forward, *tm.x_forward)]
        image += list((kx.T @ q.p @ jt.T).ravel())
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
    assert evaluate(pulled, chart.assignment(img)) == pytest.approx(
        evaluate(e, chart.assignment(q)), rel=1e-12)


def test_image_sample_domain_covers_images():
    tm = shear_map_22()
    chart = tm.chart
    dom = chart.sample_domain(count=10, seed=2)
    img_dom = image_sample_domain(tm, dom)
    bounds = {nm: (lo, hi) for nm, lo, hi in img_dom.intervals}
    for pt in dom.points():
        img = chart.assignment(tm.map_point(chart.point(pt)))
        for nm, v in img.items():
            lo, hi = bounds[nm]
            assert lo - 1e-12 <= v <= hi + 1e-12
