"""The frames a transition map remembers for the laws of one battery.

``TransitionMap.sample_frames`` keeps the ``Frames`` of the last sample
domain it mapped, and ``report.chart_law`` reads every law's frames from
it.  A remembered record must never stand in for a domain whose points
could differ, must not be writable by a law, and must not hide an error:
a domain whose mapping fails raises the same error in every law.
"""

from __future__ import annotations

from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyjet import cli
from polyjet.charts import TransitionMap
from polyjet.cli import load_manifest
from polyjet.connections import (
    canonical_metric_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from polyjet.dtensors import builtin_dtensors, verify_dtensor_law
from polyjet.errors import SingularJacobian
from polyjet.metrics import pullback_metric
from polyjet.report import chart_law, entry_label
from polyjet.semisprays import canonical_spatial, canonical_temporal, verify_semispray_law
from polyjet.symbolic import SampleDomain, parse

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


@lru_cache(maxsize=None)
def curved():
    """``curved.json``'s transition and the (A, B, law) triples of the
    ``verify`` battery on its metric pair."""
    manifest = load_manifest(str(MANIFESTS / "curved.json"))
    tm, h, phi, n, m = (manifest.transition, manifest.temporal_metric,
                        manifest.spatial_metric, manifest.n, manifest.m)
    h_b, phi_b = pullback_metric(h, tm), pullback_metric(phi, tm)
    built_a, built_b = builtin_dtensors(h, n), builtin_dtensors(h_b, n)
    laws = [(built_a[key], built_b[key], verify_dtensor_law) for key in ("C*", "L", "J")]
    laws += [(canonical(g, dim), canonical(g_b, dim), verify_semispray_law)
             for canonical, g, g_b, dim in ((canonical_temporal, h, h_b, n),
                                            (canonical_spatial, phi, phi_b, m))]
    N_a, N_b = canonical_metric_connection(h, phi), canonical_metric_connection(h_b, phi_b)
    laws += [(N_a, N_b, verify_connection_law), (N_a, N_b, verify_adapted_coframe)]
    return tm, laws


def battery(tm, laws, dom) -> list:
    return [law(A, B, tm, dom=dom, tol=1e-8).to_dict() for A, B, law in laws]


def unmemoised(self, dom):
    return self.map_points(dom.points())


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _point_bits(points) -> list:
    return [_bits(list(pt.values())) for pt in points]


def _with_bound(dom: SampleDomain, k: int, side: int, value: float) -> SampleDomain:
    intervals = [list(iv) for iv in dom.intervals]
    intervals[k][side] = value
    return SampleDomain(tuple(map(tuple, intervals)), dom.count, dom.seed)


@st.composite
def domain_pairs(draw):
    """(first, second, differ): two sample domains of the curved chart;
    ``differ`` says whether they differ in a bound (a zero bound against
    the zero of the other sign included), the count or the seed.  An equal
    pair is built twice, as two objects."""
    names = curved()[0].chart.names
    count, seed = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    first = SampleDomain.default(names, count=count, seed=seed)
    change = draw(st.sampled_from(["bound", "signed zero", "count", "seed", "none"]))
    if change == "none":
        return first, SampleDomain.default(names, count=count, seed=seed), False
    if change == "count":
        return first, first.with_options(count=count + draw(st.integers(1, 3))), True
    if change == "seed":
        return first, first.with_options(seed=seed + draw(st.integers(1, 3))), True
    k, side = draw(st.integers(0, len(names) - 1)), draw(st.sampled_from([1, 2]))
    if change == "signed zero":
        # [0, 0.5] against [-0, 0.5], or [-0.5, 0] against [-0.5, -0]
        zero = draw(st.sampled_from([0.0, -0.0]))
        first = _with_bound(_with_bound(first, k, 3 - side, 0.5 if side == 1 else -0.5),
                            k, side, zero)
        return first, _with_bound(first, k, side, -zero), True
    shift = draw(st.sampled_from([-0.1, 0.1]))  # every default box is wider than 0.2
    return first, _with_bound(first, k, side, first.intervals[k][side] + shift), True


@settings(max_examples=40, deadline=None)
@given(domain_pairs())
def test_only_equal_domains_share_frames_and_every_report_is_the_unmemoised_one(pair):
    first, second, differ = pair
    tm, laws = curved()
    frames_first = tm.sample_frames(first)
    frames_second = tm.sample_frames(second)
    assert (frames_second is not frames_first) == differ
    assert _point_bits(frames_second.points) == _point_bits(second.points())
    assert tm.sample_frames(second) is frames_second

    got = [battery(tm, laws, dom) for dom in (first, second, first)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransitionMap, "sample_frames", unmemoised)
        want = [battery(tm, laws, dom) for dom in (first, second, first)]
    assert got == want  # every field of every report


def test_remembered_frames_refuse_writes():
    tm, laws = curved()
    dom = tm.chart.sample_domain(count=3, seed=4)
    A, B, _ = laws[0]

    def writes(target):
        def compare(frames, values_a, values_b):
            target(frames)
            return ((values_a, values_b),)
        return compare

    def array_writer(name):
        def write(frames):
            getattr(frames, name)[0] = 0.0
        return write

    def point_writer(side):
        def write(frames):
            getattr(frames, side)[0]["t1"] = 0.0
        return write

    labelers = (partial(entry_label, "C"),)
    for name in ("jt", "jx", "kt", "kx", "p"):
        with pytest.raises(ValueError, match="read-only"):
            chart_law("write", 1e-8, tm, dom, labelers, A, B, writes(array_writer(name)))
    for side in ("points", "images"):
        with pytest.raises(TypeError):
            chart_law("write", 1e-8, tm, dom, labelers, A, B, writes(point_writer(side)))
    # after every refused write the battery still reads the mapped points
    frames = tm.sample_frames(dom)
    assert _point_bits(frames.points) == _point_bits(dom.points())
    assert battery(tm, laws, dom) == battery(tm, laws, dom.with_options(count=3))

    # the public map is not remembered: each call gives writable arrays of its own
    one, two = tm.map_points(dom.points()), tm.map_points(dom.points())
    assert one.jt is not two.jt and one.jt.flags.writeable


def test_a_singular_jacobian_raises_the_same_error_in_every_law():
    _, laws = curved()
    # x1 -> x1^3 is singular at x1 = 0; the declared inverse is never reached
    names = ("x1", "x2")
    tm = TransitionMap(2, 2, (parse("t1", ["t1"]), parse("t2", ["t2"])),
                       (parse("x1^3", names), parse("x2", names)),
                       (parse("t1", ["t1"]), parse("t2", ["t2"])),
                       (parse("x1", names), parse("x2", names)))
    intervals = tuple((nm, *((-1e-6, 1e-6) if nm == "x1" else (lo, hi)))
                      for nm, lo, hi in tm.chart.sample_domain().intervals)
    dom = SampleDomain(intervals, count=3, seed=2)
    calls = []
    real = TransitionMap.map_points

    def counted(self, points):
        calls.append(len(points))
        return real(self, points)

    messages = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransitionMap, "map_points", counted)
        for A, B, law in laws:
            with pytest.raises(SingularJacobian) as err:
                law(A, B, tm, dom=dom, tol=1e-8)
            messages.append(str(err.value))
    assert len(set(messages)) == 1 and "spatial jacobian is singular" in messages[0]
    assert calls == [3] * len(laws)  # a failed mapping is never remembered


def test_verify_maps_each_transition_and_domain_once(monkeypatch, capsys):
    calls = []
    real = TransitionMap.map_points

    def counted(self, points):
        calls.append((id(self), tuple(_point_bits(points))))
        return real(self, points)

    monkeypatch.setattr(TransitionMap, "map_points", counted)
    assert cli.main(["verify", str(MANIFESTS / "curved.json")]) == cli.EXIT_OK
    capsys.readouterr()
    # tm.validate and the seven laws share the manifest's one domain
    assert len(calls) == len(set(calls)) == 1
