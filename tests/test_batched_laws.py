"""The law layer on whole batches of sample points against its per-point
reference in ``tests/oracles.py``.

``report.sweep`` must give the report of ``oracles.sweep_loop`` field for
field.  Every law's batched chart-change image must give the per-point
bodies bit for bit, on the frames of ``curved.json`` and of a seeded
(2, 3) pair from ``tests/geomgen.py``: a report is byte-identical to the
per-point one only when its residuals are.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from geomgen import random_spatial_metric, random_temporal_metric, random_transition
from polyjet.cli import load_manifest
from polyjet.connections import (
    _coframe_images,
    _coframe_rows,
    _connection_images,
    canonical_metric_connection,
)
from polyjet.dtensors import _dtensor_images, builtin_dtensors
from polyjet.metrics import pullback_metric
from polyjet.report import entry_label, sweep
from polyjet.semisprays import _semispray_images, canonical_spatial, canonical_temporal

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


# ---------------------------------------------------------------------------
# report.sweep against the per-point loop

# few distinct values, so ties and all-zero residuals are common
_FINITE = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
_ANY = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf])


@st.composite
def sweeps(draw):
    """(points, blocks): up to three blocks of different shapes over up to
    four points, each an (lhs, rhs) pair, rhs a copy of lhs half the time.
    A third of the blocks may hold NaN and infinities."""
    size = draw(st.integers(0, 4))
    blocks = []
    for k in range(draw(st.integers(0, 3))):
        shape = (size, *draw(st.lists(st.integers(1, 3), max_size=3)))
        values = draw(st.sampled_from([_FINITE, _FINITE, _ANY]))
        lhs = draw(arrays(float, shape, elements=values))
        rhs = lhs.copy() if draw(st.booleans()) else draw(arrays(float, shape, elements=values))
        blocks.append((partial(entry_label, f"B{k}"), lhs, rhs))
    return [{"x1": float(k)} for k in range(size)], blocks


def fields(rep) -> dict:
    """Every field of a report, the residual by its exact text (so a NaN
    equals a NaN)."""
    return {**rep.to_dict(), "max_residual": repr(rep.max_residual)}


@settings(max_examples=200, deadline=None)
@given(sweeps(), st.sampled_from([1e-8, 1.0]))
def test_sweep_matches_the_per_point_loop(case, tol):
    points, blocks = case
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN residual
        got, expected = (fields(f("law", tol, points, blocks))
                         for f in (sweep, oracles.sweep_loop))
    assert got == expected


def test_sweep_names_the_first_largest_and_nothing_when_all_zero():
    points = [{"x1": 0.1}, {"x1": 0.2}]
    label = partial(entry_label, "T")
    tie = np.array([[0.0, 2.0], [2.0, 2.0]])
    rep = sweep("law", 1.0, points, [(label, np.zeros((2, 2)), np.zeros((2, 2))),
                                     (label, tie, np.zeros((2, 2)))])
    assert (rep.max_residual, rep.worst_point, rep.worst_entry) == (2.0, {"x1": 0.1}, "T[2]")
    zero = sweep("law", 1.0, points, [(label, tie, tie)])
    assert (zero.passed, zero.max_residual, zero.worst_point, zero.worst_entry,
            zero.samples) == (True, 0.0, None, None, 2)


# ---------------------------------------------------------------------------
# batched images against the per-point bodies, bit for bit

def curved_case():
    manifest = load_manifest(str(MANIFESTS / "curved.json"))
    return (manifest.transition, manifest.temporal_metric, manifest.spatial_metric,
            manifest.domain(manifest.sample_seed))


def geomgen_case():
    rng = np.random.default_rng(3)
    tm = random_transition(2, 3, rng)
    return tm, random_temporal_metric(2, rng), random_spatial_metric(3, rng), \
        tm.chart.sample_domain(seed=5)


CASES = pytest.mark.parametrize("case", [curved_case, geomgen_case],
                                ids=["curved", "geomgen-2x3"])


def same_bits(got, per_point) -> bool:
    expected = np.array(per_point)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@CASES
def test_dtensor_images_match_the_per_point_tensordot(case):
    tm, h, _, dom = case()
    frames = tm.map_points(dom.points())
    for T in builtin_dtensors(h, tm.n).values():
        values = T.at_points(frames.points)
        expected = [oracles.dtensor_image(T.slots, *frame, v) for *frame, v
                    in zip(frames.jt, frames.jx, frames.kt, frames.kx, values)]
        assert same_bits(_dtensor_images(T.slots, frames, values), expected), T.name


@CASES
def test_semispray_images_match_the_per_point_einsums(case):
    tm, h, phi, dom = case()
    frames = tm.map_points(dom.points())
    dpdt, dpdx = tm.momentum_derivatives(frames.points)
    for S in (canonical_temporal(h, tm.n), canonical_spatial(phi, tm.m)):
        values = S.at_points(frames.points)
        expected = [oracles.semispray_image(S.kind, *args) for args
                    in zip(values, frames.jt, frames.kx, dpdt, dpdx, frames.p)]
        assert same_bits(_semispray_images(S.kind, tm, frames, values), expected), S.kind


@CASES
def test_connection_images_match_the_per_point_einsums(case):
    tm, h, phi, dom = case()
    frames = tm.map_points(dom.points())
    dpdt, dpdx = tm.momentum_derivatives(frames.points)
    values = canonical_metric_connection(h, phi).at_points(frames.points)
    expected = [oracles.connection_image(*args) for args
                in zip(*values, frames.jt, frames.kt, frames.kx, dpdt, dpdx)]
    for got, block in zip(_connection_images(tm, frames, values), zip(*expected)):
        assert same_bits(got, block)


@CASES
def test_coframe_rows_and_images_match_the_per_point_bodies(case):
    tm, h, phi, dom = case()
    frames = tm.map_points(dom.points())
    values_a = canonical_metric_connection(h, phi).at_points(frames.points)
    values_b = canonical_metric_connection(pullback_metric(h, tm),
                                           pullback_metric(phi, tm)).at_points(frames.images)
    assert same_bits(_coframe_rows(*values_b),
                     [oracles.coframe_rows(*pair) for pair in zip(*values_b)])
    expected = [oracles.coframe_image(*args) for args
                in zip(*values_a, tm.coframe_matrices(frames), frames.jt, frames.kx)]
    assert same_bits(_coframe_images(tm, frames, values_a), expected)
