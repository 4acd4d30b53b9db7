"""Verification reports, the one law sweep (``sweep``) and the one
runner of the chart-change laws of d-tensors, semisprays, connections and
the adapted coframe (``chart_law``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class VerificationReport:
    """Outcome of a sampled law check.

    max_residual is the largest absolute deviation seen over the sample
    sweep; worst_point is the assignment where it occurred and worst_entry
    names the offending component (1-based indices, matching coordinate
    naming like p2_1).
    """

    name: str
    passed: bool
    tolerance: float
    max_residual: float
    worst_point: dict | None
    samples: int
    worst_entry: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "worst_point": self.worst_point,
            "samples": self.samples,
            "worst_entry": self.worst_entry,
        }


def entry_label(name: str, idx) -> str:
    """1-based component label, like N2[1,2,1]."""
    return f"{name}[{','.join(str(i + 1) for i in idx)}]"


def sweep(name: str, tolerance: float, points, blocks) -> VerificationReport:
    """The one law sweep.  ``blocks`` lists ``(labeler, lhs, rhs)``
    triples, each side a (P, ...) stack over the P ``points``.  The residual
    of a point in a block is the largest entry of ``|lhs - rhs|`` there.
    The worst residual is the first non-finite one in (point, block) order,
    which fails the check, and failing that the first largest one;
    ``labeler`` names its entry from the 0-based index tuple.  When every
    residual is 0 no point or entry is named."""
    points = list(points)
    worst, worst_point, worst_entry = 0.0, None, None
    diffs = [(labeler, np.abs(lhs - rhs)) for labeler, lhs, rhs in blocks]
    if diffs and points:
        residuals = np.stack([diff.max(axis=tuple(range(1, diff.ndim)))
                              for _, diff in diffs], axis=1).ravel()
        bad = np.flatnonzero(~np.isfinite(residuals))
        first = int(bad[0]) if bad.size else int(np.argmax(residuals))
        if not residuals[first] <= 0.0:
            point, block = divmod(first, len(diffs))
            labeler, diff = diffs[block]
            worst, worst_point = float(residuals[first]), dict(points[point])
            worst_entry = labeler(np.unravel_index(np.argmax(diff[point]), diff.shape[1:]))
    return VerificationReport(name, worst <= tolerance, tolerance, worst, worst_point,
                              len(points), worst_entry)


def chart_law(name: str, tol: float, tm, dom, labelers, A, B, compare) -> VerificationReport:
    """Check a chart-change law from ``A`` in the source chart of ``tm`` to
    ``B`` in its target chart.  The samples of ``dom`` (the chart's default
    box when None) are mapped into ``frames`` by ``tm.sample_frames``, ``A``
    is evaluated at them and ``B`` at their images;
    ``compare(frames, values_a, values_b)`` returns one batched
    ``(lhs, rhs)`` pair of (P, ...) stacks for each of ``labelers``.

    The map remembers the frames of its last domain, so the laws of one
    battery, which all sample one domain, draw and map its points once;
    the record is read-only, so no ``compare`` can change what the next
    law reads.  A mapping that raises is not remembered and raises again
    in every law."""
    dims = [(X.m, X.n) for X in (A, B, tm)]
    if len(set(dims)) > 1:
        raise ConfigError(f"{name}: dimensions (m, n) disagree: {dims[0]} in chart A, "
                          f"{dims[1]} in chart B, {dims[2]} for the transition")
    if dom is None:
        dom = tm.chart.sample_domain()
    frames = tm.sample_frames(dom)
    values_a = A.at_points(frames.points)
    values_b = B.at_points(frames.images)
    return sweep(name, tol, frames.points,
                 [(label, lhs, rhs) for label, (lhs, rhs)
                  in zip(labelers, compare(frames, values_a, values_b))])
