"""Verification report type shared by all law checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "worst_point": self.worst_point,
            "samples": self.samples,
            "worst_entry": self.worst_entry,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


class ResidualTracker:
    """Accumulates the worst residual over a sweep and builds the report."""

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.max_residual = 0.0
        self.worst_point = None
        self.worst_entry = None
        self.samples = 0

    def update(self, residual: float, point: dict, entry: str | None = None):
        """Keep the largest residual.  A non-finite one fails the check and,
        the first time it appears, becomes the worst for good."""
        r = abs(float(residual))
        if math.isfinite(self.max_residual) and not r <= self.max_residual:
            self.max_residual = r
            self.worst_point = dict(point)
            self.worst_entry = entry

    def count_sample(self):
        self.samples += 1

    def report(self, notes: dict | None = None) -> VerificationReport:
        return VerificationReport(
            name=self.name,
            passed=self.max_residual <= self.tolerance,
            tolerance=self.tolerance,
            max_residual=self.max_residual,
            worst_point=self.worst_point,
            samples=self.samples,
            worst_entry=self.worst_entry,
            notes=notes or {},
        )


def entry_label(name: str, idx) -> str:
    """1-based component label, like N2[1,2,1]."""
    return f"{name}[{','.join(str(i + 1) for i in idx)}]"


def sweep(name: str, tolerance: float, points, blocks) -> VerificationReport:
    """The one law-sweep loop: for each source point, ``blocks`` yields the
    ``(labeler, lhs, rhs)`` arrays to compare there.  The largest entry of
    ``|lhs - rhs|`` in each block is tracked; ``labeler`` names it from its
    0-based index tuple."""
    tracker = ResidualTracker(name, tolerance)
    for point, triples in zip(points, blocks):
        for labeler, lhs, rhs in triples:
            diff = np.abs(lhs - rhs)
            idx = np.unravel_index(np.argmax(diff), diff.shape)
            tracker.update(float(diff.max()), point, labeler(idx))
        tracker.count_sample()
    return tracker.report()
