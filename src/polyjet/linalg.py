"""Small exact and numeric linear-algebra helpers.

Symbolic inverses are the adjugate over the determinant.  One memo of
minors, each a division-free Laplace expansion along its first row, serves
the determinant and every cofactor, so an inverse builds each distinct
minor once; that keeps d <= SYM_INVERSE_MAX_DIM (8) cheap.  Numeric
inversion checks the determinant against an invertibility floor before
trusting the result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .symbolic import ONE, add, div, mul, neg

DET_MIN = 1e-8
SYM_INVERSE_MAX_DIM = 8


def sym_inverse(rows, what: str):
    """Exact inverse as adjugate/determinant.  Past SYM_INVERSE_MAX_DIM it
    raises ConfigError, saying ``what`` needed the inverse."""
    d = len(rows)
    if d > SYM_INVERSE_MAX_DIM:
        raise ConfigError(f"{what} needs a symbolic inverse; dimension {d} exceeds "
                          f"the limit {SYM_INVERSE_MAX_DIM}")
    memo = {}
    every = tuple(range(d))

    def cofactor(r, c):
        value = _minor(rows, memo, every[:r] + every[r + 1:], every[:c] + every[c + 1:])
        return value if (r + c) % 2 == 0 else neg(value)

    det = _minor(rows, memo, every, every)
    return tuple(tuple(div(cofactor(j, i), det) for j in range(d)) for i in range(d))


def _minor(rows, memo: dict, rs: tuple, cs: tuple):
    """Determinant of the rows ``rs`` and columns ``cs`` of ``rows``, by
    Laplace expansion along rs[0]; ``memo`` keeps each one by (rs, cs)."""
    value = memo.get((rs, cs))
    if value is None:
        if len(rs) <= 1:
            value = rows[rs[0]][cs[0]] if rs else ONE
        else:
            terms = []
            for j, c in enumerate(cs):
                term = mul(rows[rs[0]][c], _minor(rows, memo, rs[1:], cs[:j] + cs[j + 1:]))
                terms.append(term if j % 2 == 0 else neg(term))
            value = add(*terms)
        memo[rs, cs] = value
    return value


def checked_inverses(points, error_cls, *families) -> tuple:
    """Batched numeric inverses of each ``(label, mats)`` family, ``mats`` a
    (P, d, d) stack over ``points``, guarded by the |det| >= 1e-8 floor: the
    first failing point raises, families in the given order there.  A
    determinant that overflows to infinity proves nothing about rank, so
    it is refused too."""
    with np.errstate(over="ignore"):
        dets = [np.linalg.det(mats) for _, mats in families]
    for k, point in enumerate(points):
        for (label, _), det in zip(families, dets):
            det = float(det[k])
            if not math.isfinite(det):
                raise error_cls(f"{label} determinant overflows to {det} at {point}")
            if abs(det) < DET_MIN:
                raise error_cls(f"{label} is singular (|det| = {abs(det):.3e}) at {point}")
    return tuple(np.linalg.inv(mats) for _, mats in families)
