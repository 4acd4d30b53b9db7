"""Small exact and numeric linear-algebra helpers.

Symbolic inverses use the adjugate over the Laplace determinant, which is
exact in the expression language but only sensible for the small matrix
sizes this package works with (d <= 4).  Numeric inversion checks the
determinant against an invertibility floor before trusting the result.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .symbolic import ONE, Expr, add, div, mul, neg

DET_MIN = 1e-8
SYM_INVERSE_MAX_DIM = 4


def sym_det(rows) -> Expr:
    """Determinant by Laplace expansion along the first row."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    terms = []
    for j in range(d):
        minor = [[rows[r][c] for c in range(d) if c != j] for r in range(1, d)]
        cof = mul(rows[0][j], sym_det(minor))
        terms.append(cof if j % 2 == 0 else neg(cof))
    return add(*terms)


def sym_inverse(rows, what: str):
    """Exact inverse as adjugate/determinant.  Past SYM_INVERSE_MAX_DIM it
    raises ConfigError, saying ``what`` needed the inverse."""
    d = len(rows)
    if d > SYM_INVERSE_MAX_DIM:
        raise ConfigError(f"{what} needs a symbolic inverse; dimension {d} exceeds "
                          f"the limit {SYM_INVERSE_MAX_DIM}")
    det = sym_det(rows)
    return tuple(
        tuple(div(_cofactor(rows, j, i), det) for j in range(d))
        for i in range(d)
    )


def _cofactor(rows, r, c) -> Expr:
    d = len(rows)
    minor = [[rows[i][j] for j in range(d) if j != c] for i in range(d) if i != r]
    det = sym_det(minor) if minor else ONE
    return det if (r + c) % 2 == 0 else neg(det)


def checked_inverse(mat: np.ndarray, error_cls, label: str, point) -> np.ndarray:
    """Numeric inverse guarded by the |det| >= 1e-8 invertibility floor."""
    det = float(np.linalg.det(mat))
    if abs(det) < DET_MIN:
        raise error_cls(f"{label} is singular (|det| = {abs(det):.3e}) at {point}")
    return np.linalg.inv(mat)
