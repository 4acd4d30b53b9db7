"""Seeded geometry for the benchmark workloads.

The construction mirrors the test suite's generator (one-row polynomial
shears composed with an affine rescaling, diagonally dominant metrics) but
lives here so that edits to the tests cannot move the benchmark's inputs.

Only coefficients are drawn from the seed.  Which rows are sheared, by
which variable and to which power is fixed, so every seed yields
expressions of the same shape and roughly the same cost: a seed changes
the numbers a workload computes with, not how much work it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polyjet.charts import TransitionMap, compose, t_name, x_name
from polyjet.metrics import Metric
from polyjet.symbolic import Const, Expr, Var, add, mul, power

# (family, row, source, exponent) for each shear, applied in this order
# after the affine rescaling.  Rows and sources are taken modulo the
# family's dimension.
SHEARS = (("t", 0, 1, 2), ("x", 1, 0, 3), ("t", 1, 0, 3), ("x", 0, 1, 2))


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    value = float(rng.uniform(lo, hi))
    return value if rng.random() < 0.5 else -value


def _one_row_shear(m: int, n: int, family: str, row: int, src: int,
                   coeff: float, exponent: int) -> TransitionMap:
    """v_row -> v_row + coeff * v_src^exponent, all other coordinates fixed."""
    t_names = [t_name(a) for a in range(m)]
    x_names = [x_name(i) for i in range(n)]
    t_fwd, x_fwd = list(map(Var, t_names)), list(map(Var, x_names))
    t_inv, x_inv = list(map(Var, t_names)), list(map(Var, x_names))
    if family == "t":
        names, fwd, inv = t_names, t_fwd, t_inv
    else:
        names, fwd, inv = x_names, x_fwd, x_inv
    bump = mul(Const(coeff), power(Var(names[src]), exponent))
    fwd[row] = add(Var(names[row]), bump)
    inv[row] = add(Var(names[row]), mul(Const(-1.0), bump))
    return TransitionMap(m, n, tuple(t_fwd), tuple(x_fwd), tuple(t_inv),
                         tuple(x_inv))


def _affine_rescale(m: int, n: int, rng: np.random.Generator) -> TransitionMap:
    def build(names):
        fwd, inv = [], []
        for nm in names:
            s = float(rng.uniform(0.75, 1.3))
            o = _signed(rng, 0.02, 0.15)
            fwd.append(add(mul(Const(s), Var(nm)), Const(o)))
            inv.append(mul(Const(1.0 / s), add(Var(nm), Const(-o))))
        return tuple(fwd), tuple(inv)

    t_fwd, t_inv = build([t_name(a) for a in range(m)])
    x_fwd, x_inv = build([x_name(i) for i in range(n)])
    return TransitionMap(m, n, t_fwd, x_fwd, t_inv, x_inv)


def transition(m: int, n: int, rng: np.random.Generator,
               shears: int = len(SHEARS)) -> TransitionMap:
    """Nonlinear chart change with exact inverse expressions (m, n >= 2),
    built from the first ``shears`` entries of SHEARS."""
    tm = _affine_rescale(m, n, rng)
    for family, row, src, exponent in SHEARS[:shears]:
        size = m if family == "t" else n
        coeff = _signed(rng, 0.1, 0.35)
        tm = compose(_one_row_shear(m, n, family, row % size, src % size,
                                    coeff, exponent), tm)
    return tm


def _dominant_symmetric(names, rng: np.random.Generator):
    """diag(1 + a_i v_i^2) plus small nonzero symmetric couplings."""
    d = len(names)
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        alpha = float(rng.uniform(0.3, 0.9))
        rows[i][i] = add(Const(1.0), mul(Const(alpha), power(Var(names[i]), 2)))
    for i in range(d):
        for j in range(i + 1, d):
            e = mul(Const(_signed(rng, 0.02, 0.12)), Var(names[i]), Var(names[j]))
            rows[i][j] = e
            rows[j][i] = e
    return rows


def temporal_metric(m: int, rng: np.random.Generator) -> Metric:
    return Metric.temporal(_dominant_symmetric([t_name(a) for a in range(m)], rng))


def spatial_metric(n: int, rng: np.random.Generator) -> Metric:
    return Metric.spatial(_dominant_symmetric([x_name(i) for i in range(n)], rng))


def spatiotemporal_metric(m: int, n: int, rng: np.random.Generator) -> Metric:
    rows = _dominant_symmetric([x_name(i) for i in range(n)], rng)
    # mild temporal modulation on the diagonal keeps det bounded below
    for i in range(n):
        beta = float(rng.uniform(0.05, 0.25))
        rows[i][i] = add(rows[i][i], mul(Const(beta), power(Var(t_name(0)), 2)))
    return Metric.spatiotemporal(rows, m=m)


def base_scalar(m: int, n: int, rng: np.random.Generator) -> Expr:
    """Quadratic polynomial in the base variables (t, x), no zero terms."""
    names = [t_name(a) for a in range(m)] + [x_name(i) for i in range(n)]
    terms = [Const(_signed(rng, 0.05, 0.5))]
    for nm in names:
        terms.append(mul(Const(_signed(rng, 0.05, 0.4)), Var(nm)))
        terms.append(mul(Const(_signed(rng, 0.02, 0.2)), power(Var(nm), 2)))
    return add(*terms)


@dataclass(frozen=True)
class GravitationalInput:
    """Inputs of ``gravitational_space(h, phi)`` plus a chart change."""

    h: Metric
    phi: Metric
    tm: TransitionMap


@dataclass(frozen=True)
class ElectrodynamicInput:
    """Inputs of ``general_electrodynamic_space(h, g, U, F)`` plus a chart
    change and the auxiliary spatial metric the spatial semispray needs."""

    h: Metric
    g: Metric
    potential: tuple
    free_term: Expr
    phi: Metric
    tm: TransitionMap


def gravitational_input(m: int, n: int, rng: np.random.Generator) -> GravitationalInput:
    return GravitationalInput(temporal_metric(m, rng), spatial_metric(n, rng),
                              transition(m, n, rng))


def electrodynamic_input(m: int, n: int, rng: np.random.Generator,
                        shears: int = len(SHEARS)) -> ElectrodynamicInput:
    h = temporal_metric(m, rng)
    g = spatiotemporal_metric(m, n, rng)
    potential = tuple(tuple(base_scalar(m, n, rng) for _ in range(m))
                      for _ in range(n))
    free = base_scalar(m, n, rng)
    return ElectrodynamicInput(h, g, potential, free, spatial_metric(n, rng),
                               transition(m, n, rng, shears))
