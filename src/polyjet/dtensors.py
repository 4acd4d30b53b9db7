"""Distinguished tensor fields on the dual 1-jet bundle.

A d-tensor here is an array of expressions in one chart's (t, x, p)
variables together with a slot list describing how each index transforms:
temporal indices pick up a temporal Jacobian factor, spatial ones a
spatial factor, uppers transform with the forward Jacobian and lowers
with its inverse.  A "doubled" pair (one temporal and one spatial slot of
opposite variance, written with parenthesized indices like C*^{(a)}_{(i)})
transforms by the product of its two slots' factors, so the law is still
slot-by-slot; the pairing is retained as structure and validated.

``verify_dtensor_law`` checks the homogeneous transformation law
numerically over a sample domain; ``pullback_dtensor`` constructs the
symbolically transformed field in the target chart, which is the standard
way to build the comparison side of such a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import JetChart, TransitionMap, p_name
from .errors import ConfigError
from .metrics import Metric
from .report import ResidualTracker, VerificationReport
from .symbolic import (
    Program,
    SampleDomain,
    ZERO,
    add,
    as_expr,
    compile_block,
    differentiate,
    mul,
    substitute,
    variables,
)


@dataclass(frozen=True)
class IndexSlot:
    """One tensor index: its family, variance, and optional doubled partner
    (position of the paired slot in the slot list)."""

    family: str  # 'temporal' | 'spatial'
    variance: str  # 'upper' | 'lower'
    doubled_with: int | None = None

    def __post_init__(self):
        if self.family not in ("temporal", "spatial"):
            raise ConfigError(f"unknown slot family {self.family!r}")
        if self.variance not in ("upper", "lower"):
            raise ConfigError(f"unknown slot variance {self.variance!r}")


def upper_t(doubled_with=None) -> IndexSlot:
    return IndexSlot("temporal", "upper", doubled_with)


def lower_t(doubled_with=None) -> IndexSlot:
    return IndexSlot("temporal", "lower", doubled_with)


def upper_x(doubled_with=None) -> IndexSlot:
    return IndexSlot("spatial", "upper", doubled_with)


def lower_x(doubled_with=None) -> IndexSlot:
    return IndexSlot("spatial", "lower", doubled_with)


class DTensorField:
    """Expression-valued tensor components plus their slot structure."""

    def __init__(self, m: int, n: int, slots, components, name: str = "T"):
        self.m = int(m)
        self.n = int(n)
        self.slots = tuple(slots)
        self.name = name
        comps = np.empty(self.shape, dtype=object)
        arr = np.asarray(components, dtype=object)
        if arr.shape != self.shape:
            raise ConfigError(
                f"components of {name!r} must have shape {self.shape}, got {arr.shape}")
        chart = JetChart(self.m, self.n)
        allowed = set(chart.names)
        for idx in np.ndindex(self.shape):
            e = as_expr(arr[idx])
            extra = variables(e) - allowed
            if extra:
                raise ConfigError(
                    f"component {idx} of {name!r} uses foreign variables {sorted(extra)}")
            comps[idx] = e
        self.components = comps
        self._validate_doubling()

    @property
    def shape(self):
        return tuple(self.m if s.family == "temporal" else self.n for s in self.slots)

    def _validate_doubling(self):
        for pos, slot in enumerate(self.slots):
            d = slot.doubled_with
            if d is None:
                continue
            if not 0 <= d < len(self.slots) or d == pos:
                raise ConfigError(f"slot {pos} pairs with invalid slot {d}")
            other = self.slots[d]
            if other.doubled_with != pos:
                raise ConfigError(f"slots {pos} and {d} are not mutually doubled")
            if other.family == slot.family or other.variance == slot.variance:
                raise ConfigError(
                    "a doubled pair must join one temporal and one spatial slot "
                    "of opposite variance")

    @cached_property
    def _program(self) -> Program:
        return compile_block(self.components.ravel())

    def at_points(self, points) -> np.ndarray:
        """Component arrays at each assignment, shape (P, *shape)."""
        return self._program.run(points).reshape(-1, *self.shape)

    def at(self, assignment) -> np.ndarray:
        return self.at_points([assignment])[0]

    def map_components(self, f) -> "DTensorField":
        comps = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            comps[idx] = f(self.components[idx])
        return DTensorField(self.m, self.n, self.slots, comps, self.name)

    def __repr__(self):
        sig = ",".join(f"{s.variance[0]}{s.family[0]}" for s in self.slots)
        return f"DTensorField({self.name!r}, slots=[{sig}], shape={self.shape})"


def _slot_matrices(slots, jt, jx, kt, kx):
    mats = []
    for s in slots:
        if s.family == "temporal":
            mats.append(jt if s.variance == "upper" else kt.T)
        else:
            mats.append(jx if s.variance == "upper" else kx.T)
    return mats


def _dtensor_image(arr: np.ndarray, slots, frame) -> np.ndarray:
    for axis, mat in enumerate(_slot_matrices(slots, *frame)):
        arr = np.moveaxis(np.tensordot(mat, arr, axes=(1, axis)), 0, axis)
    return arr


def transform_dtensor(T: DTensorField, tm: TransitionMap, q) -> np.ndarray:
    """Numeric target-chart components of T at the image of q, by the
    homogeneous d-tensor law (one Jacobian factor per slot)."""
    asg = tm.chart.assignment(q)
    return _dtensor_image(T.at(asg), T.slots, tm.jacobians_at(asg))


def _entry_label(name: str, idx) -> str:
    return f"{name}[{','.join(str(i + 1) for i in idx)}]"


def verify_dtensor_law(T_A: DTensorField, T_B: DTensorField, tm: TransitionMap,
                       dom: SampleDomain | None = None, tol: float = 1e-8,
                       name: str | None = None) -> VerificationReport:
    """Check that T_B at image points equals the transformed T_A."""
    if T_A.slots != T_B.slots:
        raise ConfigError("cannot compare d-tensors with different slot structure")
    chart = tm.chart
    if dom is None:
        dom = chart.sample_domain()
    tracker = ResidualTracker(name or f"dtensor-law:{T_A.name}", tol)
    points = dom.points()
    images, frames = tm.map_points(points)
    values_a = T_A.at_points(points)
    values_b = T_B.at_points([chart.assignment(image) for image in images])
    for asg, frame, arr, rhs in zip(points, frames, values_a, values_b):
        lhs = _dtensor_image(arr, T_A.slots, frame)
        diff = np.abs(lhs - rhs)
        idx = np.unravel_index(np.argmax(diff), diff.shape) if diff.size else ()
        tracker.update(float(diff.max()), asg, _entry_label(T_A.name, idx))
        tracker.count_sample()
    return tracker.report()


def builtin_dtensors(h: Metric, n: int) -> dict:
    """Canonical d-tensors attached to a temporal metric h_ab(t) on a chart
    with n spatial dimensions:

    * ``C*``: the Liouville-type field C*^{(a)}_{(i)} = p_i^a
    * ``L``:  L^{(c)}_{(j)ab} = h_ab p_j^c
    * ``J``:  J^{(i)}_{(a)bj} = h_ab delta^i_j
    """
    if h.kind != "temporal":
        raise ConfigError("builtin d-tensors require a temporal metric")
    m = h.dim
    chart = JetChart(m, n)

    cstar = np.empty((n, m), dtype=object)
    for i in range(n):
        for a in range(m):
            cstar[i, a] = chart.p_var(i, a)
    C = DTensorField(m, n, (lower_x(1), upper_t(0)), cstar, name="C*")

    L = np.empty((m, n, m, m), dtype=object)
    for c in range(m):
        for j in range(n):
            for a in range(m):
                for b in range(m):
                    L[c, j, a, b] = mul(h.components[a][b], chart.p_var(j, c))
    Lf = DTensorField(m, n, (upper_t(1), lower_x(0), lower_t(), lower_t()), L, name="L")

    J = np.empty((n, m, m, n), dtype=object)
    for i in range(n):
        for a in range(m):
            for b in range(m):
                for j in range(n):
                    J[i, a, b, j] = h.components[a][b] if i == j else ZERO
    Jf = DTensorField(m, n, (upper_x(1), lower_t(0), lower_t(), lower_x()), J, name="J")

    return {"C*": C, "L": Lf, "J": Jf}


def pullback_dtensor(T: DTensorField, tm: TransitionMap) -> DTensorField:
    """The symbolically transformed field in the target chart.

    Components are expressions in target variables; evaluating them at an
    image point matches ``transform_dtensor`` at the source point, which is
    exactly the comparison ``verify_dtensor_law`` performs.
    """
    if not tm.has_inverse:
        raise ConfigError("d-tensor pullback requires explicit inverse expressions")
    chart = tm.chart
    inv = tm.inverted()

    point_map = dict(zip(chart.t_names, tm.t_inverse))
    point_map.update(zip(chart.x_names, tm.x_inverse))
    for i in range(tm.n):
        for a in range(tm.m):
            point_map[p_name(i, a)] = inv.momentum_forward[i][a]

    def factor_matrix(slot: IndexSlot):
        if slot.family == "temporal":
            size, names, fwd, inverse = tm.m, chart.t_names, tm.t_forward, tm.t_inverse
        else:
            size, names, fwd, inverse = tm.n, chart.x_names, tm.x_forward, tm.x_inverse
        out = [[None] * size for _ in range(size)]
        for new in range(size):
            for old in range(size):
                if slot.variance == "upper":
                    # d (target coord new) / d (source coord old), at the preimage
                    out[new][old] = substitute(
                        differentiate(fwd[new], names[old]),
                        dict(zip(names, inverse)))
                else:
                    # d (source coord old) / d (target coord new)
                    out[new][old] = differentiate(inverse[old], names[new])
        return out

    factors = [factor_matrix(s) for s in T.slots]
    shape = T.shape
    comps = np.empty(shape, dtype=object)
    for new_idx in np.ndindex(shape):
        terms = []
        for old_idx in np.ndindex(shape):
            fs = [factors[k][new_idx[k]][old_idx[k]] for k in range(len(shape))]
            terms.append(mul(substitute(T.components[old_idx], point_map), *fs))
        comps[new_idx] = add(*terms)
    return DTensorField(T.m, T.n, T.slots, comps, name=T.name)
