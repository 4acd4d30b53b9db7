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
from functools import partial

import numpy as np

from .charts import JetChart, TransitionMap
from .errors import ConfigError
from .metrics import Metric
from .report import VerificationReport, chart_law, entry_label
from .symbolic import (
    Compiled,
    SampleDomain,
    ZERO,
    add,
    expr_array,
    mul,
    substitute,
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


class DTensorField(Compiled):
    """Expression-valued tensor components, an ``expr_array`` of the slot
    shape, plus their slot structure; ``at_points`` gives (P, *shape)."""

    def __init__(self, m: int, n: int, slots, components, name: str = "T"):
        self.m = int(m)
        self.n = int(n)
        self.slots = tuple(slots)
        self.name = name
        self.components = expr_array(components, self.shape, JetChart(self.m, self.n).names,
                                     f"d-tensor {name!r}")
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

    def __repr__(self):
        sig = ",".join(f"{s.variance[0]}{s.family[0]}" for s in self.slots)
        return f"DTensorField({self.name!r}, slots=[{sig}], shape={self.shape})"


def _dtensor_images(slots, frames, values) -> np.ndarray:
    """Target-chart components (P, *shape) at the images of a
    ``map_points`` batch, by the homogeneous d-tensor law, from the source
    values (P, *shape): per slot, one ``matmul`` of its Jacobian factor
    (P, d, d) into the values laid out as (P, d, rest)."""
    for axis, slot in enumerate(slots, start=1):
        jac, inv = (frames.jt, frames.kt) if slot.family == "temporal" else (frames.jx, frames.kx)
        factor = jac if slot.variance == "upper" else inv.transpose(0, 2, 1)
        moved = np.moveaxis(values, axis, 1)
        values = np.moveaxis((factor @ moved.reshape(*moved.shape[:2], -1))
                             .reshape(moved.shape), 1, axis)
    return values


def transform_dtensor(T: DTensorField, tm: TransitionMap, q) -> np.ndarray:
    """Numeric target-chart components of T at the image of q."""
    frames = tm.map_points([tm.chart.assignment(q)])
    return _dtensor_images(T.slots, frames, T.at_points(frames.points))[0]


def verify_dtensor_law(T_A: DTensorField, T_B: DTensorField, tm: TransitionMap,
                       dom: SampleDomain | None = None, tol: float = 1e-8) -> VerificationReport:
    """Check that T_B at image points equals the transformed T_A."""
    if T_A.slots != T_B.slots:
        raise ConfigError("cannot compare d-tensors with different slot structure")

    def compare(frames, values_a, values_b):
        return ((_dtensor_images(T_A.slots, frames, values_a), values_b),)

    return chart_law(f"dtensor-law:{T_A.name}", tol, tm, dom,
                     (partial(entry_label, T_A.name),), T_A, T_B, compare)


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

    C = DTensorField(m, n, (lower_x(1), upper_t(0)), chart.p_vars(), name="C*")

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
    if (T.m, T.n) != (tm.m, tm.n):
        raise ConfigError(f"cannot pull back the (m, n) = {(T.m, T.n)} d-tensor {T.name!r} "
                          f"through a {(tm.m, tm.n)} transition")

    def factor_matrix(slot: IndexSlot):
        """F[new][old]: for an upper slot d (target new) / d (source old) at
        the preimage, for a lower one d (source old) / d (target new)."""
        if slot.variance == "upper":
            jac = tm.t_jacobian if slot.family == "temporal" else tm.x_jacobian
            return [[substitute(e, tm.pullback_map) for e in row] for row in jac]
        inv = tm.inverted()
        jac = inv.t_jacobian if slot.family == "temporal" else inv.x_jacobian
        return list(zip(*jac))

    factors = [factor_matrix(s) for s in T.slots]
    shape = T.shape
    comps = np.empty(shape, dtype=object)
    pulled = {old_idx: substitute(T.components[old_idx], tm.pullback_map)
              for old_idx in np.ndindex(shape)}
    for new_idx in np.ndindex(shape):
        terms = []
        for old_idx, value in pulled.items():
            fs = [factors[k][new_idx[k]][old_idx[k]] for k in range(len(shape))]
            terms.append(mul(value, *fs))
        comps[new_idx] = add(*terms)
    return DTensorField(T.m, T.n, T.slots, comps, name=T.name)
