"""The argument guards of the public builders: each refuses a metric of the
wrong kind, mismatched dimensions, a transition without inverses or a
constant that is not a finite positive number with a ConfigError that names
the problem."""

from __future__ import annotations

import math

import pytest

from polyjet.charts import TransitionMap, compose, pullback_scalar
from polyjet.connections import (
    canonical_metric_connection,
    connection_from_semispray,
    verify_adapted_coframe,
)
from polyjet.dtensors import (
    DTensorField,
    builtin_dtensors,
    lower_t,
    pullback_dtensor,
    upper_x,
)
from polyjet.errors import ConfigError
from polyjet.hamilton import (
    HamiltonSpace,
    autonomous_electrodynamic_space,
    check_kronecker_regularity,
    electrodynamic_t_block,
    general_electrodynamic_space,
    gravitational_space,
)
from polyjet.metrics import Metric
from polyjet.semisprays import (
    Semispray,
    canonical_spatial,
    canonical_temporal,
    check_characterization,
)
from polyjet.symbolic import Var

EYE = [[1, 0], [0, 1]]
H = Metric.temporal(EYE)
PHI = Metric.spatial(EYE)
G = Metric.spatiotemporal(EYE, m=2)
ZEROS = [[0, 0], [0, 0]]
HAMILTONIAN = Var("p1_1")


def potential(m: int) -> DTensorField:
    return DTensorField(m, 2, (upper_x(1), lower_t(0)), [[0] * m] * 2, name="U")


def zero_semispray(kind: str) -> Semispray:
    return Semispray(kind, 2, 2, [ZEROS, ZEROS])


def identity(m: int) -> TransitionMap:
    """The identity transition of an (m, 2) chart, without inverses."""
    return TransitionMap(m, 2, tuple(Var(f"t{a + 1}") for a in range(m)), (Var("x1"), Var("x2")))


def coframe_without_inverses():
    N = canonical_metric_connection(H, PHI)
    return verify_adapted_coframe(N, N, identity(2))


GUARDS = {
    # hamilton.py
    "regularity-h": (lambda: check_kronecker_regularity(HAMILTONIAN, PHI, 2),
                     "regularity is defined against a temporal metric"),
    "space-h": (lambda: HamiltonSpace(PHI, 2, HAMILTONIAN),
                "a Hamilton space needs a temporal metric"),
    "t-block-kinds": (lambda: electrodynamic_t_block(PHI, potential(2), H),
                      "expected a spatiotemporal g and temporal h"),
    "t-block-dimensions": (lambda: electrodynamic_t_block(G, potential(1), H),
                           "potential term dimensions disagree with the metrics"),
    "gravitational-phi": (lambda: gravitational_space(H, G),
                          "gravitational spaces take a spatial metric phi"),
    "autonomous-phi": (lambda: autonomous_electrodynamic_space(H, G, ZEROS),
                       "electrodynamic spaces take a spatial metric phi"),
    "gravitational-infinite-mass": (lambda: gravitational_space(H, PHI, mass=math.inf),
                                    "constant mass must be a finite positive number, got inf"),
    "gravitational-mass-not-a-number": (lambda: gravitational_space(H, PHI, mass="abc"),
                                        "constant mass must be a finite positive number, "
                                        "got 'abc'"),
    "autonomous-infinite-charge": (lambda: autonomous_electrodynamic_space(
        H, PHI, ZEROS, charge=math.inf),
        "constant charge must be a finite positive number, got inf"),
    "general-g-kind": (lambda: general_electrodynamic_space(H, PHI, ZEROS),
                       "the lowered spatial block must be spatiotemporal"),
    "general-g-m": (lambda: general_electrodynamic_space(
        H, Metric.spatiotemporal(EYE, m=1), ZEROS),
        "temporal dimensions of h and g disagree"),
    # connections.py
    "metric-connection-kinds": (lambda: canonical_metric_connection(PHI, H),
                                "canonical connection requires temporal h and spatial phi"),
    "from-semispray-phi": (lambda: connection_from_semispray(
        zero_semispray("temporal"), zero_semispray("spatial"), H),
        "semispray-to-connection conversion needs a spatial metric"),
    "from-semispray-dimensions": (lambda: connection_from_semispray(
        zero_semispray("temporal"), zero_semispray("spatial"),
        Metric.spatial([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
        "semispray pair and metric dimensions disagree"),
    "coframe-inverses": (coframe_without_inverses,
                         "coframe verification requires inverse expressions"),
    # semisprays.py
    "semispray-kind": (lambda: zero_semispray("vertical"), "unknown semispray kind 'vertical'"),
    "canonical-temporal-h": (lambda: canonical_temporal(PHI, 2),
                             "canonical temporal semispray requires a temporal metric"),
    "canonical-spatial-phi": (lambda: canonical_spatial(H, 2),
                              "canonical spatial semispray requires a spatial metric"),
    "characterization-h": (lambda: check_characterization(ZEROS, "temporal", PHI),
                           "characterization requires the temporal metric h"),
    # charts.py
    "compose-dimensions": (lambda: compose(identity(2), identity(1)),
                           "cannot compose transitions of different dimensions"),
    "pullback-scalar-inverses": (lambda: pullback_scalar(Var("x1"), identity(2)),
                                 "pullback requires a transition map with explicit inverses"),
    # dtensors.py
    "builtin-dtensors-h": (lambda: builtin_dtensors(PHI, 2),
                           "builtin d-tensors require a temporal metric"),
    "pullback-dtensor-inverses": (lambda: pullback_dtensor(potential(2), identity(2)),
                                  "d-tensor pullback requires explicit inverse expressions"),
    # metrics.py
    "metric-kind": (lambda: Metric("vertical", 2, 2, EYE), "unknown metric kind 'vertical'"),
}


@pytest.mark.parametrize("build, message", GUARDS.values(), ids=GUARDS.keys())
def test_a_public_builder_refuses_a_wrong_argument_naming_it(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message
