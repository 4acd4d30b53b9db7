"""polyjet: multi-time Hamilton geometry on the dual 1-jet bundle.

Symbolic charts, metrics, d-tensors, semisprays of polymomenta, nonlinear
connections and Kronecker-regular Hamilton spaces, with numeric covariance
verification driven by seeded sampling.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    NotRegular,
    PolyjetError,
    SingularJacobian,
    SingularMetric,
    UnboundVariable,
    UnknownIdentifier,
)
from .symbolic import (
    Expr,
    Program,
    SampleDomain,
    compile_block,
    differentiate,
    equiv,
    evaluate,
    expr_array,
    jacobian,
    parse,
    substitute,
    to_string,
    variables,
)
from .charts import (
    JetChart,
    TransitionMap,
    compose,
    pullback_scalar,
)
from .metrics import ChristoffelField, Metric, christoffel, pullback_metric
from .dtensors import (
    DTensorField,
    IndexSlot,
    builtin_dtensors,
    lower_t,
    lower_x,
    pullback_dtensor,
    upper_t,
    upper_x,
    verify_dtensor_law,
)
from .semisprays import (
    Semispray,
    canonical_spatial,
    canonical_temporal,
    check_characterization,
    decompose,
    verify_semispray_law,
)
from .connections import (
    NonlinearConnection,
    adapted_coframe,
    canonical_metric_connection,
    connection_from_semispray,
    semispray_from_connection,
    verify_adapted_coframe,
    verify_connection_law,
)
from .hamilton import (
    HamiltonSpace,
    RegularityResult,
    autonomous_electrodynamic_space,
    canonical_connection_closed_form,
    canonical_connection_middle_form,
    canonical_nonlinear_connection,
    check_kronecker_regularity,
    fundamental_vertical_dtensor,
    general_electrodynamic_space,
    gravitational_space,
)
from .report import VerificationReport
