"""Matrix-level norms on coordinate spaces and certified supremum-norm bounds."""

from .errors import (
    DegenerateInputError,
    InconsistencyError,
    InvalidInputError,
    MatnormError,
)
from .linalg import (
    canonical_identity,
    dual_witness,
    random_unitary,
    trace_norm,
)
from .spaces import (
    AxiomReport,
    Couple,
    LeveledElement,
    MatricialSpace,
    c_max,
    c_min,
    check_axioms,
    concrete_operator_space,
    coproduct_apply,
    l1_component,
    l1_embed,
    l1_sum,
    pad,
    planted_fault_space,
    random_element,
    scalar_action,
    space_from_id,
)
from .correspondence import (
    PhiMap,
    amplified_image,
    check_naturality,
    phi_of,
    reconstruct,
)
from .optimizer import OptimizerConfig, optimize_couple
from .hatspace import (
    NormBounds,
    SearchResult,
    UpperCertificate,
    check_upper_certificate,
    couple_value,
    default_catalog,
    hat_bounds,
    hat_upper_bound,
    random_couple,
    search_lower_bound,
    structured_couples,
)

__version__ = "0.1.0"
