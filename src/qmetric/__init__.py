"""Quantum metric structures on finite spaces of matrix-valued functions.

The package builds compact quantum metric spaces out of a finite metric
space and a direct sum of matrix blocks, computes dual distances between
states by linear programming, and compares whole spaces through bridges
and Gromov-Hausdorff style bounds.
"""

from .algebra import (
    AlgElement,
    Algebra,
    AlgState,
    apply_state,
    jordan,
    lie,
    matrix_unit,
    matrix_unit_l1,
    tracial_state,
    vector_state,
)
from .errors import BoundViolation, InputError, QmetricError, UnsupportedSpec
from .funcspace import (
    LP_EXACT_Q_KINDS,
    Q_KINDS,
    MatrixFunction,
    SeminormSpec,
    classical_embed,
    conv_spec,
    lip_part,
    lipnorm,
    q_term,
    quasi_leibniz_check,
    sup_norm,
)
from .generate import (
    circle_net,
    interval_net,
    random_planar_space,
    scaled_to_diameter,
)
from .mcshane import ExtensionProblem, extend, extend_as_map
from .metric import (
    FiniteMetricSpace,
    JoinedSpace,
    diameter,
    epsilon_net,
    gh_exact,
    gh_upper,
    hausdorff,
)
from .mk import MkResult, diameter_cap, embed_check, mk_diameter_report, mk_distance
from .propinquity import (
    Bridge,
    PropinquityBound,
    approx_table,
    build_bridge,
    match_element,
    propinquity_upper_bound,
)
from .states import FunctionalState, delta_embed, evaluate, mix, tracial_functional

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "Algebra",
    "AlgState",
    "BoundViolation",
    "Bridge",
    "ExtensionProblem",
    "FiniteMetricSpace",
    "FunctionalState",
    "InputError",
    "JoinedSpace",
    "LP_EXACT_Q_KINDS",
    "MatrixFunction",
    "MkResult",
    "PropinquityBound",
    "Q_KINDS",
    "QmetricError",
    "SeminormSpec",
    "UnsupportedSpec",
    "apply_state",
    "approx_table",
    "build_bridge",
    "circle_net",
    "classical_embed",
    "conv_spec",
    "delta_embed",
    "diameter",
    "diameter_cap",
    "embed_check",
    "epsilon_net",
    "evaluate",
    "extend",
    "extend_as_map",
    "gh_exact",
    "gh_upper",
    "hausdorff",
    "interval_net",
    "jordan",
    "lie",
    "lip_part",
    "lipnorm",
    "match_element",
    "matrix_unit",
    "matrix_unit_l1",
    "mix",
    "mk_diameter_report",
    "mk_distance",
    "propinquity_upper_bound",
    "q_term",
    "quasi_leibniz_check",
    "random_planar_space",
    "scaled_to_diameter",
    "sup_norm",
    "tracial_functional",
    "tracial_state",
    "vector_state",
]
