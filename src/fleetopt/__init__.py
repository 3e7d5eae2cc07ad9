"""Feature-driven pre-allocation and pricing for electric taxi fleets.

The package splits into layers that compose bottom-up:

- ``fleet``: problem instances, cascade fulfillment, profit, feasibility
- ``dsl``: the objective language, its analysis and similarity metrics
- ``forest``: regression random forest training and evaluation
- ``encoder``: embedding a trained forest into MIP constraints
- ``mip``: problem container, HiGHS LP model, cutting planes,
  branch-and-bound
- ``fleet_mip``: the exact cascade model and the forest-driven model
- ``agent``: guided variable fixing around the lexicographic solver
- ``bench``: synthetic worlds, ingestion, history, experiment harness
"""

from .fleet import (
    Decision,
    FleetError,
    FleetInstance,
    FulfillmentState,
    PriceGrid,
    Violation,
    cascade_fulfill,
    check_feasible,
    decision_to_vector,
    decision_values,
    decision_variable_names,
    evaluate_decision,
    profit,
    vector_to_decision,
)
from .fleet_mip import (
    build_deterministic_mip,
    build_feature_mip,
    decision_from_solution,
    fulfillment_from_solution,
)
from .forest import (
    FeatureSchema,
    Forest,
    ForestError,
    TrainConfig,
    TreeNode,
    evaluate_r2,
    train,
    train_test_split,
)
from .encoder import EncoderError, embed_forest

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "EncoderError",
    "FeatureSchema",
    "FleetError",
    "FleetInstance",
    "Forest",
    "ForestError",
    "FulfillmentState",
    "PriceGrid",
    "TrainConfig",
    "TreeNode",
    "Violation",
    "build_deterministic_mip",
    "build_feature_mip",
    "cascade_fulfill",
    "check_feasible",
    "decision_from_solution",
    "decision_to_vector",
    "decision_values",
    "decision_variable_names",
    "embed_forest",
    "evaluate_decision",
    "evaluate_r2",
    "fulfillment_from_solution",
    "profit",
    "train",
    "train_test_split",
    "vector_to_decision",
]
