"""Discriminative subnetwork mining for global-state network databases.

A database holds many network instances over a shared node set; each
instance carries per-node values and one discrete global state.  The
library learns a low-dimensional spectral transformation that separates
the global states while staying smooth over frequently shared edges, then
ranks nodes by their transformation coefficients and reports the connected
subnetworks they induce.
"""

from .data import (
    GeneralizedNetwork,
    NetworkDatabase,
    StateMatrix,
    build_generalized_network,
    load_database,
    write_database,
)
from .errors import SubnetmineError
from .evaluation import (
    EvalConfig,
    EvalReport,
    LinearClassifier,
    evaluate_dataset,
    fit_model,
    ranking_auc,
    reduce_database,
    run_cv,
    stratified_folds,
    sweep_alpha,
    train_linear_classifier,
)
from .metagraph import ConstraintMatrix, LaplacianSet, build_constraint_matrix
from .selection import (
    Component,
    SubnetworkReport,
    build_report,
    extract_subnetworks,
    score_nodes,
    select_top_nodes,
)
from .solver import (
    ReducedProblem,
    SolverConfig,
    SpectralModel,
    TruncatedBasis,
    load_model,
    reduce_problem,
    save_model,
    truncated_svd_basis,
)
from .synth import (
    GroundTruth,
    SynthConfig,
    generate_backbone,
    generate_dataset,
    read_ground_truth,
    sample_database,
    write_synthetic_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Component",
    "ConstraintMatrix",
    "EvalConfig",
    "EvalReport",
    "GeneralizedNetwork",
    "GroundTruth",
    "LaplacianSet",
    "LinearClassifier",
    "NetworkDatabase",
    "ReducedProblem",
    "SolverConfig",
    "SpectralModel",
    "StateMatrix",
    "SubnetmineError",
    "SubnetworkReport",
    "SynthConfig",
    "TruncatedBasis",
    "build_constraint_matrix",
    "build_generalized_network",
    "build_report",
    "evaluate_dataset",
    "extract_subnetworks",
    "fit_model",
    "generate_backbone",
    "generate_dataset",
    "load_database",
    "load_model",
    "ranking_auc",
    "read_ground_truth",
    "reduce_database",
    "reduce_problem",
    "run_cv",
    "sample_database",
    "save_model",
    "score_nodes",
    "select_top_nodes",
    "stratified_folds",
    "sweep_alpha",
    "train_linear_classifier",
    "truncated_svd_basis",
    "write_database",
    "write_synthetic_dataset",
]
