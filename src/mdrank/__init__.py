"""Multi-domain learning-to-rank toolkit.

Builds and compares four listwise ranking architectures across domains:
per-domain baselines, a domain-gated multi-head model, and two consolidated
models whose auxiliary domain classifier either erases (adversarial) or
reinforces (specialist) domain identity in the shared representation.
Includes seeded synthetic data, NDCG@k offline evaluation, a multi-seed
comparison protocol, and a simulated team-draft interleaving experiment.
"""

from .autodiff import Tape, Tensor, backward, grad_check, gradient_reversal
from .data import (
    DatasetFormatError,
    FeatureStats,
    QuerySession,
    SyntheticDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_features,
    split_by_time,
    write_dataset,
)
from .evaluation import EvalSummary, as_scorer, evaluate, ndcg_at_k
from .interleaving import InterleaveReport, UserModel, run_interleaving, sign_test_p
from .losses import LossBreakdown, batch_loss, domain_loss, listwise_loss
from .models import (
    ConfigError,
    Model,
    ModelConfig,
    ModelLoadError,
    ScoredBatch,
    Variant,
    build,
    count_parameters,
    forward,
    load,
    save,
    stack,
)
from .training import (
    DataSplits,
    EvalReport,
    TrainConfig,
    TrainingDiverged,
    VariantSpec,
    run_protocol,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
    "gradient_reversal",
    "DatasetFormatError",
    "FeatureStats",
    "QuerySession",
    "SyntheticDataset",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dataset",
    "normalize_features",
    "split_by_time",
    "write_dataset",
    "EvalSummary",
    "as_scorer",
    "evaluate",
    "ndcg_at_k",
    "InterleaveReport",
    "UserModel",
    "run_interleaving",
    "sign_test_p",
    "LossBreakdown",
    "batch_loss",
    "domain_loss",
    "listwise_loss",
    "ConfigError",
    "Model",
    "ModelConfig",
    "ModelLoadError",
    "ScoredBatch",
    "Variant",
    "build",
    "stack",
    "count_parameters",
    "forward",
    "load",
    "save",
    "DataSplits",
    "EvalReport",
    "TrainConfig",
    "TrainingDiverged",
    "VariantSpec",
    "run_protocol",
    "train",
    "__version__",
]
