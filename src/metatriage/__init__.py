"""Metadata-driven app triage: features, models, and benchmark experiments."""

import os

# One BLAS thread per process, set before anything imports numpy: the work
# is small matrix products, an idle BLAS worker spins on a core, and
# `--threads` already runs experiments in worker processes. A value the
# caller has set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"

from .corpus import (
    AppRecord,
    CompositionRecipe,
    Corpus,
    DetectionLabelPolicy,
    GeneratorConfig,
    LabeledDataset,
    SignalStrengths,
    compose_subset,
    generate_synthetic,
    parse_records,
)
from .errors import MetatriageError
from .evaluate import EvalReport, PipelineConfig, cross_validate
from .featurize import FeatureMatrix, HashConfig, ReputationTable, assemble_features
from .learn import Hyperparams, predict_score, train_model
from .select import RankedFeatures, rank_features

__all__ = [
    "AppRecord",
    "CompositionRecipe",
    "Corpus",
    "DetectionLabelPolicy",
    "EvalReport",
    "FeatureMatrix",
    "GeneratorConfig",
    "HashConfig",
    "Hyperparams",
    "LabeledDataset",
    "MetatriageError",
    "PipelineConfig",
    "RankedFeatures",
    "ReputationTable",
    "SignalStrengths",
    "__version__",
    "assemble_features",
    "compose_subset",
    "cross_validate",
    "generate_synthetic",
    "parse_records",
    "predict_score",
    "rank_features",
    "train_model",
]
