"""Building/floor classification from Wi-Fi RSS fingerprints.

A lightweight pipeline: powed + unit-norm preprocessing, a fixed seeded
1-D conv feature stage, and a closed-form regularized ELM classifier over
joint (building, floor) classes, with a brute-force 1-NN baseline and a
benchmark harness producing hit-rate/timing reports.

The package namespace holds the pipeline API; the stages live in their
modules (``elmloc.preprocess``, ``elmloc.featurizer``, ``elmloc.elm``,
``elmloc.knn``) and the benchmark in ``elmloc.evaluation``.
"""

from .dataset import ParseError, RadioMap, SchemaError, UnknownDatasetError
from .pipeline import (
    PipelineConfig,
    TrainedModel,
    fit_pipeline,
    load_model,
    predict_pipeline,
    save_model,
    sweep_pipeline,
)
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "PipelineConfig",
    "RadioMap",
    "SchemaError",
    "TrainedModel",
    "UnknownDatasetError",
    "fit_pipeline",
    "generate_synthetic",
    "load_model",
    "predict_pipeline",
    "save_model",
    "sweep_pipeline",
]
