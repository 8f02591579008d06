"""End-to-end train/predict bundle: the one place the stages are composed.

``fit_pipeline`` runs the whole off-line phase — preprocessing fit, optional
fixed conv featurization, closed-form classifier fit — and returns a single
object that ``save_model``/``load_model`` round-trip through one JSON file.
The on-line side (``predict_pipeline``) therefore needs only that artifact
plus raw RSS rows: stored preprocessing state and filter weights travel with
the model. ``sweep_pipeline`` scores a grid of hidden sizes on a validation
split with the same stages. The CLI and the benchmark call these three.

``PipelineConfig`` is the one place that knows what a valid setting is:
``check_setting`` checks each field, whether it comes from Python code, a
CLI config file or an older model file's ``config`` section. A trained model
keeps no config: each setting is read from the part that holds it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import elm as elm_mod
from .dataset import RadioMap, check_array, check_float, check_int, check_rss, split_validation
from .featurizer import (
    POOL,
    FeaturizerSpec,
    featurize,
    init_featurizer,
    spec_from_dict,
    spec_to_dict,
)
from .preprocess import (
    EXPONENT,
    NORM_MODES,
    PreprocessParams,
    apply_powed,
    apply_preprocess,
    apply_unit_norm,
    fit_powed,
    fit_unit_norm,
    params_from_dict,
    params_to_dict,
)

_FORMAT = "elmloc-model-v1"

APPROACHES = ("cnn_elm", "elm_only")


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved training knobs for one run, each checked by ``check_setting``."""

    L: int
    c: float
    seed: int = 0
    approach: str = "cnn_elm"
    norm_mode: str = "per_feature"
    n_filters: int = 2
    kernel_size: int = 3
    quantize: bool = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_setting(f.name, getattr(self, f.name)))


# The str fields' allowed values; the other fields are checked by their annotation.
_CHOICES = {"approach": APPROACHES, "norm_mode": NORM_MODES}
_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
# The numeric fields' ranges: (test, what the message says the value must be).
_RANGES = {
    "L": (lambda v: v >= 1, ">= 1"),
    "c": (lambda v: v > 0, "positive"),
    "n_filters": (lambda v: v >= 1, ">= 1"),
    "kernel_size": (lambda v: v >= 1 and v % 2 == 1, "odd and positive"),
}


def check_setting(name: str, value):
    """``value`` checked as the ``PipelineConfig`` field ``name``; the value to store.

    Raises ``ValueError`` naming the field. Integers come back as Python ints
    and numbers as Python floats, so a checked config always serializes.
    """
    if name in _CHOICES:
        if not isinstance(value, str) or value not in _CHOICES[name]:
            raise ValueError(f"{name} must be one of {', '.join(_CHOICES[name])}, got {value!r}")
        return value
    if _TYPES[name] == "int":
        value = check_int(value, name)
    elif _TYPES[name] == "float":
        value = check_float(value, name)
    elif not isinstance(value, bool):
        raise ValueError(f"{name} must hold true or false, got {value!r}")
    if name in _RANGES and not _RANGES[name][0](value):
        raise ValueError(f"{name} must be {_RANGES[name][1]}, got {value!r}")
    return value


@dataclass(frozen=True)
class TrainedModel:
    """Everything the on-line phase needs: the fitted stages."""

    preprocess: PreprocessParams
    featurizer: FeaturizerSpec | None  # None for the no-conv variant
    elm: elm_mod.ElmModel
    dataset: str = ""

    @property
    def n_aps(self) -> int:
        return self.elm.n_features if self.featurizer is None else self.featurizer.n_aps


def fit_pipeline(train: RadioMap, config: PipelineConfig, dataset: str = "") -> TrainedModel:
    return _fit_pipeline(train, config, dataset)[0]


def _fit_pipeline(
    train: RadioMap, config: PipelineConfig, dataset: str = ""
) -> tuple[TrainedModel, np.ndarray]:
    """``fit_pipeline`` plus the training activations H (see ``elm._train_elm``)."""
    params, fspec, x = _fit_stages(train, config)
    model, h = elm_mod._train_elm(x, train.label_pairs(), config.L, config.c, config.seed)
    if config.quantize:
        model = elm_mod.quantize(model)
    return TrainedModel(
        preprocess=params, featurizer=fspec, elm=model, dataset=dataset or train.name
    ), h


def _fit_stages(
    train: RadioMap, config: PipelineConfig
) -> tuple[PreprocessParams, FeaturizerSpec | None, np.ndarray]:
    """The stages before the ELM, fitted on ``train``, and the ELM's training input.

    The powed transform runs once: its output both fits the unit-norm stage
    and is normalized. The featurizer is None for ``elm_only``.
    """
    params = fit_powed(train, config.norm_mode)
    x = apply_powed(train, params)
    params = fit_unit_norm(x, params)
    x = apply_unit_norm(x, params)
    fspec = None
    if config.approach == "cnn_elm":
        fspec = init_featurizer(
            config.seed, train.n_aps, n_filters=config.n_filters, kernel_size=config.kernel_size
        )
        x = featurize(x, fspec)
    return params, fspec, x


def _apply_stages(
    rss: np.ndarray, params: PreprocessParams, fspec: FeaturizerSpec | None
) -> np.ndarray:
    """Raw RSS rows through the fitted stages: the ELM's input."""
    x = apply_preprocess(rss, params)
    return x if fspec is None else featurize(x, fspec)


def sweep_pipeline(train: RadioMap, config: PipelineConfig, step: int = 5) -> elm_mod.SweepResult:
    """Validation floor hits for L = step, 2*step, ..., up to ``config.L``.

    A stratified 10% of ``train`` (seeded with ``config.seed``) is held out;
    the stages are fitted on the rest exactly as ``fit_pipeline`` fits them,
    and ``elm.sweep_hidden`` scores each hidden size on the held-out rows.
    ``replace(config, L=result.best_L)`` is the configuration it selects.
    ``config.quantize`` is not read.
    """
    fit_rows, val = split_validation(train, fraction=0.1, seed=config.seed)
    params, fspec, x_tr = _fit_stages(fit_rows, config)
    x_val = _apply_stages(val.rss, params, fspec)
    p_tr, p_val = fit_rows.label_pairs(), val.label_pairs()
    del fit_rows, val  # the split is not held through the fits
    return elm_mod.sweep_hidden(
        x_tr, p_tr, x_val, p_val, config.c, config.L, step=step, seed=config.seed
    )


def predict_pipeline(
    data, model: TrainedModel, quantized: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(buildings, floors) for raw RSS rows (matrix or RadioMap)."""
    if isinstance(data, RadioMap):
        rss = data.rss  # validated on construction
    else:
        rss = np.asarray(data, dtype=np.float64)
        if rss.ndim != 2:
            raise ValueError(f"expected a 2-D RSS matrix, got shape {rss.shape}")
        check_rss(rss, "query matrix")
    if rss.shape[1] != model.n_aps:
        raise ValueError(f"model expects {model.n_aps} AP columns, input has {rss.shape[1]}")
    x = _apply_stages(rss, model.preprocess, model.featurizer)
    if quantized:
        return elm_mod.predict_quantized(x, model.elm)
    return elm_mod.predict(x, model.elm)


def save_model(model: TrainedModel, path) -> None:
    doc = {
        "format": _FORMAT,
        "dataset": model.dataset,
        "preprocess": params_to_dict(model.preprocess),
        "featurizer": None if model.featurizer is None else spec_to_dict(model.featurizer),
        "elm": elm_mod.model_to_dict(model.elm),
    }
    # json.dumps, not json.dump: only the one-shot encoder runs in C; it
    # writes the same bytes in about half the time.
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


# Model document sections and their parsers; "featurizer" may also be null.
# Only older files have "config", which repeats the other sections; it is checked and dropped.
_SECTIONS = {
    "preprocess": params_from_dict,
    "featurizer": spec_from_dict,
    "elm": elm_mod.model_from_dict,
    "config": lambda d: PipelineConfig(**d),
}


# Keys of older files. The powed exponent, the pooling window and stride and
# the conv bias were settings; each loads only at the value the stages now
# always use, and filter_bias must hold that zero once per filter. elm.L, the
# hidden size, must be the length of b.
_LEGACY_KEYS = {
    "config": {"exponent": EXPONENT, "pool_size": POOL, "pool_stride": POOL},
    "preprocess": {"exponent": EXPONENT},
    "featurizer": {"pool_size": POOL, "pool_stride": POOL, "filter_bias": 0.0},
    "elm": {"L": None},
}


def _drop_legacy_keys(name: str, section: dict) -> None:
    """Remove the legacy keys from the model file section ``name``, each checked first."""
    for key, fixed in _LEGACY_KEYS.get(name, {}).items():
        if key not in section:
            continue
        value = section.pop(key)
        if key == "filter_bias":
            if not isinstance(value, list):
                raise ValueError(f"{key} must hold a list of floats, got {value!r}")
            got = [check_float(v, key) for v in value]
            fixed = [fixed] * check_int(section["n_filters"], "n_filters")
        elif key == "L":
            got, fixed = check_int(value, key), check_array(section["b"], "b").size
        else:
            got = (check_float if isinstance(fixed, float) else check_int)(value, key)
        if got != fixed:
            raise ValueError(f"{key} is fixed at {fixed!r}, got {value!r}")


def load_model(path) -> TrainedModel:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a valid model file: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != _FORMAT:
        raise ValueError(f"{path}: unrecognized model format {fmt!r}")
    dataset = doc.get("dataset", "")
    if not isinstance(dataset, str):
        raise ValueError(f"{path}: model key 'dataset' must hold a string")
    parts = {}
    for key, parse in _SECTIONS.items():
        if key not in doc:
            if key == "config":
                continue
            raise ValueError(f"{path}: model document lacks key {key!r}")
        section = doc[key]
        if section is None and key == "featurizer":
            parts[key] = None
            continue
        if not isinstance(section, dict):
            raise ValueError(f"{path}: model key {key!r} must hold an object")
        try:
            _drop_legacy_keys(key, section)
            parts[key] = parse(section)
        except KeyError as exc:
            raise ValueError(f"{path}: model key {key!r} lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad value under model key {key!r}: {exc}") from None
    parts.pop("config", None)
    return TrainedModel(**parts, dataset=dataset)
