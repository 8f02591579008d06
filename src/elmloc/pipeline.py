"""End-to-end train/predict bundle: the one place the stages are composed.

``fit_pipeline`` runs the whole off-line phase — preprocessing fit, optional
fixed conv featurization, closed-form classifier fit — and returns a single
object that ``save_model``/``load_model`` round-trip through one JSON file.
The on-line side (``predict_pipeline``) therefore needs only that artifact
plus raw RSS rows: stored preprocessing state and the seeds of the random
layers travel with the model. ``sweep_pipeline`` scores a grid of hidden
sizes on a validation split with the same stages. The CLI and the benchmark
call these three.

``PipelineConfig`` is the one place that knows what a valid setting is:
``check_setting`` checks each field, whether it comes from Python code, a
CLI config file or an older model file's ``config`` section. A trained model
keeps no config: each setting is read from the part that holds it.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import elm as elm_mod
from .dataset import RadioMap, check_array, check_float, check_int, check_rss, split_validation
from .featurizer import POOL, FeaturizerSpec, feature_width, featurize, init_featurizer
from .preprocess import (
    EXPONENT,
    NORM_MODES,
    PreprocessParams,
    apply_powed,
    apply_preprocess,
    apply_unit_norm,
    fit_powed,
    fit_unit_norm,
)

_FORMAT = "elmloc-model-v2"
_V1 = "elmloc-model-v1"  # still read: its copies of what is now rebuilt are checked, then dropped

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
    "seed": (lambda v: v >= 0, ">= 0"),
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


def _random_sha256(arrays) -> str:
    """sha256 of the seed-drawn arrays (w, b, then any filters), as little-endian float64."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype="<f8"))
    return digest.hexdigest()


def _seed_drawn(model: TrainedModel) -> list:
    filters = [] if model.featurizer is None else [model.featurizer.filters]
    return [model.elm.w, model.elm.b, *filters]


def save_model(model: TrainedModel, path) -> None:
    """Write what ``model`` learned and its seeds: not w, b, the filters or the int8
    copies, which ``load_model`` rebuilds and checks against ``random_sha256``."""
    params, spec, elm = model.preprocess, model.featurizer, model.elm
    norms = params.feature_norms
    doc = {
        "format": _FORMAT,
        "dataset": model.dataset,
        "n_aps": model.n_aps,
        "preprocess": {
            "min_rss": params.min_rss,
            "mode": params.mode,
            "feature_norms": None if norms is None else norms.tolist(),
        },
        "featurizer": None if spec is None else {
            "n_filters": spec.n_filters, "kernel_size": spec.kernel_size, "seed": spec.seed
        },
        "elm": {
            "codebook": elm.codebook.pairs.tolist(),
            "seed": elm.seed,
            "c": elm.c,
            "beta": elm.beta.tolist(),
            "quantized": elm.int8,
        },
        "random_sha256": _random_sha256(_seed_drawn(model)),
    }
    # json.dumps, not json.dump: only the one-shot encoder runs in C; it
    # writes the same bytes in about half the time.
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


# Keys of older files. The powed exponent, the pooling window and stride and
# the conv bias were settings; each loads only at the value the stages now
# always use, and filter_bias must hold that zero once per filter. elm.L, the
# hidden size, must be the length of beta.
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
            got, fixed = check_int(value, key), len(check_array(section["beta"], "beta"))
        else:
            got = (check_float if isinstance(fixed, float) else check_int)(value, key)
        if got != fixed:
            raise ValueError(f"{key} is fixed at {fixed!r}, got {value!r}")


@contextmanager
def _section(path: Path, doc: dict, key: str):
    """``doc[key]``, legacy keys checked and dropped; errors in the block name the file and key."""
    try:
        if isinstance(doc[key], dict):
            _drop_legacy_keys(key, doc[key])
        yield doc[key]
    except KeyError as exc:
        raise ValueError(f"{path}: model key {key!r} lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad value under model key {key!r}: {exc}") from None


def _upgrade_v1(path: Path, doc: dict):
    """Make a v1 document a v2 one; return its int8 copies (an object, or None).

    The digest of v1's w, b and filters becomes ``random_sha256``, so they load
    only if the seeds rebuild them bitwise. The input width was
    ``featurizer.n_aps``, or without a conv stage the row count of w.
    """
    with _section(path, doc, "elm") as elm:
        arrays = [check_array(elm.pop("w"), "w"), check_array(elm.pop("b"), "b")]
        doc["n_aps"] = len(arrays[0])
        int8 = elm.get("quantized")
        elm["quantized"] = int8 is not None
    if doc["featurizer"] is not None:
        with _section(path, doc, "featurizer") as featurizer:
            arrays.append(check_array(featurizer.pop("filters"), "filters"))
            doc["n_aps"] = check_int(featurizer.pop("n_aps"), "n_aps")
    doc["random_sha256"] = _random_sha256(arrays)
    return int8


def load_model(path) -> TrainedModel:
    """The model in an ``elmloc-model-v2`` file, or in an older ``-v1`` one.

    Raises ``ValueError`` naming the file and the key of a value that cannot be
    served, including a ``random_sha256`` that the rebuilt arrays do not match.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not a valid model file: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in (_FORMAT, _V1):
        raise ValueError(f"{path}: unrecognized model format {fmt!r}")
    if not isinstance(doc.get("dataset", ""), str):
        raise ValueError(f"{path}: model key 'dataset' must hold a string")
    sections = ("preprocess", "featurizer", "elm")
    for key in sections + (("n_aps", "random_sha256") if fmt == _FORMAT else ()):
        if key not in doc:
            raise ValueError(f"{path}: model document lacks key {key!r}")
    for key in sections + ("config",):
        section = doc.get(key, {})
        if not (isinstance(section, dict) or key == "featurizer" and section is None):
            raise ValueError(f"{path}: model key {key!r} must hold an object")
    # config, the settings older files stored next to the parts, is checked and dropped
    if "config" in doc:
        with _section(path, doc, "config") as config:
            PipelineConfig(**config)
    int8 = _upgrade_v1(path, doc) if fmt == _V1 else None
    with _section(path, doc, "n_aps") as n_aps:
        if check_int(n_aps, "n_aps") < 1:
            raise ValueError(f"n_aps must be >= 1, got {n_aps}")
    with _section(path, doc, "preprocess") as section:
        norms = section.get("feature_norms")
        params = PreprocessParams(
            check_float(section["min_rss"], "min_rss"),
            section["mode"],
            None if norms is None else check_array(norms, "feature_norms"),
        )
        if params.mode == "per_feature" and (norms is None or len(norms) != n_aps):
            got = None if norms is None else len(norms)
            raise ValueError(f"feature_norms must hold n_aps = {n_aps} norms, got {got}")
    with _section(path, doc, "featurizer") as section:
        featurizer = None if section is None else FeaturizerSpec(
            **{key: check_int(section[key], key) for key in ("n_filters", "kernel_size", "seed")},
            n_aps=n_aps,
        )
        width = n_aps if featurizer is None else feature_width(n_aps, featurizer)
    with _section(path, doc, "elm") as section:
        beta, seed = check_array(section["beta"], "beta"), check_int(section["seed"], "seed")
        quantized = section["quantized"]
        if not isinstance(quantized, bool):
            raise ValueError(f"quantized must hold true or false, got {quantized!r}")
        pairs = np.array([[check_int(v, "codebook") for v in row] for row in section["codebook"]])
        c = check_float(section["c"], "c")
        elm = elm_mod.ElmModel(beta, c, elm_mod.ClassCodebook(pairs), seed, width, quantized)
    model = TrainedModel(params, featurizer, elm, dataset=doc.get("dataset", ""))
    if doc["random_sha256"] != _random_sha256(_seed_drawn(model)):
        stored = ("model key 'random_sha256' does not match" if fmt == _FORMAT else
                  "the w, b and filters under model keys 'elm' and 'featurizer' differ from")
        raise ValueError(
            f"{path}: {stored} the w, b and filters rebuilt from the seeds; numpy "
            f"{np.__version__} may draw other random streams than the numpy that wrote the file"
        )
    if int8 is not None:  # a v1 file's int8 copies: the ones elm.quantize makes
        with _section(path, doc, "elm"):
            for field in fields(elm_mod.QuantizedWeights):
                got = check_array(int8[field.name], f"quantized {field.name}")
                if not np.array_equal(got, getattr(elm.quantized, field.name)):
                    raise ValueError(f"quantized {field.name} is not the one elm.quantize makes")
    return model
