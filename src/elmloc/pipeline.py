"""End-to-end train/predict bundle: the one place the stages are composed.

``fit_pipeline`` runs the whole off-line phase — preprocessing fit, optional
fixed conv featurization, closed-form classifier fit — and returns a single
object that ``save_model``/``load_model`` round-trip through one JSON file,
written as ``elmloc-model-v3``, the one format ``load_model`` reads.
The on-line side (``predict_pipeline``) therefore needs only that artifact
plus raw RSS rows: stored preprocessing state and the seeds of the random
layers travel with the model. Its hidden layer multiplies only the weight
rows of the features a batch of queries holds nonzero, so a single
fingerprint pays for the access points it heard, and an int8 model keeps
no float copy of its hidden weights: a query dequantizes the rows it reads.
``sweep_pipeline`` scores a grid of hidden sizes on a validation split with
the same stages. The CLI and the benchmark call these three and do not
rebuild the stages themselves; ``elmloc train`` is one ``fit_pipeline`` call.

``PipelineConfig`` is the one place that knows what a valid setting is:
``check_setting`` checks each field, whether it comes from Python code or a
CLI config file. A trained model keeps no config: each setting is read from
the part that holds it.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import elm as elm_mod
from .dataset import RadioMap, check_float, check_int, split_validation
from .featurizer import FeaturizerSpec, feature_width, featurize, init_featurizer
from .preprocess import NORM_MODES, PreprocessParams, _fit_transform, _rss_of, _transform

_FORMAT = "elmloc-model-v3"

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
# The numeric fields' ranges: each maps a value to what it must be instead, or None.
_RANGES = {
    "L": lambda v: None if v >= 1 else ">= 1",
    "c": elm_mod.c_fault,
    "seed": lambda v: None if v >= 0 else ">= 0",
    "n_filters": lambda v: None if v >= 1 else ">= 1",
    "kernel_size": lambda v: None if v >= 1 and v % 2 == 1 else "odd and positive",
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
    fault = _RANGES[name](value) if name in _RANGES else None
    if fault:
        raise ValueError(f"{name} must be {fault}, got {value!r}")
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
    """Every stage fitted on ``train`` with ``config``; ``dataset`` defaults to its name."""
    params, fspec, x = _fit_stages(train, config)
    model = elm_mod.train_elm(x, train.label_pairs(), config.L, config.c, config.seed)
    if config.quantize:
        model = elm_mod.quantize(model)
    return TrainedModel(
        preprocess=params, featurizer=fspec, elm=model, dataset=dataset or train.name
    )


def _fit_stages(
    train: RadioMap, config: PipelineConfig
) -> tuple[PreprocessParams, FeaturizerSpec | None, np.ndarray]:
    """The stages before the ELM, fitted on ``train``, and the ELM's training input.

    A hidden layer of ``config.L`` neurons that ``elm.check_hidden_size``
    refuses is refused before any stage runs. The featurizer is None for
    ``elm_only``.
    """
    fspec, width = None, train.n_aps
    if config.approach == "cnn_elm":
        fspec = init_featurizer(
            config.seed, train.n_aps, n_filters=config.n_filters, kernel_size=config.kernel_size
        )
        width = feature_width(train.n_aps, fspec)
    elm_mod.check_hidden_size(width, config.L)
    params, x = _fit_transform(train, config.norm_mode)
    if fspec is not None:
        x = featurize(x, fspec)
    return params, fspec, x


def _apply_stages(
    rss: np.ndarray, params: PreprocessParams, fspec: FeaturizerSpec | None
) -> np.ndarray:
    """Checked raw RSS rows through the fitted stages: the ELM's input."""
    x = _transform(rss, params)
    return x if fspec is None else featurize(x, fspec)


def sweep_pipeline(train: RadioMap, config: PipelineConfig, step: int = 5) -> elm_mod.SweepResult:
    """Validation floor hits for L = step, 2*step, ..., up to ``config.L``.

    A stratified 10% of ``train`` (seeded with ``config.seed``) is held out;
    the stages are fitted on the rest exactly as ``fit_pipeline`` fits them,
    and ``elm.sweep_hidden`` scores each hidden size on the held-out rows.
    ``replace(config, L=result.best_L)`` is the configuration it selects.
    ``config.quantize`` is not read; a grid ``elm.check_grid`` refuses fails first.
    """
    elm_mod.check_grid(step, config.L)
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
    if quantized:
        elm_mod.check_quantized(model.elm)
    rss = _rss_of(data, "query matrix")
    if rss.shape[1] != model.n_aps:
        raise ValueError(f"model expects {model.n_aps} AP columns, input has {rss.shape[1]}")
    x = _apply_stages(rss, model.preprocess, model.featurizer)
    if quantized:
        return elm_mod.predict_quantized(x, model.elm)
    return elm_mod.predict(x, model.elm)


def _random_sha256(model: TrainedModel) -> str:
    """sha256 of n_aps as a little-endian int64, then of the seed-drawn arrays
    (w, b, then any filters) as little-endian float64."""
    digest = hashlib.sha256(int(model.n_aps).to_bytes(8, "little", signed=True))
    filters = [] if model.featurizer is None else [model.featurizer.filters]
    for arr in [model.elm.w, model.elm.b, *filters]:
        digest.update(np.ascontiguousarray(arr, dtype="<f8"))
    return digest.hexdigest()


def save_model(model: TrainedModel, path) -> None:
    """Write what ``model`` learned and its seeds: not w, b, the filters or the int8
    codes, which ``load_model`` rebuilds and checks against ``random_sha256``. The bytes
    depend on the BLAS thread count (``beta`` differs in its last bits), the answers did
    not in any check; perfbench, and any comparison of model bytes, runs at one thread."""
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
        "random_sha256": _random_sha256(model),
    }
    # json.dumps, not json.dump: only the one-shot encoder runs in C; it
    # writes the same bytes in about half the time.
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


# The keys save_model writes: the document's (under None) and each section's.
_KEYS = {
    None: ("format", "dataset", "n_aps", "preprocess", "featurizer", "elm", "random_sha256"),
    "preprocess": ("min_rss", "mode", "feature_norms"),
    "featurizer": ("n_filters", "kernel_size", "seed"),
    "elm": ("codebook", "seed", "c", "beta", "quantized"),
}


def _check_keys(path: Path, doc: dict) -> None:
    """The document and each section hold exactly the keys ``save_model`` writes
    (the featurizer may be null); else ``ValueError`` naming the file, section and key."""
    for name, keys in _KEYS.items():
        part = doc if name is None else doc[name]
        where = "model document" if name is None else f"model key {name!r}"
        if part is None and name == "featurizer":
            continue
        if not isinstance(part, dict):
            raise ValueError(f"{path}: {where} must hold an object")
        for key in keys:
            if key not in part:
                raise ValueError(f"{path}: {where} lacks key {key!r}")
        for key in part:
            if key not in keys:
                raise ValueError(f"{path}: {where} holds unknown key {key!r}")


@contextmanager
def _section(path: Path, doc: dict, key: str):
    """``doc[key]``; errors in the block name the file and the key."""
    try:
        yield doc[key]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad value under model key {key!r}: {exc}") from None


def load_model(path) -> TrainedModel:
    """The model in an ``elmloc-model-v3`` file.

    Raises ``ValueError`` naming the file and the key of a value that cannot be
    served: another format, a key ``save_model`` does not write or a missing
    one, a hidden layer larger than ``elm.MAX_HIDDEN_WEIGHTS`` (before anything
    is drawn), or a ``random_sha256`` that n_aps and the rebuilt arrays do not
    match.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not a valid model file: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != _FORMAT:
        raise ValueError(f"{path}: unrecognized model format {fmt!r}")
    _check_keys(path, doc)
    if not isinstance(doc["dataset"], str):
        raise ValueError(f"{path}: model key 'dataset' must hold a string")
    with _section(path, doc, "n_aps") as n_aps:
        if check_int(n_aps, "n_aps") < 1:
            raise ValueError(f"n_aps must be >= 1, got {n_aps}")
    with _section(path, doc, "preprocess") as section:
        norms = section["feature_norms"]
        params = PreprocessParams(
            check_float(section["min_rss"], "min_rss"),
            section["mode"],
            norms,
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
        beta, seed = section["beta"], check_int(section["seed"], "seed")
        quantized = section["quantized"]
        if not isinstance(quantized, bool):
            raise ValueError(f"quantized must hold true or false, got {quantized!r}")
        pairs = np.array([[check_int(v, "codebook") for v in row] for row in section["codebook"]])
        c = check_float(section["c"], "c")
        elm = elm_mod.ElmModel(beta, c, elm_mod.ClassCodebook(pairs), seed, width, quantized)
    model = TrainedModel(params, featurizer, elm, dataset=doc["dataset"])
    if doc["random_sha256"] != _random_sha256(model):
        raise ValueError(
            f"{path}: model key 'random_sha256' does not match the file's n_aps and the w, b "
            f"and filters rebuilt from the seeds; numpy {np.__version__} may draw other random "
            "streams than the numpy that wrote the file"
        )
    return model
