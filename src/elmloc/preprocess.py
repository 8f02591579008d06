"""RSS-to-feature transforms fitted on training data only.

Two stages, applied in order:

1. Powed representation: map each detected reading x (negative dBm) to
   ((x - min) / (-min)) ** e where min is the weakest reading seen in the
   *training* radio map and e is Euler's number (``EXPONENT``, fixed as in
   Torres-Sospedra et al., Expert Syst. Appl. 2015). Not-detected entries stay
   exactly 0, and test readings below the training minimum clamp to 0, so
   every output lies in [0, 1] with "not detected" and "barely detected"
   both near zero.
2. Unit-norm scaling of the powed features, either per feature column
   (divide by the column's Euclidean norm over the training set; the
   default) or per sample row. Zero-norm columns/rows pass through.

Fitting never reads test data; applying is a pure function of the fitted
``PreprocessParams`` and the input matrix. Each function takes a ``RadioMap``
(checked when it was built) or a raw RSS matrix, which ``dataset.rss_matrix``
checks under the argument's name. One private fit,
``_fit_transform``, fits both stages and returns the training matrix passed
through them: the powed transform runs once.

The powed stage and the per-feature norm read and write only the detected
cells, through one flat index; the output matrix starts as zeros. Per-sample
mode divides the whole powed matrix by its row norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import NOT_DETECTED, RadioMap, check_array, check_finite, frozen, rss_matrix

#: Powed exponent: the mathematical constant e.
EXPONENT = math.e

NORM_MODES = ("per_feature", "per_sample")


@dataclass(frozen=True)
class PreprocessParams:
    """Fitted transform state.

    ``feature_norms`` holds the raw training-column norms (zeros allowed for
    never-detected APs, which ``_divisors`` maps to 1). It is None before
    the norm stage has been fitted, and always in per_sample mode.
    """

    min_rss: float
    mode: str = "per_feature"
    feature_norms: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in NORM_MODES:
            raise ValueError(f"mode must be one of {NORM_MODES}, got {self.mode!r}")
        if not self.min_rss < 0:
            raise ValueError(f"min_rss must be negative, got {self.min_rss}")
        if self.feature_norms is not None:
            if self.mode == "per_sample":
                raise ValueError("per_sample mode takes no feature_norms")
            norms = np.ascontiguousarray(check_array(self.feature_norms, "feature_norms"),
                                         dtype=np.float64)
            if norms.ndim != 1:
                raise ValueError("feature_norms must be a vector")
            check_finite(norms, "feature_norms")
            if norms.size and float(norms.min()) < 0:
                raise ValueError("feature_norms must be non-negative")
            object.__setattr__(self, "feature_norms", frozen(norms))

    @cached_property
    def _divisors(self) -> np.ndarray:
        """The per-feature divisors: ``feature_norms`` with zeros as 1, so a
        never-detected AP passes through. Built on first use, read-only."""
        return frozen(np.where(self.feature_norms == 0.0, 1.0, self.feature_norms))


def _rss_of(data, what: str) -> np.ndarray:
    """The RSS matrix of a ``RadioMap`` (checked when it was built), or a raw
    matrix checked by ``rss_matrix`` under the argument name ``what``."""
    return data.rss if isinstance(data, RadioMap) else rss_matrix(data, what)


def fit_powed(train, mode: str = "per_feature") -> PreprocessParams:
    """First-stage fit: record the weakest detected training reading."""
    return _fit_powed(_detected(_rss_of(train, "train"))[1], mode)


def _detected(rss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major indices of the detected cells of ``rss``, and their readings.

    On real radio maps these are a few percent of the matrix; the powed
    transform and the per-feature division read and write only them.
    """
    flat = np.ravel(rss)
    cells = (flat != NOT_DETECTED).nonzero()[0]
    return cells, flat[cells]


def _fit_powed(readings: np.ndarray, mode: str) -> PreprocessParams:
    if readings.size == 0:
        raise ValueError("training data has no detected readings; cannot fit")
    return PreprocessParams(min_rss=float(readings.min()), mode=mode)


def apply_powed(data, params: PreprocessParams) -> np.ndarray:
    """Powed representation of an RSS matrix; output in [0, 1]."""
    rss = _rss_of(data, "data")
    cells, readings = _detected(rss)
    return _scatter(rss.shape, cells, _powed(readings, params))


def _powed(readings: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """The powed values of detected readings."""
    base = (readings - params.min_rss) / (-params.min_rss)
    # Readings below the training minimum clamp to the floor rather than
    # raising a negative base to a fractional power.
    np.maximum(base, 0.0, out=base)
    return base**EXPONENT


def _scatter(shape: tuple[int, int], cells: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A zero matrix of ``shape`` holding ``values`` at the flat ``cells``."""
    out = np.zeros(shape)
    out.ravel()[cells] = values
    return out


def _per_sample(feats: np.ndarray) -> np.ndarray:
    """Divide a fresh float64 matrix by its row norms, in place; returns it."""
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    feats /= norms
    return feats


def _fit_transform(train, mode: str) -> tuple[PreprocessParams, np.ndarray]:
    """Both stages fitted on ``train``, and ``train`` passed through them.

    The powed transform runs once, on the detected cells: its output fits
    the norms and is then divided by them, bitwise what ``apply_preprocess``
    returns for ``train``.
    """
    rss = _rss_of(train, "train")
    cells, readings = _detected(rss)
    params = _fit_powed(readings, mode)
    values = _powed(readings, params)
    x = _scatter(rss.shape, cells, values)
    if mode == "per_sample":
        return params, _per_sample(x)
    params = replace(params, feature_norms=np.linalg.norm(x, axis=0))
    x.ravel()[cells] = _divided(values, cells, params)
    return params, x


def _divided(values: np.ndarray, cells: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """Powed values at flat ``cells`` divided by their columns' divisors, in place.

    Undetected cells hold 0, and 0 / divisor is 0, so dividing only the
    detected cells is bitwise the division of the whole matrix.
    """
    divisors = params._divisors
    values /= divisors[cells % divisors.shape[0]]
    return values


def _transform(rss: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """``apply_preprocess`` for an RSS matrix the caller has already checked."""
    cells, readings = _detected(rss)
    values = _powed(readings, params)
    if params.mode == "per_sample":
        return _per_sample(_scatter(rss.shape, cells, values))
    if params.feature_norms is None:
        raise ValueError("per_feature mode requires fitted feature_norms")
    if params.feature_norms.shape[0] != rss.shape[1]:
        raise ValueError(
            f"norms fitted for {params.feature_norms.shape[0]} features, "
            f"input has {rss.shape[1]}"
        )
    return _scatter(rss.shape, cells, _divided(values, cells, params))


def fit_preprocess(train, mode: str = "per_feature") -> PreprocessParams:
    """Fit both stages on a training radio map (or raw RSS matrix)."""
    return _fit_transform(train, mode)[0]


def apply_preprocess(data, params: PreprocessParams) -> np.ndarray:
    """Both fitted stages applied to a radio map (or raw RSS matrix)."""
    return _transform(_rss_of(data, "data"), params)
