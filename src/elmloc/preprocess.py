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
(checked when it was built) or a raw RSS matrix, which is checked with
``dataset.check_rss`` under the argument's name. One private fit,
``_fit_transform``, fits both stages and returns the training matrix passed
through them: the powed transform runs once, and the unit norm divides its
output in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import NOT_DETECTED, RadioMap, check_finite, check_rss

#: Powed exponent: the mathematical constant e.
EXPONENT = math.e

NORM_MODES = ("per_feature", "per_sample")


@dataclass(frozen=True)
class PreprocessParams:
    """Fitted transform state.

    ``feature_norms`` holds the raw training-column norms (zeros allowed for
    never-detected APs; the division guard lives in apply). It is None before
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
            norms = np.ascontiguousarray(self.feature_norms, dtype=np.float64)
            if norms.ndim != 1:
                raise ValueError("feature_norms must be a vector")
            check_finite(norms, "feature_norms")
            if norms.size and float(norms.min()) < 0:
                raise ValueError("feature_norms must be non-negative")
            norms.flags.writeable = False
            object.__setattr__(self, "feature_norms", norms)


def _rss_of(data, what: str) -> np.ndarray:
    """The RSS matrix of a ``RadioMap`` (checked when it was built), or a raw
    matrix checked with ``check_rss`` under the argument name ``what``."""
    if isinstance(data, RadioMap):
        return data.rss
    rss = np.asarray(data, dtype=np.float64)
    if rss.ndim != 2:
        raise ValueError(f"{what} must be a 2-D RSS matrix, got shape {rss.shape}")
    check_rss(rss, what)
    return rss


def fit_powed(train, mode: str = "per_feature") -> PreprocessParams:
    """First-stage fit: record the weakest detected training reading."""
    return _fit_powed(_rss_of(train, "train"), mode)


def _fit_powed(rss: np.ndarray, mode: str) -> PreprocessParams:
    detected = rss[rss != NOT_DETECTED]
    if detected.size == 0:
        raise ValueError("training data has no detected readings; cannot fit")
    return PreprocessParams(min_rss=float(detected.min()), mode=mode)


def apply_powed(data, params: PreprocessParams) -> np.ndarray:
    """Powed representation of an RSS matrix; output in [0, 1]."""
    return _powed(_rss_of(data, "data"), params)


def _powed(rss: np.ndarray, params: PreprocessParams) -> np.ndarray:
    # Only detected cells are transformed; on real radio maps they are a few
    # percent of the matrix.
    detected = rss != NOT_DETECTED
    base = (rss[detected] - params.min_rss) / (-params.min_rss)
    # Readings below the training minimum clamp to the floor rather than
    # raising a negative base to a fractional power.
    np.clip(base, 0.0, None, out=base)
    out = np.zeros(rss.shape)
    out[detected] = base**EXPONENT
    return out


def _unit_norm_in_place(feats: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """Divide a fresh float64 matrix by its norms, in place; returns it."""
    if params.mode == "per_sample":
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        feats /= norms
        return feats
    if params.feature_norms is None:
        raise ValueError("per_feature mode requires fitted feature_norms")
    if params.feature_norms.shape[0] != feats.shape[1]:
        raise ValueError(
            f"norms fitted for {params.feature_norms.shape[0]} features, "
            f"input has {feats.shape[1]}"
        )
    divisors = np.where(params.feature_norms == 0.0, 1.0, params.feature_norms)
    feats /= divisors
    return feats


def _fit_transform(train, mode: str) -> tuple[PreprocessParams, np.ndarray]:
    """Both stages fitted on ``train``, and ``train`` passed through them.

    The powed transform runs once: its output fits the norms and is then
    divided by them in place, bitwise what ``apply_preprocess`` returns for
    ``train``.
    """
    rss = _rss_of(train, "train")
    params = _fit_powed(rss, mode)
    x = _powed(rss, params)
    if mode == "per_feature":
        params = replace(params, feature_norms=np.linalg.norm(x, axis=0))
    return params, _unit_norm_in_place(x, params)


def _transform(rss: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """``apply_preprocess`` for an RSS matrix the caller has already checked."""
    return _unit_norm_in_place(_powed(rss, params), params)


def fit_preprocess(train, mode: str = "per_feature") -> PreprocessParams:
    """Fit both stages on a training radio map (or raw RSS matrix)."""
    return _fit_transform(train, mode)[0]


def apply_preprocess(data, params: PreprocessParams) -> np.ndarray:
    """Both fitted stages applied to a radio map (or raw RSS matrix)."""
    return _transform(_rss_of(data, "data"), params)
