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
``PreprocessParams`` and the input matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import NOT_DETECTED, RadioMap, check_finite

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


def _rss_of(data) -> np.ndarray:
    if isinstance(data, RadioMap):
        return data.rss
    return np.asarray(data, dtype=np.float64)


def fit_powed(train, mode: str = "per_feature") -> PreprocessParams:
    """First-stage fit: record the weakest detected training reading."""
    rss = _rss_of(train)
    detected = rss[rss != NOT_DETECTED]
    if detected.size == 0:
        raise ValueError("training data has no detected readings; cannot fit")
    return PreprocessParams(min_rss=float(detected.min()), mode=mode)


def apply_powed(data, params: PreprocessParams) -> np.ndarray:
    """Powed representation of an RSS matrix; output in [0, 1]."""
    rss = _rss_of(data)
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


def fit_unit_norm(powed_train: np.ndarray, params: PreprocessParams) -> PreprocessParams:
    """Second-stage fit: per-column norms (a no-op in per_sample mode)."""
    if params.mode == "per_sample":
        return params
    feats = np.asarray(powed_train, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError(f"powed training matrix must be non-empty 2-D, got {feats.shape}")
    return replace(params, feature_norms=np.linalg.norm(feats, axis=0))


def apply_unit_norm(powed: np.ndarray, params: PreprocessParams) -> np.ndarray:
    feats = np.asarray(powed, dtype=np.float64)
    if params.mode == "per_sample":
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return feats / norms
    if params.feature_norms is None:
        raise ValueError("per_feature mode requires fitted feature_norms")
    if params.feature_norms.shape[0] != feats.shape[1]:
        raise ValueError(
            f"norms fitted for {params.feature_norms.shape[0]} features, "
            f"input has {feats.shape[1]}"
        )
    divisors = np.where(params.feature_norms == 0.0, 1.0, params.feature_norms)
    return feats / divisors


def fit_preprocess(train, mode: str = "per_feature") -> PreprocessParams:
    """Fit both stages on a training radio map (or raw RSS matrix)."""
    params = fit_powed(train, mode)
    return fit_unit_norm(apply_powed(train, params), params)


def apply_preprocess(data, params: PreprocessParams) -> np.ndarray:
    return apply_unit_norm(apply_powed(data, params), params)

