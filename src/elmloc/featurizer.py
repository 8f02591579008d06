"""Fixed (untrained) convolutional feature extractor.

A single randomly-initialized stage maps each n-AP fingerprint (one channel,
channel-last layout) to a shorter feature vector: bias-free 1-D convolution
(zero-padded "same", stride 1), absolute-value activation, average pooling
over non-overlapping windows of ``POOL`` positions, then flattening with the
pooled position as the major axis and the filter index as the minor one.
Filter weights are drawn once from uniform(-limit, limit) with
limit = sqrt(6 / (kernel_size + n_filters)), and nothing here is ever
trained; all the learning happens downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import check_finite, check_int

#: Average-pooling window, which is also its stride.
POOL = 2


@dataclass(frozen=True)
class FeaturizerSpec:
    """Architecture parameters and the realized weights.

    ``filters`` is (kernel_size, n_filters) — the singleton input-channel
    axis is dropped. ``n_aps`` is the input width the spec was drawn for.
    """

    n_filters: int
    kernel_size: int
    seed: int
    n_aps: int
    filters: np.ndarray

    def __post_init__(self):
        _check_shape(self.n_filters, self.kernel_size)
        filters = np.ascontiguousarray(self.filters, dtype=np.float64)
        if filters.shape != (self.kernel_size, self.n_filters):
            raise ValueError(
                f"filters must be ({self.kernel_size}, {self.n_filters}), got {filters.shape}"
            )
        check_finite(filters, "filters")
        filters.flags.writeable = False
        object.__setattr__(self, "filters", filters)


def _check_shape(n_filters: int, kernel_size: int) -> None:
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")
    if kernel_size < 1 or kernel_size % 2 == 0:
        # "same" padding keeps input/output aligned only for odd kernels
        raise ValueError(f"kernel_size must be odd and positive, got {kernel_size}")


def init_featurizer(
    seed: int, n_aps: int, n_filters: int = 2, kernel_size: int = 3
) -> FeaturizerSpec:
    """Build a spec with filters drawn deterministically from the seed."""
    _check_shape(n_filters, kernel_size)
    if n_aps < kernel_size:
        raise ValueError(f"kernel_size {kernel_size} exceeds the {n_aps} AP columns")
    limit = math.sqrt(6.0 / (kernel_size + n_filters))
    rng = np.random.default_rng(seed)
    filters = rng.uniform(-limit, limit, size=(kernel_size, n_filters))
    return FeaturizerSpec(
        n_filters=n_filters, kernel_size=kernel_size, seed=seed, n_aps=n_aps, filters=filters
    )


def _correlate(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Stride-1 'same' cross-correlation, zero-padded: a fresh (N, n, n_filters) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (N, n) input with n >= 1, got shape {x.shape}")
    if x.shape[1] != spec.n_aps:
        raise ValueError(f"spec initialized for {spec.n_aps} APs, input has {x.shape[1]}")
    rows, n = x.shape
    k = spec.kernel_size
    pad = (k - 1) // 2
    # Zero-padded copy and its read-only (N, n, k) window view, built directly:
    # np.pad and sliding_window_view cost tens of microseconds per call.
    padded = np.zeros((rows, n + 2 * pad))
    padded[:, pad : pad + n] = x
    row_step, col_step = padded.strides
    windows = as_strided(
        padded, shape=(rows, n, k), strides=(row_step, col_step, col_step), writeable=False
    )
    return windows @ spec.filters


def avg_pool1d_valid(x: np.ndarray) -> np.ndarray:
    """Average pooling along axis 1 of an (N, n, F) tensor; a partial last window is dropped."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (N, n, F) input, got shape {x.shape}")
    n = x.shape[1]
    if n < POOL:
        raise ValueError(f"input length {n} shorter than the pooling window {POOL}")
    stop = n - n % POOL  # one past the last full window
    # Adding 0.0 turns -0.0 into 0.0, as the mean's reduction from 0 did.
    total = x[:, :stop:POOL] + 0.0
    for offset in range(1, POOL):
        total += x[:, offset:stop:POOL]
    total /= POOL
    return total


def batch_flatten(x: np.ndarray) -> np.ndarray:
    """(N, P, F) -> (N, P*F), position-major with the filter index fastest."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected (N, P, F) input, got shape {x.shape}")
    return x.reshape(x.shape[0], -1)


def feature_width(n_aps: int, spec: FeaturizerSpec) -> int:
    """Flattened output width for an n-AP input (no data needed)."""
    if n_aps < POOL:
        raise ValueError(f"n_aps {n_aps} shorter than the pooling window {POOL}")
    return n_aps // POOL * spec.n_filters


def featurize(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Full fixed stage: conv -> |.| -> average pool -> flatten."""
    z = _correlate(x, spec)
    np.abs(z, out=z)  # in place: no (N, n, F) temporary
    return batch_flatten(avg_pool1d_valid(z))


def spec_to_dict(spec: FeaturizerSpec) -> dict:
    """The sizes and seed of ``spec``; raises ``ValueError`` if the filters are not
    the ones ``spec_from_dict`` redraws from them."""
    drawn = init_featurizer(spec.seed, spec.n_aps, spec.n_filters, spec.kernel_size)
    if not np.array_equal(drawn.filters, spec.filters):
        raise ValueError(f"filters are not the ones seed {spec.seed} draws")
    return {"n_filters": spec.n_filters, "kernel_size": spec.kernel_size, "seed": spec.seed}


def spec_from_dict(d: dict, n_aps: int) -> FeaturizerSpec:
    """The spec ``spec_to_dict`` wrote, drawn for ``n_aps`` input columns."""
    sizes = {key: check_int(d[key], key) for key in ("n_filters", "kernel_size", "seed")}
    return init_featurizer(sizes.pop("seed"), n_aps, **sizes)
