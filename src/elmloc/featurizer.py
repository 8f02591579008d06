"""Fixed (untrained) convolutional feature extractor.

A single randomly-initialized stage maps each n-AP fingerprint (one channel,
channel-last layout) to a shorter feature vector: bias-free 1-D convolution
(zero-padded "same", stride 1), absolute-value activation, average pooling
over non-overlapping windows of ``POOL`` positions, then flattening with the
pooled position as the major axis and the filter index as the minor one.
Filter weights are drawn from a seeded uniform(-limit, limit) with
limit = sqrt(6 / (kernel_size + n_filters)), and nothing here is ever
trained; all the learning happens downstream. A ``FeaturizerSpec`` holds
the sizes and the seed, and draws the filters on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: Average-pooling window, which is also its stride.
POOL = 2


@dataclass(frozen=True)
class FeaturizerSpec:
    """Architecture parameters and the seed the filters are drawn from.

    ``filters`` is (kernel_size, n_filters) — the singleton input-channel
    axis is dropped — drawn on first use, once per instance, and read-only.
    ``n_aps`` is the input width the spec was drawn for.
    """

    n_filters: int
    kernel_size: int
    seed: int
    n_aps: int

    def __post_init__(self):
        if self.n_filters < 1:
            raise ValueError("n_filters must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            # "same" padding keeps input/output aligned only for odd kernels
            raise ValueError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.n_aps < self.kernel_size:
            raise ValueError(f"kernel_size {self.kernel_size} exceeds the {self.n_aps} AP columns")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @cached_property
    def filters(self) -> np.ndarray:
        limit = math.sqrt(6.0 / (self.kernel_size + self.n_filters))
        rng = np.random.default_rng(self.seed)
        filters = rng.uniform(-limit, limit, size=(self.kernel_size, self.n_filters))
        filters.flags.writeable = False
        return filters


def init_featurizer(
    seed: int, n_aps: int, n_filters: int = 2, kernel_size: int = 3
) -> FeaturizerSpec:
    """A spec whose filters are drawn deterministically from the seed."""
    return FeaturizerSpec(n_filters=n_filters, kernel_size=kernel_size, seed=seed, n_aps=n_aps)


def _correlate(x: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Stride-1 'same' cross-correlation of (N, n) rows with (k, n_filters) filters,
    zero-padded: a fresh (N, n, n_filters) array."""
    rows, n = x.shape
    k = filters.shape[0]
    pad = (k - 1) // 2
    # Zero-padded copy and its read-only (N, n, k) window view, built directly:
    # np.pad and sliding_window_view cost tens of microseconds per call.
    padded = np.zeros((rows, n + 2 * pad))
    padded[:, pad : pad + n] = x
    row_step, col_step = padded.strides
    windows = as_strided(
        padded, shape=(rows, n, k), strides=(row_step, col_step, col_step), writeable=False
    )
    return windows @ filters


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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (N, n) input with n >= 1, got shape {x.shape}")
    if x.shape[1] != spec.n_aps:
        raise ValueError(f"spec initialized for {spec.n_aps} APs, input has {x.shape[1]}")
    z = _correlate(x, spec.filters)
    np.abs(z, out=z)  # in place: no (N, n, F) temporary
    return batch_flatten(avg_pool1d_valid(z))

