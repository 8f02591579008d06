"""Fixed (untrained) convolutional feature extractor.

A single randomly-initialized stage maps each n-AP fingerprint (one channel,
channel-last layout) to a shorter feature vector: bias-free 1-D convolution
(zero-padded "same", stride 1), absolute-value activation, average pooling
over non-overlapping windows of ``POOL`` positions, then flattening with the
pooled position as the major axis and the filter index as the minor one.
Filter weights are drawn from a seeded uniform(-limit, limit) with
limit = sqrt(6 / (kernel_size + n_filters)), and nothing here is ever
trained; all the learning happens downstream. A ``FeaturizerSpec`` holds
the sizes and the seed, and draws the filters on first use. ``featurize``
is the one implementation of the stage: it pools each block of rows
directly into its output, whose row-major layout is the flattening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import feature_matrix, frozen

#: Average-pooling window, which is also its stride.
POOL = 2

#: Rows ``featurize`` runs through the conv, |.| and pool at a time. Rows are
#: independent, so the output is bitwise the one-shot stage's; the padded copy
#: and the (rows, n, n_filters) intermediate exist for one block only.
BLOCK_ROWS = 1024


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
        return frozen(rng.uniform(-limit, limit, size=(self.kernel_size, self.n_filters)))


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


def feature_width(n_aps: int, spec: FeaturizerSpec) -> int:
    """Flattened output width for an n-AP input (no data needed)."""
    if n_aps < POOL:
        raise ValueError(f"n_aps {n_aps} shorter than the pooling window {POOL}")
    return n_aps // POOL * spec.n_filters


def featurize(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Full fixed stage: conv -> |.| -> average pool -> flatten, a fresh (N, F) matrix.

    The stage runs over blocks of ``BLOCK_ROWS`` rows. Each block's pooled
    |conv| is summed straight into the block's rows of the output, viewed as
    (rows, P, F), so besides its input and output only one block's
    temporaries are live.
    """
    x = feature_matrix(x, "x", width=spec.n_aps)
    out = np.empty((x.shape[0], feature_width(x.shape[1], spec)))
    n_pooled = x.shape[1] // POOL
    stop = n_pooled * POOL  # one past the last full window; a partial one is dropped
    for start in range(0, x.shape[0], BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        z = _correlate(x[rows], spec.filters)
        np.abs(z, out=z)  # in place: no second (rows, n, F) temporary
        # The block's rows of the output as (rows, P, F): flattening is this view.
        pooled = out[rows].reshape(z.shape[0], n_pooled, spec.n_filters)
        pooled[...] = z[:, :stop:POOL]
        for offset in range(1, POOL):
            pooled += z[:, offset:stop:POOL]
        pooled /= POOL
        del z  # freed before the next block's conv, not after it
    return out

