"""Fixed (untrained) convolutional feature extractor.

A single randomly-initialized stage maps each n-AP fingerprint (one channel,
channel-last layout) to a shorter feature vector: 1-D convolution
(zero-padded "same", stride 1), absolute-value activation, valid average
pooling, then flattening with the pooled position as the major axis and the
filter index as the minor one. Filter weights are drawn once from
uniform(-limit, limit) with limit = sqrt(6 / (kernel_size + n_filters)),
bias starts (and stays) zero, and nothing here is ever trained; all the
learning happens downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import check_int


@dataclass(frozen=True)
class FeaturizerSpec:
    """Architecture parameters plus, once initialized, the realized weights.

    ``filters`` is (kernel_size, n_filters) — the singleton input-channel
    axis is dropped. A spec with filters=None describes the architecture
    only and cannot featurize yet.
    """

    n_filters: int = 2
    kernel_size: int = 3
    pool_size: int = 2
    pool_stride: int = 2
    seed: int = 0
    n_aps: int | None = None
    filters: np.ndarray | None = None
    filter_bias: np.ndarray | None = None

    def __post_init__(self):
        if self.n_filters < 1:
            raise ValueError("n_filters must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            # "same" padding keeps input/output aligned only for odd kernels
            raise ValueError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.pool_size < 1 or self.pool_stride < 1:
            raise ValueError("pool_size and pool_stride must be >= 1")
        if self.filters is not None:
            filters = np.ascontiguousarray(self.filters, dtype=np.float64)
            if filters.shape != (self.kernel_size, self.n_filters):
                raise ValueError(
                    f"filters must be ({self.kernel_size}, {self.n_filters}), "
                    f"got {filters.shape}"
                )
            bias = self.filter_bias
            bias = np.zeros(self.n_filters) if bias is None else np.ascontiguousarray(
                bias, dtype=np.float64
            )
            if bias.shape != (self.n_filters,):
                raise ValueError(f"filter_bias must have length {self.n_filters}")
            filters.flags.writeable = False
            bias.flags.writeable = False
            object.__setattr__(self, "filters", filters)
            object.__setattr__(self, "filter_bias", bias)

    @property
    def realized(self) -> bool:
        return self.filters is not None


def init_featurizer(seed: int, n_aps: int, **overrides) -> FeaturizerSpec:
    """Build a spec with filters drawn deterministically from the seed.

    Overrides may set any architecture field, or supply ``filters`` (and
    ``filter_bias``) outright to bypass the random draw.
    """
    arch = FeaturizerSpec(
        n_filters=overrides.pop("n_filters", 2),
        kernel_size=overrides.pop("kernel_size", 3),
        pool_size=overrides.pop("pool_size", 2),
        pool_stride=overrides.pop("pool_stride", 2),
    )
    filters = overrides.pop("filters", None)
    filter_bias = overrides.pop("filter_bias", None)
    if overrides:
        raise TypeError(f"unknown overrides: {sorted(overrides)}")
    if n_aps < arch.kernel_size:
        raise ValueError(f"kernel_size {arch.kernel_size} exceeds the {n_aps} AP columns")
    if filters is None:
        limit = math.sqrt(6.0 / (arch.kernel_size + arch.n_filters))
        rng = np.random.default_rng(seed)
        filters = rng.uniform(-limit, limit, size=(arch.kernel_size, arch.n_filters))
    return FeaturizerSpec(
        n_filters=arch.n_filters,
        kernel_size=arch.kernel_size,
        pool_size=arch.pool_size,
        pool_stride=arch.pool_stride,
        seed=seed,
        n_aps=n_aps,
        filters=filters,
        filter_bias=filter_bias,
    )


def _require_realized(spec: FeaturizerSpec):
    if not spec.realized:
        raise ValueError("spec has no filters; call init_featurizer first")


def _correlate(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Bias-free 'same' cross-correlation: a fresh (N, n, n_filters) array."""
    _require_realized(spec)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (N, n) input with n >= 1, got shape {x.shape}")
    if spec.n_aps is not None and x.shape[1] != spec.n_aps:
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


def conv1d_same(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Stride-1 cross-correlation with zero 'same' padding: (N, n, n_filters)."""
    return _correlate(x, spec) + spec.filter_bias


def avg_pool1d_valid(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Valid average pooling along axis 1 of an (N, n, F) tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (N, n, F) input, got shape {x.shape}")
    n = x.shape[1]
    if n < spec.pool_size:
        raise ValueError(f"input length {n} shorter than pool_size {spec.pool_size}")
    p, s = spec.pool_size, spec.pool_stride
    stop = (n - p) // s * s + 1  # one past the last window start
    # Adding 0.0 turns -0.0 into 0.0, as the mean's reduction from 0 did.
    total = x[:, :stop:s] + 0.0
    for offset in range(1, p):
        total += x[:, offset : offset + stop : s]
    total /= p
    return total


def batch_flatten(x: np.ndarray) -> np.ndarray:
    """(N, P, F) -> (N, P*F), position-major with the filter index fastest."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected (N, P, F) input, got shape {x.shape}")
    return x.reshape(x.shape[0], -1)


def feature_width(n_aps: int, spec: FeaturizerSpec) -> int:
    """Flattened output width for an n-AP input (no data needed)."""
    if n_aps < spec.pool_size:
        raise ValueError(f"n_aps {n_aps} shorter than pool_size {spec.pool_size}")
    pooled = (n_aps - spec.pool_size) // spec.pool_stride + 1
    return pooled * spec.n_filters


def featurize(x: np.ndarray, spec: FeaturizerSpec) -> np.ndarray:
    """Full fixed stage: conv -> |.| -> average pool -> flatten."""
    z = _correlate(x, spec)
    z += spec.filter_bias  # bias and |.| in place: no (N, n, F) temporaries
    np.abs(z, out=z)
    return batch_flatten(avg_pool1d_valid(z, spec))


def spec_to_dict(spec: FeaturizerSpec) -> dict:
    _require_realized(spec)
    return {
        "n_filters": spec.n_filters,
        "kernel_size": spec.kernel_size,
        "pool_size": spec.pool_size,
        "pool_stride": spec.pool_stride,
        "seed": spec.seed,
        "n_aps": spec.n_aps,
        "filters": spec.filters.tolist(),
        "filter_bias": spec.filter_bias.tolist(),
    }


def spec_from_dict(d: dict) -> FeaturizerSpec:
    sizes = {
        key: check_int(d[key], key)
        for key in ("n_filters", "kernel_size", "pool_size", "pool_stride", "seed")
    }
    return FeaturizerSpec(
        **sizes,
        n_aps=None if d.get("n_aps") is None else check_int(d["n_aps"], "n_aps"),
        filters=np.asarray(d["filters"]),
        filter_bias=np.asarray(d["filter_bias"]),
    )
