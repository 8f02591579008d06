"""Nearest-fingerprint baseline classifier.

Brute-force 1-NN in Euclidean distance over the same preprocessed features
the learned model sees. Distance ties resolve to the lowest training-row
index. Distances are computed blockwise through the expansion
||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2 so the inner loop is a single GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Query rows processed per distance block (bounds peak memory).
_BLOCK = 256


@dataclass(frozen=True)
class KnnIndex:
    features: np.ndarray
    pairs: np.ndarray  # (building, floor) per training row

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        pairs = np.ascontiguousarray(self.pairs, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError(f"features must be a non-empty N x n matrix, got {feats.shape}")
        if pairs.shape != (feats.shape[0], 2):
            raise ValueError(f"pairs must be {feats.shape[0]} x 2, got {pairs.shape}")
        feats.flags.writeable = False
        pairs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_sq_norms", np.einsum("ij,ij->i", feats, feats))


def build_index(features: np.ndarray, pairs: np.ndarray) -> KnnIndex:
    return KnnIndex(features=features, pairs=pairs)


def classify_all(queries: np.ndarray, index: KnnIndex) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the nearest training row for each query row."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != index.features.shape[1]:
        raise ValueError(
            f"queries must be M x {index.features.shape[1]}, got shape {q.shape}"
        )
    train_sq = index._sq_norms
    nearest = np.empty(q.shape[0], dtype=np.int64)
    for start in range(0, q.shape[0], _BLOCK):
        block = q[start : start + _BLOCK]
        # squared distances up to the constant ||q||^2, which argmin ignores;
        # in place, bitwise train_sq - 2.0 * (block @ F.T): scaling by -2 is
        # exact and a - y == a + (-y)
        d2 = block @ index.features.T
        d2 *= -2.0
        d2 += train_sq
        nearest[start : start + _BLOCK] = np.argmin(d2, axis=1)
    return index.pairs[nearest, 0].copy(), index.pairs[nearest, 1].copy()

