"""Nearest-fingerprint baseline classifier.

Exact 1-NN in Euclidean distance over the same preprocessed features the
learned model sees, through the expansion
||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2: ``argmin(train_sq - 2 * dot)`` per
query, where ``||q||^2`` is constant per query and dropped.

The dot products come from one of two paths, chosen per ``classify_all``
call from counts the index already holds:

* **Posting lists.** ``build_index`` keeps, for each feature column (an AP
  after preprocessing), the training rows where it is nonzero and their
  values. A query's dot products are summed from the lists of only the
  columns it heard, with one ``np.bincount(rows, weights, minlength=N)``;
  a row sharing no column keeps dot 0. Its work is
  ``sum_j nnz_Q(j) * nnz_F(j)`` products.
* **Blocked GEMM.** ``_BLOCK`` query rows at a time, one ``block @ F.T``;
  ``M * N * d`` multiply-adds.

Posting lists are taken when their work is below ``_POSTING_SHARE`` = 0.008
of the GEMM's, just under the measured crossover of about 0.0085 (UJI1
shape) to 0.011 (SYN1 shape). A 4%-dense UJI1-shaped map (share about
0.0016) takes them; a 21%-dense SYN1 map (about 0.044) and dense data take
the GEMM.

Ties resolve to the lowest training-row index on both paths (``argmin``
keeps the first minimum). Duplicate rows get bitwise equal distances on
either path, so the earliest one wins. An all-silent query has dot 0 with
every row and answers ``argmin(train_sq)``. The two paths sum products in
different orders, so a near-tie may break differently between them.
Non-finite features and queries are refused, naming them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_finite

#: Query rows processed per GEMM distance block (bounds peak memory).
_BLOCK = 256

#: Posting lists answer when their work (products summed) is below this share
#: of the GEMM's multiply-adds. Measured on a 2-core x86-64 box, one BLAS
#: thread, by thinning both shapes' detections: the two paths took equal time
#: at a work share of about 0.0085 on the UJI1 shape (19861 x 520, 1111
#: queries) and about 0.011 on the SYN1 shape (6000 x 100, 1000 queries).
#: Below the lower crossover, so a share near it keeps the GEMM.
_POSTING_SHARE = 0.008


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
        # posting lists: the nonzero cells in column-major order (a stable
        # sort of the row-major ones by column), so rows ascend within a list
        d = feats.shape[1]
        cells = np.flatnonzero(feats != 0.0)
        cols = cells % d
        cells = cells[np.argsort(cols.astype(np.min_scalar_type(d)), kind="stable")]
        values = feats.ravel()[cells]
        # NaN and infinities are nonzero, so every non-finite cell is here
        check_finite(values, "features")
        counts = np.bincount(cols, minlength=d)
        cuts = np.cumsum(counts)[:-1]
        feats.flags.writeable = False
        pairs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_sq_norms", np.einsum("ij,ij->i", feats, feats))
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_rows", np.split(cells // d, cuts))
        object.__setattr__(self, "_values", np.split(values, cuts))


def build_index(features: np.ndarray, pairs: np.ndarray) -> KnnIndex:
    return KnnIndex(features=features, pairs=pairs)


def classify_all(queries: np.ndarray, index: KnnIndex) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the nearest training row for each query row."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != index.features.shape[1]:
        raise ValueError(
            f"queries must be M x {index.features.shape[1]}, got shape {q.shape}"
        )
    check_finite(q, "queries")
    nearest = _nearest_postings(q, index) if _use_postings(q, index) else _nearest_gemm(q, index)
    return index.pairs[nearest, 0], index.pairs[nearest, 1]


def _use_postings(q: np.ndarray, index: KnnIndex) -> bool:
    """Whether the posting lists' work is below ``_POSTING_SHARE`` of the GEMM's."""
    work = float(np.count_nonzero(q, axis=0) @ index._counts)
    return work < _POSTING_SHARE * q.size * index.features.shape[0]


def _nearest_gemm(q: np.ndarray, index: KnnIndex) -> np.ndarray:
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
    return nearest


def _nearest_postings(q: np.ndarray, index: KnnIndex) -> np.ndarray:
    train_sq = index._sq_norms
    n = train_sq.shape[0]
    qrows, cols = np.nonzero(q)  # row-major: each query's columns ascend
    weights = q[qrows, cols]
    lengths = index._counts[cols]
    bounds = np.searchsorted(qrows, np.arange(q.shape[0] + 1))
    # one pair of gather buffers, as long as the longest query's lists
    totals = np.bincount(qrows, lengths, minlength=q.shape[0]).astype(np.int64)
    size = int(totals.max(initial=0))
    rows_buf, products_buf = np.empty(size, dtype=np.intp), np.empty(size)
    silent = np.argmin(train_sq)
    nearest = np.empty(q.shape[0], dtype=np.int64)
    for i in range(q.shape[0]):
        # a query sharing no column with any row (all silent, say) has dot 0
        # with every row; bincount of nothing would also come back as ints
        if totals[i] == 0:
            nearest[i] = silent
            continue
        lo, hi = bounds[i], bounds[i + 1]
        heard = cols[lo:hi].tolist()
        rows = np.concatenate([index._rows[j] for j in heard], out=rows_buf[: totals[i]])
        products = np.concatenate([index._values[j] for j in heard], out=products_buf[: totals[i]])
        products *= np.repeat(weights[lo:hi], lengths[lo:hi])
        d2 = np.bincount(rows, products, minlength=n)
        d2 *= -2.0
        d2 += train_sq
        nearest[i] = np.argmin(d2)
    return nearest
