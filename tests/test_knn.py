import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elmloc import knn


def nn_oracle(queries, features, pairs):
    """Exhaustive scan, squared distances accumulated elementwise."""
    out = np.empty((queries.shape[0], 2), dtype=np.int64)
    for qi, q in enumerate(queries):
        best, best_d = 0, np.inf
        for ti, row in enumerate(features):
            d = float(((q - row) ** 2).sum())
            if d < best_d:  # strict: ties keep the earlier row
                best, best_d = ti, d
        out[qi] = pairs[best]
    return out


class TestClassify:
    def test_matches_oracle(self, rng):
        feats = rng.normal(size=(80, 12))
        pairs = rng.integers(0, 4, size=(80, 2))
        queries = rng.normal(size=(30, 12))
        idx = knn.build_index(feats, pairs)
        b, f = knn.classify_all(queries, idx)
        assert (np.column_stack([b, f]) == nn_oracle(queries, feats, pairs)).all()

    def test_matches_oracle_across_block_boundary(self, rng):
        # more training rows than one GEMM block so several blocks merge
        n = knn._BLOCK * 2 + 17
        feats = rng.normal(size=(n, 5))
        pairs = rng.integers(0, 3, size=(n, 2))
        queries = rng.normal(size=(12, 5))
        idx = knn.build_index(feats, pairs)
        b, f = knn.classify_all(queries, idx)
        assert (np.column_stack([b, f]) == nn_oracle(queries, feats, pairs)).all()

    def test_exact_tie_takes_lowest_row(self):
        # (1,0) and (0,1) are both at distance 1 from the origin; integer
        # coordinates make the computed distances exactly equal
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        pairs = np.array([[7, 7], [8, 8]])
        idx = knn.build_index(feats, pairs)
        b, f = knn.classify_all(np.array([[0.0, 0.0]]), idx)
        assert (b[0], f[0]) == (7, 7)

    def test_tie_across_blocks_takes_lowest_row(self):
        # duplicate of row 0 placed in a later block must not displace it
        n = knn._BLOCK + 10
        feats = np.vstack([np.full((n, 2), 9.0)])
        feats[0] = [1.0, 0.0]
        feats[-1] = [1.0, 0.0]
        pairs = np.column_stack([np.arange(n), np.arange(n)])
        idx = knn.build_index(feats, pairs)
        b, f = knn.classify_all(np.array([[1.0, 0.0]]), idx)
        assert b[0] == 0

    def test_training_point_maps_to_itself(self, rng):
        feats = rng.normal(size=(40, 6))
        pairs = np.column_stack([np.arange(40) % 2, np.arange(40)])
        idx = knn.build_index(feats, pairs)
        b, f = knn.classify_all(feats[:10], idx)
        assert f.tolist() == list(range(10))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_oracle_property(self, seed):
        r = np.random.default_rng(seed)
        n, d = int(r.integers(2, 60)), int(r.integers(1, 8))
        feats = r.normal(size=(n, d))
        pairs = r.integers(0, 5, size=(n, 2))
        queries = r.normal(size=(5, d))
        idx = knn.build_index(feats, pairs)
        b, f = knn.classify_all(queries, idx)
        assert (np.column_stack([b, f]) == nn_oracle(queries, feats, pairs)).all()

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_answers_do_not_depend_on_block_size(self, rng, monkeypatch, block):
        feats = rng.normal(size=(60, 6))
        pairs = np.column_stack([np.arange(60) % 3, np.arange(60)])  # floor = row
        queries = rng.normal(size=(300, 6))
        # reference: every query in one block, distances out of place
        d2 = np.einsum("ij,ij->i", feats, feats) - 2.0 * (queries @ feats.T)
        nearest = np.argmin(d2, axis=1)
        monkeypatch.setattr(knn, "_BLOCK", block)
        b, f = knn.classify_all(queries, knn.build_index(feats, pairs))
        assert (b == pairs[nearest, 0]).all() and (f == nearest).all()

    def test_width_mismatch_rejected(self, rng):
        idx = knn.build_index(rng.normal(size=(10, 4)),
                              np.zeros((10, 2), dtype=int))
        with pytest.raises(ValueError):
            knn.classify_all(rng.normal(size=(2, 5)), idx)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            knn.build_index(np.zeros((0, 4)), np.zeros((0, 2), dtype=int))

    def test_pairs_short_rejected(self):
        with pytest.raises(ValueError, match=r"^pairs must be 3 x 2, got \(2, 2\)$"):
            knn.build_index(np.zeros((3, 4)), np.zeros((2, 2), dtype=int))
