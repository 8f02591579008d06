import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elmloc import knn
from elmloc.preprocess import _fit_transform, apply_preprocess


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
        # integer-array indexing makes new arrays: the answers share nothing with the index
        assert not np.shares_memory(b, idx.pairs) and not np.shares_memory(f, idx.pairs)

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


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_features_refused(self, rng, bad):
        # a map row holding NaN used to win every query
        feats = rng.normal(size=(6, 3))
        feats[2, 1] = bad
        with pytest.raises(ValueError, match=r"^features contains non-finite values$"):
            knn.build_index(feats, np.zeros((6, 2), dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_queries_refused(self, rng, bad):
        # a NaN query used to answer row 0's label, an inf query row 1's
        idx = knn.build_index(rng.normal(size=(6, 3)), np.zeros((6, 2), dtype=int))
        queries = rng.normal(size=(4, 3))
        queries[3, 0] = bad
        with pytest.raises(ValueError, match=r"^queries contains non-finite values$"):
            knn.classify_all(queries, idx)


def _sparse(r, shape, density):
    """Non-negative cells, zero outside ``density``; eighths, so every
    product and sum below is exact and both paths see the same distances."""
    return np.where(r.random(shape) < density, r.integers(1, 9, size=shape) / 8.0, 0.0)


class TestPostingLists:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_paths_match_oracle(self, seed):
        r = np.random.default_rng(seed)
        n, d = int(r.integers(2, 40)), int(r.integers(1, 9))
        density = float(r.uniform(0.05, 0.6))
        feats = _sparse(r, (n, d), density)
        # planted duplicates after their originals: exact ties, lowest row wins
        feats = np.vstack([feats, feats[r.integers(0, n, size=int(r.integers(1, 4)))]])
        one_ap = np.zeros((1, d))
        one_ap[0, r.integers(0, d)] = r.integers(1, 9) / 8.0
        queries = np.vstack([
            _sparse(r, (int(r.integers(0, 6)), d), density),
            np.zeros((1, d)),  # all silent
            one_ap,
            feats[-1:],  # a duplicated row: distance 0 to it and to its original
        ])
        pairs = np.column_stack([np.arange(len(feats)) % 3, np.arange(len(feats))])
        idx = knn.build_index(feats, pairs)
        want = nn_oracle(queries, feats, pairs)[:, 1]
        assert knn._nearest_postings(queries, idx).tolist() == want.tolist()
        assert knn._nearest_gemm(queries, idx).tolist() == want.tolist()
        b, f = knn.classify_all(queries, idx)
        assert f.tolist() == want.tolist()
        # an all-silent query answers argmin(train_sq)
        assert want[-3] == np.argmin((feats ** 2).sum(axis=1))

    def test_query_hearing_only_unheard_columns(self):
        # column 1 is silent in every row, so the query shares nothing with
        # the map: dot 0 everywhere, the answer is the smallest-norm row
        feats = np.array([[3.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        idx = knn.build_index(feats, np.column_stack([np.zeros(4, int), np.arange(4)]))
        queries = np.array([[0.0, 5.0], [0.0, 0.0]])
        assert knn._nearest_postings(queries, idx).tolist() == [1, 1]
        assert knn._nearest_gemm(queries, idx).tolist() == [1, 1]

    def test_posting_lists_hold_each_columns_rows(self, rng):
        feats = _sparse(rng, (30, 5), 0.3)
        idx = knn.build_index(feats, np.zeros((30, 2), dtype=int))
        for j in range(5):
            rows = np.flatnonzero(feats[:, j])
            assert idx._rows[j].tolist() == rows.tolist()
            assert idx._values[j].tolist() == feats[rows, j].tolist()
        assert idx._counts.tolist() == np.count_nonzero(feats, axis=0).tolist()

    def test_selection(self, rng, syn_full):
        train, test = syn_full
        params, x_map = _fit_transform(train, "per_feature")
        x_test = apply_preprocess(test, params)
        # SYN1 hears about 21% of its cells: the GEMM
        assert not knn._use_postings(x_test, knn.build_index(x_map, train.label_pairs()))
        # the same map and queries thinned to about 4%, as on UJI1-shaped data
        keep = 0.04 / float(np.mean(x_map != 0))
        thin_map = np.where(rng.random(x_map.shape) < keep, x_map, 0.0)
        thin_test = np.where(rng.random(x_test.shape) < keep, x_test, 0.0)
        assert knn._use_postings(thin_test, knn.build_index(thin_map, train.label_pairs()))
        # dense Gaussian data: the GEMM
        dense = knn.build_index(rng.normal(size=(500, 40)), np.zeros((500, 2), dtype=int))
        assert not knn._use_postings(rng.normal(size=(50, 40)), dense)
