import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from conftest import traced_peak
from elmloc.dataset import registry_lookup, registry_names
from elmloc.featurizer import (
    BLOCK_ROWS,
    POOL,
    FeaturizerSpec,
    _correlate,
    feature_width,
    featurize,
    init_featurizer,
)
from elmloc.pipeline import PipelineConfig, fit_pipeline, load_model, save_model


def _saved_conv_doc(train, path):
    """The document ``save_model`` writes to ``path`` for a cnn_elm model fitted
    on ``train`` with 3 filters drawn from seed 4."""
    save_model(fit_pipeline(train, PipelineConfig(L=10, c=1.0, seed=4, n_filters=3)), path)
    return json.loads(path.read_text())


def _column(filter_taps):
    """One hand-made filter as a (k, 1) filter bank."""
    return np.asarray(filter_taps, dtype=np.float64)[:, None]


def conv_oracle(x, filters):
    """Same-padded stride-1 cross-correlation, written as plain loops."""
    n_samples, n = x.shape
    k, f = filters.shape
    half = k // 2
    out = np.zeros((n_samples, n, f))
    for s in range(n_samples):
        for i in range(n):
            for j in range(k):
                src = i + j - half
                if 0 <= src < n:
                    for c in range(f):
                        out[s, i, c] += x[s, src] * filters[j, c]
    return out


def _spec_with(filters, n_aps):
    """A spec whose (k, F) filter bank is ``filters``, set by hand in place of
    the seeded draw."""
    filters = np.asarray(filters, dtype=np.float64)
    spec = FeaturizerSpec(n_filters=filters.shape[1], kernel_size=filters.shape[0], seed=0,
                          n_aps=n_aps)
    spec.__dict__["filters"] = filters  # the cached property's slot
    return spec


def pool_flatten_reference(z):
    """Average pooling over the full windows of POOL along axis 1 of an (N, n, F)
    tensor, then position-major flattening: one reshape-mean over all rows."""
    rows, n, f = z.shape
    p = n // POOL
    return z[:, :p * POOL].reshape(rows, p, POOL, f).mean(axis=2).reshape(rows, p * f)


def conv_pad_window_reference(x, filters):
    """The np.pad + sliding_window_view conv that _correlate replaced."""
    pad = (filters.shape[0] - 1) // 2
    padded = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (pad, pad)))
    windows = sliding_window_view(padded, filters.shape[0], axis=1)
    return windows @ filters


class TestConvReference:
    @given(data=st.data(), k=st.sampled_from([1, 3, 5]), f=st.integers(1, 3),
           rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_conv_and_featurize_bitwise_equal_reference(self, data, k, f, rows, seed):
        n = data.draw(st.integers(max(k, 2), 16))
        x = data.draw(arrays(np.float64, (rows, n), elements=st.floats(-1e3, 1e3)))
        filters = data.draw(arrays(np.float64, (k, f), elements=st.floats(-2, 2)))
        assert _correlate(x, filters).tobytes() == conv_pad_window_reference(x, filters).tobytes()
        spec = FeaturizerSpec(n_filters=f, kernel_size=k, seed=seed, n_aps=n)
        conv = conv_pad_window_reference(x, spec.filters)
        # the stage that added a zero bias before |.|: |z + 0| is bitwise |z|
        staged = pool_flatten_reference(np.abs(conv + np.zeros(f)))
        assert featurize(x, spec).tobytes() == staged.tobytes()

    def test_input_left_untouched(self, rng):
        spec = init_featurizer(1, 9)
        x = rng.normal(size=(2, 9))
        before = x.copy()
        featurize(x, spec)
        assert (x == before).all()

    def test_traced_peak_is_the_output_and_one_block(self, rng):
        # a few blocks of UJI1-width rows: the padded copy and the (N, n, F) conv
        # output are never made for all rows at once
        spec = init_featurizer(7, 520)
        x = np.where(rng.random((4000, 520)) < 0.04, rng.random((4000, 520)), 0.0)
        out, peak = traced_peak(lambda: featurize(x, spec))
        n, k, f = spec.n_aps, spec.kernel_size, spec.n_filters
        # one block's padded copy and conv output, each in float64, plus 64 KiB
        # of small objects; the pooled windows are summed into the output itself
        block = BLOCK_ROWS * (n + k - 1 + n * f) * 8
        assert peak < out.nbytes + block + 2**16

    def test_empty_ap_axis_rejected(self):
        with pytest.raises(ValueError, match=r"^x must be N x 3, got shape \(2, 0\)$"):
            featurize(np.zeros((2, 0)), init_featurizer(0, 3))


class TestConv:
    def test_box_kernel_hand_example(self):
        # (1,1,1) over (1,2,3): edges see one zero pad each
        out = _correlate(np.array([[1.0, 2.0, 3.0]]), _column([1.0, 1.0, 1.0]))
        assert out[:, :, 0].tolist() == [[3.0, 6.0, 5.0]]

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(4, 9))
        out = _correlate(x, _column([0.0, 1.0, 0.0]))
        assert out[:, :, 0] == pytest.approx(x)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(5, 11))
        filters = rng.normal(size=(3, 2))
        assert _correlate(x, filters) == pytest.approx(conv_oracle(x, filters), abs=1e-12)

    def test_wide_kernel_matches_oracle(self, rng):
        x = rng.normal(size=(3, 8))
        filters = rng.normal(size=(5, 3))
        assert _correlate(x, filters) == pytest.approx(conv_oracle(x, filters), abs=1e-12)

    def test_featurize_matches_loop_oracle(self, rng):
        x = rng.normal(size=(4, 10))
        spec = init_featurizer(5, 10, n_filters=3, kernel_size=5)
        z = np.abs(conv_oracle(x, spec.filters))
        pooled = (z[:, 0::2] + z[:, 1::2]) / 2
        assert featurize(x, spec) == pytest.approx(pooled.reshape(4, -1), abs=1e-12)


class TestPool:
    def test_hand_examples(self):
        spec = _spec_with([[1.0]], 4)  # one identity tap: featurize pools |x|
        assert featurize(np.array([[1.0, -3.0, 5.0, 7.0]]), spec)[0].tolist() == [2.0, 6.0]
        # odd length: the trailing element does not form a full window
        spec = _spec_with([[1.0]], 3)
        assert featurize(np.array([[1.0, 3.0, 5.0]]), spec)[0].tolist() == [2.0]

    @given(data=st.data(), k=st.sampled_from([1, 3]), f=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_window_view_reference(self, data, k, f, seed):
        n = data.draw(st.integers(max(k, POOL), 14))
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), n),
                             elements=st.floats(-1e3, 1e3)))
        spec = FeaturizerSpec(n_filters=f, kernel_size=k, seed=seed, n_aps=n)
        z = np.abs(conv_pad_window_reference(x, spec.filters))
        # the windowed mean that the strided-slice sum replaced
        reference = sliding_window_view(z, 2, axis=1)[:, ::2].mean(axis=-1)
        assert featurize(x, spec).tobytes() == reference.reshape(x.shape[0], -1).tobytes()

    def test_negative_zero_pools_to_zero(self):
        # 0 * -1 is -0.0 in the conv; |.| leaves no -0.0 to pool
        out = featurize(np.zeros((1, 3)), _spec_with(-np.ones((1, 2)), 3))
        assert not np.signbit(out).any()

    def test_channels_pooled_independently(self, rng):
        filters = rng.normal(size=(3, 2))
        x = rng.normal(size=(3, 6))
        out = featurize(x, _spec_with(filters, 6)).reshape(3, 3, 2)
        for c in range(2):
            alone = featurize(x, _spec_with(filters[:, c:c + 1], 6))
            assert out[:, :, c] == pytest.approx(alone)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than the pooling window 2"):
            featurize(np.zeros((1, 1)), _spec_with([[1.0]], 1))


class TestFlatten:
    def test_position_major_filter_minor(self):
        # row layout: (pos0,f0), (pos0,f1), (pos1,f0), ...
        spec = _spec_with([[1.0, 10.0]], 6)
        out = featurize(np.array([[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]]), spec)
        assert out[0].tolist() == [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]

    def test_bijective(self, rng):
        # each (position, filter) cell of the pooled tensor is one output column
        spec = init_featurizer(3, 11, n_filters=3)
        x = rng.normal(size=(4, 11))
        z = np.abs(conv_pad_window_reference(x, spec.filters))
        pooled = (z[:, 0:10:2] + z[:, 1:10:2]) / 2
        out = featurize(x, spec)
        assert out.shape == (4, 15)
        assert (out.reshape(4, 5, 3) == pooled).all()


class TestInit:
    def test_deterministic_in_seed(self):
        a = init_featurizer(7, 50)
        b = init_featurizer(7, 50)
        assert (a.filters == b.filters).all()
        assert not (init_featurizer(8, 50).filters == a.filters).all()

    def test_stream_pinned_at_the_uji1_shape(self):
        # model files store the seed, not the filters; numpy does not promise the
        # same Generator stream across versions (NEP 19), so a change fails here
        filters = init_featurizer(7, 520).filters
        assert hashlib.sha256(filters.astype("<f8").tobytes()).hexdigest() == (
            "b67a85931c23dd97ed7534a22c3a3c515326f44da3fbafe3823c59f5e61f9dba")

    def test_filter_scale_bound(self):
        # |w| < sqrt(6 / (fan_in + fan_out)) = sqrt(6/5) for 3x2 filters
        limit = 1.0954451150103322
        spec = init_featurizer(0, 100)
        assert spec.filters.shape == (3, 2)
        assert np.abs(spec.filters).max() < limit

    def test_draws_fill_the_range(self):
        # over many seeds the draws should approach the bound from below
        tops = [np.abs(init_featurizer(s, 100).filters).max() for s in range(200)]
        assert max(tops) > 1.0954451150103322 * 0.95

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            init_featurizer(0, 50, kernel_size=4)

    def test_kernel_wider_than_input_rejected(self):
        with pytest.raises(ValueError):
            init_featurizer(0, 3, kernel_size=5)

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            init_featurizer(0, 50, stride=3)

    def test_spec_round_trip(self, syn_small, tmp_path):
        p = tmp_path / "m.json"
        d = _saved_conv_doc(syn_small[0], p)["featurizer"]
        assert d == {"n_filters": 3, "kernel_size": 3, "seed": 4}  # the filters are redrawn
        back = load_model(p).featurizer
        assert (back.filters == init_featurizer(4, 40, n_filters=3).filters).all()
        assert (back.n_filters, back.kernel_size, back.seed, back.n_aps) == (3, 3, 4, 40)

    def test_spec_takes_no_filters(self):
        # a file could not restore filters its seed does not draw, so no spec holds them
        spec = init_featurizer(4, 30)
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'filters'"):
            FeaturizerSpec(n_filters=2, kernel_size=3, seed=4, n_aps=30, filters=spec.filters)
        with pytest.raises(AttributeError):
            spec.filters = spec.filters * 0.5

    def test_filters_drawn_once_and_read_only(self):
        spec = init_featurizer(4, 30)
        assert spec.filters is spec.filters
        assert not spec.filters.flags.writeable
        # another instance of the same spec draws the same filters anew
        again = init_featurizer(4, 30)
        assert again.filters is not spec.filters and np.array_equal(again.filters, spec.filters)

    @pytest.mark.parametrize("key, value", [
        ("kernel_size", 3.9), ("n_filters", 3.0), ("seed", 0.5),
    ])
    def test_non_integer_size_rejected(self, syn_small, tmp_path, key, value):
        # int() would load kernel_size 3.9 as 3 and n_filters 3.0 as 3
        p = tmp_path / "m.json"
        doc = _saved_conv_doc(syn_small[0], p)
        doc["featurizer"][key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"'featurizer': {key} must hold 64-bit integers"):
            load_model(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_filters_rejected(self, syn_small, tmp_path, value):
        # the filters are drawn from the seed; a file that holds a copy of them
        # is rejected for the key, whatever the copy holds
        p = tmp_path / "m.json"
        doc = _saved_conv_doc(syn_small[0], p)
        filters = load_model(p).featurizer.filters.tolist()
        filters[1][0] = value
        doc["featurizer"]["filters"] = filters
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"model key 'featurizer' holds unknown key "
                                             r"'filters'$"):
            load_model(p)


class TestWidthAndComposition:
    @pytest.mark.parametrize("name", sorted(registry_names()))
    def test_feature_width_every_registered_set(self, name):
        d = registry_lookup(name)
        spec = init_featurizer(0, d.n_aps)
        assert feature_width(d.n_aps, spec) == (d.n_aps // 2) * 2
        x = np.zeros((2, d.n_aps))
        assert featurize(x, spec).shape == (2, feature_width(d.n_aps, spec))

    @given(n=st.integers(min_value=4, max_value=64),
           f=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_feature_width_law(self, n, f):
        spec = init_featurizer(0, n, n_filters=f)
        x = np.zeros((1, n))
        expected = ((n - 2) // 2 + 1) * f
        assert feature_width(n, spec) == expected
        assert featurize(x, spec).shape == (1, expected)

    @pytest.mark.parametrize("rows", [
        0, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3,
    ])
    def test_featurize_is_the_stage_composition(self, rng, rows):
        # featurize runs in row blocks; on each side of a block boundary it is
        # bitwise the stages run once over all rows
        spec = init_featurizer(2, 12)
        x = rng.normal(size=(rows, 12))
        one_shot = pool_flatten_reference(np.abs(conv_pad_window_reference(x, spec.filters)))
        out = featurize(x, spec)
        assert out.shape == one_shot.shape == (rows, feature_width(12, spec))
        assert out.tobytes() == one_shot.tobytes()

    def test_mismatched_input_width_rejected(self):
        spec = init_featurizer(0, 10)
        with pytest.raises(ValueError):
            featurize(np.zeros((2, 11)), spec)
