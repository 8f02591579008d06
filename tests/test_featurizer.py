import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from elmloc.dataset import registry_lookup, registry_names
from elmloc.featurizer import (
    POOL,
    FeaturizerSpec,
    _correlate,
    avg_pool1d_valid,
    batch_flatten,
    feature_width,
    featurize,
    init_featurizer,
)
from elmloc.pipeline import PipelineConfig, fit_pipeline, load_model, save_model

# An older model file that still holds the filters.
V1_MODEL = Path(__file__).parent / "data" / "v1" / "cnn_elm_per_feature_int8.model.json"


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
        staged = batch_flatten(avg_pool1d_valid(np.abs(conv + np.zeros(f))))
        assert featurize(x, spec).tobytes() == staged.tobytes()

    def test_input_left_untouched(self, rng):
        spec = init_featurizer(1, 9)
        x = rng.normal(size=(2, 9))
        before = x.copy()
        featurize(x, spec)
        assert (x == before).all()

    def test_empty_ap_axis_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
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
        x = np.array([1.0, 3.0, 5.0, 7.0])[None, :, None]
        assert avg_pool1d_valid(x)[0, :, 0].tolist() == [2.0, 6.0]
        # odd length: the trailing element does not form a full window
        x = np.array([1.0, 3.0, 5.0])[None, :, None]
        assert avg_pool1d_valid(x)[0, :, 0].tolist() == [2.0]

    @given(data=st.data(), f=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_window_view_reference(self, data, f):
        n = data.draw(st.integers(POOL, 14))
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), n, f),
                             elements=st.floats(-1e3, 1e3)))
        # the windowed mean that the strided-slice sum replaced
        reference = sliding_window_view(x, 2, axis=1)[:, ::2].mean(axis=-1)
        out = avg_pool1d_valid(x)
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes()

    def test_negative_zero_pools_to_zero(self):
        out = avg_pool1d_valid(np.full((1, 3, 2), -0.0))
        assert not np.signbit(out).any()

    def test_channels_pooled_independently(self, rng):
        x = rng.normal(size=(3, 6, 2))
        out = avg_pool1d_valid(x)
        for c in range(2):
            assert out[:, :, c] == pytest.approx(avg_pool1d_valid(x[:, :, c:c + 1])[:, :, 0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than the pooling window 2"):
            avg_pool1d_valid(np.zeros((1, 1, 2)))


class TestFlatten:
    def test_position_major_filter_minor(self):
        # row layout: (pos0,f0), (pos0,f1), (pos1,f0), ...
        x = np.array([[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]])
        assert batch_flatten(x)[0].tolist() == [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]

    def test_bijective(self, rng):
        x = rng.normal(size=(4, 5, 3))
        flat = batch_flatten(x)
        assert flat.shape == (4, 15)
        assert (flat.reshape(4, 5, 3) == x).all()


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
    def test_non_finite_filters_rejected(self, tmp_path, value):
        # the filters are drawn from the seed; only an older file's copy of
        # them can hold a non-finite number
        doc = json.loads(V1_MODEL.read_text())
        doc["featurizer"]["filters"][1][0] = value
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"'featurizer': filters contains non-finite "
                                             r"values$"):
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

    def test_featurize_is_the_stage_composition(self, rng):
        spec = init_featurizer(2, 12)
        x = rng.normal(size=(3, 12))
        staged = batch_flatten(avg_pool1d_valid(np.abs(_correlate(x, spec.filters))))
        assert (featurize(x, spec) == staged).all()

    def test_mismatched_input_width_rejected(self):
        spec = init_featurizer(0, 10)
        with pytest.raises(ValueError):
            featurize(np.zeros((2, 11)), spec)
