import dataclasses
import hashlib
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from elmloc import elm, linalg
from elmloc.elm import (
    ClassCodebook,
    ElmModel,
    QuantizedWeights,
    encode_targets,
    fit,
    hidden_map,
    init_hidden,
    predict,
    predict_quantized,
    quantize,
    sweep_hidden,
    tansig,
    train_elm,
)
from elmloc.pipeline import TrainedModel, load_model, save_model
from elmloc.preprocess import PreprocessParams

# An older model file that still holds w, b and the int8 codes and scales.
V1_INT8 = Path(__file__).parent / "data" / "v1" / "cnn_elm_per_feature_int8.model.json"


def saved_doc(model, path):
    """The document ``save_model`` writes to ``path`` for an elm_only pipeline
    around ``model``."""
    preprocess = PreprocessParams(min_rss=-100.0, mode="per_sample")
    save_model(TrainedModel(preprocess, None, model), path)
    return json.loads(path.read_text())


def loaded_elm(doc, path):
    """The ELM ``load_model`` reads from ``doc`` written to ``path``."""
    path.write_text(json.dumps(doc))
    return load_model(path).elm


class TestCodebook:
    def test_sorted_building_major(self):
        pairs = np.array([[1, 0], [0, 2], [0, 1], [1, 0]])
        cb = ClassCodebook.from_pairs(pairs)
        assert cb.pairs.tolist() == [[0, 1], [0, 2], [1, 0]]
        assert cb.n_classes == 3

    def test_encode_decode_round_trip(self):
        cb = ClassCodebook.from_pairs(np.array([[0, 0], [0, 3], [2, 1]]))
        idx = cb.encode(np.array([[2, 1], [0, 0], [0, 3]]))
        assert idx.tolist() == [2, 0, 1]
        b, f = cb.decode(idx)
        assert b.tolist() == [2, 0, 0]
        assert f.tolist() == [1, 0, 3]

    def test_unknown_pair_named_in_error(self):
        cb = ClassCodebook.from_pairs(np.array([[0, 0]]))
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            cb.encode(np.array([[1, 2]]))

    def test_unsorted_construction_rejected(self):
        with pytest.raises(ValueError):
            ClassCodebook(pairs=np.array([[1, 0], [0, 0]]))

    def test_duplicate_construction_rejected(self):
        with pytest.raises(ValueError):
            ClassCodebook(pairs=np.array([[0, 0], [0, 0]]))

    def test_decode_out_of_range(self):
        cb = ClassCodebook.from_pairs(np.array([[0, 0]]))
        with pytest.raises(ValueError):
            cb.decode(np.array([1]))


class TestTargets:
    def test_one_hot_zero_one(self):
        cb = ClassCodebook.from_pairs(np.array([[0, 0], [0, 1], [1, 0]]))
        t = encode_targets(np.array([[0, 1], [1, 0], [0, 0]]), cb)
        assert t.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert set(np.unique(t)) == {0.0, 1.0}

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        pairs = r.integers(0, 3, size=(20, 2))
        cb = ClassCodebook.from_pairs(pairs)
        t = encode_targets(pairs, cb)
        assert (t.sum(axis=1) == 1.0).all()


class TestTansig:
    def test_reference_value(self):
        # frozen reference: tanh(1) at 50-digit precision
        assert tansig(np.array([1.0]))[0] == pytest.approx(
            0.7615941559557649, abs=1e-15)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_equals_logistic_form(self, z):
        expected = 2.0 / (1.0 + math.exp(-2.0 * z)) - 1.0
        assert tansig(np.array([z]))[0] == pytest.approx(expected, abs=1e-12)

    def test_odd_function(self, rng):
        z = rng.normal(size=32)
        assert tansig(-z) == pytest.approx(-tansig(z))


class TestInitHidden:
    def test_shapes_and_range(self):
        w, b = init_hidden(0, d=40, L=25)
        assert w.shape == (40, 25)
        assert b.shape == (25,)
        assert (np.abs(w) < 1.0).all()
        assert (np.abs(b) < 1.0).all()

    def test_deterministic(self):
        w1, b1 = init_hidden(3, 10, 8)
        w2, b2 = init_hidden(3, 10, 8)
        assert (w1 == w2).all() and (b1 == b2).all()

    def test_stream_pinned_at_the_uji1_shape(self):
        # model files store the seed, not w and b; numpy does not promise the
        # same Generator stream across versions (NEP 19), so a change fails here
        w, b = init_hidden(7, 520, 530)
        digest = hashlib.sha256(w.astype("<f8").tobytes() + b.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "8dcb7639308e096bb8db5b8c50df1f2a578cf6569ba3dc0022f6ce65d4ac50b9")

    def test_weight_prefix_nests_across_sizes(self):
        # growing L must extend the hidden layer, not reshuffle it: the
        # first neurons of a larger draw coincide with the smaller draw
        w_small, _ = init_hidden(5, 12, 7)
        w_large, _ = init_hidden(5, 12, 20)
        assert (w_large[:, :7] == w_small).all()

    def test_bias_not_nested(self):
        # bias is drawn after all weights, so it shifts when L changes;
        # pinning this down documents that only the weight prefix is stable
        _, b_small = init_hidden(5, 12, 7)
        _, b_large = init_hidden(5, 12, 20)
        assert not (b_large[:7] == b_small).all()

    def test_hidden_map_strictly_inside_unit_interval(self, rng):
        w, b = init_hidden(0, 6, 10)
        h = hidden_map(rng.random((50, 6)), w, b)
        assert (h > -1.0).all() and (h < 1.0).all()


def fit_oracle(h, t, c):
    """Regularized least squares via an explicit inverse (independent route)."""
    L = h.shape[1]
    return np.linalg.inv(h.T @ h + np.eye(L) / c) @ (h.T @ t)


class TestFit:
    def test_identity_design_shrinks_by_ridge_factor(self):
        # h = I makes each output weight c/(c+1) times its target
        t = np.array([[2.0, 0.0], [0.0, -4.0], [1.0, 1.0]])
        for c in (1e-6, 0.5, 1.0, 1e6):
            beta = fit(np.eye(3), t, c)
            assert beta == pytest.approx(t * (c / (c + 1.0)), rel=1e-9, abs=1e-12)

    def test_weak_regularization_interpolates(self):
        t = np.array([[1.0], [2.0]])
        beta = fit(np.eye(2), t, 1e12)
        assert beta == pytest.approx(t, rel=1e-9)

    def test_strong_regularization_kills_weights(self):
        t = np.array([[1.0], [2.0]])
        beta = fit(np.eye(2), t, 1e-9)
        assert np.abs(beta).max() < 1e-8

    def test_matches_inverse_oracle(self, rng):
        h = rng.normal(size=(30, 12))
        t = rng.normal(size=(30, 4))
        for c in (0.01, 0.1, 1.0):
            assert fit(h, t, c) == pytest.approx(fit_oracle(h, t, c),
                                                 rel=1e-9, abs=1e-10)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_normal_equation_stationarity(self, seed):
        # the fitted weights must zero the objective gradient
        # 2 H'(H b - T) + (2/c) b
        r = np.random.default_rng(seed)
        n, L, m = int(r.integers(2, 51)), int(r.integers(1, 21)), int(r.integers(1, 6))
        h = r.normal(size=(n, L))
        t = r.normal(size=(n, m))
        c = float(r.choice([0.01, 0.1, 1.0]))
        beta = fit(h, t, c)
        grad = 2.0 * h.T @ (h @ beta - t) + (2.0 / c) * beta
        assert np.abs(grad).max() < 1e-6

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            fit(np.eye(2), np.eye(2), 0.0)


def _toy_problem(rng, n=160, d=8):
    # three linearly separable clusters tagged with distinct (building, floor)
    centers = np.array([[0, 0], [0, 1], [1, 0]])
    labels = centers[np.arange(n) % 3]
    x = rng.normal(scale=0.15, size=(n, d))
    x[:, :2] += labels * 3.0
    return x, labels


class TestTrainPredict:
    def test_separable_clusters_learned(self, rng):
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=60, c=10.0, seed=0)
        b, f = predict(x, model)
        assert (np.column_stack([b, f]) == labels).mean() > 0.98

    def test_deterministic_in_seed(self, rng):
        x, labels = _toy_problem(rng)
        m1 = train_elm(x, labels, L=20, c=1.0, seed=4)
        m2 = train_elm(x, labels, L=20, c=1.0, seed=4)
        assert (m1.w == m2.w).all() and (m1.beta == m2.beta).all()

    def test_fit_activations_score_like_predict(self, rng):
        # cmd_train scores the training rows from these instead of predicting again
        x, labels = _toy_problem(rng)
        model, h = elm._train_elm(x, labels, L=30, c=1.0, seed=5)
        ref = train_elm(x, labels, L=30, c=1.0, seed=5)
        assert (model.w == ref.w).all() and (model.beta == ref.beta).all()
        assert np.array_equal(h, elm.hidden_map(x, model.w, model.b))
        assert np.array_equal(h @ model.beta, elm._scores(x, model.w, model.b, model.beta))
        b, f = model.codebook.decode(np.argmax(h @ model.beta, axis=1))
        pb, pf = predict(x, model)
        assert np.array_equal(b, pb) and np.array_equal(f, pf)

    def test_argmax_tie_takes_lowest_class_index(self):
        cb = ClassCodebook.from_pairs(np.array([[0, 0], [0, 1], [2, 5]]))
        model = ElmModel(beta=np.zeros((4, 3)), c=1.0, codebook=cb, seed=0, n_features=3)
        # all scores identical -> first codebook entry wins
        b, f = predict(np.ones((2, 3)), model)
        assert b.tolist() == [0, 0]
        assert f.tolist() == [0, 0]

    def test_predict_validates_width(self, rng):
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=10, c=1.0, seed=0)
        with pytest.raises(ValueError):
            predict(np.ones((2, x.shape[1] + 1)), model)

    def test_model_round_trip(self, rng, tmp_path):
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=15, c=0.1, seed=2))
        back = loaded_elm(saved_doc(model, tmp_path / "m.json"), tmp_path / "m.json")
        assert back.n_features == model.n_features
        assert (back.w == model.w).all() and (back.b == model.b).all()
        assert (back.beta == model.beta).all()
        assert back.c == model.c
        assert (back.codebook.pairs == model.codebook.pairs).all()
        assert back.quantized.w_q.dtype == np.int8
        assert (back.quantized.w_q == model.quantized.w_q).all()
        assert back.quantized.beta_scale == model.quantized.beta_scale

    def test_dict_holds_what_was_learned(self, rng, tmp_path):
        # w and b are the seed's, and the int8 copies quantize's: only a flag is kept
        x, labels = _toy_problem(rng)
        doc = saved_doc(quantize(train_elm(x, labels, L=15, c=0.1, seed=2)), tmp_path / "m.json")
        d = doc["elm"]
        assert list(d) == ["codebook", "seed", "c", "beta", "quantized"]
        assert d["quantized"] is True
        assert loaded_elm(doc, tmp_path / "m.json").L == len(d["beta"]) == 15

    @pytest.mark.parametrize("name", ["w", "b", "quantized"])
    def test_weights_no_seed_draws_cannot_be_built(self, rng, name):
        # a file could not restore them, so no model may hold them
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=10, c=1.0, seed=0))
        value = getattr(model, name)
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{name}'"):
            dataclasses.replace(model, **{name: value})
        with pytest.raises(AttributeError):
            setattr(model, name, value)

    @pytest.mark.parametrize("value", [None, 1, "true", {}])
    def test_quantized_flag_must_be_bool(self, rng, tmp_path, value):
        x, labels = _toy_problem(rng)
        doc = saved_doc(train_elm(x, labels, L=10, c=1.0, seed=0), tmp_path / "m.json")
        doc["elm"]["quantized"] = value
        with pytest.raises(ValueError, match=r"'elm': quantized must hold true or false"):
            loaded_elm(doc, tmp_path / "m.json")


class TestQuantize:
    def test_hand_example(self):
        # (0, -1, 0.5) -> scale 1/127 -> codes (0, -127, 64): the 63.5 code
        # rounds away from zero
        q, scale = elm._quantize_tensor(np.array([0.0, -1.0, 0.5]))
        assert scale == pytest.approx(1.0 / 127.0)
        assert q.tolist() == [0, -127, 64]
        assert q.dtype == np.int8

    def test_half_away_from_zero_differs_from_bankers(self):
        # 62.5 must code to 63 (ties-to-even would give 62)
        q, scale = elm._quantize_tensor(np.array([1.0, 62.5 / 127.0]))
        assert q.tolist() == [127, 63]
        q, _ = elm._quantize_tensor(np.array([-1.0, -62.5 / 127.0]))
        assert q.tolist() == [-127, -63]

    def test_all_zero_tensor(self):
        q, scale = elm._quantize_tensor(np.zeros(5))
        assert scale == 1.0
        assert (q == 0).all()

    @given(x=arrays(np.float64, st.integers(0, 40),
                    elements=st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 0.5, -0.5])))
    @settings(max_examples=200, deadline=None)
    def test_matches_out_of_place_reference(self, x):
        # the in-place rounding is bitwise the out-of-place expression
        q, scale = elm._quantize_tensor(x)
        want, want_scale = quantize_tensor_reference(x)
        assert scale == want_scale and q.tobytes() == want.tobytes()

    def test_underflowing_scale_falls_back_to_one(self):
        # 5e-324 / 127 is 0.0: a zero scale would divide by zero and fail QuantizedWeights
        q, scale = elm._quantize_tensor(np.array([5e-324, -5e-324]))
        assert scale == 1.0 and q.tolist() == [0, 0]

    def test_round_trip_error_bounded_by_half_scale(self, rng):
        v = rng.normal(size=200)
        q, scale = elm._quantize_tensor(v)
        err = np.abs(v - q.astype(np.float64) * scale)
        assert err.max() <= scale / 2 + 1e-15

    def test_quantized_predictions_close_to_float(self, rng):
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=40, c=1.0, seed=1))
        b, f = predict(x, model)
        bq, fq = predict_quantized(x, model)
        assert (f == fq).mean() > 0.95
        assert (b == bq).mean() > 0.95

    def test_predict_quantized_requires_quantize(self, rng):
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=10, c=1.0, seed=0)
        with pytest.raises(ValueError):
            predict_quantized(x, model)


def quantize_tensor_reference(x):
    """Symmetric int8 codes, rounded half away from zero with one temporary per step."""
    scale = elm._quantize_tensor(x)[1]
    v = x / scale
    q = np.copysign(np.floor(np.abs(v) + 0.5), v)
    return np.clip(q, -127, 127).astype(np.int8), scale


def predict_quantized_reference(features, model):
    """Per-call dequantize through the checked product, as before the cache."""
    q = model.quantized
    w = q.w_q.astype(np.float64) * q.w_scale
    b = q.b_q.astype(np.float64) * q.b_scale
    beta = q.beta_q.astype(np.float64) * q.beta_scale
    scores = linalg.matmul(hidden_map(features, w, b), beta)
    return model.codebook.decode(np.argmax(scores, axis=1))


class TestWeightsHandledOnce:
    @given(seed=st.integers(0, 2 ** 31 - 1), rows=st.integers(1, 5),
           L=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_predict_quantized_matches_per_call_dequantize(self, seed, rows, L):
        r = np.random.default_rng(seed)
        x, labels = _toy_problem(r, n=60, d=6)
        model = quantize(train_elm(x, labels, L=L, c=1.0, seed=seed))
        queries = r.normal(size=(rows, 6))
        got = predict_quantized(queries, model)
        want = predict_quantized_reference(queries, model)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_float_predict_matches_checked_product(self, rng):
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=25, c=1.0, seed=3)
        scores = linalg.matmul(hidden_map(x, model.w, model.b), model.beta)
        b, f = model.codebook.decode(np.argmax(scores, axis=1))
        pb, pf = predict(x, model)
        assert pb.tobytes() == b.tobytes() and pf.tobytes() == f.tobytes()

    def test_dequantize_lazy_and_cached(self, rng):
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=10, c=1.0, seed=0))
        assert "dequantized" not in vars(model.quantized)  # float-only users pay nothing
        predict_quantized(x[:1], model)
        first = model.quantized.dequantized
        predict_quantized(x[:2], model)
        assert all(a is b for a, b in zip(first, model.quantized.dequantized))
        assert not any(a.flags.writeable for a in first)
        assert not model.quantized.w_q.flags.writeable

    @pytest.mark.parametrize("name", ["w", "b", "beta"])
    def test_non_finite_weights_rejected(self, tmp_path, name):
        # w and b are drawn from the seed; only an older file's copies of them
        # can hold a non-finite number
        doc = json.loads(V1_INT8.read_text())
        weights = np.asarray(doc["elm"][name], dtype=np.float64)
        weights.flat[0] = np.nan
        doc["elm"][name] = weights.tolist()
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"'elm': {name} contains non-finite"):
            load_model(p)
        if name == "beta":
            beta = np.zeros((4, 1))
            beta[0, 0] = np.nan
            with pytest.raises(ValueError, match=r"^beta contains non-finite"):
                ElmModel(beta=beta, c=1.0, codebook=ClassCodebook.from_pairs(np.array([[0, 0]])),
                         seed=0, n_features=3)

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0])
    def test_bad_scale_rejected(self, scale):
        codes = np.zeros(2, dtype=np.int8)
        with pytest.raises(ValueError, match="w_scale"):
            QuantizedWeights(w_q=codes, b_q=codes, beta_q=codes,
                             w_scale=scale, b_scale=1.0, beta_scale=1.0)

    def test_quantized_shape_checked_against_float_weights(self, rng):
        # the codes are made from the float weights, so their shapes cannot differ
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=10, c=1.0, seed=0))
        q = model.quantized
        assert (q.w_q.shape, q.b_q.shape, q.beta_q.shape) == (
            model.w.shape, model.b.shape, model.beta.shape) == ((8, 10), (10,), (10, 3))

    def test_derived_arrays_built_once_and_read_only(self, rng):
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=10, c=1.0, seed=0))
        derived = [model.w, model.b, model.quantized, model.quantized.w_q, model.quantized.b_q,
                   model.quantized.beta_q]
        predict(x, model)
        predict_quantized(x, model)
        again = [model.w, model.b, model.quantized, model.quantized.w_q, model.quantized.b_q,
                 model.quantized.beta_q]
        assert all(a is b for a, b in zip(derived, again))
        for arr in (model.w, model.b, model.beta, model.quantized.w_q):
            assert not arr.flags.writeable
        # each instance draws its own: quantize's copy shares nothing with the original
        assert quantize(model).w is not model.w
        assert np.array_equal(quantize(model).w, model.w)

    def test_float_only_model_builds_no_int8_codes(self, rng, monkeypatch, tmp_path):
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=10, c=1.0, seed=0)
        monkeypatch.setattr(elm, "_quantize_tensor", None)  # any call would raise
        predict(x, model)
        assert model.quantized is None
        assert saved_doc(model, tmp_path / "m.json")["elm"]["quantized"] is False

    @pytest.mark.parametrize("value", [300, -128, 1.7, 10 ** 400],
                             ids=["above", "below", "fraction", "huge"])
    @pytest.mark.parametrize("key", ["w_q", "b_q", "beta_q"])
    def test_bad_int8_code_rejected(self, tmp_path, key, value):
        # model files no longer hold int8 codes; an older file's load only as
        # the ones quantize makes
        doc = json.loads(V1_INT8.read_text())
        codes = np.asarray(doc["elm"]["quantized"][key], dtype=object)
        codes.flat[0] = value
        doc["elm"]["quantized"][key] = codes.tolist()
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"'elm': quantized {key} (is not the one "
                                             rf"elm\.quantize makes|must hold numbers)"):
            load_model(p)

    @pytest.mark.parametrize("key, edit", [
        ("codebook", lambda d: d["codebook"][0].__setitem__(1, 1.7)),
        ("codebook", lambda d: d["codebook"][0].__setitem__(0, True)),
        ("codebook", lambda d: d["codebook"][0].__setitem__(0, 2 ** 63)),
        ("seed", lambda d: d.update(seed=0.5)),
        ("seed", lambda d: d.update(seed="0")),
    ], ids=["label_fraction", "label_bool", "label_huge", "seed_fraction", "seed_string"])
    def test_non_integer_key_rejected(self, rng, tmp_path, key, edit):
        # an int() or int64 cast would load 1.7 as 1, True as 1 and "0" as 0
        x, labels = _toy_problem(rng)
        doc = saved_doc(train_elm(x, labels, L=10, c=1.0, seed=0), tmp_path / "m.json")
        edit(doc["elm"])
        with pytest.raises(ValueError, match=rf"'elm': {key} must hold 64-bit integers"):
            loaded_elm(doc, tmp_path / "m.json")

    def test_extreme_int8_codes_accepted(self, rng, tmp_path):
        # each tensor's largest magnitude takes the extreme code +-127
        x, labels = _toy_problem(rng)
        q = quantize(train_elm(x, labels, L=10, c=1.0, seed=0)).quantized
        for codes in (q.w_q, q.b_q, q.beta_q):
            assert np.abs(codes.astype(np.int64)).max() == 127
        # an older file's codes load written as JSON floats too
        doc = json.loads(V1_INT8.read_text())
        b_q = doc["elm"]["quantized"]["b_q"]
        assert 127 in np.abs(b_q)
        doc["elm"]["quantized"]["b_q"] = [float(v) for v in b_q]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        assert load_model(p).elm.quantized.b_q.tolist() == b_q


class TestSweep:
    def test_grid_and_selection(self, rng):
        x, labels = _toy_problem(rng, n=240)
        res = sweep_hidden(x[:180], labels[:180], x[180:], labels[180:],
                           c=1.0, L_max=40, step=10, seed=0)
        assert res.sizes.tolist() == [10, 20, 30, 40]
        assert res.best_L in res.sizes
        assert len(res.floor_hits) == len(res.sizes)
        # smallest size attaining the max, i.e. the first argmax
        best = res.floor_hits.max()
        assert res.best_L == res.sizes[np.argmax(res.floor_hits)]
        assert res.floor_hits[res.sizes.tolist().index(res.best_L)] == best

    def test_partial_final_step_included(self, rng):
        x, labels = _toy_problem(rng, n=120)
        res = sweep_hidden(x[:90], labels[:90], x[90:], labels[90:],
                           c=1.0, L_max=25, step=10, seed=0)
        assert res.sizes.tolist() == [10, 20]

    def test_empty_validation_rejected(self, rng):
        x, labels = _toy_problem(rng, n=30)
        with pytest.raises(ValueError):
            sweep_hidden(x, labels, x[:0], labels[:0], c=1.0, L_max=10)


def sweep_reference(x_tr, p_tr, x_val, p_val, c, L_max, step, seed):
    """The serial loop over the grid, one fit after another."""
    codebook = ClassCodebook.from_pairs(p_tr)
    t = encode_targets(p_tr, codebook)
    sizes = np.arange(step, L_max + 1, step)
    w_full, _ = init_hidden(seed, x_tr.shape[1], int(sizes[-1]))
    z_tr, z_val = x_tr @ w_full, x_val @ w_full
    floor_hits, building_hits = np.empty(len(sizes)), np.empty(len(sizes))
    for i, L in enumerate(sizes):
        _, b = init_hidden(seed, x_tr.shape[1], int(L))
        beta = fit(tansig(z_tr[:, :L] + b), t, c)
        scores = tansig(z_val[:, :L] + b) @ beta
        pred_b, pred_f = codebook.decode(np.argmax(scores, axis=1))
        floor_hits[i] = 100.0 * float(np.mean(pred_f == p_val[:, 1]))
        building_hits[i] = 100.0 * float(np.mean(pred_b == p_val[:, 0]))
    return sizes, floor_hits, building_hits, int(sizes[int(np.argmax(floor_hits))])


def _noisy_split(rng, n=400, d=10):
    # overlapping classes, so the hit rates move with L
    labels = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 3, n)])
    x = rng.normal(size=(n, d))
    x[:, :2] += labels * 0.8
    cut = n * 3 // 4
    return x[:cut], labels[:cut], x[cut:], labels[cut:]


class TestThreadedSweep:
    @pytest.mark.parametrize("L_max, step", [(10, 10), (20, 10), (50, 10), (47, 5)],
                             ids=["one", "two", "odd", "ragged"])
    def test_equals_serial_loop(self, rng, L_max, step):
        split = _noisy_split(rng)
        ref = sweep_reference(*split, c=0.5, L_max=L_max, step=step, seed=3)
        res = sweep_hidden(*split, c=0.5, L_max=L_max, step=step, seed=3)
        for got, want in zip((res.sizes, res.floor_hits, res.building_hits), ref[:3]):
            assert got.tobytes() == want.tobytes()
        assert res.best_L == ref[3]

    def test_nan_features_raise_like_the_serial_loop(self, rng):
        x_tr, p_tr, x_val, p_val = _noisy_split(rng)
        x_tr[7, 2] = np.nan
        with pytest.raises(ValueError) as want:
            sweep_reference(x_tr, p_tr, x_val, p_val, c=0.5, L_max=50, step=10, seed=0)
        with pytest.raises(ValueError) as got:
            sweep_hidden(x_tr, p_tr, x_val, p_val, c=0.5, L_max=50, step=10, seed=0)
        assert str(got.value) == str(want.value)

    def _failing_fit(self, monkeypatch, bad_sizes):
        fitted = []
        real_fit = elm.fit

        def failing_fit(h, t, c):
            fitted.append(h.shape[1])
            if h.shape[1] in bad_sizes:
                raise RuntimeError(f"fit failed at L={h.shape[1]}")
            time.sleep(0.01)  # good fits are slow, so failures come first
            return real_fit(h, t, c)

        monkeypatch.setattr(elm, "fit", failing_fit)
        return fitted

    def test_error_in_downward_walker_reaches_caller(self, rng, monkeypatch):
        # L=50 is the first fit the downward walker takes
        fitted = self._failing_fit(monkeypatch, {50})
        with pytest.raises(RuntimeError, match=r"^fit failed at L=50$"):
            sweep_hidden(*_noisy_split(rng), c=0.5, L_max=50, step=10, seed=0)
        # as in the serial loop, every smaller size was still fitted
        assert sorted(fitted) == [10, 20, 30, 40, 50]
        assert not any(t.name == "sweep-down" for t in threading.enumerate())

    def test_lowest_failed_size_is_raised(self, rng, monkeypatch):
        # the downward walker fails at 50, then at 40; the serial loop's
        # error is the one at 40, after 10, 20 and 30 were fitted
        fitted = self._failing_fit(monkeypatch, {40, 50})
        with pytest.raises(RuntimeError, match=r"^fit failed at L=40$"):
            sweep_hidden(*_noisy_split(rng), c=0.5, L_max=50, step=10, seed=0)
        assert sorted(fitted) == [10, 20, 30, 40, 50]

    def test_each_size_fitted_once_and_two_at_most_in_flight(self, rng, monkeypatch):
        lock = threading.Lock()
        in_flight, seen_together, calls, threads = set(), [], [], set()
        real_fit = elm.fit

        def counting_fit(h, t, c):
            L = h.shape[1]
            with lock:
                in_flight.add(L)
                seen_together.append(frozenset(in_flight))
                calls.append(L)
                threads.add(threading.current_thread().name)
            try:
                time.sleep(0.002)  # hold the slot so the walkers overlap
                return real_fit(h, t, c)
            finally:
                with lock:
                    in_flight.discard(L)

        monkeypatch.setattr(elm, "fit", counting_fit)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            res = sweep_hidden(*_noisy_split(rng), c=0.5, L_max=60, step=1, seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(1, 61))
        assert max(map(len, seen_together)) == 2 and len(threads) == 2
        # the two largest fits never run together: one walker takes both
        assert not any({59, 60} <= together for together in seen_together)
        assert np.isfinite(res.floor_hits).all()
