import dataclasses
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import held_reference, loo_reference, traced_peak
from elmloc import elm
from elmloc.cli import build_parser
from elmloc.dataset import class_index, registry_lookup, registry_names
from elmloc.elm import (
    ClassCodebook,
    ElmModel,
    QuantizedWeights,
    check_hidden_size,
    fit,
    hidden_map,
    init_hidden,
    predict,
    predict_quantized,
    quantize,
    sweep_hidden,
    train_elm,
)
from elmloc.featurizer import feature_width, init_featurizer
from elmloc.pipeline import TrainedModel, load_model, save_model
from elmloc.preprocess import PreprocessParams


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
        classes, _ = class_index(np.array([[1, 0], [0, 2], [0, 1], [1, 0]]))
        cb = ClassCodebook(classes)
        assert cb.pairs.tolist() == [[0, 1], [0, 2], [1, 0]]
        assert cb.n_classes == 3

    def test_index_decode_round_trip(self):
        pairs = np.array([[2, 1], [0, 0], [0, 3], [2, 1]])
        classes, index = class_index(pairs)
        assert index.tolist() == [2, 0, 1, 2]
        codebook = ClassCodebook(classes)
        b, f = codebook.decode(index)
        assert b.tolist() == [2, 0, 0, 2]
        assert f.tolist() == [1, 0, 3, 1]
        # integer-array indexing makes new arrays: the answers share nothing with the codebook
        assert not np.shares_memory(b, codebook.pairs) and not np.shares_memory(f, codebook.pairs)

    def test_unsorted_construction_rejected(self):
        with pytest.raises(ValueError, match="sorted by building then floor"):
            ClassCodebook(pairs=np.array([[1, 0], [0, 0]]))

    def test_duplicate_construction_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ClassCodebook(pairs=np.array([[0, 0], [0, 0]]))

    @pytest.mark.parametrize("pairs, message", [
        ([[-5, -7], [0, 1]], r"building labels must be non-negative, found -5"),
        ([[0, -1], [0, 1]], r"floor labels must be non-negative, found -1"),
        ([[0, 0.5]], r"floor labels must be integers"),
        ([["0", "1"]], r"building labels must be numbers, got dtype <U1"),
    ], ids=["negative_building", "negative_floor", "fraction", "strings"])
    def test_labels_follow_the_label_rule(self, pairs, message):
        # the rule RadioMap applies to its floor and building columns
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClassCodebook(pairs=np.array(pairs))

    def test_decode_out_of_range(self):
        cb = ClassCodebook(np.array([[0, 0]]))
        with pytest.raises(ValueError):
            cb.decode(np.array([1]))


class TestTargets:
    def test_one_hot_zero_one(self):
        cb, t = elm._targets(np.array([[0, 1], [1, 0], [0, 0]]))
        assert cb.pairs.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert t.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert set(np.unique(t)) == {0.0, 1.0}

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        pairs = r.integers(0, 3, size=(20, 2))
        cb, t = elm._targets(pairs)
        classes, index = class_index(pairs)
        assert cb.pairs.tobytes() == classes.tobytes()
        assert (t.sum(axis=1) == 1.0).all()
        assert (np.argmax(t, axis=1) == index).all()


def tansig(z):
    """The activation alone: ``hidden_map`` of the row z with identity weights
    and a zero bias (x @ I + 0 is exactly x)."""
    z = np.asarray(z, dtype=np.float64)
    return hidden_map(z[None, :], np.eye(z.size), np.zeros(z.size))[0]


class TestTansig:
    def test_reference_value(self):
        # frozen reference: tanh(1) at 50-digit precision
        assert tansig([1.0])[0] == pytest.approx(0.7615941559557649, abs=1e-15)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_equals_logistic_form(self, z):
        expected = 2.0 / (1.0 + math.exp(-2.0 * z)) - 1.0
        assert tansig([z])[0] == pytest.approx(expected, abs=1e-12)

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

    @pytest.mark.parametrize("call, message", [
        (lambda: init_hidden(0, 0, 5), r"d and L must be positive, got d=0, L=5"),
        (lambda: hidden_map(np.ones((2, 5)), *init_hidden(0, 6, 3)),
         r"features must be N x 6, got shape \(2, 5\)"),
    ], ids=["no_inputs", "narrow_features"])
    def test_bad_shape_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_hidden_map_strictly_inside_unit_interval(self, rng):
        w, b = init_hidden(0, 6, 10)
        h = hidden_map(rng.random((50, 6)), w, b)
        assert (h > -1.0).all() and (h < 1.0).all()

    def test_hidden_map_holds_one_buffer(self, rng):
        x = rng.random((3000, 100))
        w, b = init_hidden(0, 100, 200)
        h, peak = traced_peak(lambda: hidden_map(x, w, b))
        # one N x L float64 buffer, plus the finite-check mask of x (w is trusted)
        assert peak < h.nbytes + x.size
        assert h.tobytes() == np.tanh(x @ w + b).tobytes()


class TestHiddenSizeBound:
    def test_refused_before_anything_is_drawn(self, rng, monkeypatch):
        monkeypatch.setattr(elm, "MAX_HIDDEN_WEIGHTS", 60)
        monkeypatch.setattr(elm, "_factor", None)  # training must stop before its fit
        x, labels = _toy_problem(rng)  # 8 features
        message = (r"^a hidden layer of 8 inputs x 8 neurons exceeds the 60 weights that "
                   r"MAX_HIDDEN_WEIGHTS allows$")
        with pytest.raises(ValueError, match=message):
            train_elm(x, labels, L=8, c=1.0, seed=0)
        with pytest.raises(ValueError, match=message):
            init_hidden(0, 8, 8)
        codebook = ClassCodebook(class_index(labels)[0])
        beta = np.zeros((8, codebook.n_classes))
        with pytest.raises(ValueError, match=message):
            ElmModel(beta=beta, c=1.0, codebook=codebook, seed=0, n_features=8)
        # at the bound itself, both draw
        assert ElmModel(beta=beta[:6], c=1.0, codebook=codebook, seed=0, n_features=10).w.shape \
            == init_hidden(0, 10, 6)[0].shape == (10, 6)

    def test_admits_the_registry_and_the_default_sweep(self):
        # checked without drawing: each registry set at its registry L, plain and
        # through the default conv stage, and the CLI's default sweep grid's
        # largest size on the widest set
        l_max = build_parser().parse_args(["sweep", "--dataset", "SYN1"]).L_max
        widest = max(registry_lookup(name).n_aps for name in registry_names())
        for name in registry_names():
            d = registry_lookup(name)
            for width in (d.n_aps, feature_width(d.n_aps, init_featurizer(0, d.n_aps))):
                check_hidden_size(width, d.L_default)
        check_hidden_size(widest, l_max)
        assert widest * l_max * 100 < elm.MAX_HIDDEN_WEIGHTS


def fit_oracle(h, t, c):
    """Regularized least squares via an explicit inverse (independent route)."""
    L = h.shape[1]
    return np.linalg.inv(h.T @ h + np.eye(L) / c) @ (h.T @ t)


def gauss_jordan_inverse(a):
    """Textbook row-reduction inverse with partial pivoting."""
    n = a.shape[0]
    aug = np.hstack([a.astype(np.float64), np.eye(n)])
    for col in range(n):
        p = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, p]] = aug[[p, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


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

    def test_matches_gauss_jordan_oracle(self, rng):
        # no LAPACK on the oracle's side: the ridge matrix inverted by row reduction
        h = rng.normal(size=(40, 8))
        t = rng.normal(size=(40, 3))
        for c in (0.05, 1.0, 20.0):
            want = gauss_jordan_inverse(h.T @ h + np.eye(8) / c) @ (h.T @ t)
            assert fit(h, t, c) == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_more_neurons_than_rows(self, rng):
        # H^T H has rank 6 of 20; I / c alone makes the ridge matrix positive definite
        h = rng.normal(size=(6, 20))
        t = rng.normal(size=(6, 2))
        for c in (0.1, 1e4):
            want = gauss_jordan_inverse(h.T @ h + np.eye(20) / c) @ (h.T @ t)
            assert fit(h, t, c) == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_c_must_be_positive(self):
        for c in (0.0, -1.0):
            with pytest.raises(ValueError, match=rf"^regularization term c must be positive, got {c}$"):
                fit(np.eye(2), np.eye(2), c)
        # NaN fails the float rule first, as it does in PipelineConfig and load_model
        with pytest.raises(ValueError, match=r"^regularization term c must be finite, got nan$"):
            fit(np.eye(2), np.eye(2), float("nan"))

    def test_c_with_infinite_inverse_refused(self):
        # I / c would overflow to inf, and the factor and solves would still
        # return an all-zero beta
        for c in (1e-320, 5e-324):
            with pytest.raises(ValueError, match=rf"^regularization term c must be large enough "
                                                 rf"for a finite 1 / c, got {c}$"):
                fit(np.eye(2), np.eye(2), c)

    @given(st.integers(0, 2 ** 31 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_leading_blocks_fit_the_leading_columns(self, seed, data):
        # what the sweep rests on: the factor and forward solve of H's first k
        # columns are the leading block and first k rows of H's own
        r = np.random.default_rng(seed)
        n, L = int(r.integers(2, 40)), int(r.integers(1, 16))
        k = data.draw(st.integers(1, L), label="k")
        h, t = r.normal(size=(n, L)), r.normal(size=(n, 3))
        low, u = elm._factor(h, t, 0.5)
        low_k, u_k = elm._factor(h[:, :k], t, 0.5)
        assert np.linalg.norm(low[:k, :k] - low_k) <= 1e-10 * np.linalg.norm(low_k)
        assert np.linalg.norm(u[:k] - u_k) <= 1e-10 * np.linalg.norm(u_k)
        assert fit(h[:, :k], t, 0.5) == pytest.approx(
            np.linalg.solve(low[:k, :k].T, u[:k]), rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("h, t, message", [
        (np.ones(3), np.ones((3, 2)), r"h must be N x d, got shape \(3,\)"),
        (np.ones((5, 3, 1)), np.ones((5, 2)), r"h must be N x d, got shape \(5, 3, 1\)"),
        (np.ones((5, 3)), np.ones((4, 2)), r"t must be 5 x K to match h, got shape \(4, 2\)"),
        (np.ones((5, 3)), np.ones(5), r"t must be N x d, got shape \(5,\)"),
        (np.ones((5, 3)), np.ones((5, 2, 1)), r"t must be N x d, got shape \(5, 2, 1\)"),
        (np.array([[1.0, np.nan]]), np.ones((1, 2)), r"h contains non-finite values"),
        (np.array([[1.0, -np.inf]]), np.ones((1, 2)), r"h contains non-finite values"),
        (np.ones((2, 2)), np.array([[1.0, 0.0], [np.inf, 1.0]]), r"t contains non-finite values"),
        (np.ones((2, 2)), np.array([[1.0, np.nan], [0.0, 1.0]]), r"t contains non-finite values"),
    ], ids=["h_1d", "h_3d", "t_rows", "t_1d", "t_3d", "h_nan", "h_inf", "t_inf", "t_nan"])
    def test_arguments_checked_by_name(self, h, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit(h, t, 1.0)

    def test_rank_deficient_gram_names_L_and_c(self):
        # I / c vanishes next to a rank-1 Gram matrix, which then has no Cholesky factor
        message = (r"^H\^T H \+ I / c is not positive definite at L = 5, c = 1e\+300; "
                   r"lower c$")
        with pytest.raises(ValueError, match=message):
            fit(np.ones((3, 5)), np.ones((3, 2)), 1e300)
        x, labels = _toy_problem(np.random.default_rng(0), n=20, d=4)
        with pytest.raises(ValueError, match=message.replace("L = 5", "L = 50")):
            train_elm(x, labels, L=50, c=1e300, seed=0)


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

    @pytest.mark.parametrize("cut, message", [
        (lambda x, labels: (x, labels[:-1]),
         r"pairs must be 160 x 2, got shape \(159, 2\)"),
        (lambda x, labels: (x[:, 0], labels),
         r"features must be N x d with N >= 1, got shape \(160,\)"),
        # no rows would give a model of no classes, whose every prediction fails
        (lambda x, labels: (x[:0], labels[:0]),
         r"features must be N x d with N >= 1, got shape \(0, 8\)"),
    ], ids=["pairs_short", "features_1d", "no_rows"])
    def test_shapes_named(self, rng, cut, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_elm(*cut(*_toy_problem(rng)), L=10, c=1.0, seed=0)

    def test_non_finite_features_named(self, rng):
        x, labels = _toy_problem(rng)
        x[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"^features contains non-finite values$"):
            train_elm(x, labels, L=10, c=1.0, seed=0)

    def test_argmax_tie_takes_lowest_class_index(self):
        cb = ClassCodebook(np.array([[0, 0], [0, 1], [2, 5]]))
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
        # 5e-324 / 127 is 0.0: a zero scale would divide by zero
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

    def test_predict_quantized_serves_a_float_model(self, rng):
        # int8 is a way to serve any model: the codes come from the float weights
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=10, c=1.0, seed=0)
        assert not model.int8
        int8 = quantize(model)
        assert [a.tolist() for a in predict_quantized(x, model)] == (
            [a.tolist() for a in predict_quantized(x, int8)])
        for key in ("w_q", "b_q", "beta_q", "b", "beta"):
            got, want = getattr(model.quantized, key), getattr(int8.quantized, key)
            assert got.tobytes() == want.tobytes()


def quantize_tensor_reference(x):
    """Symmetric int8 codes, rounded half away from zero with one temporary per step."""
    scale = elm._quantize_tensor(x)[1]
    v = x / scale
    q = np.copysign(np.floor(np.abs(v) + 0.5), v)
    return np.clip(q, -127, 127).astype(np.int8), scale


def dense_scores(features, model, quantized=False):
    """tansig(x w + b) beta over every row of w: the float weights, or all of
    the int8 codes dequantized."""
    if quantized:
        q = model.quantized
        w = q.w_q.astype(np.float64) * q.w_scale
        b = q.b_q.astype(np.float64) * q.b_scale
        beta = q.beta_q.astype(np.float64) * q.beta_scale
    else:
        w, b, beta = model.w, model.b, model.beta
    return hidden_map(features, w, b) @ beta


def predict_quantized_reference(features, model):
    """Dense product over every row of the dequantized weights."""
    return model.codebook.decode(np.argmax(dense_scores(features, model, True), axis=1))


def gathered_scores(features, model, quantized=False):
    """The scores ``predict`` (or ``predict_quantized``) takes its argmax of."""
    if not quantized:
        return elm._scores(features, model.w, model.b, model.beta)
    q = model.quantized
    return elm._scores(features, q.w_q, q.b, q.beta, w_scale=q.w_scale)


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
        scores = hidden_map(x, model.w, model.b) @ model.beta
        b, f = model.codebook.decode(np.argmax(scores, axis=1))
        pb, pf = predict(x, model)
        assert pb.tobytes() == b.tobytes() and pf.tobytes() == f.tobytes()

    def test_int8_query_allocates_less_than_w(self, rng):
        # an int8 model keeps no float copy of w: a one-row query dequantizes
        # the rows of w its features need (b and beta are made with the codes)
        x, labels = _toy_problem(rng, d=64)
        model = quantize(train_elm(x, labels, L=200, c=1.0, seed=0))
        codes = model.quantized  # made once per model, before the query is traced
        query = np.zeros((1, 64))
        query[0, :4] = x[0, :4]
        for _ in range(2):
            answer, peak = traced_peak(lambda: predict_quantized(query, model))
            assert peak < model.w.nbytes
        want = predict_quantized_reference(query, model)
        assert answer[0].tobytes() == want[0].tobytes()
        assert answer[1].tobytes() == want[1].tobytes()
        # the queries cached nothing on the weights beyond their fields
        assert set(vars(codes)) == {f.name for f in dataclasses.fields(QuantizedWeights)}
        b, beta = codes.b, codes.beta
        assert b.tobytes() == (codes.b_q.astype(np.float64) * codes.b_scale).tobytes()
        assert beta.tobytes() == (codes.beta_q.astype(np.float64) * codes.beta_scale).tobytes()
        assert not any(a.flags.writeable for a in (codes.w_q, b, beta))

    @pytest.mark.parametrize("name", ["w", "b", "beta"])
    def test_non_finite_weights_rejected(self, rng, tmp_path, name):
        # beta is stored; w and b are drawn from the seed, and a file that holds
        # a copy of them is rejected for the key, whatever the copy holds
        x, labels = _toy_problem(rng)
        model = train_elm(x, labels, L=10, c=1.0, seed=0)
        doc = saved_doc(model, tmp_path / "m.json")
        weights = np.array(getattr(model, name))
        weights.flat[0] = np.nan
        doc["elm"][name] = weights.tolist()
        message = (r"'elm': beta contains non-finite" if name == "beta"
                   else rf"model key 'elm' holds unknown key '{name}'$")
        with pytest.raises(ValueError, match=message):
            loaded_elm(doc, tmp_path / "m.json")
        if name == "beta":
            beta = np.zeros((4, 1))
            beta[0, 0] = np.nan
            with pytest.raises(ValueError, match=r"^beta contains non-finite"):
                ElmModel(beta=beta, c=1.0, codebook=ClassCodebook(np.array([[0, 0]])),
                         seed=0, n_features=3)

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
        assert "quantized" not in vars(model)  # the cached codes stay unbuilt
        assert saved_doc(model, tmp_path / "m.json")["elm"]["quantized"] is False

    @pytest.mark.parametrize("value", [300, -128, 1.7, 10 ** 400],
                             ids=["above", "below", "fraction", "huge"])
    @pytest.mark.parametrize("key", ["w_q", "b_q", "beta_q"])
    def test_bad_int8_code_rejected(self, rng, tmp_path, key, value):
        # model files hold no int8 codes: elm.quantized says only whether to
        # make them, and codes written there are rejected, whatever they hold
        x, labels = _toy_problem(rng)
        model = quantize(train_elm(x, labels, L=10, c=1.0, seed=0))
        doc = saved_doc(model, tmp_path / "m.json")
        codes = getattr(model.quantized, key).astype(object)
        codes.flat[0] = value
        doc["elm"]["quantized"] = {key: codes.tolist()}
        with pytest.raises(ValueError, match=r"'elm': quantized must hold true or false"):
            loaded_elm(doc, tmp_path / "m.json")

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
        model = quantize(train_elm(x, labels, L=10, c=1.0, seed=0))
        q = model.quantized
        for codes in (q.w_q, q.b_q, q.beta_q):
            assert np.abs(codes.astype(np.int64)).max() == 127
        # and a saved model makes the same codes again when loaded
        back = loaded_elm(saved_doc(model, tmp_path / "m.json"), tmp_path / "m.json").quantized
        for field in dataclasses.fields(q):
            assert np.array_equal(getattr(back, field.name), getattr(q, field.name))


# Gathered and dense products add the same nonzero terms in another order, so
# their scores may differ by a few ulps: 8.9e-16 was seen on single UJI1-shaped
# test rows (scores up to 2.1), and the suite already allows 2.3e-15 between a
# row scored in a batch and alone. The toy models below score within a few
# units, so 1e-13 holds that with room, while a dropped, duplicated or
# misplaced row of w moves a score by far more.
_GATHER_ATOL = 1e-13
_D = 24


def _sparse_rows(r, kinds):
    """One row per kind: ``silent`` (all zero), ``one`` (one nonzero feature)
    or ``sparse`` (about a fifth of the features nonzero)."""
    x = np.zeros((len(kinds), _D))
    for row, kind in zip(x, kinds):
        if kind == "one":
            row[r.integers(_D)] = r.uniform(0.01, 1.0)
        elif kind == "sparse":
            heard = r.random(_D) < 0.2
            row[heard] = r.uniform(0.01, 1.0, int(heard.sum()))
    return x


class TestGatheredRows:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(("silent", "one", "sparse")), min_size=1, max_size=6),
           L=st.integers(1, 60), quantized=st.booleans())
    @example(seed=0, kinds=["silent"], L=30, quantized=True)
    @example(seed=1, kinds=["one"], L=30, quantized=False)
    @settings(max_examples=60, deadline=None)
    def test_sparse_rows_score_like_the_dense_product(self, seed, kinds, L, quantized):
        r = np.random.default_rng(seed)
        x_train, labels = _toy_problem(r, d=_D)
        model = quantize(train_elm(x_train, labels, L=L, c=1.0, seed=seed))
        x = _sparse_rows(r, kinds)
        dense = dense_scores(x, model, quantized)
        got = gathered_scores(x, model, quantized)
        np.testing.assert_allclose(got, dense, rtol=0, atol=_GATHER_ATOL)
        # answers agree wherever the dense scores' top two are told apart
        top2 = np.sort(dense, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 2 * _GATHER_ATOL
        answer = (predict_quantized if quantized else predict)(x, model)
        want = model.codebook.decode(np.argmax(dense, axis=1))
        for a, b in zip(answer, want):
            assert np.array_equal(a[clear], b[clear])
        # one row that holds every feature turns the batch dense: bitwise
        full = np.vstack([x, r.uniform(0.01, 1.0, (1, _D))])
        assert gathered_scores(full, model, quantized).tobytes() == \
            dense_scores(full, model, quantized).tobytes()

    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "int8"])
    def test_silent_rows_answer_as_the_dense_product(self, rng, quantized):
        x_train, labels = _toy_problem(rng, d=_D)
        model = quantize(train_elm(x_train, labels, L=40, c=1.0, seed=2))
        silent = np.zeros((3, _D))
        got = gathered_scores(silent, model, quantized)
        assert got.tobytes() == dense_scores(silent, model, quantized).tobytes()
        # no feature heard: the hidden layer is tansig(b)
        b = model.quantized.b_q * model.quantized.b_scale if quantized else model.b
        beta = model.quantized.beta_q * model.quantized.beta_scale if quantized else model.beta
        assert got.tobytes() == (np.tanh(np.tile(b, (3, 1))) @ beta).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "int8"])
    def test_non_finite_column_kept_and_refused(self, rng, value, quantized):
        x_train, labels = _toy_problem(rng, d=_D)
        model = quantize(train_elm(x_train, labels, L=20, c=1.0, seed=0))
        x = np.zeros((2, _D))
        x[1, 5] = value
        with pytest.raises(ValueError, match=r"^features contains non-finite values$"):
            (predict_quantized if quantized else predict)(x, model)

    def test_narrow_rows_refused_before_the_gather(self, rng):
        x_train, labels = _toy_problem(rng, d=_D)
        model = quantize(train_elm(x_train, labels, L=20, c=1.0, seed=0))
        for bad in (np.zeros((1, _D - 1)), np.zeros(_D)):
            for call in (predict, predict_quantized):
                with pytest.raises(ValueError, match=rf"^features must be N x {_D}, got shape "):
                    call(bad, model)


class TestSweep:
    def test_grid_and_selection(self, rng):
        x, labels = _toy_problem(rng, n=240)
        res = sweep_hidden(x, labels, c=1.0, L_max=40, step=10, seed=0)
        assert res.sizes.tolist() == [10, 20, 30, 40]
        assert res.best_L in res.sizes
        assert len(res.floor_hits) == len(res.sizes)
        # smallest size attaining the max, i.e. the first argmax
        best = res.floor_hits.max()
        assert res.best_L == res.sizes[np.argmax(res.floor_hits)]
        assert res.floor_hits[res.sizes.tolist().index(res.best_L)] == best

    def test_partial_final_step_included(self, rng):
        x, labels = _toy_problem(rng, n=120)
        res = sweep_hidden(x, labels, c=1.0, L_max=25, step=10, seed=0)
        assert res.sizes.tolist() == [10, 20]

    def test_rank_deficient_gram_names_L_max(self, rng):
        # 15 rows cannot fill 40 neurons once I / c vanishes
        x, labels = _toy_problem(rng, n=15)
        with pytest.raises(ValueError, match=r"not positive definite at L = 40, c = 1e\+300"):
            sweep_hidden(x, labels, c=1e300, L_max=40, step=10)

    def test_empty_features_rejected(self, rng):
        x, labels = _toy_problem(rng, n=30)
        with pytest.raises(ValueError, match=r"^features must be N x d with N >= 1, "):
            sweep_hidden(x[:0], labels[:0], c=1.0, L_max=10)

    def test_no_class_of_two_rows_refused(self, rng):
        # three rows, three classes: each is fitted, and none can be left out
        x, labels = _toy_problem(rng, n=3)
        with pytest.raises(ValueError, match=r"^pairs has no \(building, floor\) class with "
                                             r"the 2 rows a leave-one-out score needs$"):
            sweep_hidden(x, labels, c=1.0, L_max=10)

    def test_one_row_class_is_fitted_not_scored(self, rng):
        x, labels = _toy_problem(rng, n=90)
        x, labels = np.vstack([x, x[:1] + 9.0]), np.vstack([labels, [[5, 5]]])
        res, scores = sweep_with_scores(x, labels, c=1.0, L_max=20, step=10, seed=0)
        assert [s.shape for s in scores] == [(9, 4)] * 2  # 4 classes; ceil(0.1 * 30) rows of 3
        assert res.sizes.tolist() == [10, 20]

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.update(x=np.full_like(a["x"], np.nan)),
         r"features contains non-finite values"),
        (lambda a: a.update(p=a["p"][:-1]),
         r"pairs must be 200 x 2, got shape \(199, 2\)"),
    ], ids=["nan_train", "train_pairs_short"])
    def test_mismatched_inputs_rejected_by_name(self, rng, edit, message):
        x, labels = _toy_problem(rng, n=200)
        args = dict(x=x, p=labels)
        edit(args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep_hidden(args["x"], args["p"], c=1.0, L_max=20, step=10)


class TestHeldTenth:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example([(0, 0)] * 11, 3)  # ceil(0.1 * 11) = 2 rows
    @example([(0, 0)] * 30, 3)  # 0.1 * 30 reads 3.0000000000000004 in floats: 4 rows
    @example([(1, 0), (0, 2), (1, 0), (0, 2), (0, 1)], 0)
    def test_same_rows_as_the_reference(self, rows, seed):
        pairs = np.array(rows)
        want = held_reference(pairs, seed)
        t = elm._targets(pairs)[1]
        if not want.size:
            with pytest.raises(ValueError, match=r"^pairs has no \(building, floor\) class "):
                elm._held_tenth(t, seed)
            return
        assert elm._held_tenth(t, seed).tolist() == want.tolist()


def _noisy_set(rng, n=400, d=10):
    # overlapping classes, so the hit rates move with L
    labels = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 3, n)])
    x = rng.normal(size=(n, d))
    x[:, :2] += labels * 0.8
    return x, labels


#: Relative gap allowed between each held row's leave-one-out scores in the sweep
#: and in the brute-force refit: both solve well-conditioned ridge systems, the
#: sweep from a block of one factor of every row, the reference without the row.
RTOL = 1e-10


def sweep_with_scores(*data, **kwargs):
    """``sweep_hidden``'s result and the leave-one-out score matrix of each grid size."""
    scores = []
    real = elm._hit_pcts

    def recording(s, codebook, pairs):
        scores.append(s.copy())
        return real(s, codebook, pairs)

    with mock.patch.object(elm, "_hit_pcts", recording):
        return sweep_hidden(*data, **kwargs), scores


def assert_sweep_matches_reference(data, c, L_max, step, seed):
    # each held row's scores agree to RTOL; the hit curves and the selected size exactly
    ref = loo_reference(*data, c=c, L_max=L_max, step=step, seed=seed)
    res, scores = sweep_with_scores(*data, c=c, L_max=L_max, step=step, seed=seed)
    assert len(scores) == len(ref[4])
    for got, want in zip(scores, ref[4]):
        assert got.shape == want.shape
        gap = np.linalg.norm(got - want, axis=1)
        assert (gap <= RTOL * np.linalg.norm(want, axis=1)).all(), gap.max()
    for got, want in zip((res.sizes, res.floor_hits, res.building_hits), ref[:3]):
        assert got.tobytes() == want.tobytes()
    assert res.best_L == ref[3]


class TestSweepAgainstReference:
    @pytest.mark.parametrize("L_max, step", [(10, 10), (20, 10), (50, 10), (47, 5)],
                             ids=["one", "two", "odd", "ragged"])
    def test_equals_per_size_fits(self, rng, L_max, step):
        assert_sweep_matches_reference(_noisy_set(rng, n=200), c=0.5, L_max=L_max, step=step,
                                       seed=3)

    @given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(20, 120), step=st.integers(1, 12),
           extra=st.integers(0, 28), c=st.sampled_from([0.1, 1.0, 10.0]))
    @example(seed=1, n=90, step=1, extra=28, c=1.0)  # every size from 1 to 29
    @example(seed=2, n=80, step=9, extra=0, c=1.0)  # L_max = step: one size
    @example(seed=3, n=100, step=7, extra=16, c=0.1)  # ragged: 7, 14, 21 up to 23
    @example(seed=4, n=20, step=4, extra=16, c=10.0)  # as many neurons as rows
    @example(seed=5, n=24, step=2, extra=20, c=1.0)  # L_max one short of the 23 other rows
    @settings(max_examples=30, deadline=None)
    def test_random_splits_and_grids(self, seed, n, step, extra, c):
        data = _noisy_set(np.random.default_rng(seed), n=n)
        assert_sweep_matches_reference(data, c=c, L_max=step + extra, step=step, seed=seed % 7)

    def test_nan_features_raise_like_the_reference(self, rng):
        x, labels = _noisy_set(rng)
        x[7, 2] = np.nan
        with pytest.raises(ValueError) as want:
            loo_reference(x, labels, c=0.5, L_max=50, step=10, seed=0)
        with pytest.raises(ValueError) as got:
            sweep_hidden(x, labels, c=0.5, L_max=50, step=10, seed=0)
        assert str(got.value) == str(want.value) == "features contains non-finite values"
