import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elmloc import elm
from elmloc.dataset import split_validation
from elmloc.evaluation import hit_rate
from elmloc.featurizer import featurize, init_featurizer, spec_to_dict
from elmloc.pipeline import (
    PipelineConfig,
    _fit_pipeline,
    fit_pipeline,
    load_model,
    predict_pipeline,
    save_model,
    sweep_pipeline,
)
from elmloc.preprocess import apply_preprocess, fit_preprocess, params_to_dict


def _config(**kw):
    base = dict(L=60, c=1.0, seed=0)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def fitted(syn_small):
    train, _ = syn_small
    return fit_pipeline(train, _config(quantize=True), dataset="TST1")


class TestFitPredict:
    def test_learns_the_small_problem(self, syn_small, fitted):
        _, test = syn_small
        b, f = predict_pipeline(test, fitted)
        pred = np.column_stack([b, f])
        truth = test.label_pairs()
        assert hit_rate(pred, truth, "building") == 100.0
        assert hit_rate(pred, truth, "floor") > 65.0

    def test_matrix_and_radio_map_agree(self, syn_small, fitted):
        _, test = syn_small
        ba, fa = predict_pipeline(test, fitted)
        bb, fb = predict_pipeline(test.rss, fitted)
        assert (ba == bb).all() and (fa == fb).all()

    def test_elm_only_has_no_featurizer(self, syn_small):
        train, test = syn_small
        model = fit_pipeline(train, _config(approach="elm_only"))
        assert model.featurizer is None
        b, f = predict_pipeline(test, model)
        assert hit_rate(np.column_stack([b, f]), test.label_pairs(), "floor") > 75.0

    def test_wrong_width_rejected(self, syn_small, fitted):
        with pytest.raises(ValueError):
            predict_pipeline(np.zeros((2, fitted.n_aps + 3)), fitted)

    def test_unremapped_sentinel_rejected(self, syn_small, fitted):
        # a raw matrix whose "not detected" cells still hold the file's 100
        _, test = syn_small
        raw = np.where(test.rss == 0.0, 100.0, test.rss)[:5]
        with pytest.raises(ValueError, match=r"query matrix.*sentinel"):
            predict_pipeline(raw, fitted)

    def test_non_finite_query_rejected(self, syn_small, fitted):
        _, test = syn_small
        raw = test.rss[:3].copy()
        raw[1, 4] = np.nan
        with pytest.raises(ValueError, match="query matrix contains non-finite"):
            predict_pipeline(raw, fitted)

    def test_preprocess_state_matches_two_stage_fit(self, syn_small, fitted):
        train, _ = syn_small
        params = fit_preprocess(train)
        assert fitted.preprocess.min_rss == params.min_rss
        assert fitted.preprocess.feature_norms.tobytes() == params.feature_norms.tobytes()
        x = apply_preprocess(train, fitted.preprocess)
        assert x.tobytes() == apply_preprocess(train, params).tobytes()

    def test_quantized_predictions_available(self, syn_small, fitted):
        _, test = syn_small
        b, f = predict_pipeline(test, fitted, quantized=True)
        bf, ff = predict_pipeline(test, fitted)
        assert (f == ff).mean() > 0.9
        assert (b == bf).mean() > 0.9

    def test_unknown_approach_rejected(self):
        with pytest.raises(ValueError):
            _config(approach="mlp")

    def test_deterministic(self, syn_small):
        train, test = syn_small
        m1 = fit_pipeline(train, _config(seed=9))
        m2 = fit_pipeline(train, _config(seed=9))
        b1, f1 = predict_pipeline(test, m1)
        b2, f2 = predict_pipeline(test, m2)
        assert (f1 == f2).all() and (b1 == b2).all()


class TestTrainingActivations:
    @pytest.mark.parametrize("norm_mode", ["per_feature", "per_sample"])
    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    def test_h_scores_the_training_rows_like_predict(self, syn_small, approach, norm_mode):
        # elmloc train prints its training hit lines from H instead of predicting again
        train, _ = syn_small
        config = _config(approach=approach, norm_mode=norm_mode, quantize=True)
        model, h = _fit_pipeline(train, config)
        assert (model.elm.beta == fit_pipeline(train, config).elm.beta).all()
        x = apply_preprocess(train, model.preprocess)
        if model.featurizer is not None:
            x = featurize(x, model.featurizer)
        m = model.elm
        assert np.array_equal(h @ m.beta, elm._scores(x, m.w, m.b, m.beta))  # bitwise
        b, f = m.codebook.decode(np.argmax(h @ m.beta, axis=1))
        pb, pf = predict_pipeline(train, model)
        assert np.array_equal(b, pb) and np.array_equal(f, pf)


def _scores(rss, model, quantized=False):
    """Score matrix of the stages recomposed by hand, float or dequantized weights."""
    x = apply_preprocess(rss, model.preprocess)
    if model.featurizer is not None:
        x = featurize(x, model.featurizer)
    m = model.elm
    weights = m.quantized.dequantized if quantized else (m.w, m.b, m.beta)
    return elm._scores(x, *weights)


def _queries(test, seed, n):
    """n rows: test fingerprints plus random ones, some of them all-silent."""
    rng = np.random.default_rng(seed)
    rss = test.rss[rng.integers(0, test.n_samples, size=n)].copy()
    noisy = rng.random(n) < 0.25
    rss[noisy] = np.where(rng.random((int(noisy.sum()), test.n_aps)) < 0.2,
                          -rng.uniform(30.0, 100.0, (int(noisy.sum()), test.n_aps)), 0.0)
    return rss


# Scores of the same row may differ by a few ulps with its position and batch
# (up to 2.3e-15 seen), so answers are compared on rows with a clear top-2 gap.
_MARGIN = 1e-9


def _clear(scores):
    top2 = np.sort(scores, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] > _MARGIN


class TestPredictProperties:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80), quantized=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_permuting_rows_permutes_answers(self, syn_small, fitted, seed, n, quantized):
        rss = _queries(syn_small[1], seed, n)
        perm = np.random.default_rng([seed, 1]).permutation(n)
        b, f = predict_pipeline(rss, fitted, quantized=quantized)
        pb, pf = predict_pipeline(rss[perm], fitted, quantized=quantized)
        clear = _clear(_scores(rss, fitted, quantized))[perm]
        assert clear.mean() > 0.9  # the property is not checked on a handful of rows
        assert np.array_equal(pb[clear], b[perm][clear])
        assert np.array_equal(pf[clear], f[perm][clear])

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80),
           batch=st.integers(1, 80), quantized=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_answers_do_not_depend_on_batch_size(self, syn_small, fitted, seed, n, batch,
                                                 quantized):
        rss = _queries(syn_small[1], seed, n)
        b, f = predict_pipeline(rss, fitted, quantized=quantized)
        parts = [predict_pipeline(rss[i : i + batch], fitted, quantized=quantized)
                 for i in range(0, n, batch)]
        bb = np.concatenate([p[0] for p in parts])
        fb = np.concatenate([p[1] for p in parts])
        clear = _clear(_scores(rss, fitted, quantized))
        assert clear.mean() > 0.9
        assert np.array_equal(bb[clear], b[clear]) and np.array_equal(fb[clear], f[clear])


def sweep_reference(train, config, step):
    """The sweep as the CLI composed it before ``sweep_pipeline``: its bitwise oracle."""
    sweep_train, val = split_validation(train, fraction=0.1, seed=config.seed)
    params = fit_preprocess(sweep_train, mode=config.norm_mode)
    x_tr = apply_preprocess(sweep_train, params)
    x_val = apply_preprocess(val, params)
    if config.approach == "cnn_elm":
        spec = init_featurizer(config.seed, train.n_aps, n_filters=config.n_filters,
                               kernel_size=config.kernel_size)
        x_tr = featurize(x_tr, spec)
        x_val = featurize(x_val, spec)
    return elm.sweep_hidden(x_tr, sweep_train.label_pairs(), x_val, val.label_pairs(),
                            config.c, config.L, step=step, seed=config.seed)


class TestSweepPipeline:
    @pytest.mark.parametrize("approach, kw", [
        ("cnn_elm", {}),
        ("elm_only", {}),
        ("cnn_elm", dict(norm_mode="per_sample", kernel_size=5, n_filters=3, seed=4, c=0.1)),
        ("elm_only", dict(norm_mode="per_sample", seed=2, c=10.0)),
    ], ids=["cnn_elm", "elm_only", "cnn_elm_per_sample", "elm_only_per_sample"])
    def test_equals_the_old_composition_bitwise(self, syn_small, approach, kw):
        train, _ = syn_small
        config = _config(approach=approach, L=70, **kw)
        res = sweep_pipeline(train, config, step=7)
        ref = sweep_reference(train, config, step=7)
        assert res.sizes.tolist() == list(range(7, 71, 7))
        for name in ("sizes", "floor_hits", "building_hits"):
            got, want = getattr(res, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert res.best_L == ref.best_L

    def test_reads_no_quantize_flag(self, syn_small):
        train, _ = syn_small
        a = sweep_pipeline(train, _config(L=40, quantize=True), step=20)
        b = sweep_pipeline(train, _config(L=40), step=20)
        assert a.floor_hits.tobytes() == b.floor_hits.tobytes()


def save_model_reference(model, path):
    """The model file as ``json.dump`` encoded it: the byte oracle for save_model."""
    doc = {
        "format": "elmloc-model-v1",
        "dataset": model.dataset,
        "config": dataclasses.asdict(model.config),
        "preprocess": params_to_dict(model.preprocess),
        "featurizer": None if model.featurizer is None else spec_to_dict(model.featurizer),
        "elm": elm.model_to_dict(model.elm),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


class TestSaveLoad:
    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    @pytest.mark.parametrize("quantize", [False, True], ids=["float", "int8"])
    def test_file_bytes_match_json_dump(self, syn_small, tmp_path, approach, quantize):
        train, _ = syn_small
        model = fit_pipeline(train, _config(approach=approach, quantize=quantize,
                                            norm_mode="per_sample", c=0.1))
        save_model(model, tmp_path / "m.json")
        save_model_reference(model, tmp_path / "ref.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert load_model(tmp_path / "m.json").config == model.config

    def test_round_trip_predictions_identical(self, syn_small, fitted, tmp_path):
        _, test = syn_small
        p = tmp_path / "m.json"
        save_model(fitted, p)
        back = load_model(p)
        assert back.dataset == fitted.dataset
        b1, f1 = predict_pipeline(test, fitted)
        b2, f2 = predict_pipeline(test, back)
        assert (b1 == b2).all() and (f1 == f2).all()
        q1 = predict_pipeline(test, fitted, quantized=True)
        q2 = predict_pipeline(test, back, quantized=True)
        assert (q1[1] == q2[1]).all()

    def test_weights_exact_after_round_trip(self, fitted, tmp_path):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        back = load_model(p)
        assert (back.elm.beta == fitted.elm.beta).all()
        assert (back.featurizer.filters == fitted.featurizer.filters).all()
        assert back.preprocess.min_rss == fitted.preprocess.min_rss
        assert back.config == fitted.config

    def test_numpy_integer_settings_round_trip(self, syn_small, tmp_path):
        # settings read from numpy arrays are stored as Python ints, so the model saves
        train, test = syn_small
        config = _config(L=np.int64(20), seed=np.int64(2))
        assert (type(config.L), type(config.seed)) == (int, int)
        assert config == _config(L=20, seed=2)
        model = fit_pipeline(train, config)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.config == config
        for got, want in zip(predict_pipeline(test, back), predict_pipeline(test, model)):
            assert (got == want).all()

    def test_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_model(p)

    def test_rejects_malformed_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{oops")
        with pytest.raises(ValueError):
            load_model(p)

    @pytest.mark.parametrize("key", ["preprocess", "featurizer", "elm", "config"])
    def test_missing_section_named(self, fitted, tmp_path, key):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"m\.json: model document lacks key '{key}'"):
            load_model(p)

    @pytest.mark.parametrize("key, edit, message", [
        ("preprocess", lambda d: d.pop("min_rss"), r"'preprocess' lacks 'min_rss'"),
        ("elm", lambda d: d.update(seed="x"), r"model key 'elm'"),
        ("config", lambda d: d.update(extra=1), r"model key 'config'"),
        ("featurizer", lambda d: d.update(filters="x"), r"model key 'featurizer'"),
    ], ids=["missing_nested_key", "bad_int", "unknown_config_field", "bad_array"])
    def test_bad_section_named(self, fitted, tmp_path, key, edit, message):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        doc = json.loads(p.read_text())
        edit(doc[key])
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_model(p)

    @pytest.mark.parametrize("text", ['{"format": "elmloc-model-v1", "elm": [1]}',
                                      '{"format": "elmloc-model-v1", "dataset": 5}',
                                      '[1, 2]'])
    def test_wrongly_typed_document(self, tmp_path, text):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"m\.json"):
            load_model(p)


def _edit_w_q_value(value):
    def edit(elm):
        elm["quantized"]["w_q"][0][0] = value
    return edit


# Model files whose weights cannot be served; each must fail at load time.
BAD_WEIGHTS = {
    "int8_out_of_range": (_edit_w_q_value(300), r"quantized w_q must hold integers"),
    "int8_fraction": (_edit_w_q_value(1.7), r"quantized w_q must hold integers"),
    "int8_row_dropped": (lambda elm: elm["quantized"]["w_q"].pop(),
                         r"quantized w_q has shape \(\d+, 60\)"),
    "nan_weight": (lambda elm: elm["w"][0].__setitem__(0, float("nan")),
                   r"w contains non-finite"),
}


def write_bad_model(good, bad, case):
    """Copy the model file ``good`` to ``bad`` with the weights edited by ``case``."""
    doc = json.loads(good.read_text())
    BAD_WEIGHTS[case][0](doc["elm"])
    bad.write_text(json.dumps(doc))


# Model files with an integer key that is no JSON integer, or a config field of
# the wrong type; (section, edit, message) per case, each must fail at load time.
BAD_KEYS = {
    "codebook_fraction": ("elm", lambda d: d["codebook"][0].__setitem__(1, 1.7),
                          r"codebook must hold 64-bit integers, got 1\.7"),
    "codebook_bool": ("elm", lambda d: d["codebook"][0].__setitem__(1, True),
                      r"codebook must hold 64-bit integers, got True"),
    "kernel_size_fraction": ("featurizer", lambda d: d.update(kernel_size=3.9),
                             r"kernel_size must hold 64-bit integers, got 3\.9"),
    "n_aps_bool": ("featurizer", lambda d: d.update(n_aps=True),
                   r"n_aps must hold 64-bit integers, got True"),
    "config_L_string": ("config", lambda d: d.update(L="60"),
                        r"L must hold 64-bit integers, got '60'"),
    "config_seed_fraction": ("config", lambda d: d.update(seed=1.5),
                             r"seed must hold 64-bit integers, got 1\.5"),
    "config_c_bool": ("config", lambda d: d.update(c=True),
                      r"c must hold a float, got True"),
    "config_approach_number": ("config", lambda d: d.update(approach=1),
                               r"approach must be one of cnn_elm, elm_only, got 1"),
    "config_quantize_string": ("config", lambda d: d.update(quantize="yes"),
                               r"quantize must hold true or false, got 'yes'"),
    # a float() cast would load each of these as a number
    "c_string": ("elm", lambda d: d.update(c="0.5"), r"c must hold a float, got '0\.5'"),
    "c_bool": ("elm", lambda d: d.update(c=True), r"c must hold a float, got True"),
    "min_rss_string": ("preprocess", lambda d: d.update(min_rss="-90"),
                       r"min_rss must hold a float, got '-90'"),
    "exponent_bool": ("preprocess", lambda d: d.update(exponent=True),
                      r"exponent must hold a float, got True"),
    "w_scale_string": ("elm", lambda d: d["quantized"].update(w_scale="0.01"),
                       r"w_scale must hold a float, got '0\.01'"),
}


def write_bad_key_model(good, bad, case):
    """Copy the model file ``good`` to ``bad`` with one key edited by ``case``."""
    section, edit, _ = BAD_KEYS[case]
    doc = json.loads(good.read_text())
    edit(doc[section])
    bad.write_text(json.dumps(doc))


class TestBadKeys:
    @pytest.mark.parametrize("case", sorted(BAD_KEYS))
    def test_rejected_at_load(self, fitted, tmp_path, case):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        write_bad_key_model(p, p, case)
        section, _, message = BAD_KEYS[case]
        with pytest.raises(ValueError, match=rf"m\.json: bad value under model key "
                                             rf"'{section}': {message}"):
            load_model(p)

    def test_integer_loads_where_float_expected(self, fitted, tmp_path):
        p = tmp_path / "m.json"
        save_model(dataclasses.replace(fitted, config=dataclasses.replace(
            fitted.config, c=2, exponent=3)), p)
        assert load_model(p).config.c == 2


class TestBadWeights:
    @pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
    def test_rejected_at_load(self, fitted, tmp_path, case):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        write_bad_model(p, p, case)
        with pytest.raises(ValueError, match=r"m\.json: bad value under model key 'elm': "
                                             + BAD_WEIGHTS[case][1]):
            load_model(p)


def test_serving_does_not_import_scipy(fitted, tmp_path):
    # elmloc does not depend on scipy; nothing on the serving path may pull it in
    p = tmp_path / "m.json"
    save_model(fitted, p)
    code = (
        "import sys, numpy as np, elmloc\n"
        "from elmloc.pipeline import load_model, predict_pipeline\n"
        f"model = load_model({str(p)!r})\n"
        "predict_pipeline(np.full((1, model.n_aps), -70.0), model, quantized=True)\n"
        "predict_pipeline(np.full((2, model.n_aps), -70.0), model)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
