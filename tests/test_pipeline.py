import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import loo_reference, traced_peak
from hypothesis import example, given, settings, strategies as st

from elmloc import elm, pipeline
from elmloc.cli import main
from elmloc.dataset import ParseError, RadioMap
from elmloc.evaluation import hit_rate
from elmloc.featurizer import featurize, init_featurizer
from elmloc.pipeline import (
    PipelineConfig,
    fit_pipeline,
    load_model,
    predict_pipeline,
    save_model,
    sweep_pipeline,
)
from elmloc.preprocess import apply_preprocess, fit_preprocess


def _config(**kw):
    base = dict(L=60, c=1.0, seed=0)
    base.update(kw)
    return PipelineConfig(**base)


def settings_of(model):
    """The ``PipelineConfig`` fields a trained model holds, each read from its part.

    An ``elm_only`` model has no conv stage, so no ``n_filters`` or ``kernel_size``.
    """
    settings = dict(L=model.elm.L, c=model.elm.c, seed=model.elm.seed,
                    approach="elm_only" if model.featurizer is None else "cnn_elm",
                    norm_mode=model.preprocess.mode, quantize=model.elm.quantized is not None)
    if model.featurizer is not None:
        assert model.featurizer.seed == model.elm.seed
        settings.update(n_filters=model.featurizer.n_filters,
                        kernel_size=model.featurizer.kernel_size)
    return settings


def settings_in(config):
    """``settings_of`` for the model ``config`` trains."""
    settings = dataclasses.asdict(config)
    if config.approach == "elm_only":
        del settings["n_filters"], settings["kernel_size"]
    return settings


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

    @pytest.mark.parametrize("cast, what", [
        (lambda rss: rss.astype(str), "strings"),
        (lambda rss: rss + 1j, "complex numbers"),
        (lambda rss: np.zeros(rss.shape, dtype=bool), "true/false values"),
        (lambda rss: rss.astype(object), "nulls or other non-numbers"),
    ], ids=["numeric_strings", "complex", "bool", "object"])
    def test_non_number_matrix_rejected(self, syn_small, fitted, cast, what):
        # a float cast would read "-60" as -60.0, drop an imaginary part and read false as 0.0
        raw = cast(syn_small[1].rss[:3])
        with pytest.raises(ValueError, match=rf"^query matrix must hold numbers, got {what}$"):
            predict_pipeline(raw, fitted)
        with pytest.raises(ValueError, match=rf"^rss must hold numbers, got {what}$"):
            RadioMap(rss=raw, floor=np.zeros(3, dtype=np.int64))

    def test_integer_matrix_accepted(self, syn_small, fitted):
        rss = np.rint(syn_small[1].rss[:20])
        ints = rss.astype(np.int64)
        got, want = predict_pipeline(ints, fitted), predict_pipeline(rss, fitted)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert RadioMap(rss=ints, floor=np.zeros(20, dtype=np.int64)).rss.tobytes() == rss.tobytes()

    def test_quantized_refused_before_any_stage_runs(self, syn_small, fitted, monkeypatch):
        float_only = dataclasses.replace(fitted, elm=dataclasses.replace(fitted.elm, int8=False))

        def stage(*args):
            raise AssertionError("a stage ran before the int8 codes were looked for")

        monkeypatch.setattr(pipeline, "_apply_stages", stage)
        message = (r"^model has no quantized weights; "
                   r"train with quantize=True \(elmloc train --quantize\)$")
        with pytest.raises(ValueError, match=message):
            predict_pipeline(syn_small[1].rss[:3], float_only, quantized=True)

    @pytest.mark.parametrize("norm_mode", ["per_feature", "per_sample"])
    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    def test_caller_matrices_left_untouched(self, syn_small, approach, norm_mode):
        # the unit-norm stage divides in place, on the matrix apply_powed made
        train, test = syn_small
        rss = train.rss.copy()
        radio_map = RadioMap(rss=rss, floor=train.floor, building=train.building)
        # RadioMap holds a read-only view of the caller's matrix; make it
        # writeable so that a stray write would land instead of raising
        radio_map.rss.flags.writeable = True
        assert np.shares_memory(radio_map.rss, rss)
        model = fit_pipeline(radio_map, _config(approach=approach, norm_mode=norm_mode,
                                                quantize=True))
        queries = test.rss.copy()
        apply_preprocess(queries, model.preprocess)
        predict_pipeline(queries, model)
        predict_pipeline(queries, model, quantized=True)
        assert rss.tobytes() == train.rss.tobytes()
        assert queries.tobytes() == test.rss.tobytes()

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


def _scores(rss, model, quantized=False):
    """Score matrix of the stages recomposed by hand, float or dequantized weights
    (dequantized here, per call)."""
    x = apply_preprocess(rss, model.preprocess)
    if model.featurizer is not None:
        x = featurize(x, model.featurizer)
    m = model.elm
    if quantized:
        q = m.quantized
        weights = (q.w_q.astype(np.float64) * q.w_scale, q.b_q.astype(np.float64) * q.b_scale,
                   q.beta_q.astype(np.float64) * q.beta_scale)
    else:
        weights = (m.w, m.b, m.beta)
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


def stage_output(train, config):
    """The ELM's training input, composed from the stages' public functions."""
    x = apply_preprocess(train, fit_preprocess(train, mode=config.norm_mode))
    if config.approach == "cnn_elm":
        spec = init_featurizer(config.seed, train.n_aps, n_filters=config.n_filters,
                               kernel_size=config.kernel_size)
        x = featurize(x, spec)
    return x


class TestSweepPipeline:
    @pytest.mark.parametrize("approach, kw", [
        ("cnn_elm", {}),
        ("elm_only", {}),
        ("cnn_elm", dict(norm_mode="per_sample", kernel_size=5, n_filters=3, seed=4, c=0.1)),
        ("elm_only", dict(norm_mode="per_sample", seed=2, c=10.0)),
    ], ids=["cnn_elm", "elm_only", "cnn_elm_per_sample", "elm_only_per_sample"])
    def test_equals_leave_one_out_refits(self, syn_small, approach, kw):
        # every row through the stages, each held row scored by a refit without it
        train, _ = syn_small
        config = _config(approach=approach, L=70, **kw)
        res = sweep_pipeline(train, config, step=14)
        ref = loo_reference(stage_output(train, config), train.label_pairs(), config.c,
                            config.L, 14, config.seed)
        assert res.sizes.tolist() == [14, 28, 42, 56, 70]
        for got, want in zip((res.sizes, res.floor_hits, res.building_hits), ref[:3]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert res.best_L == ref[3]

    @pytest.mark.parametrize("step", [0, 41])
    def test_bad_grid_refused_before_the_stages(self, syn_small, monkeypatch, step):
        def stages(*args, **kwargs):
            raise AssertionError("a stage was fitted before the grid was checked")

        monkeypatch.setattr(pipeline, "_fit_stages", stages)
        with pytest.raises(ValueError, match=rf"^need 1 <= step <= L_max, got step={step}, L_max=40$"):
            sweep_pipeline(syn_small[0], _config(L=40), step=step)

    def test_reads_no_quantize_flag(self, syn_small):
        train, _ = syn_small
        a = sweep_pipeline(train, _config(L=40, quantize=True), step=20)
        b = sweep_pipeline(train, _config(L=40), step=20)
        assert a.floor_hits.tobytes() == b.floor_hits.tobytes()


class TestHiddenSizeBoundFirst:
    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    def test_refused_before_any_stage_runs(self, syn_small, monkeypatch, approach):
        # the ELM input is 40 wide either way: syn_small's 40 APs, or the default
        # conv stage's 20 pooled positions x 2 filters
        train, _ = syn_small
        monkeypatch.setattr(elm, "MAX_HIDDEN_WEIGHTS", 40 * 60 - 1)

        def stage(*args):
            raise AssertionError("a stage ran before the hidden-size bound was checked")

        monkeypatch.setattr(pipeline, "_fit_transform", stage)
        monkeypatch.setattr(pipeline, "featurize", stage)
        message = (r"^a hidden layer of 40 inputs x 60 neurons exceeds the 2399 weights "
                   r"that MAX_HIDDEN_WEIGHTS allows$")
        config = _config(approach=approach, L=60)
        with pytest.raises(ValueError, match=message):
            fit_pipeline(train, config)
        with pytest.raises(ValueError, match=message):
            sweep_pipeline(train, config, step=20)


def random_sha256_reference(model):
    """sha256 of n_aps as a little-endian int64, then of w, b and the filters as
    little-endian float64, hashed in one buffer."""
    arrays = [model.elm.w, model.elm.b]
    if model.featurizer is not None:
        arrays.append(model.featurizer.filters)
    width = np.array([model.n_aps], dtype="<i8").tobytes()
    return hashlib.sha256(width + b"".join(a.astype("<f8").tobytes() for a in arrays)).hexdigest()


def save_model_reference(model, path):
    """The model file as ``json.dump`` encodes it, each section written out by
    hand from the model's parts: the byte oracle for save_model."""
    pre, conv, readout = model.preprocess, model.featurizer, model.elm
    norms = pre.feature_norms
    doc = {
        "format": "elmloc-model-v3",
        "dataset": model.dataset,
        "n_aps": model.n_aps,
        "preprocess": {
            "min_rss": pre.min_rss,
            "mode": pre.mode,
            "feature_norms": None if norms is None else [float(v) for v in norms],
        },
        "featurizer": None if conv is None else {
            "n_filters": conv.n_filters, "kernel_size": conv.kernel_size, "seed": conv.seed,
        },
        "elm": {
            "codebook": [[int(b), int(f)] for b, f in readout.codebook.pairs],
            "seed": readout.seed,
            "c": readout.c,
            "beta": [[float(v) for v in row] for row in readout.beta],
            "quantized": readout.quantized is not None,
        },
        "random_sha256": random_sha256_reference(model),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


class TestSaveLoad:
    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    @pytest.mark.parametrize("quantize", [False, True], ids=["float", "int8"])
    def test_file_bytes_match_json_dump(self, syn_small, tmp_path, approach, quantize):
        train, _ = syn_small
        config = _config(approach=approach, quantize=quantize, norm_mode="per_sample", c=0.1)
        model = fit_pipeline(train, config)
        save_model(model, tmp_path / "m.json")
        save_model_reference(model, tmp_path / "ref.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        assert settings_of(load_model(tmp_path / "m.json")) == settings_in(config)

    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    def test_each_setting_written_once(self, syn_small, tmp_path, approach):
        # no config section and no elm.L; the input width is recorded once, and
        # what a seed draws (w, b, the filters, the int8 copies) is not written
        model = fit_pipeline(syn_small[0], _config(approach=approach, quantize=True))
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert list(doc) == ["format", "dataset", "n_aps", "preprocess", "featurizer", "elm",
                             "random_sha256"]
        assert list(doc["elm"]) == ["codebook", "seed", "c", "beta", "quantized"]
        assert doc["elm"]["quantized"] is True
        if approach == "cnn_elm":
            assert list(doc["featurizer"]) == ["n_filters", "kernel_size", "seed"]
        assert [f.name for f in dataclasses.fields(model)] == [
            "preprocess", "featurizer", "elm", "dataset"]

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
        assert settings_of(back) == settings_of(fitted) == settings_in(_config(quantize=True))

    def test_numpy_integer_settings_round_trip(self, syn_small, tmp_path):
        # settings read from numpy arrays are stored as Python ints, so the model saves
        train, test = syn_small
        config = _config(L=np.int64(20), seed=np.int64(2))
        assert (type(config.L), type(config.seed)) == (int, int)
        assert config == _config(L=20, seed=2)
        model = fit_pipeline(train, config)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert settings_of(back) == settings_in(config)
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

    # json alone would overflow the stack on the first and load the second, whose
    # later format is the right one
    @pytest.mark.parametrize("edit, reason", [
        (lambda text: text.replace('"beta": ', '"beta": ' + "[" * 200_000 + "]" * 200_000
                                   + ', "x": ', 1),
         "maximum recursion depth exceeded while decoding a JSON array"),
        (lambda text: '{"format": null, ' + text[1:],
         "key 'format' is named twice in one object$"),
    ], ids=["deep", "repeated_key"])
    def test_refused_json_named(self, fitted, tmp_path, edit, reason):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        p.write_text(edit(p.read_text()))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(p))} is not a valid model "
                                             rf"file: {reason}"):
            load_model(p)

    @pytest.mark.parametrize("key", ["preprocess", "featurizer", "elm", "n_aps", "random_sha256"])
    def test_missing_section_named(self, fitted, tmp_path, key):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"m\.json: model document lacks key '{key}'"):
            load_model(p)

    @pytest.mark.parametrize("key, edit, message", [
        ("preprocess", lambda d: d.pop("min_rss"), r"model key 'preprocess' lacks key 'min_rss'$"),
        ("elm", lambda d: d.update(seed="x"), r"bad value under model key 'elm'"),
        ("config", lambda d: d.update(extra=1), r"model document holds unknown key 'config'$"),
        ("featurizer", lambda d: d.update(filters="x"),
         r"model key 'featurizer' holds unknown key 'filters'$"),
    ], ids=["missing_nested_key", "bad_int", "unknown_config_field", "bad_array"])
    def test_bad_section_named(self, fitted, tmp_path, key, edit, message):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        doc = json.loads(p.read_text())
        edit(doc.setdefault(key, {}))  # config and filters are keys only older files held
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"m\.json: {message}"):
            load_model(p)

    @pytest.mark.parametrize("text", ['{"format": "elmloc-model-v3", "elm": [1]}',
                                      '{"format": "elmloc-model-v3", "dataset": 5}',
                                      '[1, 2]'])
    def test_wrongly_typed_document(self, tmp_path, text):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"m\.json"):
            load_model(p)

    @pytest.mark.parametrize("key, kind", [("dataset", "a string"), ("elm", "an object"),
                                           ("featurizer", "an object"),
                                           ("preprocess", "an object")])
    def test_wrongly_typed_key_named(self, fitted, tmp_path, key, kind):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        doc = json.loads(p.read_text())
        doc[key] = [1]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"m\.json: model key '{key}' must hold {kind}$"):
            load_model(p)


def _edit_w_q_value(value):
    def edit(elm):
        elm["quantized"]["w_q"][0][0] = value
    return edit


def bad_value(section, message):
    """The load error for a value under ``section`` that cannot be served."""
    return rf"bad value under model key '{section}': {message}"


def stray(section, key):
    """The load error for ``key``, which ``save_model`` does not write, under
    ``section`` (None: the document itself)."""
    where = "model document" if section is None else f"model key '{section}'"
    return rf"{where} holds unknown key '{key}'$"


# Copies of the seed-drawn weights and of the int8 codes, as files before v2
# held them, edited and written into a v3 file. Each must fail at load time:
# elm.quantized holds true or false, never codes, and w is no key of a file.
NOT_A_FLAG = bad_value("elm", r"quantized must hold true or false")
BAD_WEIGHTS = {
    "int8_out_of_range": (_edit_w_q_value(300), NOT_A_FLAG),
    "int8_fraction": (_edit_w_q_value(1.7), NOT_A_FLAG),
    "int8_string": (_edit_w_q_value("5"), NOT_A_FLAG),
    "int8_row_dropped": (lambda elm: elm["quantized"]["w_q"].pop(), NOT_A_FLAG),
    "nan_weight": (lambda elm: elm.update(w=[[float("nan")]]), stray("elm", "w")),
}


def write_bad_model(bad, case):
    """Copy ``INT8_MODEL`` to ``bad`` with ``elm.quantized`` holding the int8
    codes and scales, as files before v2 held them, then edited by ``case``."""
    doc = json.loads(INT8_MODEL.read_text())
    q = load_model(INT8_MODEL).elm.quantized
    doc["elm"]["quantized"] = {f.name: np.asarray(getattr(q, f.name)).tolist()
                               for f in dataclasses.fields(q)}
    BAD_WEIGHTS[case][0](doc["elm"])
    bad.write_text(json.dumps(doc))


V3_FILES = Path(__file__).parent / "data" / "v3"
INT8_MODEL = V3_FILES / "cnn_elm_per_feature_int8.model.json"

# Model files with an integer key that is no JSON integer, an array that is no
# array of finite numbers, or a key save_model does not write; (section, edit,
# message) per case, each must fail at load time. The edit applies to the
# section, made if absent; section "n_aps" edits the document itself. The keys
# save_model does not write include each one that older files held: config, w,
# b, filters, the int8 copies, the input width under featurizer, the hidden
# size elm.L and the constants that were once settings.
BAD_KEYS = {
    "codebook_fraction": ("elm", lambda d: d["codebook"][0].__setitem__(1, 1.7),
                          bad_value("elm", r"codebook must hold 64-bit integers, got 1\.7")),
    # a codebook label follows the rule RadioMap's labels do; random_sha256 does
    # not cover the codebook
    "codebook_negative": ("elm", lambda d: d["codebook"].__setitem__(0, [-5, -7]),
                          bad_value("elm", r"building labels must be non-negative, found -5")),
    "codebook_bool": ("elm", lambda d: d["codebook"][0].__setitem__(1, True),
                      bad_value("elm", r"codebook must hold 64-bit integers, got True")),
    "kernel_size_fraction": ("featurizer", lambda d: d.update(kernel_size=3.9),
                             bad_value("featurizer",
                                       r"kernel_size must hold 64-bit integers, got 3\.9")),
    "n_aps_bool": ("featurizer", lambda d: d.update(n_aps=True), stray("featurizer", "n_aps")),
    "top_n_aps_bool": ("n_aps", lambda d: d.update(n_aps=True),
                       bad_value("n_aps", r"n_aps must hold 64-bit integers, got True")),
    "top_n_aps_fraction": ("n_aps", lambda d: d.update(n_aps=40.5),
                           bad_value("n_aps", r"n_aps must hold 64-bit integers, got 40\.5")),
    "top_n_aps_null": ("n_aps", lambda d: d.update(n_aps=None),
                       bad_value("n_aps", r"n_aps must hold 64-bit integers, got None")),
    "top_n_aps_zero": ("n_aps", lambda d: d.update(n_aps=0),
                       bad_value("n_aps", r"n_aps must be >= 1, got 0")),
    "quantized_string": ("elm", lambda d: d.update(quantized="yes"),
                         bad_value("elm", r"quantized must hold true or false, got 'yes'")),
    # sizes and seeds the random parts are drawn from: they fail under their
    # section, before anything is drawn for the digest
    "beta_empty": ("elm", lambda d: d.update(beta=[]),
                   bad_value("elm", r"beta must be N x \d+ with N >= 1, got shape \(0,\)")),
    "elm_seed_negative": ("elm", lambda d: d.update(seed=-1),
                          bad_value("elm", r"seed must be >= 0, got -1")),
    "kernel_size_41": ("featurizer", lambda d: d.update(kernel_size=41),
                       bad_value("featurizer", r"kernel_size 41 exceeds the 40 AP columns")),
    "n_filters_zero": ("featurizer", lambda d: d.update(n_filters=0),
                       bad_value("featurizer", r"n_filters must be >= 1")),
    "featurizer_seed_negative": ("featurizer", lambda d: d.update(seed=-1),
                                 bad_value("featurizer", r"seed must be >= 0, got -1")),
    # the config section of older files, whatever it holds
    "config_L_string": ("config", lambda d: d.update(L="60"), stray(None, "config")),
    "config_seed_fraction": ("config", lambda d: d.update(seed=1.5), stray(None, "config")),
    "config_c_bool": ("config", lambda d: d.update(c=True), stray(None, "config")),
    "config_approach_number": ("config", lambda d: d.update(approach=1), stray(None, "config")),
    "config_quantize_string": ("config", lambda d: d.update(quantize="yes"),
                               stray(None, "config")),
    "config_c_negative": ("config", lambda d: d.update(c=-1), stray(None, "config")),
    "config_L_zero": ("config", lambda d: d.update(L=0), stray(None, "config")),
    # a float() cast would load each of these as a number
    "c_string": ("elm", lambda d: d.update(c="0.5"),
                 bad_value("elm", r"c must hold a float, got '0\.5'")),
    "c_bool": ("elm", lambda d: d.update(c=True),
               bad_value("elm", r"c must hold a float, got True")),
    "min_rss_string": ("preprocess", lambda d: d.update(min_rss="-90"),
                       bad_value("preprocess", r"min_rss must hold a float, got '-90'")),
    # the constants that were once settings, at any value
    "exponent_bool": ("preprocess", lambda d: d.update(exponent=True),
                      stray("preprocess", "exponent")),
    "pool_size_bool": ("featurizer", lambda d: d.update(pool_size=True),
                       stray("featurizer", "pool_size")),
    "pool_stride_string": ("featurizer", lambda d: d.update(pool_stride="2"),
                           stray("featurizer", "pool_stride")),
    "filter_bias_string": ("featurizer", lambda d: d.update(filter_bias="0"),
                           stray("featurizer", "filter_bias")),
    "filter_bias_entry_string": ("featurizer", lambda d: d.update(filter_bias=[0.0, "0"]),
                                 stray("featurizer", "filter_bias")),
    "w_scale_string": ("elm", lambda d: d.update(quantized={"w_scale": "0.01"}),
                       bad_value("elm", r"quantized must hold true or false, got \{'w_scale'")),
    # the hidden size is len(beta); an elm.L key is not read, whatever it holds
    "elm_L_string": ("elm", lambda d: d.update(L="60"), stray("elm", "L")),
    "elm_L_bool": ("elm", lambda d: d.update(L=True), stray("elm", "L")),
    "elm_L_null_b": ("elm", lambda d: d.update(L=len(d["beta"]), b=None), stray("elm", "L")),
    # arrays: finite numbers only; a float cast would read "0.25" as 0.25
    "feature_norms_infinity": ("preprocess", lambda d: d["feature_norms"].__setitem__(
        slice(None, None, 3), [float("inf")] * len(d["feature_norms"][::3])),
        bad_value("preprocess", r"feature_norms contains non-finite values")),
    "filters_nan": ("featurizer", lambda d: d.update(filters=[[float("nan")]]),
                    stray("featurizer", "filters")),
    "w_string": ("elm", lambda d: d.update(w=[["0.25"]]), stray("elm", "w")),
    "filters_string": ("featurizer", lambda d: d.update(filters=[["0.25"]]),
                       stray("featurizer", "filters")),
    "feature_norms_string": ("preprocess", lambda d: d["feature_norms"].__setitem__(0, "0.25"),
                             bad_value("preprocess",
                                       r"feature_norms must hold numbers, got strings")),
    "feature_norms_all_bool": ("preprocess", lambda d: d.update(
        feature_norms=[True] * len(d["feature_norms"])),
        bad_value("preprocess", r"feature_norms must hold numbers, got true/false values")),
    "b_null": ("elm", lambda d: d.update(b=[None]), stray("elm", "b")),
    # numbers of the right type at values no stage can use
    "c_zero": ("elm", lambda d: d.update(c=0.0),
               bad_value("elm", r"c must be positive, got 0\.0")),
    "c_negative": ("elm", lambda d: d.update(c=-1),
                   bad_value("elm", r"c must be positive, got -1\.0")),
    "min_rss_positive": ("preprocess", lambda d: d.update(min_rss=5.0),
                         bad_value("preprocess", r"min_rss must be negative, got 5\.0")),
    "feature_norms_nested": ("preprocess", lambda d: d.update(feature_norms=[d["feature_norms"]]),
                             bad_value("preprocess", r"feature_norms must be a vector")),
    "feature_norms_negative": ("preprocess", lambda d: d["feature_norms"].__setitem__(0, -1.0),
                               bad_value("preprocess", r"feature_norms must be non-negative")),
    "beta_column_short": ("elm", lambda d: d.update(beta=[row[:-1] for row in d["beta"]]),
                          bad_value("elm", r"beta must be N x \d+ with N >= 1, got shape \(\d+, \d+\)")),
    "codebook_three_labels": ("elm", lambda d: d.update(codebook=[[*p, 0] for p in d["codebook"]]),
                              bad_value("elm", r"codebook must be N x 2, got shape \(\d+, 3\)")),
    "codebook_empty": ("elm", lambda d: d.update(codebook=[]),
                       bad_value("elm", r"codebook must be N x 2, got shape \(0,\)")),
    # numpy reads a true or false among numbers as 1: each is refused where the file
    # holds a number, at any depth
    "beta_bool": ("elm", lambda d: d["beta"][0].__setitem__(0, True),
                  bad_value("elm", r"beta must hold numbers, got true/false values")),
    "beta_row_bool": ("elm", lambda d: d["beta"].__setitem__(1, False),
                      bad_value("elm", r"beta must hold numbers, got true/false values")),
    "feature_norms_bool": ("preprocess", lambda d: d["feature_norms"].__setitem__(3, True),
                           bad_value("preprocess",
                                     r"feature_norms must hold numbers, got true/false values")),
    "codebook_row_bool": ("elm", lambda d: d["codebook"].__setitem__(0, True),
                          bad_value("elm", r"codebook must hold 64-bit integers, got True")),
}


def write_bad_key_model(good, bad, case):
    """Copy the model file ``good`` to ``bad`` with one key edited by ``case``."""
    section, edit, _ = BAD_KEYS[case]
    doc = json.loads(good.read_text())
    edit(doc if section == "n_aps" else doc.setdefault(section, {}))
    bad.write_text(json.dumps(doc))


class TestBadKeys:
    @pytest.mark.parametrize("case", sorted(BAD_KEYS))
    def test_rejected_at_load(self, fitted, tmp_path, case):
        p = tmp_path / "m.json"
        save_model(fitted, p)
        write_bad_key_model(p, p, case)
        with pytest.raises(ValueError, match=rf"m\.json: {BAD_KEYS[case][2]}"):
            load_model(p)

    def test_integer_loads_where_float_expected(self, fitted, tmp_path):
        p = tmp_path / "m.json"
        save_model(dataclasses.replace(fitted, elm=dataclasses.replace(fitted.elm, c=2)), p)
        assert load_model(p).elm.c == 2


class TestBadWeights:
    @pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
    def test_rejected_at_load(self, tmp_path, case):
        p = tmp_path / "m.json"
        write_bad_model(p, case)
        with pytest.raises(ValueError, match=r"m\.json: " + BAD_WEIGHTS[case][1]):
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


MODELS = ["cnn_elm_per_feature_int8", "elm_only_per_sample", "cnn_elm_per_sample"]

#: The setting each model file was trained with on the syn_small training rows,
#: beyond PipelineConfig(L=30, c=1.0, seed=0) (see TestV3ModelFiles).
SETTINGS = {
    "cnn_elm_per_feature_int8": {"quantize": True},
    "elm_only_per_sample": {"approach": "elm_only", "norm_mode": "per_sample"},
    "cnn_elm_per_sample": {"norm_mode": "per_sample"},
}


@pytest.fixture(scope="module")
def one_query(tmp_path_factory):
    """A one-row bare query matrix for the 40-AP model files."""
    q = tmp_path_factory.mktemp("queries") / "q.csv"
    q.write_text(",".join(f"AP{j}" for j in range(40)) + "\n"
                 + ",".join(["100"] * 38 + ["-60", "-70"]) + "\n")
    return q


def _answers(name):
    return json.loads((V3_FILES / "answers.json").read_text())[name]


def answers_with_one_blas_thread(rss, directory, tmp_path):
    """``answers.json``'s layout for the model files in ``directory``, answered
    on ``rss`` by a fresh process with one BLAS thread."""
    np.save(tmp_path / "rss.npy", rss)
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from elmloc.pipeline import load_model, predict_pipeline\n"
        "rss = np.load(sys.argv[1])\n"
        "out = {}\n"
        "for name in sys.argv[3:]:\n"
        "    model = load_model(Path(sys.argv[2]) / f'{name}.model.json')\n"
        "    out[name] = {'float': [a.tolist() for a in predict_pipeline(rss, model)]}\n"
        "    if model.elm.quantized is not None:\n"
        "        out[name]['int8'] = [a.tolist() for a in\n"
        "                             predict_pipeline(rss, model, quantized=True)]\n"
        "print(json.dumps(out))\n"
    )
    return run_with_blas_threads(1, code, tmp_path / "rss.npy", directory, *MODELS)


def run_with_blas_threads(threads, code, *args):
    """The JSON that the Python source ``code`` prints, run with ``args`` in a
    fresh process with ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-c", code, *map(str, args)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def write_edited(src, path, edit):
    """Copy the model file ``src`` to ``path`` with its document edited by ``edit``."""
    doc = json.loads(src.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def assert_load_fails(path, query, capsys, message):
    """``load_model(path)`` raises ``message`` and ``elmloc predict`` exits 2 with it."""
    with pytest.raises(ValueError, match=message):
        load_model(path)
    assert main(["predict", "--model", str(path), "--queries", str(query)]) == 2
    assert re.search(message, capsys.readouterr().err.strip())


class TestV1ModelFiles:
    """What ``elmloc-model-v1`` files held, which no model file may hold now.

    v1 files stored w, b, the filters and the int8 codes, a config section,
    ``elm.L``, ``featurizer.n_aps`` and the constants that were once settings.
    elmloc no longer reads them, nor ``elmloc-model-v2`` files, whose
    ``random_sha256`` left ``n_aps`` out. ``save_model(load_model(path), path)``
    at commit b51e6a5, the last that read v1, converts a v1 file to v2, and at
    commit 4e7bea2, the last that read v2, a v2 file to v3.
    """

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_v1_format_refused(self, one_query, tmp_path, capsys, version):
        p = tmp_path / "m.json"
        write_edited(INT8_MODEL, p, lambda doc: doc.update(format=f"elmloc-model-{version}"))
        assert_load_fails(p, one_query, capsys,
                          rf"m\.json: unrecognized model format 'elmloc-model-{version}'$")

    @pytest.mark.parametrize("section, key, value", [
        ("config", "exponent", 0.0),
        ("config", "exponent", -1.0),
        ("config", "pool_size", 3),
        ("config", "pool_stride", 1),
        ("preprocess", "exponent", 0.0),
        ("preprocess", "exponent", -1.0),
        ("preprocess", "exponent", 3),
        ("featurizer", "pool_size", 3),
        ("featurizer", "pool_stride", 1),
        ("featurizer", "filter_bias", [0.0, 0.5]),
        ("featurizer", "filter_bias", [0.0, 0.0, 0.0]),
        ("elm", "L", 31),
        ("elm", "L", 0),
    ])
    def test_legacy_key_at_another_value_rejected(self, one_query, tmp_path, capsys,
                                                  section, key, value):
        # at these values and at the ones the stages use alike: no file holds them
        p = tmp_path / "m.json"
        write_edited(INT8_MODEL, p, lambda doc: doc.setdefault(section, {}).update({key: value}))
        where = stray(None, "config") if section == "config" else stray(section, key)
        assert_load_fails(p, one_query, capsys, rf"m\.json: {where}")


def assert_answers_bitwise(path, name, rss):
    model = load_model(path)
    assert settings_of(model)["quantize"] == ("int8" in _answers(name))
    for mode, want in _answers(name).items():
        got = predict_pipeline(rss, model, quantized=mode == "int8")
        assert [a.tolist() for a in got] == want, mode


DIGEST_EDITS = {
    "digest_zeros": (None, "random_sha256", "0" * 64),
    "digest_null": (None, "random_sha256", None),
    "elm_seed": ("elm", "seed", 12345),
    "featurizer_seed": ("featurizer", "seed", 999),
    "n_filters": ("featurizer", "n_filters", 1),
    "kernel_size": ("featurizer", "kernel_size", 5),
    "L": ("elm", "beta", "drop a row"),
}


def edit_digested(section, key, value):
    """An edit of one key the digest covers: a seed, a size, L or the digest itself."""
    def edit(doc):
        if value == "drop a row":
            doc["elm"]["beta"].pop()
        else:
            (doc if section is None else doc[section])[key] = value
    return edit


class TestV3ModelFiles:
    """The files ``save_model`` writes: ``random_sha256`` covers ``n_aps`` too.

    The three files were written with one BLAS thread: ``fit_pipeline`` on the
    ``syn_small`` training rows with ``PipelineConfig(L=30, c=1.0, seed=0)``
    plus, by commit ebffae9, ``quantize=True`` for
    ``cnn_elm_per_feature_int8`` and ``approach="elm_only",
    norm_mode="per_sample"`` for ``elm_only_per_sample`` and, by commit
    f61359e, ``norm_mode="per_sample"`` for ``cnn_elm_per_sample``; then
    ``save_model(..., dataset="TST1")``, in the format of each commit and
    loaded and saved again as each later format. ``answers.json`` holds the
    writing commit's ``predict_pipeline`` answers on the 240 ``syn_small`` test
    rows: ``[buildings, floors]`` per model, float and, for the quantized file,
    int8.
    """

    @pytest.mark.parametrize("name", MODELS)
    def test_answers_bitwise(self, syn_small, name):
        assert_answers_bitwise(V3_FILES / f"{name}.model.json", name, syn_small[1])

    def test_answers_with_one_blas_thread(self, syn_small, tmp_path):
        assert answers_with_one_blas_thread(syn_small[1].rss, V3_FILES, tmp_path) == (
            json.loads((V3_FILES / "answers.json").read_text()))

    @pytest.mark.parametrize("name", MODELS)
    def test_predict_command_answers(self, syn_small, tmp_path, name):
        rss = syn_small[1].rss
        q = tmp_path / "q.csv"
        rows = [",".join("100" if v == 0.0 else repr(float(v)) for v in row) for row in rss]
        q.write_text(",".join(f"AP{j}" for j in range(rss.shape[1])) + "\n"
                     + "\n".join(rows) + "\n")
        for mode, want in _answers(name).items():
            out = tmp_path / f"{mode}.csv"
            flags = ["--quantized"] if mode == "int8" else []
            assert main(["predict", "--model", str(V3_FILES / f"{name}.model.json"),
                         "--queries", str(q), "--out", str(out), *flags]) == 0
            got = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
            assert got.T.tolist() == want, mode

    @pytest.mark.parametrize("name", MODELS)
    def test_saved_again_is_the_same_file(self, tmp_path, name):
        p = tmp_path / "m.json"
        save_model(load_model(V3_FILES / f"{name}.model.json"), p)
        assert p.read_bytes() == (V3_FILES / f"{name}.model.json").read_bytes()

    @pytest.mark.parametrize("name", MODELS)
    def test_training_again_writes_the_file(self, syn_small, tmp_path, name):
        p = tmp_path / "m.json"
        config = PipelineConfig(L=30, c=1.0, seed=0, **SETTINGS[name])
        save_model(fit_pipeline(syn_small[0], config, dataset="TST1"), p)
        got, want = (json.loads(f.read_text()) for f in (p, V3_FILES / f"{name}.model.json"))
        # the learned floats may differ in their last bits across BLAS builds
        for section, key in (("elm", "beta"), ("preprocess", "feature_norms")):
            g, w = got[section].pop(key), want[section].pop(key)
            assert (g is None) == (w is None)
            if w is not None:
                assert np.linalg.norm(np.subtract(g, w)) <= 1e-12 * np.linalg.norm(w)
        assert got == want  # random_sha256 included

    @pytest.mark.parametrize("name, section, key, value", [
        *[("cnn_elm_per_feature_int8", *edit) for edit in DIGEST_EDITS.values()],
        # the input width alone: same conv output width, same w, b and filters
        ("cnn_elm_per_sample", None, "n_aps", 41),
        ("elm_only_per_sample", None, "n_aps", 41),
    ], ids=[*DIGEST_EDITS, "conv_n_aps_41", "elm_only_n_aps_41"])
    def test_digest_mismatch_rejected(self, one_query, tmp_path, capsys, name, section, key,
                                      value):
        p = tmp_path / "m.json"
        write_edited(V3_FILES / f"{name}.model.json", p, edit_digested(section, key, value))
        assert_load_fails(p, one_query, capsys,
                          r"m\.json: model key 'random_sha256' does not match the file's n_aps "
                          r"and the w, b and filters rebuilt from the seeds; numpy \S+ may draw "
                          r"other random streams")

    @pytest.mark.parametrize("name, section, key", [
        ("elm_only_per_sample", None, "n_aps"),
        ("cnn_elm_per_feature_int8", "featurizer", "n_filters"),
        ("cnn_elm_per_sample", None, "n_aps"),
    ])
    def test_oversized_layer_rejected_before_drawing(self, one_query, tmp_path, capsys, name,
                                                     section, key):
        # 10**15 x 30 float64 weights would be 240 PB
        p = tmp_path / "m.json"
        write_edited(V3_FILES / f"{name}.model.json", p,
                     lambda doc: (doc if section is None else doc[section]).update({key: 10**15}))
        message = r"m\.json: " + bad_value(
            "elm", r"a hidden layer of \d+ inputs x 30 neurons exceeds the 67108864 weights "
                   r"that MAX_HIDDEN_WEIGHTS allows$")
        _, peak = traced_peak(lambda: pytest.raises(ValueError, load_model, p).match(message))
        assert peak < 4 * 2**20
        assert main(["predict", "--model", str(p), "--queries", str(one_query)]) == 2
        assert re.search(message, capsys.readouterr().err.strip())

    @pytest.mark.parametrize("section", [None, "preprocess", "featurizer", "elm"])
    def test_stray_key_rejected(self, one_query, tmp_path, capsys, section):
        p = tmp_path / "m.json"
        write_edited(INT8_MODEL, p,
                     lambda doc: (doc if section is None else doc[section]).update(extra=0))
        assert_load_fails(p, one_query, capsys, rf"m\.json: {stray(section, 'extra')}")


class TestBlasThreads:
    def test_syn1_answers_agree_across_thread_counts(self):
        # the hidden-layer GEMM sums in another order with more BLAS threads, so
        # beta and the model bytes may differ in the last bits; the answers may not
        code = (
            "import json\n"
            "from elmloc.dataset import registry_lookup\n"
            "from elmloc.pipeline import PipelineConfig, fit_pipeline, predict_pipeline\n"
            "from elmloc.synthetic import generate_synthetic\n"
            "train, test = generate_synthetic()\n"
            "desc = registry_lookup('SYN1')\n"
            "model = fit_pipeline(train, PipelineConfig(L=desc.L_default, c=desc.c_default))\n"
            "print(json.dumps({'beta': model.elm.beta.tolist(),\n"
            "                  'answers': [a.tolist() for a in predict_pipeline(test, model)]}))\n"
        )
        one, two = (run_with_blas_threads(threads, code) for threads in (1, 2))
        assert np.shape(one["beta"]) == (500, 12)
        assert one["answers"] == two["answers"]
        # measured: max |d beta| was 2.2e-11 of max |beta|
        beta = np.array(one["beta"])
        assert np.abs(beta - two["beta"]).max() <= 1e-9 * np.abs(beta).max()


class TestWidthRecordedOnce:
    """The input width is the top-level n_aps; ``feature_norms`` must match it."""

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["preprocess"]["feature_norms"].pop(),
         bad_value("preprocess", r"feature_norms must hold n_aps = 40 norms, got 39$")),
        (lambda doc: doc["featurizer"].update(n_aps=41), stray("featurizer", "n_aps")),
    ], ids=["norm_dropped", "featurizer_n_aps_41"])
    def test_v1_widths_that_disagree_fail_at_load(self, one_query, tmp_path, capsys, edit,
                                                  message):
        # v1 files held a second width, featurizer.n_aps; both edits once loaded
        # and failed only at predict, naming no key
        p = tmp_path / "m.json"
        write_edited(INT8_MODEL, p, edit)
        assert_load_fails(p, one_query, capsys, rf"m\.json: {message}")

    @pytest.mark.parametrize("n_aps, norms", [(41, 40), (40, None)])
    def test_norms_checked_against_n_aps(self, tmp_path, n_aps, norms):
        # checked before the digest, which does not cover the norms
        doc = json.loads(INT8_MODEL.read_text())
        doc["n_aps"] = n_aps
        if norms is None:
            doc["preprocess"]["feature_norms"] = None
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"'preprocess': feature_norms must hold "
                                             rf"n_aps = {n_aps} norms, got {norms}$"):
            load_model(p)

    def test_stray_norms_of_a_per_sample_file_rejected(self, tmp_path):
        # apply_preprocess would ignore them in per_sample mode
        doc = json.loads((V3_FILES / "cnn_elm_per_sample.model.json").read_text())
        doc["preprocess"]["feature_norms"] = [1.0, 2.0]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"'preprocess': per_sample mode takes no "
                                             r"feature_norms$"):
            load_model(p)

    def test_elm_only_width_is_n_aps(self, syn_small):
        # without a conv stage, n_aps is the only record of the input width
        model = load_model(V3_FILES / "elm_only_per_sample.model.json")
        assert model.n_aps == model.elm.n_features == syn_small[1].n_aps == 40


# One-value edits of the v3 model files: each value goes in place of another, at
# any depth, or a key goes. Whatever the file then holds, predict answers or
# refuses it by name with one JSON object; it never raises or exits 1.
EDIT_VALUES = [None, True, False, 2**63, -2**63, 1e308, "x", [1.0], {"a": 1}]
V3_DOCS = {f.name: json.loads(f.read_text(encoding="utf-8"))
           for f in sorted(V3_FILES.glob("*.model.json"))}


def json_paths(node, path=()):
    """The path (keys and list indices) of every value below the top of a JSON
    document, depth first."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from json_paths(child, (*path, key))


V3_PATHS = {name: list(json_paths(doc)) for name, doc in V3_DOCS.items()}
delete = object()  # the edit that deletes a key


def edited(name, path, value):
    """The v3 document ``name`` with ``value`` put at ``path``, or the key at the
    end of ``path`` deleted if ``value`` is ``delete``; and whether a true or false
    went inside a list."""
    doc = json.loads(json.dumps(V3_DOCS[name]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is delete:
        del parent[path[-1]]
        return doc, False
    parent[path[-1]] = value
    return doc, isinstance(parent, list) and isinstance(value, bool)


@st.composite
def one_value_edit(draw):
    """``edited`` at a path drawn from every path of a v3 file, cut to a drawn depth
    (so most edits reach into the weights, and every depth is tried)."""
    name = draw(st.sampled_from(sorted(V3_DOCS)))
    path = draw(st.sampled_from(V3_PATHS[name]))
    path = path[:draw(st.integers(1, len(path)))]
    parent = V3_DOCS[name]
    for key in path[:-1]:
        parent = parent[key]
    values = [*EDIT_VALUES, delete] if isinstance(parent, dict) else EDIT_VALUES
    return edited(name, path, draw(st.sampled_from(values)))


@given(edit=one_value_edit(), quantized=st.booleans())
@example(edit=edited("cnn_elm_per_sample.model.json", ("elm", "beta", 0, 0), True),
         quantized=False)
@example(edit=edited("cnn_elm_per_feature_int8.model.json", ("preprocess", "feature_norms", 5),
                     False), quantized=True)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_one_value_edits_answer_or_refuse_by_name(one_query, tmp_path_factory, edit,
                                                  quantized):
    doc, bool_in_list = edit
    d = tmp_path_factory.getbasetemp() / "edited"
    d.mkdir(exist_ok=True)
    (d / "m.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--error-json", "predict", "--model", str(d / "m.json"), "--queries",
            str(one_query), "--out", str(d / "out.csv"), *(["--quantized"] * quantized)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2)
    if rc == 2:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    if bool_in_list:
        assert rc == 2
