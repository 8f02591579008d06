import csv
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from elmloc import elm
from elmloc.evaluation import (
    _NORM_FIELDS,
    APPROACHES,
    CSV_COLUMNS,
    EvalReport,
    _average_rows,
    _mean_row,
    config_digest,
    format_table,
    hit_rate,
    normalize,
    published_rows,
    read_json,
    run_benchmark,
    time_phase,
    write_csv,
    write_json,
)
from elmloc.featurizer import featurize, init_featurizer
from elmloc.pipeline import PipelineConfig, fit_pipeline, predict_pipeline
from elmloc.preprocess import apply_preprocess, fit_preprocess

pytestmark = pytest.mark.usefixtures("tst1_registered")


class TestHitRate:
    def test_small_known_case(self):
        pred = np.array([[0, 1], [0, 2], [1, 0], [1, 3]])
        truth = np.array([[0, 1], [0, 0], [1, 0], [0, 3]])
        assert hit_rate(pred, truth, "floor") == 75.0
        assert hit_rate(pred, truth, "building") == 75.0

    def test_perfect_and_zero(self):
        a = np.array([[0, 1]])
        b = np.array([[1, 0]])
        assert hit_rate(a, a) == 100.0
        assert hit_rate(a, b) == 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_invariant(self, seed):
        r = np.random.default_rng(seed)
        pred = r.integers(0, 3, size=(40, 2))
        truth = r.integers(0, 3, size=(40, 2))
        perm = r.permutation(40)
        assert hit_rate(pred, truth) == hit_rate(pred[perm], truth[perm])

    def test_validation(self):
        ok = np.array([[0, 1]])
        with pytest.raises(ValueError):
            hit_rate(ok, ok, field="room")
        with pytest.raises(ValueError):
            hit_rate(ok, np.array([[0, 1], [0, 2]]))
        with pytest.raises(ValueError):
            hit_rate(np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match=r"^predicted must be N x 2, got shape \(1, 3\)$"):
            hit_rate(np.zeros((1, 3), dtype=int), np.zeros((1, 3), dtype=int))


class TestConfigDigest:
    def test_key_order_invariant(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})

    def test_value_sensitive(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_short_hex(self):
        d = config_digest({"a": 1})
        assert len(d) == 12
        int(d, 16)


class TestTimePhase:
    def test_returns_result_and_duration(self):
        out, secs = time_phase(lambda: 41 + 1)
        assert out == 42
        assert secs >= 0.0

    def test_fast_phase_repeats_for_stability(self):
        calls = []
        out, secs = time_phase(lambda: calls.append(1))
        # sub-threshold phases re-run; median over 5 keeps the clock honest
        assert len(calls) == 5
        assert secs < 0.1

    def test_slow_phase_runs_once(self):
        calls = []

        def phase():
            calls.append(1)
            time.sleep(0.12)
            return "x"

        out, secs = time_phase(phase)
        assert out == "x"
        assert len(calls) == 1
        assert secs >= 0.1


def _report(**kw):
    base = dict(dataset="D", approach="knn", floor_hit=90.0, test_time=0.5,
                config_digest="abc123abc123")
    base.update(kw)
    return EvalReport(**base)


class TestEvalReport:
    def test_hit_range_validated(self):
        with pytest.raises(ValueError):
            _report(floor_hit=101.0)
        with pytest.raises(ValueError):
            _report(building_hit=-0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            _report(test_time=-1.0)

    def test_unknown_normalized_field_rejected(self):
        with pytest.raises(ValueError):
            _report(normalized={"speed": 2.0})

    def test_none_hits_allowed(self):
        r = _report(floor_hit=None, test_time=None)
        assert r.floor_hit is None

    # a row the constructor takes is one write_json writes and read_json reads back
    @pytest.mark.parametrize("field, value, message", [
        ("floor_hit", 90, r"row key floor_hit cannot hold 90$"),
        ("building_hit", math.nan, r"row key building_hit cannot hold nan$"),
        ("test_time", math.nan, r"row key test_time cannot hold nan$"),
        ("train_time", math.inf, r"row key train_time cannot hold inf$"),
        ("normalized", {"test_time": -math.inf},
         r"row key normalized\.test_time cannot hold -inf$"),
        ("normalized", {"floor_hit": 1}, r"row key normalized\.floor_hit cannot hold 1$"),
        ("seed", True, r"row key seed cannot hold True$"),
        ("seed", np.int64(0), r"row key seed cannot hold "),
        ("dataset", None, r"row key dataset cannot hold None$"),
        ("note", None, r"row key note cannot hold None$"),
    ])
    def test_row_types_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            _report(**{field: value})


# each number field also draws values some rows held before the constructor checked
# their JSON type: an int, a bool, a non-finite float
_ODD = st.sampled_from([0, 90, True, math.nan, math.inf, -math.inf])
_TEXT = st.text(max_size=8)
_HIT = st.none() | st.floats(-0.0, 100.0) | _ODD
_TIME = st.none() | st.floats(min_value=-0.0) | _ODD
_RATIO = st.none() | st.floats() | _ODD


@given(st.fixed_dictionaries(dict(
    dataset=_TEXT, approach=_TEXT, config_digest=_TEXT, note=_TEXT,
    seed=st.none() | st.integers() | _TEXT,
    building_hit=_HIT, floor_hit=_HIT, train_time=_TIME, test_time=_TIME,
    normalized=st.none() | st.dictionaries(st.sampled_from(_NORM_FIELDS), _RATIO))))
@settings(max_examples=200, deadline=None)
def test_accepted_row_reads_back_equal(tmp_path_factory, fields):
    try:
        row = EvalReport(**fields)
    except ValueError:
        reject()
    p = tmp_path_factory.mktemp("row") / "t.json"
    write_json([row], p)
    back, _ = read_json(p)
    assert back == [row]


class TestNormalize:
    def test_self_ratio_is_one(self):
        r = _report(building_hit=100.0, train_time=2.0)
        out = normalize(r, r)
        assert out.normalized == {
            "building_hit": 1.0, "floor_hit": 1.0,
            "train_time": 1.0, "test_time": 1.0,
        }

    def test_published_static_pair(self):
        # the exact ratio 92.26 / 92.17, frozen at high precision
        ours = _report(floor_hit=92.26, test_time=0.30)
        base = _report(floor_hit=92.17, test_time=0.52)
        out = normalize(ours, base)
        assert out.normalized["floor_hit"] == pytest.approx(
            1.0009764565476836, abs=1e-13)
        assert round(out.normalized["floor_hit"], 4) == 1.0010
        assert out.normalized["test_time"] == pytest.approx(0.30 / 0.52)
        assert round(out.normalized["test_time"], 4) == 0.5769

    def test_absent_baseline_field_stays_absent(self):
        ours = _report(train_time=3.0)
        base = _report(train_time=None)
        out = normalize(ours, base)
        assert out.normalized["train_time"] is None
        assert out.normalized["floor_hit"] == 1.0

    def test_zero_baseline_guarded(self):
        ours = _report(test_time=1.0)
        base = _report(test_time=0.0)
        assert normalize(ours, base).normalized["test_time"] is None

    def test_dataset_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalize(_report(), _report(dataset="OTHER"))




def _loader_for(pair):
    def loader(name):
        if name != "TST1":
            raise OSError(f"no files for {name}")
        return pair
    return loader


@pytest.fixture(scope="module")
def result(syn_small, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    rows, failures = run_benchmark(
        ["TST1"], seeds=(0, 1), loader=_loader_for(syn_small), out_dir=out)
    return rows, failures, out


class TestRunBenchmark:
    def test_row_structure(self, result):
        rows, failures, _ = result
        assert failures == {}
        key = [(r.dataset, r.approach, r.seed) for r in rows]
        assert ("TST1", "knn", None) in key
        assert ("TST1", "elm_only", 0) in key
        assert ("TST1", "elm_only", 1) in key
        assert ("TST1", "elm_only", "mean") in key
        assert ("TST1", "cnn_elm", "mean") in key
        assert ("Avg.", "knn", None) in key

    def test_baseline_has_no_train_time(self, result):
        rows, _, _ = result
        knn_row = next(r for r in rows if r.approach == "knn" and r.dataset == "TST1")
        assert knn_row.train_time is None
        assert knn_row.test_time > 0
        assert knn_row.normalized["floor_hit"] == 1.0

    def test_stochastic_rows_normalized_against_knn(self, result):
        rows, _, _ = result
        knn_row = next(r for r in rows if r.approach == "knn" and r.dataset == "TST1")
        for r in rows:
            if r.dataset == "TST1" and r.approach != "knn":
                assert r.normalized["floor_hit"] == pytest.approx(
                    r.floor_hit / knn_row.floor_hit)
                # the baseline has no training stage to compare against
                assert r.normalized["train_time"] is None

    def test_seed_mean_row(self, result):
        rows, _, _ = result
        per_seed = [r for r in rows
                    if r.dataset == "TST1" and r.approach == "elm_only"
                    and isinstance(r.seed, int)]
        mean_row = next(r for r in rows
                        if r.dataset == "TST1" and r.approach == "elm_only"
                        and r.seed == "mean")
        assert mean_row.floor_hit == pytest.approx(
            np.mean([r.floor_hit for r in per_seed]))

    def test_single_dataset_average_equals_itself(self, result):
        rows, _, _ = result
        for approach in APPROACHES:
            agg = next(r for r in rows if r.dataset == "TST1"
                       and r.approach == approach and r.seed in (None, "mean"))
            avg = next(r for r in rows if r.dataset == "Avg."
                       and r.approach == approach)
            assert avg.floor_hit == pytest.approx(agg.floor_hit)

    def test_report_files_round_trip(self, result):
        rows, _, out = result
        assert (out / "report.csv").exists()
        with open(out / "report.csv") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == CSV_COLUMNS
        assert len(records) == len(rows) + 1
        back, payload = read_json(out / "report.json")
        assert len(back) == len(rows)
        assert [r.floor_hit for r in back] == pytest.approx(
            [r.floor_hit for r in rows], abs=1e-9)
        assert payload["config_digest"]
        assert payload["meta"]["TST1"]["L"] == 60
        assert payload["meta"]["TST1"]["c"] == 1.0
        assert payload["meta"]["TST1"]["preprocess_fit_s"] >= 0

    def test_stochastic_rows_score_the_pipeline(self, syn_small, result):
        # each row's hit rates are those of fit_pipeline/predict_pipeline for
        # its seed and approach, and of the stages as the benchmark composed
        # them before it ran through the pipeline
        train, test = syn_small
        rows, _, _ = result
        stochastic = [r for r in rows if r.dataset == "TST1" and isinstance(r.seed, int)]
        assert sorted((r.approach, r.seed) for r in stochastic) == [
            ("cnn_elm", 0), ("cnn_elm", 1), ("elm_only", 0), ("elm_only", 1)]
        truth = test.label_pairs()
        for r in stochastic:
            model = fit_pipeline(train, PipelineConfig(L=60, c=1.0, seed=r.seed,
                                                       approach=r.approach))
            pred = np.column_stack(predict_pipeline(test, model))
            old = np.column_stack(_stages_reference(train, test, r.approach, r.seed))
            assert pred.tobytes() == old.tobytes()
            assert r.building_hit == hit_rate(pred, truth, "building")
            assert r.floor_hit == hit_rate(pred, truth, "floor")

    def test_preprocess_fit_time_is_the_baselines(self, syn_small, tmp_path):
        # the ELM rows time their preprocessing fit inside fit_pipeline
        run_benchmark(["TST1"], approaches=("elm_only",), seeds=(0,),
                      loader=_loader_for(syn_small), out_dir=tmp_path)
        _, payload = read_json(tmp_path / "report.json")
        assert payload["meta"]["TST1"]["preprocess_fit_s"] is None

    def test_failed_dataset_recorded_and_skipped(self, syn_small):
        rows, failures = run_benchmark(
            ["TST1", "UJI1"], approaches=("knn",), seeds=(0,),
            loader=_loader_for(syn_small))
        assert set(failures) == {"UJI1"}
        assert any(r.dataset == "TST1" for r in rows)
        assert not any(r.dataset == "UJI1" for r in rows)

    def test_repeated_dataset_refused(self, syn_small):
        # each of its rows, and its published rows, would be reported twice
        loaded = []

        def loader(name):
            loaded.append(name)
            return syn_small

        with pytest.raises(ValueError, match=r"^datasets named more than once: \['UJI1'\]$"):
            run_benchmark(["UJI1", "TST1", "UJI1"], approaches=("knn",), seeds=(0,),
                          loader=loader)
        assert loaded == []

    @pytest.mark.parametrize("request_, message", [
        ({"datasets": []}, r"^need at least one dataset$"),
        ({"approaches": ()}, r"^need at least one approach$"),
        ({"approaches": ("knn", "elm_only", "knn")},
         r"^approaches named more than once: \['knn'\]$"),
        # seeds are compared as checked, so a numpy 0 repeats a 0
        ({"seeds": (0, 1, np.int64(0))}, r"^seeds named more than once: \[0\]$"),
    ], ids=["no_dataset", "no_approach", "approach_twice", "seed_twice"])
    def test_request_lists_checked_before_loading(self, request_, message):
        # one rule for each list: non-empty, no entry twice (a dataset named
        # twice and an empty seed list are in test_repeated_dataset_refused and
        # test_seeds_checked_before_loading); a repeated 1-NN run would be
        # normalized against the other, a repeated seed reported twice
        loaded = []
        kwargs = {"datasets": ["TST1"], "approaches": ("knn", "elm_only"), "seeds": (0,),
                  **request_}
        with pytest.raises(ValueError, match=message):
            run_benchmark(**kwargs, loader=loaded.append)
        assert loaded == []

    def test_unknown_approach_rejected(self, syn_small):
        with pytest.raises(ValueError, match="approach"):
            run_benchmark(["TST1"], approaches=("svm",),
                          loader=_loader_for(syn_small))

    def test_seeds_checked_before_loading(self, syn_small, tmp_path):
        loaded = []
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run_benchmark(["TST1"], seeds=(0, -1), loader=loaded.append)
        with pytest.raises(ValueError, match=r"^need at least one seed$"):
            run_benchmark(["TST1"], seeds=[], loader=loaded.append)
        assert loaded == []
        # a numpy integer seed is recorded as a JSON integer, so the report is written whole
        rows, _ = run_benchmark(["TST1"], approaches=("elm_only",), seeds=(np.int64(3),),
                                loader=_loader_for(syn_small), out_dir=tmp_path)
        back, payload = read_json(tmp_path / "report.json")
        assert back == rows and payload["config"]["seeds"] == [3] and back[0].seed == 3

    def test_determinism(self, syn_small):
        kw = dict(approaches=("cnn_elm",), seeds=(0,), loader=_loader_for(syn_small))
        rows1, _ = run_benchmark(["TST1"], **kw)
        rows2, _ = run_benchmark(["TST1"], **kw)
        a = [r for r in rows1 if r.seed == 0][0]
        b = [r for r in rows2 if r.seed == 0][0]
        assert (a.floor_hit, a.building_hit) == (b.floor_hit, b.building_hit)


def _stages_reference(train, test, approach, seed, L=60, c=1.0):
    """Test-split answers of the stages as the benchmark composed them by hand."""
    params = fit_preprocess(train.rss)
    x_tr = apply_preprocess(train.rss, params)
    x_te = apply_preprocess(test.rss, params)
    if approach == "cnn_elm":
        spec = init_featurizer(seed, train.n_aps)
        x_tr, x_te = featurize(x_tr, spec), featurize(x_te, spec)
    model = elm.train_elm(x_tr, train.label_pairs(), L, c, seed)
    return elm.predict(x_te, model)


class TestPublishedRows:
    def test_comparison_values_present(self):
        rows = published_rows(["UJI1", "TUT3"])
        by = {(r.dataset, r.approach): r for r in rows}
        uji_cnnloc = by[("UJI1", "cnnloc")]
        assert uji_cnnloc.normalized["floor_hit"] == 1.0322
        assert uji_cnnloc.normalized["train_time"] == 1.0
        assert uji_cnnloc.floor_hit is None  # only ratios were published
        afarls = by[("UJI1", "afarls")]
        assert afarls.building_hit == 100.0
        assert afarls.floor_hit == 95.41
        assert afarls.train_time == 84.68
        assert afarls.test_time == 0.21
        tut3 = by[("TUT3", "afarls")]
        assert tut3.floor_hit == 94.18
        assert all("published" in r.note for r in rows)

    def test_average_row_only_with_multiple_sets(self):
        assert not any(r.dataset == "Avg." for r in published_rows(["UJI1"]))
        rows = published_rows(["UJI1", "UJI2"])
        assert any(r.dataset == "Avg." and r.approach == "cnnloc" for r in rows)

    def test_unpublished_dataset_yields_nothing(self):
        assert published_rows(["SYN1"]) == []


_GOLDEN = Path(__file__).parent / "data" / "report"
# per dataset: the 1-NN row's (building hit, floor hit, test time), then
# (building hit, floor hit, train time, test time) of elm_only per seed
_GOLDEN_RUNS = {
    "TST1": ((100.0, 91.25, 0.0123456),
             [(99.5, 90.125, 0.5, 0.0004), (98.75, 92.0, 1.2345678, 0.00051)]),
    "SGL1": ((None, 87.5, 1.5),
             [(None, 88.8, 12345.678, 0.25), (None, 86.66666666666667, None, 1e-07)]),
}
_GOLDEN_CONFIG = {"datasets": list(_GOLDEN_RUNS), "approaches": ["knn", "elm_only"],
                  "seeds": [0, 1]}


def _golden_rows() -> list[EvalReport]:
    """Rows as run_benchmark composes them: per dataset a 1-NN row, per-seed rows and
    their seed mean, normalized against the 1-NN row; the Avg. rows; published rows."""
    rows = []
    for name, ((kb, kf, kte), runs) in _GOLDEN_RUNS.items():
        knn = EvalReport(dataset=name, approach="knn", building_hit=kb, floor_hit=kf,
                         test_time=kte, config_digest=config_digest({"dataset": name}))
        per_seed = [
            EvalReport(dataset=name, approach="elm_only", seed=seed, building_hit=b,
                       floor_hit=f, train_time=tr, test_time=te,
                       config_digest=config_digest({"dataset": name, "seed": seed}))
            for seed, (b, f, tr, te) in enumerate(runs)
        ]
        mean = _mean_row(per_seed, name, "mean", config_digest({"dataset": name, "seed": [0, 1]}))
        rows += [normalize(r, knn) for r in (knn, *per_seed, mean)]
    rows += _average_rows(rows, ("knn", "elm_only"), config_digest(_GOLDEN_CONFIG))
    return rows + published_rows(["UJI1", "TUT3", "UJI2"])


class TestGoldenReport:
    """The report files and table are byte for byte those of tests/data/report."""

    def test_csv(self, tmp_path):
        write_csv(_golden_rows(), tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_bytes() == (_GOLDEN / "report.csv").read_bytes()

    def test_json(self, tmp_path):
        write_json(_golden_rows(), tmp_path / "report.json", config=_GOLDEN_CONFIG,
                   failures={"LIB1": "missing file: LIB1/manifest.json"},
                   meta={name: {"preprocess_fit_s": 0.001, "L": 60, "c": 1.0}
                         for name in _GOLDEN_RUNS})
        assert (tmp_path / "report.json").read_bytes() == (_GOLDEN / "report.json").read_bytes()

    def test_table(self):
        assert (format_table(_golden_rows()) + "\n").encode() == (
            _GOLDEN / "table.txt").read_bytes()

    def test_read_back_equal(self):
        assert read_json(_GOLDEN / "report.json")[0] == _golden_rows()


class TestEmission:
    def test_csv_golden_row(self, tmp_path):
        row = _report(building_hit=100.0, seed=3, train_time=1.25,
                      normalized={"building_hit": 1.0, "floor_hit": 0.987,
                                  "train_time": None, "test_time": 0.5})
        p = tmp_path / "t.csv"
        write_csv([row], p)
        with open(p) as fh:
            header, record = list(csv.reader(fh))
        assert record == ["D", "knn", "3", "100.00", "90.00", "1.250", "0.500",
                          "1.0000", "0.9870", "", "0.5000", "abc123abc123"]

    def test_json_round_trip_preserves_none(self, tmp_path):
        rows = [_report(train_time=None, seed=None),
                _report(approach="elm_only", seed="mean", building_hit=97.5)]
        p = tmp_path / "t.json"
        write_json(rows, p, config={"x": 1}, failures={"LIB1": "boom"})
        back, payload = read_json(p)
        assert back[0].train_time is None
        assert back[0].seed is None
        assert back[1].seed == "mean"
        assert back[1].building_hit == 97.5
        assert payload["failures"] == {"LIB1": "boom"}
        assert payload["config"] == {"x": 1}

    def test_json_row_keys_in_written_order(self, tmp_path):
        p = tmp_path / "t.json"
        write_json([_report()], p)
        assert list(json.loads(p.read_text())["rows"][0]) == [
            "dataset", "approach", "seed", "building_hit", "floor_hit", "train_time",
            "test_time", "normalized", "config_digest", "note"]

    # each must fail with a ValueError that names the file, not a TypeError or KeyError
    @pytest.mark.parametrize("edit, message", [
        (lambda d: "{oops", r"Expecting property name"),
        (lambda d: b"\xff" + json.dumps(d).encode(), r"'utf-8' codec can't decode byte 0xff"),
        (lambda d: [d], r"rows must hold a list of objects"),
        (lambda d: {**d, "rows": 1}, r"rows must hold a list of objects"),
        (lambda d: {k: v for k, v in d.items() if k != "rows"}, r"rows must hold a list"),
        (lambda d: {**d, "rows": [1]}, r"rows must hold objects, got 1"),
        (lambda d: {**d, "failures": ["LIB1"]}, r"failures must hold an object"),
        (lambda d: {**d, "rows": [{k: v for k, v in d["rows"][0].items() if k != "note"}]},
         r"a row must hold the keys dataset, .*note; got dataset, .*config_digest$"),
        (lambda d: d["rows"][0].update(extra=1) or d, r"a row must hold the keys .*extra$"),
        (lambda d: d["rows"][0].update(floor_hit="90") or d, r"row key floor_hit cannot "
                                                             r"hold '90'"),
        (lambda d: d["rows"][0].update(floor_hit=90) or d, r"row key floor_hit cannot hold 90"),
        (lambda d: d["rows"][0].update(seed=True) or d, r"row key seed cannot hold True"),
        (lambda d: d["rows"][0].update(dataset=None) or d, r"row key dataset cannot hold None"),
        (lambda d: d["rows"][0].update(normalized=[1.0]) or d,
         r"row key normalized cannot hold \[1\.0\]"),
        (lambda d: d["rows"][0]["normalized"].update(floor_hit="1") or d,
         r"row key normalized\.floor_hit cannot hold '1'"),
        (lambda d: d["rows"][0]["normalized"].update(speed=1.0) or d,
         r"unknown normalized fields: \['speed'\]"),
        (lambda d: d["rows"][0].update(floor_hit=101.0) or d,
         r"floor_hit must be in \[0, 100\], got 101\.0"),
    ], ids=["bad_json", "not_utf8", "top_level_list", "rows_number", "rows_missing",
            "row_number", "failures_list", "row_key_missing", "row_key_extra",
            "hit_string", "hit_integer", "seed_bool", "dataset_null", "normalized_list",
            "ratio_string", "ratio_unknown", "hit_out_of_range"])
    def test_json_of_another_shape_rejected(self, tmp_path, edit, message):
        p = tmp_path / "t.json"
        write_json([_report(normalized={f: 1.0 for f in ("building_hit", "floor_hit",
                                                         "train_time", "test_time")})], p)
        text = edit(json.loads(p.read_text()))
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text if isinstance(text, str) else json.dumps(text))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))} is not a report "
                                             rf"written by elmloc benchmark: {message}"):
            read_json(p)

    def test_format_table_dashes_for_absent(self):
        txt = format_table([_report(train_time=None)])
        line = txt.splitlines()[2]
        assert "-" in line.split()
        assert "90.00" in line

    def test_format_table_header(self):
        txt = format_table([_report()])
        head = txt.splitlines()[0]
        for col in ("dataset", "approach", "seed", "zeta_b", "zeta_f"):
            assert col in head
