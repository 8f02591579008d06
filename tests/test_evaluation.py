import csv
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elmloc import elm
from elmloc.dataset import DatasetDescriptor, register_dataset
from elmloc.evaluation import (
    APPROACHES,
    CSV_COLUMNS,
    EvalReport,
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


# a registered descriptor whose sizes match the syn_small fixture
register_dataset(DatasetDescriptor(
    name="TST1", train_size=720, test_size=240, n_aps=40,
    L_default=60, c_default=1.0, db_type="MB-MF",
), overwrite=True)


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

    def test_unknown_approach_rejected(self, syn_small):
        with pytest.raises(ValueError, match="approach"):
            run_benchmark(["TST1"], approaches=("svm",),
                          loader=_loader_for(syn_small))

    def test_loader_required(self):
        with pytest.raises(ValueError):
            run_benchmark(["TST1"])

    def test_determinism(self, syn_small):
        kw = dict(approaches=("cnn_elm",), seeds=(0,),
                  loader=_loader_for(syn_small), include_published=False)
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
