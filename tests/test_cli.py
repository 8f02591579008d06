"""End-to-end command tests, in process via main(argv)."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import TST1, _write_csv
from test_pipeline import (
    BAD_KEYS,
    BAD_WEIGHTS,
    V3_FILES,
    settings_of,
    write_bad_key_model,
    write_bad_model,
)

from elmloc import dataset, pipeline
from elmloc.cli import _load_train, main
from elmloc.dataset import DatasetDescriptor
from elmloc.evaluation import read_json
from elmloc.pipeline import PipelineConfig, load_model

pytestmark = pytest.mark.usefixtures("tst1_registered")

# a JSON document nested this deep exceeds any recursion limit the parser may use
DEEP = 200_000
REPORT_DIR = Path(__file__).parent / "data" / "report"


@pytest.fixture(scope="module")
def data_root(tmp_path_factory, syn_small):
    root = tmp_path_factory.mktemp("cli_data")
    d = root / "TST1"
    d.mkdir()
    train, test = syn_small
    _write_csv(d / "train.csv", train)
    _write_csv(d / "test.csv", test)
    (d / "manifest.json").write_text(json.dumps({
        "ap_columns": [0, 39], "floor_col": 40, "building_col": 41,
        "sentinel": 100,
    }))
    return root


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, data_root):
    out = tmp_path_factory.mktemp("cli_model") / "tst1.model.json"
    rc = main(["train", "--dataset", "TST1", "--data-root", str(data_root),
               "--quantize", "--out", str(out)])
    assert rc == 0
    return out


class TestIngest:
    def test_summary(self, data_root, capsys):
        assert main(["ingest", "--dataset", "TST1",
                     "--data-root", str(data_root)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["train_samples"] == 720
        assert summary["test_samples"] == 240
        assert summary["n_aps"] == 40
        assert summary["buildings"] == 3
        assert summary["floors"] == [0, 1, 2, 3]
        assert summary["classes"] == 12
        assert summary["matches_registry"] is True
        assert 0.1 < summary["detected_fraction"] < 0.5

    def test_data_root_from_environment(self, data_root, capsys, monkeypatch):
        # without --data-root, $ELMLOC_DATA_ROOT names the root
        monkeypatch.setenv("ELMLOC_DATA_ROOT", str(data_root))
        assert main(["ingest", "--dataset", "TST1"]) == 0
        assert json.loads(capsys.readouterr().out)["train_samples"] == 720

    def test_buildings_counts_distinct_ids(self, tmp_path, capsys):
        # building ids 0, 5, 5 are two buildings, not the largest id plus one
        d = tmp_path / "GAP"
        d.mkdir()
        for split in ("train", "test"):
            (d / f"{split}.csv").write_text(
                "AP0,AP1,FLOOR,BUILDING\n-60,100,0,0\n100,-70,1,5\n-50,-80,2,5\n")
        (d / "manifest.json").write_text(json.dumps(
            {"ap_columns": [0, 1], "floor_col": 2, "building_col": 3, "sentinel": 100}))
        assert main(["ingest", "--dataset", "GAP", "--data-root", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["buildings"] == 2
        assert summary["classes"] == 3

    def test_size_mismatch_warns(self, data_root, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(dataset._REGISTRY, "TST2", DatasetDescriptor(
            name="TST2", train_size=9999, test_size=240, n_aps=40,
            L_default=60, c_default=1.0,
        ))
        link = tmp_path / "TST2"
        link.symlink_to(data_root / "TST1")
        assert main(["ingest", "--dataset", "TST2",
                     "--data-root", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["matches_registry"] is False
        assert "registry expects" in captured.err

    def test_missing_files(self, tmp_path, capsys):
        assert main(["ingest", "--dataset", "UJI1",
                     "--data-root", str(tmp_path)]) == 2
        assert "missing file" in capsys.readouterr().err

    def test_unknown_dataset_without_files(self, tmp_path, capsys):
        assert main(["ingest", "--dataset", "NOPE",
                     "--data-root", str(tmp_path)]) == 2

    def test_label_beyond_int64_exits_2(self, data_root, tmp_path, capsys):
        # numpy's cast would warn and report a wrapped label the file does not hold
        d = tmp_path / "BIG"
        d.mkdir()
        for f in (data_root / "TST1").iterdir():
            (d / f.name).write_bytes(f.read_bytes())
        lines = (d / "train.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[40] = "1e20"
        lines[1] = ",".join(cells)
        (d / "train.csv").write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--dataset", "BIG", "--data-root", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {d / 'train.csv'}: floor labels must lie within int64, found 1e+20\n")

    def test_one_column_for_both_labels_exits_2(self, tmp_path, capsys):
        # both labels read from one column would count each floor as a building
        d = tmp_path / "ONE"
        d.mkdir()
        for split in ("train", "test"):
            (d / f"{split}.csv").write_text("AP0,AP1,LABEL\n-60,100,0\n100,-70,1\n-50,-80,2\n")
        (d / "manifest.json").write_text(json.dumps(
            {"ap_columns": [0, 1], "floor_col": 2, "building_col": 2, "sentinel": 100}))
        assert main(["ingest", "--dataset", "ONE", "--data-root", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid manifest ")
        assert err.endswith("floor_col and building_col are both 2\n")


class TestTrain:
    def test_model_written(self, model_path):
        assert model_path.exists()
        payload = json.loads(model_path.read_text())
        assert payload["format"] == "elmloc-model-v3"

    def test_echoes_resolved_config(self, data_root, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--L", "30", "--seed", "2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = json.loads(next(l for l in lines if l.startswith("config: "))[8:])
        assert cfg["L"] == 30
        assert cfg["seed"] == 2
        assert cfg["c"] == 1.0  # registry default fills the gap
        assert any(l.startswith("config_digest: ") for l in lines)
        assert not any(l.startswith("training ") for l in lines)
        assert any("train time" in l for l in lines)

    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    def test_fits_through_fit_pipeline(self, data_root, tmp_path, capsys, monkeypatch,
                                       approach):
        # one train path: the file holds fit_pipeline's model, and no line scores
        # the rows the model was fitted to
        configs = []

        def recording(train, config, **kwargs):
            configs.append(config)
            return pipeline.fit_pipeline(train, config, **kwargs)

        out = tmp_path / "m.json"
        monkeypatch.setattr("elmloc.cli.fit_pipeline", recording)
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--approach", approach, "--quantize", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not [l for l in lines if l.startswith("training ")]
        assert len(configs) == 1 and configs[0].approach == approach
        want = pipeline.fit_pipeline(_load_train("TST1", data_root), configs[0])
        assert load_model(out).elm.beta.tobytes() == want.elm.beta.tobytes()

    def test_flags_override_config_file(self, data_root, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"L": 25, "c": 5.0, "seed": 7}))
        out = tmp_path / "m.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--config", str(cfg_path), "--c", "1.5",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = json.loads(next(l for l in lines if l.startswith("config: "))[8:])
        assert cfg["L"] == 25      # from file
        assert cfg["c"] == 1.5     # flag wins
        assert cfg["seed"] == 7    # from file

    # each value an int(), float() or bool() cast would have turned into a setting
    @pytest.mark.parametrize("key, value, message", [
        ("quantize", "no", r"quantize must hold true or false, got 'no'"),
        ("L", 1.7, r"L must hold 64-bit integers, got 1\.7"),
        ("L", "30", r"L must hold 64-bit integers, got '30'"),
        ("c", True, r"c must hold a float, got True"),
        ("c", "1.5", r"c must hold a float, got '1\.5'"),
        ("seed", "3", r"seed must hold 64-bit integers, got '3'"),
        ("kernel_size", 3.0, r"kernel_size must hold 64-bit integers, got 3\.0"),
        ("n_filters", False, r"n_filters must hold 64-bit integers, got False"),
        ("approach", "mlp", r"approach must be one of cnn_elm, elm_only, got 'mlp'"),
        ("norm_mode", 1, r"norm_mode must be one of per_feature, per_sample, got 1"),
    ])
    def test_config_file_values_checked(self, data_root, tmp_path, capsys, key, value,
                                        message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "m.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--config", str(cfg_path), "--out", str(out)]) == 2
        assert re.search(rf"error: config file .*run\.json: {message}$",
                         capsys.readouterr().err.strip())
        assert not out.exists()

    def test_config_file_not_an_object(self, data_root, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps([{"L": 20}]))
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--config", str(cfg_path), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path} is not a valid config file: its top level is not a JSON object\n")

    def test_config_file_missing_named(self, data_root, tmp_path, capsys):
        # the OSError passes through as it is, and it names the file
        cfg_path = tmp_path / "run.json"
        assert main(["--error-json", "train", "--dataset", "TST1", "--data-root",
                     str(data_root), "--config", str(cfg_path),
                     "--out", str(tmp_path / "m.json")]) == 2
        captured = capsys.readouterr()
        message = f"[Errno 2] No such file or directory: '{cfg_path}'"
        assert captured.err == f"error: {message}\n"
        assert json.loads(captured.out) == {"error": message, "type": "FileNotFoundError"}

    def test_config_file_values_kept(self, data_root, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"L": 20, "c": 2, "seed": 3, "quantize": True,
                                        "approach": "elm_only", "norm_mode": "per_sample"}))
        out = tmp_path / "m.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = json.loads(next(l for l in lines if l.startswith("config: "))[8:])
        assert (cfg["L"], cfg["c"], cfg["seed"], cfg["quantize"]) == (20, 2.0, 3, True)
        assert settings_of(load_model(out)) == dict(L=20, c=2.0, seed=3, approach="elm_only",
                                                    norm_mode="per_sample", quantize=True)

    # a misspelt key, and keys that exist only as flags (--L-max, --step); the
    # sweep takes no L, so to it the misspelt case names two keys
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("cfg, named", [
        pytest.param({"L": 20, "sed": 3}, {"train": "'sed'", "sweep": "'L', 'sed'"},
                     id="misspelt"),
        pytest.param({"L_max": 20, "Lmax": 3, "step": 10},
                     dict.fromkeys(("train", "sweep"), "'L_max', 'Lmax', 'step'"),
                     id="flag_only"),
    ])
    def test_config_file_unknown_keys_rejected(self, data_root, tmp_path, capsys, command,
                                               cfg, named):
        # the PipelineConfig fields, in their declared order
        accepted = {
            "train": "L, c, seed, approach, norm_mode, n_filters, kernel_size, quantize",
            "sweep": "c, seed, approach, norm_mode, n_filters, kernel_size",
        }[command]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--dataset", "TST1", "--data-root", str(data_root),
                     "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert "config: " not in captured.out
        assert re.search(rf"error: config file .*run\.json: unknown key {named[command]}; "
                         rf"accepted keys: {accepted}$", captured.err.strip())

    # each fails before any data is read: no config echo, no model
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (["--c", "-1"], r"c must be positive, got -1\.0"),
        (["--c", "0"], r"c must be positive, got 0\.0"),
        (["--c", "1e-320"], r"c must be large enough for a finite 1 / c, got 1e-320"),
        (["--kernel-size", "4"], r"kernel_size must be odd and positive, got 4"),
        (["--kernel-size", "0"], r"kernel_size must be odd and positive, got 0"),
        (["--n-filters", "0"], r"n_filters must be >= 1, got 0"),
        (["--seed", "-1"], r"seed must be >= 0, got -1"),
        (["--seed", "-1", "--approach", "elm_only"], r"seed must be >= 0, got -1"),
        (["--step", "0"], r"need 1 <= step <= L_max, got step=0, L_max=500"),
        (["--L-max", "4"], r"need 1 <= step <= L_max, got step=5, L_max=4"),
    ], ids=["c_negative", "c_zero", "c_subnormal", "kernel_even", "kernel_zero",
            "n_filters_zero", "seed_negative", "seed_negative_elm_only", "step_zero",
            "L_max_below_step"])
    def test_bad_setting_rejected_before_loading(self, tmp_path, capsys, monkeypatch,
                                                 command, flags, message):
        monkeypatch.setattr("elmloc.cli._load_train", None)  # a call would fail
        argv = [command, "--dataset", "TST1", "--data-root", str(tmp_path), *flags]
        out = tmp_path / "m.json"
        if command == "train":
            # train reads the grid only when it sweeps
            argv += ["--out", str(out), "--L", "auto" if flags[0] in ("--step", "--L-max")
                     else "30"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(rf"^error: {message}$", captured.err.strip())
        assert not out.exists()

    def test_zero_hidden_size_rejected_before_loading(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("elmloc.cli._load_train", None)
        assert main(["train", "--dataset", "TST1", "--data-root", str(tmp_path),
                     "--L", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: L must be >= 1, got 0"

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_bad_hidden_size_flag_named(self, data_root, capsys, value):
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--L", value]) == 2
        assert capsys.readouterr().err == f"error: L must hold 64-bit integers, got '{value}'\n"

    def test_auto_sweep(self, data_root, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--L", "auto", "--L-max", "40", "--step", "20",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "sweep grid: {20, 40}" in captured
        assert "selected L = " in captured
        assert out.exists()


class TestPredict:
    def test_labeled_queries_report_hits(self, data_root, model_path,
                                         tmp_path, capsys):
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path),
                   "--queries", str(data_root / "TST1" / "test.csv"),
                   "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "building hit:" in captured
        assert "floor hit:" in captured
        rows = out.read_text().splitlines()
        assert rows[0] == "building,floor"
        assert len(rows) == 241
        first = rows[1].split(",")
        assert len(first) == 2 and all(c.isdigit() for c in first)

    def test_quantized_path(self, data_root, model_path, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model_path), "--quantized",
                   "--queries", str(data_root / "TST1" / "test.csv"),
                   "--out", str(out)])
        assert rc == 0
        assert "floor hit:" in capsys.readouterr().out

    def test_quantized_needs_quantized_model(self, data_root, tmp_path, capsys):
        plain = tmp_path / "plain.model.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--L", "20", "--out", str(plain)]) == 0
        capsys.readouterr()
        rc = main(["predict", "--model", str(plain), "--quantized",
                   "--queries", str(data_root / "TST1" / "test.csv"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "quantized" in capsys.readouterr().err

    def test_quantized_checked_before_the_queries_are_read(self, data_root, tmp_path,
                                                           capsys):
        # a bad flag exits 2 before any data is read: a missing, unparsable or
        # empty query file gets the same message, and no output is written
        plain = tmp_path / "plain.model.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                     "--L", "20", "--out", str(plain)]) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(f"AP{j}" for j in range(40)) + "\n")
        garbage = tmp_path / "garbage.csv"
        garbage.write_text("a,b\noops,1\n")
        for queries in (tmp_path / "missing.csv", garbage, empty):
            out = tmp_path / "p.csv"
            assert main(["predict", "--model", str(plain), "--quantized",
                         "--queries", str(queries), "--out", str(out)]) == 2
            assert capsys.readouterr().err.strip() == (
                "error: model has no quantized weights; train with quantize=True "
                "(elmloc train --quantize)")
            assert not out.exists()

    def test_bare_matrix_queries(self, model_path, tmp_path, capsys):
        # no manifest next to the file: exactly the AP columns, 100 = silent
        p = tmp_path / "q.csv"
        header = ",".join(f"AP{j}" for j in range(40))
        row = ",".join(["100"] * 35 + ["-60", "-70", "100", "-80", "-55"])
        p.write_text(header + "\n" + row + "\n")
        rc = main(["predict", "--model", str(model_path), "--queries", str(p)])
        assert rc == 0
        out = tmp_path / "q.predictions.csv"
        assert out.exists()
        assert len(out.read_text().splitlines()) == 2
        assert "hit:" not in capsys.readouterr().out  # no truth available

    def test_wrong_width_matrix(self, model_path, tmp_path, capsys):
        p = tmp_path / "q.csv"
        p.write_text("a,b,c\n-50,-60,-70\n")
        assert main(["predict", "--model", str(model_path),
                     "--queries", str(p)]) == 2
        assert "40" in capsys.readouterr().err

    def test_empty_query_file(self, model_path, tmp_path, capsys):
        p = tmp_path / "q.csv"
        p.write_text(",".join(f"AP{j}" for j in range(40)) + "\n")
        out = tmp_path / "out.csv"
        rc = main(["predict", "--model", str(model_path),
                   "--queries", str(p), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "building,floor\n"
        assert "0 queries" in capsys.readouterr().out

    def test_blank_lines_after_header_are_skipped(self, data_root, model_path, tmp_path,
                                                  capsys):
        # the emptiness check skips blank lines as the parser does
        rows = [line.rsplit(",", 2)[0] for line in
                (data_root / "TST1" / "test.csv").read_text().splitlines()[:6]]
        predictions = []
        for name, gap in (("plain", []), ("gapped", ["", "   "])):
            p = tmp_path / f"{name}.csv"
            p.write_text("\n".join([rows[0], *gap, *rows[1:]]) + "\n")
            out = tmp_path / f"{name}.out.csv"
            assert main(["predict", "--model", str(model_path), "--queries", str(p),
                         "--out", str(out)]) == 0
            assert "5 predictions written" in capsys.readouterr().out
            predictions.append(out.read_text())
        assert predictions[0] == predictions[1]
        assert len(predictions[0].splitlines()) == 6

    # aps: the AP column range of a manifest.json beside the file, or None for no manifest
    @pytest.mark.parametrize("text, aps, rc, message", [
        ("a,b,c\n", None, 2, "has 3 columns but the model expects 40"),
        ("a,b,c\n\n  \n", None, 2, "has 3 columns but the model expects 40"),
        ("", None, 2, "empty file (expected a header row)"),
        ("a,b,c\n", [0, 39], 2, "schema references column 41 but the file has 3 columns"),
        ("a,b,c\n", [0, 38], 2, "manifest maps 39 AP columns, model expects 40"),
        (",".join(f"AP{j}" for j in range(40)) + "\n\n", None, 0, "0 queries"),
    ], ids=["narrow", "narrow_blank_lines", "zero_bytes", "narrow_manifest",
            "manifest_other_width", "right_width"])
    def test_header_only_file_is_checked(self, tmp_path, capsys, text, aps, rc, message):
        # a file without rows still has its header checked against the model
        model = V3_FILES / "cnn_elm_per_sample.model.json"
        p = tmp_path / "q.csv"
        p.write_text(text)
        if aps is not None:
            (tmp_path / "manifest.json").write_text(json.dumps(
                {"ap_columns": aps, "floor_col": 40, "building_col": 41, "sentinel": 100}))
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--queries", str(p),
                     "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert message in (captured.err if rc else captured.out)
        assert out.exists() == (rc == 0)
        if rc == 0:
            assert out.read_text() == "building,floor\n"

    def test_bare_matrix_bad_reading_names_the_file(self, model_path, tmp_path, capsys):
        p = tmp_path / "q.csv"
        p.write_text(",".join(f"AP{j}" for j in range(40)) + "\n"
                     + ",".join(["100"] * 39 + ["5"]) + "\n")
        assert main(["predict", "--model", str(model_path), "--queries", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {p}: rss: detected RSS values must be <= 0 dBm; found 5.0")

    @pytest.mark.parametrize("row, message", [
        ("-50,-60", r":3: expected 40 columns, found 2"),
        ("-50," * 39 + "oops", r":3: non-numeric cell 'oops' in column 39"),
    ], ids=["ragged", "non_numeric"])
    def test_bare_matrix_parse_errors_name_the_line(self, model_path, tmp_path,
                                                    capsys, row, message):
        p = tmp_path / "q.csv"
        header = ",".join(f"AP{j}" for j in range(40))
        p.write_text(header + "\n" + "-50," * 39 + "-60\n" + row + "\n")
        assert main(["predict", "--model", str(model_path), "--queries", str(p)]) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_model_file_missing_keys(self, data_root, tmp_path, capsys):
        model = tmp_path / "bare.model.json"
        model.write_text('{"format": "elmloc-model-v3"}')
        rc = main(["predict", "--model", str(model),
                   "--queries", str(data_root / "TST1" / "test.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(model) in err and "lacks key 'dataset'" in err

    @pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
    def test_model_file_bad_weights(self, data_root, tmp_path, capsys, case):
        model = tmp_path / "bad.model.json"
        write_bad_model(model, case)
        rc = main(["predict", "--model", str(model), "--quantized",
                   "--queries", str(data_root / "TST1" / "test.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(model) in err and re.search(BAD_WEIGHTS[case][1], err)

    @pytest.mark.parametrize("case", sorted(BAD_KEYS))
    def test_model_file_bad_keys(self, data_root, model_path, tmp_path, capsys, case):
        model = tmp_path / "bad.model.json"
        write_bad_key_model(model_path, model, case)
        rc = main(["predict", "--model", str(model),
                   "--queries", str(data_root / "TST1" / "test.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(model) in err and re.search(BAD_KEYS[case][2], err)

    def test_missing_query_file(self, model_path, tmp_path, capsys):
        assert main(["predict", "--model", str(model_path),
                     "--queries", str(tmp_path / "nope.csv")]) == 2


class TestSweep:
    def test_prints_curve_and_selection(self, data_root, capsys):
        rc = main(["sweep", "--dataset", "TST1", "--data-root", str(data_root),
                   "--L-max", "30", "--step", "10"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "<- selected" in captured
        assert "selected L = " in captured
        # one line per grid point
        assert sum(1 for l in captured.splitlines() if l.strip().startswith(
            ("10 ", "20 ", "30 "))) == 3

    @pytest.mark.parametrize("approach", ["cnn_elm", "elm_only"])
    def test_train_auto_selects_the_sweeps_L(self, data_root, tmp_path, capsys, approach):
        # train --L auto and sweep over the same grid both choose through sweep_pipeline
        grid = ["--dataset", "TST1", "--data-root", str(data_root), "--approach", approach,
                "--L-max", "50", "--step", "10"]
        assert main(["sweep", *grid]) == 0
        swept = [l for l in capsys.readouterr().out.splitlines() if l.startswith("selected L = ")]
        out = tmp_path / "m.json"
        assert main(["train", *grid, "--L", "auto", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        chosen = [l.partition(" (")[0] for l in lines if l.startswith("selected L = ")]
        assert len(swept) == 1 and chosen == swept
        assert f"selected L = {load_model(out).elm.L}" == swept[0]

    def test_echo_describes_the_grid(self, data_root, capsys):
        echoed = {}
        for l_max in (20, 40):
            assert main(["sweep", "--dataset", "TST1", "--data-root", str(data_root),
                         "--L-max", str(l_max), "--step", "10"]) == 0
            lines = capsys.readouterr().out.splitlines()
            cfg = json.loads(next(l for l in lines if l.startswith("config: "))[8:])
            digest = next(l for l in lines if l.startswith("config_digest: "))
            echoed[l_max] = cfg, digest
        assert "L" not in echoed[20][0]
        assert [(cfg["L_max"], cfg["step"]) for cfg, _ in echoed.values()] == [(20, 10), (40, 10)]
        assert echoed[20][1] != echoed[40][1]

    @pytest.mark.parametrize("flags", [["--L", "7"], ["--quantize"]])
    def test_takes_no_L_or_quantize_flag(self, data_root, capsys, flags):
        assert main(["sweep", "--dataset", "TST1", "--data-root", str(data_root), *flags]) == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flags)}\n"

    def test_takes_no_quantize_key_and_echoes_none(self, data_root, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"quantize": True}))
        flags = ["sweep", "--dataset", "TST1", "--data-root", str(data_root),
                 "--L-max", "20", "--step", "10"]
        assert main([*flags, "--config", str(cfg_path)]) == 2
        assert "unknown key 'quantize'" in capsys.readouterr().err
        assert main(flags) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = json.loads(next(l for l in lines if l.startswith("config: "))[8:])
        assert sorted(cfg) == ["L_max", "approach", "c", "dataset", "kernel_size",
                               "n_filters", "norm_mode", "seed", "step"]

    def test_unregistered_dataset_needs_only_c(self, data_root, tmp_path, capsys):
        (tmp_path / "MYDS").symlink_to(data_root / "TST1")
        flags = ["sweep", "--dataset", "MYDS", "--data-root", str(tmp_path),
                 "--L-max", "20", "--step", "10"]
        assert main(flags) == 2
        assert "pass --c" in capsys.readouterr().err
        assert main([*flags, "--c", "1"]) == 0
        assert "selected L = " in capsys.readouterr().out
        # train still needs the L the sweep does without
        assert main(["train", "--dataset", "MYDS", "--data-root", str(tmp_path),
                     "--c", "1", "--out", str(tmp_path / "m.json")]) == 2
        assert "pass --L" in capsys.readouterr().err

    def test_no_held_rows_exits_2(self, tmp_path, capsys):
        # six rows on six floors: no (building, floor) class can spare a row to leave out
        d = tmp_path / "SIX"
        d.mkdir()
        rows = [f"-{50 + i},-60,100,{i},0" for i in range(6)]
        (d / "train.csv").write_text("\n".join(["AP0,AP1,AP2,FLOOR,BUILDINGID", *rows, ""]))
        (d / "manifest.json").write_text(json.dumps(
            {"ap_columns": [0, 2], "floor_col": 3, "building_col": 4, "sentinel": 100}))
        flags = ["--dataset", "SIX", "--data-root", str(tmp_path), "--c", "1",
                 "--L-max", "10", "--step", "5"]
        for argv in (["sweep", *flags], ["train", *flags, "--L", "auto",
                                         "--out", str(tmp_path / "m.json")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.endswith(
                "error: pairs has no (building, floor) class with the 2 rows a leave-one-out "
                "score needs\n")
        assert not (tmp_path / "m.json").exists()

    def test_nan_features_exit_2(self, data_root, monkeypatch, capsys):
        real = pipeline._fit_stages

        def with_nan(train, config):
            params, fspec, x_tr = real(train, config)
            x_tr[0, 0] = np.nan
            return params, fspec, x_tr

        monkeypatch.setattr(pipeline, "_fit_stages", with_nan)
        rc = main(["sweep", "--dataset", "TST1", "--data-root", str(data_root),
                   "--L-max", "30", "--step", "10"])
        assert rc == 2
        assert "contains non-finite values" in capsys.readouterr().err


class TestTrainSplitOnly:
    @pytest.fixture()
    def train_only_root(self, data_root, tmp_path):
        d = tmp_path / "TST1"
        d.mkdir()
        for name in ("train.csv", "manifest.json"):
            (d / name).write_bytes((data_root / "TST1" / name).read_bytes())
        return tmp_path

    def test_train_reads_no_test_file(self, train_only_root, tmp_path):
        out = tmp_path / "m.json"
        assert main(["train", "--dataset", "TST1", "--data-root", str(train_only_root),
                     "--L", "20", "--out", str(out)]) == 0
        assert out.exists()

    def test_sweep_reads_no_test_file(self, train_only_root):
        assert main(["sweep", "--dataset", "TST1", "--data-root", str(train_only_root),
                     "--L-max", "20", "--step", "10"]) == 0

    def test_ingest_still_needs_both(self, train_only_root, capsys):
        assert main(["ingest", "--dataset", "TST1",
                     "--data-root", str(train_only_root)]) == 2
        assert "test.csv" in capsys.readouterr().err


class TestBenchmarkReport:
    def test_benchmark_writes_reports(self, data_root, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = main(["benchmark", "--datasets", "TST1",
                   "--approaches", "knn,elm_only", "--seeds", "0,1",
                   "--data-root", str(data_root), "--out-dir", str(out_dir)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert "zeta_f" in printed[0]
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "report.json").exists()
        assert main(["report", "--json", str(out_dir / "report.json")]) == 0
        rendered = capsys.readouterr().out.splitlines()
        # the report reprints, line for line, the table the benchmark printed
        assert rendered[:-1] == printed[:-1]
        assert any(line.startswith("TST1") for line in rendered)
        assert rendered[-1].startswith("config_digest:")

    def test_deep_manifest_fails_its_dataset_alone(self, tmp_path, capsys):
        # the parser's RecursionError is the manifest's ParseError, which the
        # benchmark records; SYN1, generated in memory, still runs
        (tmp_path / "UJI1").mkdir()
        manifest = tmp_path / "UJI1" / "manifest.json"
        manifest.write_text("[" * DEEP + "]" * DEEP)
        out_dir = tmp_path / "r"
        assert main(["benchmark", "--datasets", "UJI1,SYN1", "--approaches", "knn",
                     "--seeds", "0", "--data-root", str(tmp_path),
                     "--out-dir", str(out_dir)]) == 0
        failed = f"{manifest} is not valid JSON: maximum recursion depth exceeded"
        assert capsys.readouterr().err.startswith(f"FAILED UJI1: {failed}")
        rows, payload = read_json(out_dir / "report.json")
        assert list(payload["failures"]) == ["UJI1"]
        assert payload["failures"]["UJI1"].startswith(failed)
        assert [r.approach for r in rows if r.dataset == "SYN1"] == ["knn"]

    # each entry is read as a seed setting; the message quotes the first bad one
    @pytest.mark.parametrize("seeds, bad", [("a", "a"), ("0,,1", "")], ids=["a", "0,,1"])
    def test_bad_seeds_flag_named(self, tmp_path, capsys, seeds, bad):
        assert main(["benchmark", "--datasets", "TST1", "--seeds", seeds,
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: seed must hold 64-bit integers, got '{bad}'\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("seeds", ["-1", "0,-2", str(2 ** 63)])
    def test_bad_seed_rejected_before_loading(self, tmp_path, capsys, seeds):
        # SYN1 needs no files, so a late check would generate it and run 1-NN first
        assert main(["benchmark", "--datasets", "SYN1", f"--seeds={seeds}",
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert re.fullmatch(r"error: seed must (be >= 0|hold 64-bit integers), got -?\d+\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_benchmark_all_failed(self, tmp_path, capsys):
        rc = main(["benchmark", "--datasets", "UJI1,NOPE", "--seeds", "0",
                   "--data-root", str(tmp_path),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"FAILED UJI1: missing file: {tmp_path / 'UJI1' / 'manifest.json'}"
        assert err[1].startswith("FAILED NOPE: unknown dataset 'NOPE'; known: ")
        assert err[2:] == ["error: every requested dataset failed to load"]
        failures = json.loads((tmp_path / "r" / "report.json").read_text())["failures"]
        assert failures["NOPE"].startswith("unknown dataset 'NOPE'; known: ")

    def test_failed_dataset_reported_and_skipped(self, data_root, tmp_path, capsys):
        # a registered set without files fails alone; the others still run
        out_dir = tmp_path / "r"
        assert main(["benchmark", "--datasets", "TST1,UJI1", "--approaches", "knn",
                     "--seeds", "0", "--data-root", str(data_root),
                     "--out-dir", str(out_dir)]) == 0
        failed = f"FAILED UJI1: missing file: {data_root / 'UJI1' / 'manifest.json'}"
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [failed]
        assert any(line.startswith("TST1") for line in captured.out.splitlines())
        assert main(["report", "--json", str(out_dir / "report.json")]) == 0
        assert capsys.readouterr().err.splitlines() == [failed]

    def test_repeated_dataset_exits_2(self, tmp_path, capsys):
        # a name given twice would report its rows twice; with every dataset
        # unknown, it would also print an empty table and exit 0
        assert main(["benchmark", "--datasets", "NOPE,NOPE", "--seeds", "0",
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: datasets named more than once: ['NOPE']\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("approaches, seeds, message", [
        ("knn,knn", "0", "approaches named more than once: ['knn']"),
        ("elm_only", "0,0", "seeds named more than once: [0]"),
    ])
    def test_repeated_approach_or_seed_exits_2(self, tmp_path, capsys, approaches, seeds,
                                               message):
        # a second 1-NN run would be normalized against the first, a seed's
        # rows printed twice; SYN1 runs from memory, so nothing else stops it
        assert main(["benchmark", "--datasets", "SYN1", "--approaches", approaches,
                     "--seeds", seeds, "--data-root", str(tmp_path / "none"),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()


class TestErrorSurface:
    @pytest.mark.parametrize("name", ["model", "config", "manifest", "train_csv", "queries",
                                      "report"])
    def test_undecodable_file_named(self, data_root, model_path, tmp_path, capsys, name):
        # a byte the text encoding cannot decode is reported with the file that holds it
        root = tmp_path / "root"
        (root / "TST1").mkdir(parents=True)
        for f in (data_root / "TST1").iterdir():
            (root / "TST1" / f.name).write_bytes(f.read_bytes())
        bad = {"model": tmp_path / "m.json", "config": tmp_path / "c.json",
               "manifest": root / "TST1" / "manifest.json",
               "train_csv": root / "TST1" / "train.csv",
               "queries": tmp_path / "q.csv", "report": tmp_path / "r.json"}[name]
        bad.write_bytes(b"\xff" + (bad.read_bytes() if bad.exists() else b"{}\n"))
        train = ["train", "--dataset", "TST1", "--data-root", str(root), "--L", "10",
                 "--out", str(tmp_path / "out.json")]
        queries = str(root / "TST1" / "test.csv")
        argv = {"model": ["predict", "--model", str(bad), "--queries", queries],
                "config": train + ["--config", str(bad)],
                "queries": ["predict", "--model", str(model_path), "--queries", str(bad)],
                "report": ["report", "--json", str(bad)]}
        assert main(argv.get(name, train)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'utf-8' codec can't decode byte 0xff" in err

    # the JSON files: each passes dataset.load_json, whose refusals name the file
    @pytest.mark.parametrize("name", ["model", "config", "manifest", "report"])
    @pytest.mark.parametrize("flaw, reason", [
        pytest.param(lambda text: '{"a": ' * DEEP + "0" + "}" * DEEP,
                     "maximum recursion depth exceeded", id="deep"),
        # the first key again, before the file's own: json alone keeps the later value
        pytest.param(lambda text: f'{{"{next(iter(json.loads(text)))}": null, ' + text[1:],
                     "is named twice in one object", id="repeated_key"),
    ])
    def test_refused_json_file_named(self, data_root, model_path, tmp_path, capsys, name,
                                     flaw, reason):
        root = tmp_path / "root"
        (root / "TST1").mkdir(parents=True)
        for f in (data_root / "TST1").iterdir():
            (root / "TST1" / f.name).write_bytes(f.read_bytes())
        bad, text = {
            "model": (tmp_path / "m.json", model_path.read_text()),
            "config": (tmp_path / "c.json", '{"L": 20}'),
            "manifest": (root / "TST1" / "manifest.json", None),
            "report": (tmp_path / "r.json", (REPORT_DIR / "report.json").read_text()),
        }[name]
        bad.write_text(flaw(text or bad.read_text()))
        argv = {"model": ["predict", "--model", str(bad), "--queries",
                          str(root / "TST1" / "test.csv")],
                "config": ["train", "--dataset", "TST1", "--data-root", str(root),
                           "--config", str(bad), "--out", str(tmp_path / "out.json")],
                "manifest": ["ingest", "--dataset", "TST1", "--data-root", str(root)],
                "report": ["report", "--json", str(bad)]}[name]
        assert main(["--error-json", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad} is not ") and reason in captured.err
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out) == {"error": captured.err[7:-1], "type": "ParseError"}
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--L", "50", "--approach", "elm_only", "--out", "m.json"],
        ["sweep", "--L-max", "50", "--step", "10"],
    ], ids=["train", "sweep"])
    def test_rank_deficient_gram_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # 20 rows cannot fill 50 neurons, and I / c is too small to make up for it
        rng = np.random.default_rng(0)
        d = tmp_path / "TINY"
        d.mkdir()
        rows = [",".join([*(str(v) for v in rng.integers(-90, -30, 6)), str(i % 2), "0"])
                for i in range(20)]
        (d / "train.csv").write_text("\n".join(
            [",".join([*(f"AP{j}" for j in range(6)), "FLOOR", "BUILDINGID"]), *rows, ""]))
        (d / "manifest.json").write_text(json.dumps(
            {"ap_columns": [0, 5], "floor_col": 6, "building_col": 7, "sentinel": 100}))
        monkeypatch.chdir(tmp_path)
        assert main([command[0], "--dataset", "TINY", "--data-root", str(tmp_path),
                     "--c", "1e300", *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "not positive definite at L = 50, c = 1e+300; lower c" in err
        assert not (tmp_path / "m.json").exists()

    def test_error_json_flag(self, tmp_path, capsys):
        rc = main(["--error-json", "ingest", "--dataset", "NOPE",
                   "--data-root", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        obj = json.loads(captured.out.splitlines()[-1])
        assert "error" in obj and "type" in obj
        assert "error:" in captured.err

    def test_usage_error_exits_2(self, capsys):
        assert main(["train"]) == 2  # --dataset is required
        assert capsys.readouterr().err == (
            "error: the following arguments are required: --dataset\n")

    # argparse's own refusals reach the same handler as every other refusal
    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--datset", "SYN1"], "the following arguments are required: --dataset"),
        (["ingest", "--dataset", "SYN1", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'ingest', "
                    "'train', 'predict', 'sweep', 'benchmark', 'report')"),
        ([], "the following arguments are required: command"),
    ], ids=["missing_flag", "unknown_flag", "unknown_command", "no_command"])
    def test_usage_error_prints_error_json(self, capsys, argv, message):
        assert main(["--error-json", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out) == {"error": message, "type": "CliError"}

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--error-json", "train", "-h"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: elmloc train") and captured.err == ""


# each setting flag, given text that does not convert and a value the setting's
# rule refuses: the message is the one a config file's value gets
SETTING_FLAGS = [
    ("--approach", "bogus", "approach must be one of cnn_elm, elm_only, got 'bogus'"),
    ("--norm-mode", "global", "norm_mode must be one of per_feature, per_sample, got 'global'"),
    ("--c", "x", "c must hold a float, got 'x'"),
    ("--c", "0", "c must be positive, got 0.0"),
    ("--c", "inf", "c must be finite, got inf"),
    ("--seed", "x", "seed must hold 64-bit integers, got 'x'"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--kernel-size", "3.0", "kernel_size must hold 64-bit integers, got '3.0'"),
    ("--kernel-size", "4", "kernel_size must be odd and positive, got 4"),
    ("--n-filters", "x", "n_filters must hold 64-bit integers, got 'x'"),
    ("--n-filters", "0", "n_filters must be >= 1, got 0"),
    # train reads --L-max and --step on every run, and sweeps at --L 20 never
    ("--L-max", "x", "L_max must hold 64-bit integers, got 'x'"),
    ("--L-max", str(2 ** 63), f"L_max must hold 64-bit integers, got {2 ** 63}"),
    ("--step", "x", "step must hold 64-bit integers, got 'x'"),
    ("--step", str(2 ** 63), f"step must hold 64-bit integers, got {2 ** 63}"),
]


@pytest.mark.parametrize("argv, message", [
    *(pytest.param([command, flag, value], message, id=f"{command}{flag}={value}")
      for command in ("train", "sweep") for flag, value, message in SETTING_FLAGS),
    pytest.param(["train", "--L", "x"], "L must hold 64-bit integers, got 'x'", id="train--L=x"),
    pytest.param(["train", "--L", "0"], "L must be >= 1, got 0", id="train--L=0"),
    pytest.param(["benchmark", "--seeds", "0,x"], "seed must hold 64-bit integers, got 'x'",
                 id="benchmark--seeds=0,x"),
    pytest.param(["benchmark", "--seeds", "0,-1"], "seed must be >= 0, got -1",
                 id="benchmark--seeds=0,-1"),
])
def test_bad_setting_flag_named(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr("elmloc.cli._load_splits", None)  # a call would fail
    command, *flags = argv
    head = {"train": ["train", "--dataset", "TST1", "--out", str(tmp_path / "m.json")]
                     + (["--L", "20"] if flags[0] != "--L" else []),
            "sweep": ["sweep", "--dataset", "TST1"],
            "benchmark": ["benchmark", "--datasets", "SYN1", "--out-dir", str(tmp_path / "r")]}
    argv = [*head[command], "--data-root", str(tmp_path), *flags]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["--error-json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out) == {"error": message, "type": "ValueError"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["train", "--dataset", "TST1", "--L", "20", "--out", "m.json"],
    ["sweep", "--dataset", "TST1", "--L-max", "20", "--step", "10"],
    ["benchmark", "--datasets", "TST1", "--approaches", "elm_only", "--seeds", "0",
     "--out-dir", "reports"],
])
def test_training_commands_run_without_scipy(data_root, tmp_path, command):
    # None in sys.modules makes every import of scipy raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from elmloc.cli import main\n"
        "from elmloc.dataset import _REGISTRY, DatasetDescriptor\n"
        f"_REGISTRY['TST1'] = DatasetDescriptor(**{dataclasses.asdict(TST1)!r})\n"
        f"sys.exit(main({[*command, '--data-root', str(data_root)]!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_ingest_reads_utf8_whatever_the_locale(data_root, tmp_path):
    # a header naming its APs in UTF-8 loads alike under a UTF-8 locale and under
    # one whose encoding is ASCII, the child's stderr says which one it ran in
    d = tmp_path / "UMLAUT"
    d.mkdir()
    for f in (data_root / "TST1").iterdir():
        header, newline, rows = f.read_text(encoding="utf-8").partition("\n")
        if f.suffix == ".csv":
            header = header.replace("AP", "Zugangspunkt_\u00e4")
        (d / f.name).write_text(header + newline + rows, encoding="utf-8")
    assert "Zugangspunkt_\u00e40".encode() in (d / "train.csv").read_bytes()
    code = (
        "import codecs, locale, sys\n"
        "from elmloc.cli import main\n"
        "print(codecs.lookup(locale.getpreferredencoding(False)).name, file=sys.stderr)\n"
        f"sys.exit(main(['ingest', '--dataset', 'UMLAUT', '--data-root', {str(tmp_path)!r}]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for encoding, lc_all in (("utf-8", "C.UTF-8"), ("ascii", "C")):
        env = dict(os.environ, PYTHONPATH=src, LC_ALL=lc_all, PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=300)
        assert (out.returncode, out.stderr) == (0, f"{encoding}\n")
        runs[encoding] = out.stdout
    assert runs["ascii"] == runs["utf-8"]
    assert json.loads(runs["ascii"])["train_samples"] == 720


def test_report_table_is_utf8_whatever_the_locale(tmp_path):
    # a report naming a dataset that is not ASCII prints the same bytes under a
    # UTF-8 locale and under one whose encoding is ASCII
    doc = json.loads((REPORT_DIR / "report.json").read_text(encoding="utf-8"))
    for row in doc["rows"]:
        row["dataset"] = row["dataset"].replace("TST1", "Z\u00fcrich")
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for lc_all in ("C.UTF-8", "C"):
        env = dict(os.environ, PYTHONPATH=src, LC_ALL=lc_all, PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        out = subprocess.run([sys.executable, "-m", "elmloc.cli", "report", "--json",
                              str(report)], cwd=tmp_path, env=env, capture_output=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr
        runs[lc_all] = out.stdout
    assert runs["C"] == runs["C.UTF-8"]
    assert "Z\u00fcrich    knn".encode("utf-8") in runs["C"]


def test_cli_import_loads_no_statistics():
    # statistics would pull in fractions and decimal for one mean
    code = ("import sys, elmloc.cli\n"
            "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout == "[]\n"


# one bad setting gets one message from each entry point: the Python API and a
# --config file
@pytest.mark.parametrize("key, value, message", [
    ("quantize", "yes", r"quantize must hold true or false, got 'yes'"),
    ("L", "60", r"L must hold 64-bit integers, got '60'"),
    ("L", 1.7, r"L must hold 64-bit integers, got 1\.7"),
    ("approach", 1, r"approach must be one of cnn_elm, elm_only, got 1"),
    ("norm_mode", "bogus", r"norm_mode must be one of per_feature, per_sample, got 'bogus'"),
    ("c", True, r"c must hold a float, got True"),
    ("c", 0, r"c must be positive, got 0\.0"),
    ("c", -1, r"c must be positive, got -1\.0"),
    ("c", 1e-320, r"c must be large enough for a finite 1 / c, got 1e-320"),
    ("L", 0, r"L must be >= 1, got 0"),
    ("n_filters", 0, r"n_filters must be >= 1, got 0"),
    ("kernel_size", 4, r"kernel_size must be odd and positive, got 4"),
    ("kernel_size", -1, r"kernel_size must be odd and positive, got -1"),
    ("seed", -1, r"seed must be >= 0, got -1"),
], ids=["quantize_string", "L_string", "L_fraction", "approach_number", "norm_mode_bogus",
        "c_bool", "c_zero", "c_negative", "c_subnormal", "L_zero", "n_filters_zero", "kernel_size_even",
        "kernel_size_negative", "seed_negative"])
def test_bad_setting_same_message_everywhere(data_root, tmp_path, capsys, key, value,
                                             message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        PipelineConfig(**{"L": 20, "c": 1.0, key: value})

    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: value}))
    out = tmp_path / "m.json"
    assert main(["train", "--dataset", "TST1", "--data-root", str(data_root),
                 "--config", str(cfg_path), "--out", str(out)]) == 2
    assert re.search(rf"error: config file .*run\.json: {message}$",
                     capsys.readouterr().err.strip())
    assert not out.exists()
