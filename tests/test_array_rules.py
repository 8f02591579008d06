"""Every entry point refuses what a ``RadioMap`` refuses, and every setting
passes one rule.

Label rows pass ``dataset.label_rows``, feature matrices
``dataset.feature_matrix`` and settings ``dataset.check_setting``, so one
table of bad inputs is tried at every entry point, and each must raise a
``ValueError`` naming the label column, the argument or the setting.
"""

import math
import re

import numpy as np
import pytest

from elmloc.dataset import RadioMap
from elmloc.elm import (
    ClassCodebook, ElmModel, fit, hidden_map, init_hidden, predict, predict_quantized, quantize,
    sweep_hidden, train_elm,
)
from elmloc.featurizer import FeaturizerSpec, featurize, init_featurizer
from elmloc.knn import build_index, classify_all
from elmloc.pipeline import PipelineConfig, TrainedModel, load_model, save_model, sweep_pipeline
from elmloc.preprocess import PreprocessParams
from elmloc.synthetic import generate_synthetic

# toy data: 6 fingerprints of 4 features, every joint class at least once
X = np.random.default_rng(0).uniform(-1.0, 0.0, size=(6, 4))
PAIRS = [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 1]]
CODEBOOK = [[0, 0], [0, 1], [1, 0]]


def _last_floor(rows, value):
    return [*rows[:-1], [rows[-1][0], value]]


# case -> (bad rows made from good ones, message pattern: {arg} names the argument)
LABEL_CASES = {
    "fraction": (lambda rows: _last_floor(rows, 1.5), r"floor labels must be integers"),
    "negative": (lambda rows: _last_floor(rows, -1), r"floor labels must be non-negative, found -1"),
    "nan": (lambda rows: _last_floor(rows, float("nan")), r"floor labels must be integers"),
    "beyond_int64_float": (lambda rows: _last_floor(rows, 1e20),
                           r"floor labels must lie within int64, found 1e\+20"),
    "beyond_int64_int": (lambda rows: _last_floor(rows, 2**70),
                         r"floor labels must be numbers, got dtype object"),
    "strings": (lambda rows: [[str(b), str(f)] for b, f in rows],
                r"building labels must be numbers, got dtype <U1"),
    "three_columns": (lambda rows: [[b, f, 0] for b, f in rows],
                      r"{arg} must be {n} x 2, got shape \({rows}, 3\)"),
}

# entry point -> (the argument's name, its row count in messages, good rows, call)
LABEL_DOORS = {
    "train_elm": ("pairs", 6, PAIRS, lambda p: train_elm(X, p, L=5, c=1.0, seed=0)),
    "sweep_hidden_train": ("pairs", 6, PAIRS, lambda p: sweep_hidden(X, p, c=1.0, L_max=5, step=5)),
    "build_index": ("pairs", 6, PAIRS, lambda p: build_index(X, p)),
    "ClassCodebook": ("codebook", "N", CODEBOOK, lambda p: ClassCodebook(np.array(p))),
}


@pytest.mark.parametrize("case", sorted(LABEL_CASES))
@pytest.mark.parametrize("door", sorted(LABEL_DOORS))
def test_label_rows_refused_by_name(door, case):
    arg, n, good, call = LABEL_DOORS[door]
    make, pattern = LABEL_CASES[case]
    message = pattern.format(arg=arg, n=n, rows=len(good))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(make(good))


MODEL = quantize(train_elm(X, PAIRS, L=5, c=1.0, seed=0))
INDEX = build_index(X, PAIRS)
W, B = init_hidden(0, 4, 5)
SPEC = init_featurizer(0, 4)

# case -> (bad matrix, the message's pattern after the argument's name)
FEATURE_CASES = {
    "strings": (X.astype(str), r"must hold numbers, got strings"),
    "bools": (X < -0.5, r"must hold numbers, got true/false values"),
    "complex": (X + 1j, r"must hold numbers, got complex numbers"),
    "nan": (np.where(np.arange(4) == 1, np.nan, X), r"contains non-finite values"),
    "one_d": (X[0], r"must be N x \w+( with N >= 1)?, got shape \(4,\)"),
    "scalar": (X[0, 0], r"must be N x \w+( with N >= 1)?, got shape \(\)"),
    "narrow": (X[:, :3], r"must be N x 4( with N >= 1)?, got shape \(6, 3\)"),
}

# entry point -> (the argument's name, the cases it has no rule for, call)
FEATURE_DOORS = {
    "hidden_map": ("features", (), lambda x: hidden_map(x, W, B)),
    # fit, train_elm, build_index and the sweep fix no width
    "fit": ("h", ("narrow",), lambda x: fit(x, np.ones((6, 2)), 1.0)),
    "train_elm": ("features", ("narrow",), lambda x: train_elm(x, PAIRS, L=5, c=1.0, seed=0)),
    "sweep_hidden_train": ("features", ("narrow",),
                           lambda x: sweep_hidden(x, PAIRS, c=1.0, L_max=5, step=5)),
    "predict": ("features", (), lambda x: predict(x, MODEL)),
    "predict_quantized": ("features", (), lambda x: predict_quantized(x, MODEL)),
    # featurize makes no scan for non-finite values: its input is the finite
    # output of preprocessing, and hidden_map scans what it makes
    "featurize": ("x", ("nan",), lambda x: featurize(x, SPEC)),
    "build_index": ("features", ("narrow",), lambda x: build_index(x, PAIRS)),
    "classify_all": ("queries", (), lambda x: classify_all(x, INDEX)),
}


@pytest.mark.parametrize("door, case", [
    (door, case) for door in sorted(FEATURE_DOORS) for case in sorted(FEATURE_CASES)
    if case not in FEATURE_DOORS[door][1]
])
def test_feature_matrices_refused_by_name(door, case):
    arg, _, call = FEATURE_DOORS[door]
    x, pattern = FEATURE_CASES[case]
    with pytest.raises(ValueError, match=f"^{arg} {pattern}$"):
        call(x)


MAP = RadioMap(X, floor=[f for _, f in PAIRS], building=[b for b, _ in PAIRS])
BETA = np.ones((5, 3))

# the rule's kind -> case -> (bad value, the message's pattern after the setting's name)
SETTING_CASES = {
    int: {"bool": (True, r"must hold 64-bit integers, got True"),
          "fraction": (1.5, r"must hold 64-bit integers, got 1\.5"),
          "string": ("1", r"must hold 64-bit integers, got '1'")},
    float: {"bool": (True, r"must hold a float, got True"),
            "string": ("1", r"must hold a float, got '1'"),
            "infinite": (-math.inf, r"must be finite, got -inf")},
    bool: {"string": ("no", r"must hold true or false, got 'no'"),
           "int": (1, r"must hold true or false, got 1")},
    str: {"unknown": ("global", r"must be one of per_feature, per_sample, got 'global'"),
          "int": (1, r"must be one of per_feature, per_sample, got 1")},
}

# entry point and argument -> (the name the message gives, the rule's kind, call)
SETTING_DOORS = {
    "ElmModel.c": ("c", float, lambda v: ElmModel(BETA, v, ClassCodebook(CODEBOOK), 0, 4)),
    "ElmModel.seed": ("seed", int, lambda v: ElmModel(BETA, 1.0, ClassCodebook(CODEBOOK), v, 4)),
    "ElmModel.n_features": ("n_features", int,
                            lambda v: ElmModel(BETA, 1.0, ClassCodebook(CODEBOOK), 0, v)),
    # the int8 flag goes by the name a model file gives it
    "ElmModel.int8": ("quantized", bool,
                      lambda v: ElmModel(BETA, 1.0, ClassCodebook(CODEBOOK), 0, 4, v)),
    "train_elm.L": ("L", int, lambda v: train_elm(X, PAIRS, L=v, c=1.0, seed=0)),
    "train_elm.c": ("regularization term c", float,
                    lambda v: train_elm(X, PAIRS, L=5, c=v, seed=0)),
    "train_elm.seed": ("seed", int, lambda v: train_elm(X, PAIRS, L=5, c=1.0, seed=v)),
    "init_hidden.seed": ("seed", int, lambda v: init_hidden(v, 3, 5)),
    "init_hidden.L": ("L", int, lambda v: init_hidden(0, 3, v)),
    "fit.c": ("regularization term c", float, lambda v: fit(np.eye(2), np.eye(2), v)),
    "sweep_hidden.c": ("regularization term c", float,
                       lambda v: sweep_hidden(X, PAIRS, c=v, L_max=5, step=5)),
    "sweep_hidden.L_max": ("L_max", int,
                           lambda v: sweep_hidden(X, PAIRS, c=1.0, L_max=v, step=1)),
    "sweep_hidden.step": ("step", int,
                          lambda v: sweep_hidden(X, PAIRS, c=1.0, L_max=5, step=v)),
    "sweep_hidden.seed": ("seed", int,
                          lambda v: sweep_hidden(X, PAIRS, c=1.0, L_max=5, seed=v)),
    "sweep_pipeline.step": ("step", int,
                            lambda v: sweep_pipeline(MAP, PipelineConfig(L=5, c=1.0), step=v)),
    "FeaturizerSpec.n_filters": ("n_filters", int, lambda v: FeaturizerSpec(v, 3, 0, 4)),
    "FeaturizerSpec.kernel_size": ("kernel_size", int, lambda v: FeaturizerSpec(2, v, 0, 4)),
    "FeaturizerSpec.seed": ("seed", int, lambda v: FeaturizerSpec(2, 3, v, 4)),
    "FeaturizerSpec.n_aps": ("n_aps", int, lambda v: FeaturizerSpec(2, 3, 0, v)),
    "PreprocessParams.min_rss": ("min_rss", float, lambda v: PreprocessParams(v, "per_sample")),
    "PreprocessParams.mode": ("mode", str, lambda v: PreprocessParams(-1.0, v)),
    "PipelineConfig.norm_mode": ("norm_mode", str,
                                 lambda v: PipelineConfig(L=5, c=1.0, norm_mode=v)),
    "PipelineConfig.quantize": ("quantize", bool,
                                lambda v: PipelineConfig(L=5, c=1.0, quantize=v)),
    "generate_synthetic.seed": ("seed", int,
                                lambda v: generate_synthetic(v, n_train=5, n_test=5, n_aps=5)),
    "generate_synthetic.n_train": ("n_train", int,
                                   lambda v: generate_synthetic(n_train=v, n_test=5, n_aps=5)),
    "generate_synthetic.n_test": ("n_test", int,
                                  lambda v: generate_synthetic(n_train=5, n_test=v, n_aps=5)),
    "generate_synthetic.n_aps": ("n_aps", int,
                                 lambda v: generate_synthetic(n_train=5, n_test=5, n_aps=v)),
}


@pytest.mark.parametrize("door, case", [
    (door, case) for door, (_, kind, _) in sorted(SETTING_DOORS.items())
    for case in sorted(SETTING_CASES[kind])
])
def test_settings_refused_by_name(door, case):
    name, kind, call = SETTING_DOORS[door]
    value, pattern = SETTING_CASES[kind][case]
    with pytest.raises(ValueError, match=f"^{name} {pattern}$"):
        call(value)


# values of the right type out of a setting's range
@pytest.mark.parametrize("call, message", [
    (lambda: train_elm(X, PAIRS, L=5, c=1.0, seed=-1), r"seed must be >= 0, got -1"),
    (lambda: sweep_hidden(X, PAIRS, c=1.0, L_max=5, seed=-1), r"seed must be >= 0, got -1"),
    (lambda: generate_synthetic(-1, n_train=5, n_test=5, n_aps=5), r"seed must be >= 0, got -1"),
    (lambda: generate_synthetic(n_train=5, n_test=5, n_aps=0), r"n_aps must be >= 1, got 0"),
    (lambda: generate_synthetic(n_train=0, n_test=5, n_aps=5), r"n_train must be >= 1, got 0"),
    (lambda: ElmModel(BETA, 1.0, ClassCodebook(CODEBOOK), 0, 0), r"n_features must be >= 1, got 0"),
    (lambda: PreprocessParams(0.0, "per_sample"), r"min_rss must be negative, got 0\.0"),
    (lambda: FeaturizerSpec(0, 3, 0, 4), r"n_filters must be >= 1, got 0"),
], ids=["train_elm_seed", "sweep_seed", "synthetic_seed", "synthetic_n_aps", "synthetic_n_train",
        "elm_n_features", "min_rss_zero", "n_filters_zero"])
def test_settings_out_of_range_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_checked_settings_are_stored_as_python_numbers():
    elm = ElmModel(BETA, np.float64(0.5), ClassCodebook(CODEBOOK), np.int64(3), np.int64(4))
    spec = FeaturizerSpec(np.int64(2), np.int64(3), np.int64(1), np.int64(4))
    params = PreprocessParams(-90, "per_sample")
    values = [elm.c, elm.seed, elm.n_features, spec.n_filters, spec.kernel_size, spec.seed,
              spec.n_aps, params.min_rss]
    assert [type(v) for v in values] == [float, *[int] * 6, float]


@pytest.mark.parametrize("seed", [0, np.int64(3), 2**63 - 1, True, 1.0, -1])
@pytest.mark.parametrize("c", [1, 0.5, np.float64(0.5), True, "1", math.inf])
def test_trained_model_saves_a_file_load_model_reads(tmp_path, seed, c):
    # what train_elm builds is either refused then, or served after a round trip
    try:
        elm = train_elm(X, PAIRS, L=5, c=c, seed=seed)
    except ValueError as exc:
        assert re.match(r"(regularization term c|seed) must ", str(exc))
        return
    path = tmp_path / "m.json"
    save_model(TrainedModel(PreprocessParams(-1.0, "per_sample"), None, elm), path)
    loaded = load_model(path).elm
    assert (loaded.seed, loaded.c, loaded.int8) == (elm.seed, elm.c, elm.int8)
    np.testing.assert_array_equal(loaded.beta, elm.beta)
