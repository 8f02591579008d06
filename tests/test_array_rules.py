"""Every ELM and 1-NN entry point refuses what a ``RadioMap`` refuses.

Label rows pass ``dataset.label_rows`` and feature matrices
``dataset.feature_matrix``, so one table of bad inputs is tried at every entry
point, and each must raise a ``ValueError`` naming the label column or the
argument. Before these two checks, each entry point kept its own copy of the
rules: a floor of 1.5 was truncated to 1, a label of -1 answered -1, string
and bool features were cast to numbers, and complex ones lost their
imaginary part.
"""

import numpy as np
import pytest

from elmloc.elm import (
    ClassCodebook, fit, hidden_map, init_hidden, predict, predict_quantized, quantize, sweep_hidden,
    train_elm,
)
from elmloc.featurizer import featurize, init_featurizer
from elmloc.knn import build_index, classify_all

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
    "sweep_hidden_train": ("train_pairs", 6, PAIRS,
                           lambda p: sweep_hidden(X, p, X, PAIRS, c=1.0, L_max=5, step=5)),
    "sweep_hidden_val": ("val_pairs", 6, PAIRS,
                         lambda p: sweep_hidden(X, PAIRS, X, p, c=1.0, L_max=5, step=5)),
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
    # fit, train_elm, build_index and the sweep's training split fix no width
    "fit": ("h", ("narrow",), lambda x: fit(x, np.ones((6, 2)), 1.0)),
    "train_elm": ("features", ("narrow",), lambda x: train_elm(x, PAIRS, L=5, c=1.0, seed=0)),
    "sweep_hidden_train": ("train_features", ("narrow",),
                           lambda x: sweep_hidden(x, PAIRS, X, PAIRS, c=1.0, L_max=5, step=5)),
    "sweep_hidden_val": ("val_features", (),
                         lambda x: sweep_hidden(X, PAIRS, x, PAIRS, c=1.0, L_max=5, step=5)),
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
