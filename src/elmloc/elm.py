"""Single-hidden-layer extreme learning machine over joint building/floor classes.

The hidden layer is random and fixed: weights and biases drawn from a
seeded uniform(-1, 1), tansig activation; ``hidden_map`` computes it for
fit, predict and the sweep alike. Only the output weights are learned, in
closed form via the regularized least-squares solution

    beta = (H^T H + I / c)^-1 H^T T

where H is the hidden activation matrix and T the one-hot target matrix.
Classes are joint (building, floor) pairs, so one argmax yields both labels.
This module owns the ridge solve: one lower Cholesky factor of the Gram
matrix and one forward solve through it, which ``fit`` finishes with one
back-solve.
A per-tensor symmetric 8-bit quantization of the three weight tensors covers
the deployment path. A sweep picks the hidden-layer size by exact
leave-one-out (PRESS) on a stratified tenth of the training rows, on the
first L neurons of one layer: one factor and forward solve give every size.
An ``ElmModel`` holds what was learned and the seed: the hidden layer and
the int8 codes are rebuilt from them on first use. No float copy of the
codes of w is kept: an int8 prediction dequantizes, per call, only the rows
of w that its features need (b and beta, a few thousand entries, are
turned to float with the codes).
A prediction multiplies only the rows of w whose feature column holds a
nonzero value in some query row (``_scores``): a silent column adds
0 * w = 0, and a fingerprint hears few of the access points.
Entry points read label rows by ``dataset.label_rows`` and feature matrices
by ``dataset.feature_matrix``; ``hidden_map`` scans the features for NaN and
infinities, once on each path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import (check_finite, check_setting, class_index, feature_matrix, frozen, label_rows,
                      store_settings)

#: The most float64 entries the seed-drawn hidden weights ``w`` (n_features x L)
#: may hold: 512 MB. Every registry dataset at its registry L needs under 1% of
#: it, and so does the CLI's default sweep (L up to 500) on the widest, 992 APs.
MAX_HIDDEN_WEIGHTS = 2**26


@dataclass(frozen=True)
class ClassCodebook:
    """Distinct joint (building, floor) label pairs, sorted by building then floor."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = label_rows(self.pairs, "codebook")
        if not np.array_equal(class_index(pairs)[0], pairs):
            raise ValueError("codebook pairs must be distinct and sorted by building then floor")
        object.__setattr__(self, "pairs", frozen(pairs))

    @property
    def n_classes(self) -> int:
        return self.pairs.shape[0]

    def decode(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(buildings, floors) for a vector of class indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_classes):
            raise ValueError("class index out of range")
        return self.pairs[idx, 0], self.pairs[idx, 1]


def _targets(pairs: np.ndarray) -> tuple[ClassCodebook, np.ndarray]:
    """The codebook of the label rows' classes and their one-hot {0, 1} target
    matrix (N x n_classes, float64)."""
    classes, index = class_index(pairs)
    t = np.zeros((index.shape[0], classes.shape[0]))
    t[np.arange(index.shape[0]), index] = 1.0
    return ClassCodebook(classes), t


def check_hidden_size(d: int, L: int) -> None:
    """Raise ``ValueError`` unless a hidden layer of d inputs and L neurons may be
    drawn: both positive, and d * L at most ``MAX_HIDDEN_WEIGHTS``."""
    if d < 1 or L < 1:
        raise ValueError(f"d and L must be positive, got d={d}, L={L}")
    if d * L > MAX_HIDDEN_WEIGHTS:
        raise ValueError(f"a hidden layer of {d} inputs x {L} neurons exceeds the "
                         f"{MAX_HIDDEN_WEIGHTS} weights that MAX_HIDDEN_WEIGHTS allows")


def init_hidden(seed: int, d: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Random hidden layer: (W, b) with entries uniform on (-1, 1).

    The stream is consumed neuron by neuron (all d weights of neuron 0, then
    neuron 1, ...) followed by the L biases, so for a fixed seed the weight
    columns of a smaller layer are a prefix of a larger one's. ``seed`` and ``L``
    pass ``check_setting`` and the size ``check_hidden_size`` before anything is drawn.
    """
    seed, L = check_setting("seed", seed), check_setting("L", L)
    check_hidden_size(d, L)
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(L, d)).T
    b = rng.uniform(-1.0, 1.0, size=L)
    return np.ascontiguousarray(w), b


def hidden_map(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden activations H = tansig(x W + b); row = sample, column = neuron.

    ``x`` is read by ``feature_matrix`` as ``features``, as wide as ``w`` has
    rows, and scanned here, once on every path, for non-finite values.
    ``w`` and ``b`` come from ``init_hidden`` or an ``ElmModel`` and are
    trusted. The bias add and tansig (2 / (1 + exp(-2 z)) - 1, computed as
    tanh: the same values, no overflow) run in place on the product, so H is
    the only N x L buffer made.
    """
    x = feature_matrix(x, "features", width=w.shape[0])
    check_finite(x, "features")
    h = x @ w
    h += b
    np.tanh(h, out=h)
    return h


def _factor(h: np.ndarray, t: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor ``low`` of H^T H + I / c and u = low^-1 H^T T.

    beta is low^-T u. Forward substitution works on prefixes: ``low[:L, :L]``
    and ``u[:L]`` are the same pair for the first L columns of H. ``h`` and
    ``t`` are trusted; a ``c`` that ``check_setting`` refuses, or a Gram matrix
    that is not positive definite, raises ``ValueError`` naming c.
    """
    try:
        c = check_setting("c", c)
    except ValueError as exc:
        raise ValueError(f"regularization term {exc}") from None
    gram = h.T @ h
    gram += np.eye(gram.shape[0]) / c
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError(f"H^T H + I / c is not positive definite at L = {h.shape[1]}, "
                         f"c = {c}; lower c") from None
    return low, np.linalg.solve(low, h.T @ t)


def fit(h: np.ndarray, t: np.ndarray, c: float) -> np.ndarray:
    """Regularized least-squares output weights (L x n_classes).

    Raises ``ValueError`` naming ``h`` or ``t`` unless both are finite matrices
    ``feature_matrix`` reads, one row per sample, and for a ``c`` ``_factor`` refuses.
    """
    h, t = feature_matrix(h, "h"), feature_matrix(t, "t")
    if t.shape[0] != h.shape[0]:
        raise ValueError(f"t must be {h.shape[0]} x K to match h, got shape {t.shape}")
    check_finite(h, "h")
    check_finite(t, "t")
    low, u = _factor(h, t, c)
    return np.linalg.solve(low.T, u)


@dataclass(frozen=True)
class QuantizedWeights:
    """int8 weight tensors with their per-tensor scales, and the float ``b``
    and ``beta`` the int8 path serves (codes * scale).

    Only ``ElmModel.quantized`` builds one, from ``_quantize_tensor``'s
    read-only int8 codes and positive finite scales, so it is trusted as
    built; model files hold no codes. w has no float copy: a query
    dequantizes the rows of it that it reads.
    """

    w_q: np.ndarray
    b_q: np.ndarray
    beta_q: np.ndarray
    w_scale: float
    b_scale: float
    beta_scale: float
    b: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class ElmModel:
    """What an ELM learned (``beta`` over ``codebook`` classes, ridge term ``c``)
    plus what its random parts are drawn from.

    ``w`` and ``b`` are ``init_hidden(seed, n_features, L)``, and ``quantized``
    holds int8 codes of w, b and beta when ``int8`` is set. Each is built on
    first use, once per instance, and read-only, so no model holds random
    weights its seed does not draw. A layer ``check_hidden_size`` refuses
    fails here, before it is drawn.
    """

    beta: np.ndarray
    c: float
    codebook: ClassCodebook
    seed: int
    n_features: int
    int8: bool = False

    def __post_init__(self):
        beta = feature_matrix(self.beta, "beta", width=self.codebook.n_classes, nonempty=True)
        store_settings(self, ("c", "seed", "n_features"))
        check_setting("quantized", self.int8)  # the name a model file gives the flag
        check_hidden_size(self.n_features, beta.shape[0])
        # Checked once here, so the per-query path trusts the weights.
        check_finite(beta, "beta")
        object.__setattr__(self, "beta", frozen(beta))

    @property
    def L(self) -> int:
        return self.beta.shape[0]

    @cached_property
    def _hidden(self) -> tuple[np.ndarray, np.ndarray]:
        w, b = init_hidden(self.seed, self.n_features, self.L)
        return frozen(w), frozen(b)

    @property
    def w(self) -> np.ndarray:
        return self._hidden[0]

    @property
    def b(self) -> np.ndarray:
        return self._hidden[1]

    @cached_property
    def quantized(self) -> QuantizedWeights | None:
        """int8 codes of w, b and beta, with float b and beta made from theirs,
        if ``int8`` is set, else None."""
        if not self.int8:
            return None
        w_q, w_scale = _quantize_tensor(self.w)
        b_q, b_scale = _quantize_tensor(self.b)
        beta_q, beta_scale = _quantize_tensor(self.beta)
        b, beta = frozen(_dequantize(b_q, b_scale)), frozen(_dequantize(beta_q, beta_scale))
        return QuantizedWeights(w_q, b_q, beta_q, w_scale, b_scale, beta_scale, b, beta)


def train_elm(features: np.ndarray, pairs: np.ndarray, L: int, c: float, seed: int) -> ElmModel:
    """End-to-end training: codebook, targets, random hidden layer, fit."""
    x = feature_matrix(features, "features", nonempty=True)
    codebook, t = _targets(label_rows(pairs, "pairs", x.shape[0]))
    w, b = init_hidden(seed, x.shape[1], L)
    # H is finite and as tall as T: hidden_map checks x, and tanh is bounded
    low, u = _factor(hidden_map(x, w, b), t, c)
    beta = np.linalg.solve(low.T, u)
    return ElmModel(beta=beta, c=c, codebook=codebook, seed=seed, n_features=x.shape[1])


def _scores(
    features: np.ndarray, w: np.ndarray, b: np.ndarray, beta: np.ndarray,
    w_scale: float | None = None,
) -> np.ndarray:
    """tansig(x w + b) beta for weights an ElmModel has already validated.

    Only the rows of ``w`` whose feature column holds a nonzero value (NaN
    and inf included, which ``hidden_map`` then refuses) in some row of ``x``
    are multiplied: a silent column adds 0 * w = 0. A batch with every
    column active takes the dense product unchanged. With ``w_scale``, ``w``
    holds int8 codes, and only the rows gathered are turned to float
    (codes * w_scale).
    """
    x = feature_matrix(features, "features", width=w.shape[0])
    active = np.flatnonzero(x.any(axis=0))
    if active.size < w.shape[0]:
        x, w = x[:, active], w[active]
    if w_scale is not None:
        w = _dequantize(w, w_scale)
    return hidden_map(x, w, b) @ beta


def predict(features: np.ndarray, model: ElmModel) -> tuple[np.ndarray, np.ndarray]:
    """(buildings, floors) per row; score ties break to the lowest class index."""
    scores = _scores(features, model.w, model.b, model.beta)
    return model.codebook.decode(np.argmax(scores, axis=1))


# ---------------------------------------------------------------------------
# 8-bit weights


def _quantize_tensor(x: np.ndarray) -> tuple[np.ndarray, float]:
    # Symmetric per-tensor scheme: the largest magnitude maps to +-127.
    scale = float(np.max(np.abs(x))) / 127.0 if x.size else 0.0
    if not scale > 0.0:  # all zeros, or so close to zero that the division underflows
        scale = 1.0
    # round half away from zero; np.round ties to even, which is the wrong rule here.
    # In place, with x's sign (that of x / scale): the codes are made on the first
    # int8 query, next to the query data, so one temporary the size of x is live.
    q = x / scale
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    np.copysign(q, x, out=q)
    np.clip(q, -127, 127, out=q)
    return frozen(q.astype(np.int8)), scale


def _dequantize(codes: np.ndarray, scale: float) -> np.ndarray:
    """codes * scale as a new float64 array."""
    out = codes.astype(np.float64)
    out *= scale
    return out


def quantize(model: ElmModel) -> ElmModel:
    """The model with int8 codes of w, b, beta (made on first use; float weights kept)."""
    return replace(model, int8=True)


def check_quantized(model: ElmModel) -> QuantizedWeights:
    """``model.quantized``; ``ValueError`` if the model has no int8 codes."""
    if model.quantized is None:
        raise ValueError("model has no quantized weights; train with quantize=True "
                         "(elmloc train --quantize)")
    return model.quantized


def predict_quantized(features: np.ndarray, model: ElmModel) -> tuple[np.ndarray, np.ndarray]:
    """Predict from the 8-bit weights (activations stay in float).

    Each call dequantizes the rows of w its features need; no float copy of
    w is kept.
    """
    q = check_quantized(model)
    scores = _scores(features, q.w_q, q.b, q.beta, w_scale=q.w_scale)
    return model.codebook.decode(np.argmax(scores, axis=1))


# ---------------------------------------------------------------------------
# Hidden-size selection


@dataclass(frozen=True)
class SweepResult:
    """A sweep's score curve; only ``sweep_hidden`` builds one, and it is
    trusted as built."""

    sizes: np.ndarray
    floor_hits: np.ndarray  # percent, aligned with sizes
    building_hits: np.ndarray
    best_L: int


def check_grid(step: int, L_max: int) -> None:
    """The hidden-size grid ``sweep_hidden`` accepts: integers ``check_setting``
    passes, with 1 <= step <= L_max."""
    check_setting("step", step)
    check_setting("L_max", L_max)
    if step < 1 or L_max < step:
        raise ValueError(f"need 1 <= step <= L_max, got step={step}, L_max={L_max}")


def sweep_hidden(
    features: np.ndarray, pairs: np.ndarray, c: float, L_max: int, step: int = 5, seed: int = 0
) -> SweepResult:
    """Grid search L in {step, 2*step, ..., <= L_max} on leave-one-out floor hits.

    Returns the whole score curve plus the smallest size attaining the
    maximum floor hit rate. Size L scores the first L neurons of the one
    layer ``init_hidden(seed, d, L_max)`` draws. Their weights are the ones
    ``train_elm`` draws at L, but their biases are the first L of the L_max
    biases, so only at L_max is the layer the one ``train_elm`` fits.
    Every row is fitted, and the rows ``_held_tenth`` draws are each scored by
    exact leave-one-out, the ridge fit on every other row: with Z = H_S low^-T,
    u = low^-1 H^T T and leverages h (row sums of Z[:, :L] squared), row i's
    scores are (Z[i, :L] u[:L] - h_i t_i) / (1 - h_i). One Cholesky factor and
    one forward solve serve the whole grid; Z's products grow by a block of
    columns per step.

    Raises ``ValueError`` naming the argument for features ``feature_matrix``
    or ``hidden_map`` refuses, or empty, and for pairs ``label_rows`` refuses or
    not one per feature row.
    """
    check_grid(step, L_max)
    x = feature_matrix(features, "features", nonempty=True)
    pairs = label_rows(pairs, "pairs", x.shape[0])
    codebook, t = _targets(pairs)
    held = _held_tenth(t, check_setting("seed", seed))
    sizes = np.arange(step, L_max + 1, step)
    w, b = init_hidden(seed, x.shape[1], L_max)
    h = hidden_map(x, w, b)
    z = h[held]  # H_S, taken from H, which the factor then frees
    low, u = _factor(h, t, c)
    del h
    z = np.linalg.solve(low, z.T).T
    t, pairs = t[held], pairs[held]

    fitted, leverage = np.zeros(t.shape), np.zeros((t.shape[0], 1))
    hits = np.empty((2, sizes.shape[0]))  # floor, building
    prev = 0
    for i, L in enumerate(sizes):
        block = z[:, prev:L]
        fitted += block @ u[prev:L]
        leverage += np.square(block).sum(axis=1, keepdims=True)
        prev = L
        hits[:, i] = _hit_pcts((fitted - leverage * t) / (1.0 - leverage), codebook, pairs)
    best = int(sizes[int(np.argmax(hits[0]))])  # first max, i.e. smallest L
    return SweepResult(sizes, hits[0], hits[1], best)


def _held_tenth(t: np.ndarray, seed: int) -> np.ndarray:
    """The sorted rows ``sweep_hidden`` scores: ceil(0.1 * its rows) of each class
    (column of the one-hot ``t``) of two rows or more, drawn without replacement
    by one generator seeded with ``seed``, class by class; ``ValueError`` if none."""
    rng = np.random.default_rng(seed)
    held = np.zeros(t.shape[0], dtype=bool)
    for column in t.T:
        rows = np.flatnonzero(column)
        if rows.size >= 2:
            held[rng.choice(rows, size=math.ceil(0.1 * rows.size), replace=False)] = True
    if not held.any():
        raise ValueError("pairs has no (building, floor) class with the 2 rows a "
                         "leave-one-out score needs")
    return np.flatnonzero(held)


def _hit_pcts(scores: np.ndarray, codebook: ClassCodebook,
              pairs: np.ndarray) -> tuple[float, float]:
    """Percent of rows whose top-scoring class holds their floor, and their building."""
    pred_b, pred_f = codebook.decode(np.argmax(scores, axis=1))
    return (100.0 * float(np.mean(pred_f == pairs[:, 1])),
            100.0 * float(np.mean(pred_b == pairs[:, 0])))
