"""Single-hidden-layer extreme learning machine over joint building/floor classes.

The hidden layer is random and fixed: weights and biases drawn from a
seeded uniform(-1, 1), tansig activation. Only the output weights are
learned, in closed form via the regularized least-squares solution

    beta = (H^T H + I / c)^-1 H^T T

where H is the hidden activation matrix and T the one-hot target matrix.
Classes are joint (building, floor) pairs, so one argmax yields both labels.
A per-tensor symmetric 8-bit quantization of the three weight tensors covers
the deployment path, and a validation sweep picks the hidden-layer size.
An ``ElmModel`` holds what was learned and the seed: the hidden layer and
the int8 copies are rebuilt from them on first use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .dataset import check_finite


@dataclass(frozen=True)
class ClassCodebook:
    """Joint (building, floor) label pairs, sorted by building then floor."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.ascontiguousarray(self.pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must be K x 2, got shape {pairs.shape}")
        if len({(int(b), int(f)) for b, f in pairs}) != pairs.shape[0]:
            raise ValueError("codebook pairs must be unique")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        if not np.array_equal(order, np.arange(pairs.shape[0])):
            raise ValueError("codebook pairs must be sorted by building then floor")
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_pairs(cls, pairs: np.ndarray) -> "ClassCodebook":
        """Codebook of the distinct pairs occurring in N x 2 label rows."""
        uniq = np.unique(np.asarray(pairs, dtype=np.int64), axis=0)
        # np.unique sorts rows lexicographically, i.e. building-major already
        return cls(pairs=uniq)

    @property
    def n_classes(self) -> int:
        return self.pairs.shape[0]

    def encode(self, pairs: np.ndarray) -> np.ndarray:
        """Class index of each (building, floor) row; unknown pairs raise."""
        lookup = {(int(b), int(f)): k for k, (b, f) in enumerate(self.pairs)}
        pairs = np.asarray(pairs, dtype=np.int64)
        try:
            return np.array([lookup[(int(b), int(f))] for b, f in pairs], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"label pair {exc.args[0]} not in codebook") from None

    def decode(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(buildings, floors) for a vector of class indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_classes):
            raise ValueError("class index out of range")
        return self.pairs[idx, 0].copy(), self.pairs[idx, 1].copy()


def encode_targets(pairs: np.ndarray, codebook: ClassCodebook) -> np.ndarray:
    """One-hot {0, 1} target matrix (N x n_classes, float64)."""
    idx = codebook.encode(pairs)
    t = np.zeros((idx.shape[0], codebook.n_classes))
    t[np.arange(idx.shape[0]), idx] = 1.0
    return t


def tansig(z: np.ndarray) -> np.ndarray:
    """2 / (1 + exp(-2 z)) - 1, computed as tanh: identical values, no overflow."""
    return np.tanh(z)


def init_hidden(seed: int, d: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Random hidden layer: (W, b) with entries uniform on (-1, 1).

    The stream is consumed neuron by neuron (all d weights of neuron 0, then
    neuron 1, ...) followed by the L biases, so for a fixed seed the weight
    columns of a smaller layer are a prefix of a larger one's.
    """
    if d < 1 or L < 1:
        raise ValueError(f"d and L must be positive, got d={d}, L={L}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(L, d)).T
    b = rng.uniform(-1.0, 1.0, size=L)
    return np.ascontiguousarray(w), b


def hidden_map(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden activations H = tansig(x W + b); row = sample, column = neuron."""
    return tansig(linalg.matmul(x, w) + b)


def fit(h: np.ndarray, t: np.ndarray, c: float) -> np.ndarray:
    """Regularized least-squares output weights (L x n_classes)."""
    if c <= 0:
        raise ValueError(f"regularization term c must be positive, got {c}")
    gram = linalg.matmul(h.T, h)
    gram += np.eye(gram.shape[0]) / c
    return linalg.solve_spd(gram, linalg.matmul(h.T, t))


@dataclass(frozen=True)
class QuantizedWeights:
    """int8 weight tensors with their per-tensor scales."""

    w_q: np.ndarray
    b_q: np.ndarray
    beta_q: np.ndarray
    w_scale: float
    b_scale: float
    beta_scale: float

    def __post_init__(self):
        for name in ("w_q", "b_q", "beta_q"):
            codes = getattr(self, name)
            if codes.dtype != np.int8:
                raise ValueError(f"{name} must be int8")
            codes = np.ascontiguousarray(codes)
            codes.flags.writeable = False  # the dequantized cache must not go stale
            object.__setattr__(self, name, codes)
        for name in ("w_scale", "b_scale", "beta_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    @cached_property
    def dequantized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float (w, b, beta) rebuilt from the codes, computed once on first use."""
        arrays = (
            self.w_q.astype(np.float64) * self.w_scale,
            self.b_q.astype(np.float64) * self.b_scale,
            self.beta_q.astype(np.float64) * self.beta_scale,
        )
        for arr in arrays:
            arr.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class ElmModel:
    """What an ELM learned (``beta`` over ``codebook`` classes, ridge term ``c``)
    plus what its random parts are drawn from.

    ``w`` and ``b`` are ``init_hidden(seed, n_features, L)``, and ``quantized``
    holds int8 copies of w, b and beta when ``int8`` is set. Each is built on
    first use, once per instance, and read-only, so no model holds random
    weights its seed does not draw.
    """

    beta: np.ndarray
    c: float
    codebook: ClassCodebook
    seed: int
    n_features: int
    int8: bool = False

    def __post_init__(self):
        beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if beta.ndim != 2 or beta.shape[0] < 1:
            raise ValueError(f"beta must be L x K with L >= 1, got shape {beta.shape}")
        if beta.shape[1] != self.codebook.n_classes:
            raise ValueError("beta columns must match codebook size")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        # Checked once here, so the per-query path trusts the weights.
        check_finite(beta, "beta")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    @property
    def L(self) -> int:
        return self.beta.shape[0]

    @cached_property
    def _hidden(self) -> tuple[np.ndarray, np.ndarray]:
        w, b = init_hidden(self.seed, self.n_features, self.L)
        w.flags.writeable = b.flags.writeable = False
        return w, b

    @property
    def w(self) -> np.ndarray:
        return self._hidden[0]

    @property
    def b(self) -> np.ndarray:
        return self._hidden[1]

    @cached_property
    def quantized(self) -> QuantizedWeights | None:
        """int8 copies of w, b and beta if ``int8`` is set, else None."""
        if not self.int8:
            return None
        w_q, w_scale = _quantize_tensor(self.w)
        b_q, b_scale = _quantize_tensor(self.b)
        beta_q, beta_scale = _quantize_tensor(self.beta)
        return QuantizedWeights(w_q, b_q, beta_q, w_scale, b_scale, beta_scale)


def train_elm(features: np.ndarray, pairs: np.ndarray, L: int, c: float, seed: int) -> ElmModel:
    """End-to-end training: codebook, targets, random hidden layer, fit."""
    return _train_elm(features, pairs, L, c, seed)[0]


def _train_elm(
    features: np.ndarray, pairs: np.ndarray, L: int, c: float, seed: int
) -> tuple[ElmModel, np.ndarray]:
    """``train_elm`` plus the training activations H it fitted on.

    ``H @ model.beta`` is bitwise the score matrix ``predict`` computes for
    the same features, so a caller can score the training rows without a
    second hidden-layer pass.
    """
    x = np.asarray(features, dtype=np.float64)
    codebook = ClassCodebook.from_pairs(pairs)
    t = encode_targets(pairs, codebook)
    w, b = init_hidden(seed, x.shape[1], L)
    h = hidden_map(x, w, b)
    beta = fit(h, t, c)
    return ElmModel(beta=beta, c=c, codebook=codebook, seed=seed, n_features=x.shape[1]), h


def _scores(
    features: np.ndarray, w: np.ndarray, b: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """tansig(x w + b) beta for weights an ElmModel has already validated."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"features must be N x {w.shape[0]}, got shape {x.shape}")
    check_finite(x, "features")
    return tansig(x @ w + b) @ beta


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
    return q.astype(np.int8), scale


def quantize(model: ElmModel) -> ElmModel:
    """The model with int8 copies of w, b, beta (made on first use; float weights kept)."""
    return replace(model, int8=True)


def predict_quantized(features: np.ndarray, model: ElmModel) -> tuple[np.ndarray, np.ndarray]:
    """Predict from the 8-bit weights (activations stay in float)."""
    if model.quantized is None:
        raise ValueError("model has no quantized weights; call quantize first")
    scores = _scores(features, *model.quantized.dequantized)
    return model.codebook.decode(np.argmax(scores, axis=1))


# ---------------------------------------------------------------------------
# Hidden-size selection


@dataclass(frozen=True)
class SweepResult:
    sizes: np.ndarray
    floor_hits: np.ndarray  # percent, aligned with sizes
    building_hits: np.ndarray
    best_L: int

    def __post_init__(self):
        if not self.sizes.shape == self.floor_hits.shape == self.building_hits.shape:
            raise ValueError("sizes, floor_hits, building_hits must align")


def _from_both_ends(task, n: int) -> None:
    """Call ``task(i)`` for each i in range(n), on exactly two threads.

    The calling thread walks up from 0 and one helper thread walks down from
    n - 1; each takes its next index under a lock, and they stop where they
    meet. A sweep's tasks grow with i, so the two in flight are a small and
    a large one, never the two largest. Failures end like the serial loop:
    once index i raises, only indices below i still run, and the exception
    of the lowest failed index is raised.
    """
    lock = threading.Lock()
    lo, hi = 0, n - 1  # next index up, next index down
    failed: dict[int, Exception] = {}

    def walk(up: bool) -> None:
        nonlocal lo, hi
        while True:
            with lock:
                if lo > hi:
                    return
                if up:
                    i, lo = lo, lo + 1
                else:
                    i, hi = hi, hi - 1
            try:
                task(i)
            except Exception as exc:
                with lock:
                    failed[i] = exc
                    hi = min(hi, i - 1)

    helper = threading.Thread(target=walk, args=(False,), name="sweep-down")
    helper.start()
    try:
        walk(True)
    finally:
        with lock:
            hi = -1  # stops the helper too if this thread was interrupted
        helper.join()
    if failed:
        raise failed[min(failed)]


def check_grid(step: int, L_max: int) -> None:
    """The hidden-size grid ``sweep_hidden`` accepts: 1 <= step <= L_max."""
    if step < 1 or L_max < step:
        raise ValueError(f"need 1 <= step <= L_max, got step={step}, L_max={L_max}")


def sweep_hidden(
    train_features: np.ndarray,
    train_pairs: np.ndarray,
    val_features: np.ndarray,
    val_pairs: np.ndarray,
    c: float,
    L_max: int,
    step: int = 5,
    seed: int = 0,
) -> SweepResult:
    """Grid search L in {step, 2*step, ..., <= L_max} on validation floor hits.

    Returns the whole score curve plus the smallest size attaining the
    maximum floor hit rate. The fits run on two threads, one from each end
    of the grid; the result is bitwise what a serial loop over the grid
    returns. Each fit holds one N x L activation buffer, where the serial
    loop briefly held two, and the two fits in flight are the largest one
    pending and a smaller one, so together they hold less than the serial
    loop's largest fit did.
    """
    check_grid(step, L_max)
    x_tr = np.asarray(train_features, dtype=np.float64)
    x_val = np.asarray(val_features, dtype=np.float64)
    if x_val.shape[0] == 0:
        raise ValueError("validation set is empty")
    val_pairs = np.asarray(val_pairs, dtype=np.int64)
    codebook = ClassCodebook.from_pairs(train_pairs)
    t = encode_targets(train_pairs, codebook)

    sizes = np.arange(step, L_max + 1, step)
    # Weight columns are seed-nested across sizes, so the big products are
    # computed once and sliced per candidate; only the bias redraws per L.
    w_full, _ = init_hidden(seed, x_tr.shape[1], int(sizes[-1]))
    z_tr = x_tr @ w_full
    z_val = x_val @ w_full

    floor_hits = np.empty(sizes.shape[0])
    building_hits = np.empty(sizes.shape[0])

    def score(i: int) -> None:
        L = int(sizes[i])
        _, b = init_hidden(seed, x_tr.shape[1], L)
        # one N x L buffer per fit: bitwise tansig(z_tr[:, :L] + b)
        h = z_tr[:, :L] + b
        np.tanh(h, out=h)
        beta = fit(h, t, c)
        del h
        scores = tansig(z_val[:, :L] + b) @ beta
        pred_b, pred_f = codebook.decode(np.argmax(scores, axis=1))
        floor_hits[i] = 100.0 * float(np.mean(pred_f == val_pairs[:, 1]))
        building_hits[i] = 100.0 * float(np.mean(pred_b == val_pairs[:, 0]))

    _from_both_ends(score, sizes.shape[0])
    best = int(sizes[int(np.argmax(floor_hits))])  # first max, i.e. smallest L
    return SweepResult(
        sizes=sizes, floor_hits=floor_hits, building_hits=building_hits, best_L=best
    )

