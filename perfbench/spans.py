"""Spans around elmloc's public functions, installed from outside the package.

``install`` replaces each target function with a timing wrapper at every
``elmloc`` module attribute that refers to it, so callers that imported the
name (``from .dataset import load_csv``) and callers that look it up through
the module (``linalg.matmul``) both go through the wrapper. Nothing under
``src/`` changes, and nothing is wrapped unless ``install`` is called.

Spans nest: a span's self time is its duration minus the time its child
spans cover. With ``mem=True`` each span also records its tracemalloc peak
above the traced memory at entry. tracemalloc slows pure-Python code such as
CSV parsing several-fold, so timings from a ``mem=True`` process are not used.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
import tracemalloc

# (span name, defining module, attribute). A span name is "<layer>.<function>".
TARGETS = [
    ("dataset.load_csv", "elmloc.dataset", "load_csv"),
    ("dataset.split_validation", "elmloc.dataset", "split_validation"),
    ("preprocess.fit_preprocess", "elmloc.preprocess", "fit_preprocess"),
    ("preprocess.apply_preprocess", "elmloc.preprocess", "apply_preprocess"),
    ("preprocess.apply_powed", "elmloc.preprocess", "apply_powed"),
    ("featurizer.featurize", "elmloc.featurizer", "featurize"),
    ("elm.hidden_map", "elmloc.elm", "hidden_map"),
    ("elm.fit", "elmloc.elm", "fit"),
    ("elm.quantize", "elmloc.elm", "quantize"),
    ("elm.sweep_hidden", "elmloc.elm", "sweep_hidden"),
    ("elm.predict", "elmloc.elm", "predict"),
    ("elm.predict_quantized", "elmloc.elm", "predict_quantized"),
    ("linalg.matmul", "elmloc.linalg", "matmul"),
    ("linalg.solve_spd", "elmloc.linalg", "solve_spd"),
    ("knn.build_index", "elmloc.knn", "build_index"),
    ("knn.classify_all", "elmloc.knn", "classify_all"),
    ("pipeline.fit_pipeline", "elmloc.pipeline", "fit_pipeline"),
    ("pipeline.predict_pipeline", "elmloc.pipeline", "predict_pipeline"),
    ("pipeline.save_model", "elmloc.pipeline", "save_model"),
    ("pipeline.load_model", "elmloc.pipeline", "load_model"),
]


def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", ()))


def _gemm_flop(a, b) -> float:
    sa, sb = _shape(a), _shape(b)
    if len(sa) != 2 or len(sb) != 2:
        return 0.0
    return 2.0 * sa[0] * sa[1] * sb[1]


def _knn_flop(queries, index) -> float:
    # one (M x d) @ (d x N) distance GEMM, computed blockwise inside the call
    sq, sf = _shape(queries), _shape(getattr(index, "features", None))
    if len(sq) != 2 or len(sf) != 2:
        return 0.0
    return 2.0 * sq[0] * sq[1] * sf[0]


def _rows(x, *_args, **_kwargs) -> float:
    s = _shape(x)
    return float(s[0]) if s else 0.0


def _file_bytes(path, *_args, **_kwargs) -> float:
    try:
        return float(os.path.getsize(path))
    except OSError:
        return 0.0


# Work done per call, computed from argument shapes (not counted by the program).
WORK = {
    "linalg.matmul": lambda a, b, *r, **k: _gemm_flop(a, b),
    "knn.classify_all": lambda q, index, *r, **k: _knn_flop(q, index),
    "featurizer.featurize": _rows,
    "dataset.load_csv": _file_bytes,
}


class Tracer:
    """Per-(phase, span) aggregates: calls, inclusive and self seconds, work, peak bytes."""

    def __init__(self, mem: bool = False):
        self.mem = mem
        self.phase = "setup"
        self.stats: dict[tuple[str, str], list[float]] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [start, child_seconds, start_mem, max_mem]

    def _enter(self) -> None:
        frame = [time.perf_counter(), 0.0, 0.0, 0.0]
        if self.mem:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], peak)
            tracemalloc.reset_peak()
            frame[2] = frame[3] = cur
        self._stack.append(frame)

    def _exit(self, name: str, work: float) -> None:
        frame = self._stack.pop()
        dur = time.perf_counter() - frame[0]
        peak = 0.0
        if self.mem:
            frame[3] = max(frame[3], tracemalloc.get_traced_memory()[1])
            peak = frame[3] - frame[2]
            if self._stack:
                self._stack[-1][3] = max(self._stack[-1][3], frame[3])
            tracemalloc.reset_peak()
        if self._stack:
            self._stack[-1][1] += dur
        agg = self.stats.setdefault((self.phase, name), [0, 0.0, 0.0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]
        agg[3] += work
        agg[4] = max(agg[4], peak)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span under ``name``."""
        self._enter()
        try:
            yield
        finally:
            self._exit(name, 0.0)

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)

        def wrapper(*args, **kwargs):
            try:
                work = work_of(*args, **kwargs) if work_of is not None else 0.0
            except TypeError:  # called with another signature than the one WORK expects
                work = 0.0
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, work)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target found; record the ones that no longer exist."""
        if self.mem and not tracemalloc.is_tracing():
            tracemalloc.start()
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "elmloc" or mod_name.startswith("elmloc.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {
                    "phase": phase,
                    "name": name,
                    "calls": int(agg[0]),
                    "inclusive_s": agg[1],
                    "self_s": agg[2],
                    "work": agg[3],
                    "peak_bytes": agg[4],
                }
                for (phase, name), agg in sorted(self.stats.items())
            ],
        }
