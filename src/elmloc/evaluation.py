"""Benchmark metrics, phase timing, and report emission.

A report row carries building/floor hit rates and train/predict wall times
for one (dataset, approach, seed) run, plus the same four quantities
normalized against a baseline row (the 1-NN run of the same dataset).
``run_benchmark`` executes the dataset x approach x seed cross-product,
appends seed-averaged rows and an over-datasets average row, and can emit
the table as CSV and JSON.

Timing convention: the ELM approaches run through the pipeline, so their
training phase is one ``fit_pipeline`` call on the raw training split
(preprocessing fit, conv draw and featurization, ELM fit: the fit a user
waits for) and their prediction phase is one ``predict_pipeline`` call on
the raw test split. The 1-NN baseline has no training stage, so its
train-time cell stays empty; its preprocessing fit is timed on its own and
recorded in the JSON metadata, and its prediction phase starts from raw RSS
too. File I/O is never inside a timed phase.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from statistics import fmean
from typing import Callable, Sequence

import numpy as np

from . import knn as knn_mod
from .dataset import ParseError, RadioMap, SchemaError, UnknownDatasetError, registry_lookup
from .pipeline import PipelineConfig, fit_pipeline, predict_pipeline
from .preprocess import apply_preprocess, fit_preprocess

APPROACHES = ("knn", "elm_only", "cnn_elm")

CSV_COLUMNS = (
    "dataset",
    "approach",
    "seed",
    "zeta_b",
    "zeta_f",
    "delta_tr_s",
    "delta_te_s",
    "norm_zeta_b",
    "norm_zeta_f",
    "norm_delta_tr",
    "norm_delta_te",
    "config_digest",
)

_NORM_FIELDS = ("building_hit", "floor_hit", "train_time", "test_time")


def hit_rate(predicted: np.ndarray, truth: np.ndarray, field: str = "floor") -> float:
    """Percentage of rows whose building or floor label matches exactly.

    Both arguments are N x 2 (building, floor) label arrays.
    """
    cols = {"building": 0, "floor": 1}
    if field not in cols:
        raise ValueError(f"field must be 'building' or 'floor', got {field!r}")
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.ndim != 2 or p.shape[1] != 2 or t.ndim != 2 or t.shape[1] != 2:
        raise ValueError(f"labels must be N x 2 arrays, got {p.shape} and {t.shape}")
    if p.shape[0] != t.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions, {t.shape[0]} truths")
    if p.shape[0] == 0:
        raise ValueError("empty label arrays")
    j = cols[field]
    return 100.0 * float(np.mean(p[:, j] == t[:, j]))


def config_digest(config: dict) -> str:
    """Short stable hash of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def time_phase(phase: Callable[[], object]):
    """Run a unit of work and return (its result, wall seconds).

    Monotonic clock; the phase runs exactly once per measurement. Phases
    finishing under 100 ms are re-run and the median of five measurements is
    reported, since a single sub-100 ms sample is noise.
    """
    t0 = time.perf_counter()
    result = phase()
    elapsed = time.perf_counter() - t0
    if elapsed >= 0.1:
        return result, elapsed
    times = [elapsed]
    for _ in range(4):
        t0 = time.perf_counter()
        phase()
        times.append(time.perf_counter() - t0)
    return result, float(np.median(times))


@dataclass(frozen=True)
class EvalReport:
    """One benchmark row. Absent quantities (Table-style dashes) are None.

    ``seed`` is an int for a single stochastic run, "mean" for a
    seed-averaged row, and None for deterministic approaches. ``normalized``
    holds {building_hit, floor_hit, train_time, test_time} ratios against an
    attached baseline row, each None when either side is absent.
    """

    dataset: str
    approach: str
    floor_hit: float | None
    test_time: float | None
    config_digest: str
    building_hit: float | None = None
    train_time: float | None = None
    seed: int | str | None = None
    normalized: dict | None = None
    note: str = ""

    def __post_init__(self):
        for name in ("building_hit", "floor_hit"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 100.0:
                raise ValueError(f"{name} must be in [0, 100], got {v}")
        for name in ("train_time", "test_time"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        if self.normalized is not None:
            extra = set(self.normalized) - set(_NORM_FIELDS)
            if extra:
                raise ValueError(f"unknown normalized fields: {sorted(extra)}")


def normalize(report: EvalReport, baseline: EvalReport) -> EvalReport:
    """Attach value/baseline ratios for the four metric fields.

    Fields absent on either side (or zero in the baseline) come back absent.
    Normalizing a row against itself yields all ones.
    """
    if report.dataset != baseline.dataset:
        raise ValueError(
            f"dataset mismatch: report is {report.dataset!r}, baseline {baseline.dataset!r}"
        )
    normalized = {}
    for name in _NORM_FIELDS:
        value = getattr(report, name)
        ref = getattr(baseline, name)
        normalized[name] = None if value is None or ref is None or ref == 0.0 else value / ref
    return replace(report, normalized=normalized)


# ---------------------------------------------------------------------------
# Benchmark driver


def run_benchmark(
    datasets: Sequence[str],
    approaches: Sequence[str] = APPROACHES,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    loader: Callable[[str], tuple[RadioMap, RadioMap]] | None = None,
    *,
    include_published: bool = True,
    out_dir=None,
) -> tuple[list[EvalReport], dict[str, str]]:
    """Full cross-product benchmark.

    ``loader`` maps a registered dataset name to its (train, test) radio
    maps; hyperparameters (L, c) come from the registry. Stochastic
    approaches run once per seed plus a seed-averaged row; 1-NN runs once.
    A final "Avg." row per approach averages the per-dataset aggregates.
    Datasets whose loader fails are recorded in the returned failure map and
    skipped. With ``out_dir`` set, report.csv and report.json are written.
    """
    if loader is None:
        raise ValueError("a dataset loader is required")
    bad = set(approaches) - set(APPROACHES)
    if bad:
        raise ValueError(f"unknown approaches: {sorted(bad)} (choose from {APPROACHES})")
    if not seeds:
        raise ValueError("need at least one seed")

    rows: list[EvalReport] = []
    failures: dict[str, str] = {}
    meta: dict[str, dict] = {}
    done: list[str] = []
    for name in datasets:
        try:
            desc = registry_lookup(name)
            train, test = loader(name)
        except (OSError, ParseError, SchemaError, UnknownDatasetError) as exc:
            failures[name] = str(exc)
            continue
        ds_rows, fit_s = _run_dataset(name, desc, train, test, approaches, seeds)
        rows.extend(ds_rows)
        meta[name] = {"preprocess_fit_s": fit_s, "L": desc.L_default, "c": desc.c_default}
        done.append(name)

    run_cfg = {"datasets": list(datasets), "approaches": list(approaches), "seeds": list(seeds)}
    if done:
        rows.extend(_average_rows(rows, approaches, config_digest(run_cfg)))
    if include_published:
        rows.extend(published_rows(done))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(rows, out / "report.csv")
        write_json(rows, out / "report.json", config=run_cfg, failures=failures, meta=meta)
    return rows, failures


def _run_dataset(name, desc, train, test, approaches, seeds):
    """One dataset's rows, and the 1-NN preprocessing fit time (None without 1-NN)."""
    L, c = desc.L_default, desc.c_default
    truth = test.label_pairs()

    def row(approach, pred_pair, cfg, **fields) -> EvalReport:
        pred = np.column_stack(pred_pair)
        return EvalReport(
            dataset=name,
            approach=approach,
            building_hit=hit_rate(pred, truth, "building") if train.has_building else None,
            floor_hit=hit_rate(pred, truth, "floor"),
            config_digest=config_digest({"dataset": name, **cfg}),
            **fields,
        )

    rows: list[EvalReport] = []
    baseline: EvalReport | None = None
    fit_s = None
    for approach in approaches:
        if approach == "knn":
            t0 = time.perf_counter()
            params = fit_preprocess(train.rss)
            fit_s = time.perf_counter() - t0
            index = knn_mod.build_index(apply_preprocess(train.rss, params), train.label_pairs())
            pred_pair, t_te = time_phase(
                lambda: knn_mod.classify_all(apply_preprocess(test.rss, params), index)
            )
            baseline = row("knn", pred_pair, {"approach": "knn"}, test_time=t_te)
            rows.append(baseline)
            continue

        per_seed: list[EvalReport] = []
        for seed in seeds:
            config = PipelineConfig(L=L, c=c, seed=seed, approach=approach)
            model, t_tr = time_phase(lambda: fit_pipeline(train, config, dataset=name))
            pred_pair, t_te = time_phase(lambda: predict_pipeline(test, model))
            per_seed.append(
                row(approach, pred_pair, asdict(config), seed=seed, train_time=t_tr, test_time=t_te)
            )
        rows.extend(per_seed)
        rows.append(_seed_mean(per_seed, {"dataset": name, **asdict(config), "seed": list(seeds)}))

    if baseline is not None:
        rows = [normalize(r, baseline) for r in rows]
    return rows, fit_s


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    return fmean(present) if present else None


def _seed_mean(per_seed: list[EvalReport], cfg: dict) -> EvalReport:
    return EvalReport(
        dataset=per_seed[0].dataset,
        approach=per_seed[0].approach,
        seed="mean",
        building_hit=_mean_or_none([r.building_hit for r in per_seed]),
        floor_hit=_mean_or_none([r.floor_hit for r in per_seed]),
        train_time=_mean_or_none([r.train_time for r in per_seed]),
        test_time=_mean_or_none([r.test_time for r in per_seed]),
        config_digest=config_digest(cfg),
    )


def _average_rows(rows: list[EvalReport], approaches, digest: str) -> list[EvalReport]:
    # One "Avg." row per approach, averaging each dataset's aggregate row
    # (the knn row itself, or the seed-mean row for stochastic approaches).
    out = []
    for approach in approaches:
        group = [
            r
            for r in rows
            if r.approach == approach and (r.seed is None or r.seed == "mean")
        ]
        if not group:
            continue
        normalized = None
        if all(r.normalized is not None for r in group):
            normalized = {
                f: _mean_or_none([r.normalized[f] for r in group]) for f in _NORM_FIELDS
            }
        out.append(
            EvalReport(
                dataset="Avg.",
                approach=approach,
                seed=None if approach == "knn" else "mean",
                building_hit=_mean_or_none([r.building_hit for r in group]),
                floor_hit=_mean_or_none([r.floor_hit for r in group]),
                train_time=_mean_or_none([r.train_time for r in group]),
                test_time=_mean_or_none([r.test_time for r in group]),
                normalized=normalized,
                config_digest=digest,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Published comparison rows (values quoted from the source papers' result
# tables; these approaches are not reproduced here).

_PUBLISHED_NOTE = "published, not reproduced"

# Relative-to-baseline metrics per dataset: (building, floor, train, test).
_CNNLOC_NORMALIZED = {
    "LIB1": (None, 1.0039, 1.0, 3.2084),
    "LIB2": (None, 0.9830, 1.0, 4.7390),
    "TUT1": (None, 0.9753, 1.0, 8.1930),
    "TUT2": (None, 0.9759, 1.0, 8.0924),
    "TUT3": (None, 0.9710, 1.0, 3.6773),
    "TUT4": (None, 0.9606, 1.0, 1.4059),
    "TUT5": (None, 1.0126, 1.0, 7.9418),
    "TUT6": (None, 1.0011, 1.0, 1.3660),
    "TUT7": (None, 0.9712, 1.0, 1.1628),
    "UJI1": (0.9973, 1.0322, 1.0, 0.9338),
    "UJI2": (1.0, 0.9444, 1.0, 0.2622),
    "UTS1": (None, 0.9151, 1.0, 3.4835),
    "Avg.": (0.9987, 0.9789, 1.0, 3.7055),
}

# Absolute metrics: (building_hit, floor_hit, train_s, test_s); L = 1000.
_AFARLS_ABSOLUTE = {
    "UJI1": (100.0, 95.41, 84.68, 0.21),
    "TUT3": (None, 94.18, 2.40, 0.57),
}


def published_rows(datasets: Sequence[str]) -> list[EvalReport]:
    """Static comparison rows for the given datasets (plus the average)."""
    rows = []
    wanted = list(datasets)
    if len([d for d in wanted if d in _CNNLOC_NORMALIZED]) > 1:
        wanted = wanted + ["Avg."]
    for name in wanted:
        if name in _CNNLOC_NORMALIZED:
            zb, zf, dtr, dte = _CNNLOC_NORMALIZED[name]
            rows.append(
                EvalReport(
                    dataset=name,
                    approach="cnnloc",
                    floor_hit=None,
                    test_time=None,
                    normalized={
                        "building_hit": zb,
                        "floor_hit": zf,
                        "train_time": dtr,
                        "test_time": dte,
                    },
                    note=_PUBLISHED_NOTE,
                    config_digest=config_digest({"approach": "cnnloc", "dataset": name, "published": True}),
                )
            )
        if name in _AFARLS_ABSOLUTE:
            zb, zf, dtr, dte = _AFARLS_ABSOLUTE[name]
            rows.append(
                EvalReport(
                    dataset=name,
                    approach="afarls",
                    building_hit=zb,
                    floor_hit=zf,
                    train_time=dtr,
                    test_time=dte,
                    note=_PUBLISHED_NOTE,
                    config_digest=config_digest({"approach": "afarls", "dataset": name, "published": True}),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Emission


def _fmt(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "hit":
        return f"{value:.2f}"
    if kind == "time":  # millisecond resolution
        return f"{value:.3f}"
    if kind == "norm":
        return f"{value:.4f}"
    return str(value)


def _csv_record(r: EvalReport) -> list[str]:
    norm = r.normalized or {}
    return [
        r.dataset,
        r.approach,
        "" if r.seed is None else str(r.seed),
        _fmt(r.building_hit, "hit"),
        _fmt(r.floor_hit, "hit"),
        _fmt(r.train_time, "time"),
        _fmt(r.test_time, "time"),
        _fmt(norm.get("building_hit"), "norm"),
        _fmt(norm.get("floor_hit"), "norm"),
        _fmt(norm.get("train_time"), "norm"),
        _fmt(norm.get("test_time"), "norm"),
        r.config_digest,
    ]


def write_csv(rows: list[EvalReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_csv_record(r) for r in rows)


# The keys of a report.json row, in the order write_json writes them, each with
# the types it may hold as JSON loads them; write_json writes each hit rate,
# time and ratio as a float.
_FLOAT = (float, type(None))
_ROW_TYPES = {
    "dataset": str,
    "approach": str,
    "seed": (int, str, type(None)),
    "building_hit": _FLOAT,
    "floor_hit": _FLOAT,
    "train_time": _FLOAT,
    "test_time": _FLOAT,
    "normalized": (dict, type(None)),
    "config_digest": str,
    "note": str,
}


def _row_dict(r: EvalReport) -> dict:
    return {key: getattr(r, key) for key in _ROW_TYPES}


def _check_type(name: str, value, types) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"row key {name} cannot hold {value!r}")


def _row_from_dict(d) -> EvalReport:
    """The row ``_row_dict`` wrote; ``ValueError`` for anything else."""
    if not isinstance(d, dict):
        raise ValueError(f"rows must hold objects, got {d!r}")
    if set(d) != set(_ROW_TYPES):
        raise ValueError(f"a row must hold the keys {', '.join(_ROW_TYPES)}; got {', '.join(d)}")
    for key, types in _ROW_TYPES.items():
        _check_type(key, d[key], types)
    for key, value in (d["normalized"] or {}).items():
        _check_type(f"normalized.{key}", value, _FLOAT)
    return EvalReport(**d)


def write_json(rows: list[EvalReport], path, config=None, failures=None, meta=None) -> None:
    payload = {
        "config": config or {},
        "config_digest": config_digest(config or {}),
        "failures": failures or {},
        "meta": meta or {},
        "rows": [_row_dict(r) for r in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_json(path) -> tuple[list[EvalReport], dict]:
    """Load rows written by write_json (for the report command).

    Raises ``ValueError`` naming ``path`` if it holds anything else.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
            raise ValueError("rows must hold a list of objects")
        if not isinstance(payload.get("failures", {}), dict):
            raise ValueError("failures must hold an object")
        rows = [_row_from_dict(d) for d in payload["rows"]]
    except ValueError as exc:  # bad JSON and undecodable bytes included
        raise ValueError(f"{path} is not a report written by elmloc benchmark: {exc}") from None
    return rows, payload


def format_table(rows: list[EvalReport]) -> str:
    """Fixed-width human-readable rendering of a report."""
    header = (
        f"{'dataset':9} {'approach':9} {'seed':5} {'zeta_b':>7} {'zeta_f':>7} "
        f"{'d_tr[s]':>8} {'d_te[s]':>8} {'~z_b':>7} {'~z_f':>7} {'~d_tr':>7} {'~d_te':>7}  note"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        norm = r.normalized or {}
        lines.append(
            f"{r.dataset:9} {r.approach:9} {'' if r.seed is None else r.seed!s:5} "
            f"{_fmt(r.building_hit, 'hit') or '-':>7} {_fmt(r.floor_hit, 'hit') or '-':>7} "
            f"{_fmt(r.train_time, 'time') or '-':>8} {_fmt(r.test_time, 'time') or '-':>8} "
            f"{_fmt(norm.get('building_hit'), 'norm') or '-':>7} "
            f"{_fmt(norm.get('floor_hit'), 'norm') or '-':>7} "
            f"{_fmt(norm.get('train_time'), 'norm') or '-':>7} "
            f"{_fmt(norm.get('test_time'), 'norm') or '-':>7}  {r.note}"
        )
    return "\n".join(lines)
