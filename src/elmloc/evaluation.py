"""Benchmark metrics, phase timing, and report emission.

A report row carries building/floor hit rates and train/predict wall times
for one (dataset, approach, seed) run, plus the same four quantities
normalized against a baseline row (the 1-NN run of the same dataset).
``run_benchmark`` executes the dataset x approach x seed cross-product,
appends seed-averaged rows and an over-datasets average row, and can emit
the table as CSV and JSON.

``EvalReport`` is the one schema of a row. Its constructor checks each field's
JSON type (a hit rate, time or ratio is a finite float or None, never an int)
and range, so ``read_json`` reads back every row the Python API can build and
applies no check of its own beyond the keys. ``_CELLS`` lays out the CSV
columns and the text table from one list.

Timing convention: the ELM approaches run through the pipeline, so their
training phase is one ``fit_pipeline`` call on the raw training split
(preprocessing fit, conv draw and featurization, ELM fit: the fit a user
waits for) and their prediction phase is one ``predict_pipeline`` call on
the raw test split. The 1-NN baseline has no training stage, so its
train-time cell stays empty; its preprocessing fit, together with the
map's pass through the fitted stages (one call), is timed on its own and
recorded in the JSON metadata as ``preprocess_fit_s``, and its prediction
phase starts from raw RSS too. File I/O is never inside a timed phase.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from statistics import fmean
from typing import Callable, Sequence

import numpy as np

from . import knn as knn_mod
from .dataset import (ParseError, RadioMap, SchemaError, UnknownDatasetError, label_rows,
                      registry_lookup)
from .pipeline import PipelineConfig, check_setting, fit_pipeline, predict_pipeline
from .preprocess import _fit_transform, apply_preprocess

APPROACHES = ("knn", "elm_only", "cnn_elm")
SEEDS = (0, 1, 2, 3, 4)

_NORM_FIELDS = ("building_hit", "floor_hit", "train_time", "test_time")

# The keys of a report.json row, in the order write_json writes them, each with
# the types it may hold; every hit rate, time and ratio is a finite float.
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


def hit_rate(predicted: np.ndarray, truth: np.ndarray, field: str = "floor") -> float:
    """Percentage of rows whose building or floor label matches exactly.

    Both arguments are (building, floor) rows as ``label_rows`` reads them.
    """
    cols = {"building": 0, "floor": 1}
    if field not in cols:
        raise ValueError(f"field must be 'building' or 'floor', got {field!r}")
    p = label_rows(predicted, "predicted")
    t = label_rows(truth, "truth", p.shape[0])
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
        for key, types in _ROW_TYPES.items():
            _check_type(key, getattr(self, key), types)
        for key, value in (self.normalized or {}).items():
            _check_type(f"normalized.{key}", value, _FLOAT)
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


def _check_type(name: str, value, types) -> None:
    if (isinstance(value, bool) or not isinstance(value, types)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ValueError(f"row key {name} cannot hold {value!r}")


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
    seeds: Sequence[int] = SEEDS,
    *,
    loader: Callable[[str], tuple[RadioMap, RadioMap]],
    out_dir=None,
) -> tuple[list[EvalReport], dict[str, str]]:
    """Full cross-product benchmark.

    ``loader`` maps a registered dataset name to its (train, test) radio
    maps; hyperparameters (L, c) come from the registry. Stochastic
    approaches run once per seed plus a seed-averaged row; 1-NN runs once.
    A final "Avg." row per approach averages the per-dataset aggregates, and
    the published comparison rows of the datasets that ran follow it.
    Datasets whose loader fails are recorded in the returned failure map and
    skipped. With ``out_dir`` set, report.csv and report.json are written.
    An unknown approach, an invalid seed, or a list that is empty or names an
    entry twice (seeds compared as checked) raises ``ValueError`` naming the
    list before any dataset is loaded.
    """
    bad = set(approaches) - set(APPROACHES)
    if bad:
        raise ValueError(f"unknown approaches: {sorted(bad)} (choose from {APPROACHES})")
    seeds = [check_setting("seed", seed) for seed in seeds]  # numpy integers become ints
    for plural, singular, entries in (("datasets", "dataset", datasets),
                                      ("approaches", "approach", approaches),
                                      ("seeds", "seed", seeds)):
        if not entries:
            raise ValueError(f"need at least one {singular}")
        repeated = sorted(entry for entry, n in Counter(entries).items() if n > 1)
        if repeated:
            raise ValueError(f"{plural} named more than once: {repeated}")

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
    rows.extend(published_rows(done))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(rows, out / "report.csv")
        write_json(rows, out / "report.json", config=run_cfg, failures=failures, meta=meta)
    return rows, failures


def _run_dataset(name, desc, train, test, approaches, seeds):
    """One dataset's rows, and the 1-NN preprocessing fit time (None without 1-NN):
    the fit plus the training map's transform, which one call does."""
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
            params, x_map = _fit_transform(train, "per_feature")
            fit_s = time.perf_counter() - t0
            index = knn_mod.build_index(x_map, train.label_pairs())
            pred_pair, t_te = time_phase(
                lambda: knn_mod.classify_all(apply_preprocess(test, params), index)
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
        cfg = {"dataset": name, **asdict(config), "seed": list(seeds)}
        rows.append(_mean_row(per_seed, name, "mean", config_digest(cfg)))

    if baseline is not None:
        rows = [normalize(r, baseline) for r in rows]
    return rows, fit_s


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    return fmean(present) if present else None


def _mean_row(group: list[EvalReport], dataset: str, seed, digest: str) -> EvalReport:
    """The row of ``group``'s mean hit rates and times, and of its mean ratios
    when every row of it has ratios; the approach is the group's."""
    normalized = None
    if all(r.normalized is not None for r in group):
        normalized = {f: _mean_or_none([r.normalized.get(f) for r in group]) for f in _NORM_FIELDS}
    return EvalReport(
        dataset=dataset,
        approach=group[0].approach,
        seed=seed,
        normalized=normalized,
        config_digest=digest,
        **{f: _mean_or_none([getattr(r, f) for r in group]) for f in _NORM_FIELDS},
    )


def _average_rows(rows: list[EvalReport], approaches, digest: str) -> list[EvalReport]:
    # One "Avg." row per approach, averaging each dataset's aggregate row
    # (the knn row itself, or the seed-mean row for stochastic approaches).
    out = []
    for approach in approaches:
        group = [r for r in rows if r.approach == approach and r.seed in (None, "mean")]
        if group:
            out.append(_mean_row(group, "Avg.", None if approach == "knn" else "mean", digest))
    return out


# ---------------------------------------------------------------------------
# Published comparison rows (values quoted from the source papers' result
# tables; these approaches are not reproduced here).

_PUBLISHED_NOTE = "published, not reproduced"

# Ratios to the baseline per dataset, in _NORM_FIELDS order.
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

# Absolute hit rates (%) and times (s), in _NORM_FIELDS order; L = 1000.
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
            ratios = dict(zip(_NORM_FIELDS, _CNNLOC_NORMALIZED[name]))
            rows.append(_published_row(name, "cnnloc", floor_hit=None, test_time=None,
                                       normalized=ratios))
        if name in _AFARLS_ABSOLUTE:
            rows.append(_published_row(name, "afarls",
                                       **dict(zip(_NORM_FIELDS, _AFARLS_ABSOLUTE[name]))))
    return rows


def _published_row(name: str, approach: str, **fields) -> EvalReport:
    digest = config_digest({"approach": approach, "dataset": name, "published": True})
    return EvalReport(dataset=name, approach=approach, note=_PUBLISHED_NOTE,
                      config_digest=digest, **fields)


# ---------------------------------------------------------------------------
# Emission


# The cells of a row, in order: (CSV column, table header, table width, row
# field, number format). "normalized.<name>" is that ratio of the row; a cell
# without a table header is in the CSV only, and the table ends with the note.
_CELLS = (
    ("dataset", "dataset", "9", "dataset", None),
    ("approach", "approach", "9", "approach", None),
    ("seed", "seed", "5", "seed", None),
    ("zeta_b", "zeta_b", ">7", "building_hit", ".2f"),
    ("zeta_f", "zeta_f", ">7", "floor_hit", ".2f"),
    ("delta_tr_s", "d_tr[s]", ">8", "train_time", ".3f"),  # millisecond resolution
    ("delta_te_s", "d_te[s]", ">8", "test_time", ".3f"),
    ("norm_zeta_b", "~z_b", ">7", "normalized.building_hit", ".4f"),
    ("norm_zeta_f", "~z_f", ">7", "normalized.floor_hit", ".4f"),
    ("norm_delta_tr", "~d_tr", ">7", "normalized.train_time", ".4f"),
    ("norm_delta_te", "~d_te", ">7", "normalized.test_time", ".4f"),
    ("config_digest", None, None, "config_digest", None),
)
CSV_COLUMNS = tuple(cell[0] for cell in _CELLS)
_TABLE_CELLS = [cell for cell in _CELLS if cell[1] is not None]


def _text(r: EvalReport, field: str, number_format) -> str:
    """A row's cell as text; "" when the value is absent."""
    key, _, ratio = field.partition(".")
    value = (r.normalized or {}).get(ratio) if ratio else getattr(r, key)
    if value is None:
        return ""
    return str(value) if number_format is None else format(value, number_format)


def write_csv(rows: list[EvalReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_text(r, field, fmt) for _, _, _, field, fmt in _CELLS] for r in rows)


def _row_from_dict(d) -> EvalReport:
    """The row ``write_json`` wrote; ``ValueError`` for anything else."""
    if not isinstance(d, dict):
        raise ValueError(f"rows must hold objects, got {d!r}")
    if set(d) != set(_ROW_TYPES):
        raise ValueError(f"a row must hold the keys {', '.join(_ROW_TYPES)}; got {', '.join(d)}")
    return EvalReport(**d)


def write_json(rows: list[EvalReport], path, config=None, failures=None, meta=None) -> None:
    payload = {
        "config": config or {},
        "config_digest": config_digest(config or {}),
        "failures": failures or {},
        "meta": meta or {},
        "rows": [{key: getattr(r, key) for key in _ROW_TYPES} for r in rows],
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
    """Fixed-width human-readable rendering of a report; "-" marks an absent number."""
    header = " ".join(format(head, width) for _, head, width, _, _ in _TABLE_CELLS) + "  note"
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = (format(_text(r, field, fmt) or ("-" if fmt else ""), width)
                 for _, _, width, field, fmt in _TABLE_CELLS)
        lines.append(" ".join(cells) + f"  {r.note}")
    return "\n".join(lines)
