"""Seeded inputs for the benchmark workloads.

Everything is drawn from the workload seed, so the same seed gives the same
files and query stream. The UJI1-shaped set comes from ``elmloc.synthetic``
(3 buildings x 4 floors) with two changes that make it look like the public
UJIIndoorLoc files: detections are thinned at random to about 4% of the
cells (the generator hears about 21% of them, the public sets far fewer), and
readings are rounded to whole dBm, as the public CSV files store them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Share of RSS cells holding a detection after thinning.
TARGET_DENSITY = 0.04
SENTINEL_RAW = 100


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    n_train: int
    n_test: int
    n_aps: int
    L: int | None  # hidden neurons for training; None = the UJI1 registry default
    sweep_L_max: int
    sweep_step: int
    gates: bool  # apply the hit-rate floors of run.HIT_FLOORS


SCALES = {
    # UJI1 registry shape (L=530, c=0.1 from the registry); the CLI's default sweep grid.
    "full": Scale(19861, 1111, 520, None, 500, 5, True),
    # Seconds-long smoke size for perfbench/selfcheck.py; hit rates are not gated.
    "toy": Scale(480, 96, 40, 30, 30, 10, False),
}


@dataclass(frozen=True)
class UjiLike:
    train_rss: np.ndarray  # whole dBm, 0.0 = not detected
    train_pairs: np.ndarray  # (building, floor) per row
    test_rss: np.ndarray
    test_pairs: np.ndarray
    record: dict


def _thin_and_round(rss: np.ndarray, keep: float, rng) -> np.ndarray:
    kept = (rss != 0.0) & (rng.random(rss.shape) < keep)
    return np.where(kept, np.rint(rss), 0.0)


def uji_like(seed: int, scale: Scale) -> UjiLike:
    """UJI1-shaped train/test radio maps, thinned to about TARGET_DENSITY."""
    from elmloc.synthetic import generate_synthetic

    train, test = generate_synthetic(
        seed=seed, n_train=scale.n_train, n_test=scale.n_test, n_aps=scale.n_aps
    )
    generated = float(np.mean(train.rss != 0.0))
    keep = min(1.0, TARGET_DENSITY / generated)
    rng = np.random.default_rng([seed, 1])
    train_rss = _thin_and_round(train.rss, keep, rng)
    test_rss = _thin_and_round(test.rss, keep, rng)
    record = {
        "generator": "elmloc.synthetic.generate_synthetic",
        "seed": seed,
        "train_rows": scale.n_train,
        "test_rows": scale.n_test,
        "n_aps": scale.n_aps,
        "generated_density": round(generated, 5),
        "density": round(float(np.mean(train_rss != 0.0)), 5),
        "test_density": round(float(np.mean(test_rss != 0.0)), 5),
        "classes": int(np.unique(train.label_pairs(), axis=0).shape[0]),
    }
    return UjiLike(train_rss, train.label_pairs(), test_rss, test.label_pairs(), record)


def _write_csv(path: Path, rss: np.ndarray, pairs: np.ndarray) -> int:
    # Readings are whole negative dBm in (-200, 0); one string per value.
    tokens = np.array([str(-v) for v in range(200)])
    ints = -rss.astype(np.int64)
    cells = np.where(rss == 0.0, str(SENTINEL_RAW), tokens[np.clip(ints, 0, 199)])
    header = [f"WAP{j + 1:03d}" for j in range(rss.shape[1])] + ["FLOOR", "BUILDINGID"]
    lines = [",".join(header)]
    for row, (building, floor) in zip(cells.tolist(), pairs.tolist()):
        lines.append(f"{','.join(row)},{floor},{building}")
    path.write_text("\n".join(lines) + "\n")
    return path.stat().st_size


def write_dataset(root: Path, name: str, data: UjiLike) -> dict:
    """``<root>/<name>/{train,test}.csv`` and ``manifest.json``; returns file bytes."""
    ds = root / name
    ds.mkdir(parents=True, exist_ok=True)
    n_aps = data.train_rss.shape[1]
    manifest = {
        "name": name,
        "ap_columns": [0, n_aps - 1],
        "floor_col": n_aps,
        "building_col": n_aps + 1,
        "sentinel": SENTINEL_RAW,
    }
    (ds / "manifest.json").write_text(json.dumps(manifest) + "\n")
    return {
        "train_csv_bytes": _write_csv(ds / "train.csv", data.train_rss, data.train_pairs),
        "test_csv_bytes": _write_csv(ds / "test.csv", data.test_rss, data.test_pairs),
    }


def query_stream(seed: int, n_test: int, n: int) -> np.ndarray:
    """Test-split row indices for the single-query workload, drawn with replacement."""
    return np.random.default_rng([seed, 2]).integers(0, n_test, size=n)
