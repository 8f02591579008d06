"""Radio-map loading and validation, plus the benchmark dataset registry.

A radio map is a matrix of RSS readings (rows = fingerprints, columns = APs)
with per-sample building/floor labels. Raw CSV files mark "AP not detected"
with a dataset-specific sentinel (UJI-style files use 100); on load that
sentinel is remapped to the canonical value 0 so downstream transforms can
branch on it directly. Detected readings are strictly negative dBm.

Column layout is supplied per dataset through a small JSON manifest:

    {"ap_columns": [first, last], "floor_col": i, "building_col": j | null,
     "sentinel": 100}

``ap_columns`` bounds are inclusive. An optional ``coord_columns`` list names
coordinate columns, which are parsed and kept as opaque metadata but never
used for classification.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Canonical in-memory value for "AP not detected".
NOT_DETECTED = 0.0


class ParseError(ValueError):
    """Malformed CSV content: wrong column count or a non-numeric cell."""


class SchemaError(ValueError):
    """Column mapping inconsistent with the file or the label requirements."""


class UnknownDatasetError(KeyError):
    """Dataset name not present in the registry."""


@dataclass(frozen=True)
class RadioMap:
    """Immutable set of RSS fingerprints with building/floor labels.

    ``rss`` is N x n_aps float64. ``building`` is None for single-building
    datasets; label accessors then report building 0 for every sample.
    """

    rss: np.ndarray
    floor: np.ndarray
    building: np.ndarray | None = None
    name: str = ""
    coords: np.ndarray | None = None

    def __post_init__(self):
        rss = np.ascontiguousarray(self.rss, dtype=np.float64)
        if rss.ndim != 2:
            raise ValueError(f"rss must be 2-D, got shape {rss.shape}")
        check_rss(rss, "rss")
        floor = _as_label_vector(self.floor, "floor", rss.shape[0])
        building = None
        if self.building is not None:
            building = _as_label_vector(self.building, "building", rss.shape[0])
        coords = None
        if self.coords is not None:
            coords = np.ascontiguousarray(self.coords, dtype=np.float64)
            if coords.shape[0] != rss.shape[0]:
                raise ValueError("coords row count does not match rss")
        for arr in (rss, floor, building, coords):
            if arr is not None:
                arr.flags.writeable = False
        object.__setattr__(self, "rss", rss)
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "building", building)
        object.__setattr__(self, "coords", coords)

    @property
    def n_samples(self) -> int:
        return self.rss.shape[0]

    @property
    def n_aps(self) -> int:
        return self.rss.shape[1]

    @property
    def has_building(self) -> bool:
        return self.building is not None

    def label_pairs(self) -> np.ndarray:
        """(building, floor) per row as an N x 2 int array; building 0 if absent."""
        b = self.building if self.building is not None else np.zeros(self.n_samples, dtype=np.int64)
        return np.column_stack([b, self.floor])

    def take(self, indices: np.ndarray) -> "RadioMap":
        """Row subset (or reordering) as a new RadioMap."""
        idx = np.asarray(indices)
        return RadioMap(
            rss=self.rss[idx],
            floor=self.floor[idx],
            building=None if self.building is None else self.building[idx],
            name=self.name,
            coords=None if self.coords is None else self.coords[idx],
        )


def check_rss(rss: np.ndarray, what: str) -> None:
    """Reject an RSS matrix with non-finite cells or readings above 0 dBm."""
    check_finite(rss, what)
    if rss.size and float(rss.max()) > 0.0:
        raise ValueError(
            f"{what}: detected RSS values must be <= 0 dBm; found "
            f"{float(rss.max())} (is the sentinel remapped?)"
        )


def check_finite(arr: np.ndarray, what: str) -> None:
    """Reject an array holding NaN or an infinity."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


def check_int(value, key: str) -> int:
    """An integer within int64 under ``key``, as a Python int.

    JSON integers and numpy integer scalars pass; bools and floats do not.
    """
    number = int(value) if isinstance(value, np.integer) else value
    if isinstance(number, bool) or not isinstance(number, int) or not -2**63 <= number < 2**63:
        raise ValueError(f"{key} must hold 64-bit integers, got {value!r}")
    return number


def check_float(value, key: str) -> float:
    """A finite JSON number, not a bool or string, under ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must hold a float, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return number


# numpy dtype kinds of JSON arrays that hold no numbers. A lone true among
# numbers still reads as 1; only a Python walk over every entry would see it.
_NOT_NUMBERS = {"b": "true/false values", "U": "strings"}


def check_array(value, key: str) -> np.ndarray:
    """A JSON array of finite numbers under ``key``, as numpy reads it, before any float cast."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        what = _NOT_NUMBERS.get(arr.dtype.kind, "nulls or other non-numbers")
        raise ValueError(f"{key} must hold numbers, got {what}")
    check_finite(arr, key)
    return arr


def _as_label_vector(values, what: str, n: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"{what} labels must be a length-{n} vector, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.round(arr)
        if not np.allclose(arr, rounded, rtol=0, atol=0):
            raise ValueError(f"{what} labels must be integers")
        arr = rounded
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError(f"{what} labels must be non-negative, found {int(arr.min())}")
    return arr


@dataclass(frozen=True)
class DatasetDescriptor:
    """Registry entry: sizes and per-dataset ELM hyperparameters."""

    name: str
    train_size: int
    test_size: int
    n_aps: int
    L_default: int
    c_default: float
    db_type: str  # "MF" or "MB-MF"

    def __post_init__(self):
        if self.L_default <= 0:
            raise ValueError("L_default must be positive")
        if self.c_default <= 0:
            raise ValueError("c_default must be positive")
        if self.db_type not in ("MF", "MB-MF"):
            raise ValueError(f"db_type must be 'MF' or 'MB-MF', got {self.db_type!r}")


# The twelve public benchmark sets with their published sizes and the
# hidden-neuron count / regularization term selected for each.
_REGISTRY: dict[str, DatasetDescriptor] = {
    d.name: d
    for d in [
        DatasetDescriptor("LIB1", 576, 3120, 174, 105, 0.05, "MF"),
        DatasetDescriptor("LIB2", 576, 3120, 197, 105, 0.01, "MF"),
        DatasetDescriptor("TUT1", 1476, 490, 309, 75, 0.1, "MF"),
        DatasetDescriptor("TUT2", 584, 176, 354, 160, 0.01, "MF"),
        DatasetDescriptor("TUT3", 697, 3951, 992, 235, 0.05, "MF"),
        DatasetDescriptor("TUT4", 3951, 697, 992, 275, 0.05, "MF"),
        DatasetDescriptor("TUT5", 446, 982, 489, 195, 0.01, "MF"),
        DatasetDescriptor("TUT6", 3116, 7269, 652, 450, 0.1, "MF"),
        DatasetDescriptor("TUT7", 2787, 6504, 801, 200, 1.0, "MF"),
        DatasetDescriptor("UJI1", 19861, 1111, 520, 530, 0.1, "MB-MF"),
        DatasetDescriptor("UJI2", 20972, 5179, 520, 215, 0.01, "MB-MF"),
        DatasetDescriptor("UTS1", 9108, 388, 589, 275, 0.01, "MF"),
        # Bundled synthetic benchmark set (3 buildings x 4 floors); defaults
        # chosen by a validation sweep on the generated data.
        DatasetDescriptor("SYN1", 6000, 1000, 100, 500, 1.0, "MB-MF"),
    ]
}


def registry_lookup(name: str) -> DatasetDescriptor:
    """Descriptor for a registered dataset; raises listing known names otherwise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownDatasetError(f"unknown dataset {name!r}; known: {known}") from None


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


@dataclass(frozen=True)
class ColumnSchema:
    """Column mapping for a fingerprint CSV; AP bounds are inclusive."""

    ap_start: int
    ap_end: int
    floor_col: int
    building_col: int | None = None
    coord_cols: tuple[int, ...] = ()

    def __post_init__(self):
        if self.ap_start < 0 or self.ap_end < self.ap_start:
            raise SchemaError(f"bad AP column range [{self.ap_start}, {self.ap_end}]")
        labels = [self.floor_col, *self.coord_cols]
        if self.building_col is not None:
            labels.append(self.building_col)
        for col in labels:
            if self.ap_start <= col <= self.ap_end:
                raise SchemaError(f"column {col} falls inside the AP range")

    @property
    def n_aps(self) -> int:
        return self.ap_end - self.ap_start + 1

    def max_col(self) -> int:
        cols = [self.ap_end, self.floor_col, *self.coord_cols]
        if self.building_col is not None:
            cols.append(self.building_col)
        return max(cols)


@dataclass(frozen=True)
class Manifest:
    schema: ColumnSchema
    sentinel: float
    name: str = ""


def load_manifest(path) -> Manifest:
    """Read a dataset manifest JSON into a column schema + raw sentinel."""
    path = Path(path)
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from None
    try:
        ap_lo, ap_hi = raw["ap_columns"]
        building = raw.get("building_col")
        schema = ColumnSchema(
            ap_start=check_int(ap_lo, "ap_columns"),
            ap_end=check_int(ap_hi, "ap_columns"),
            floor_col=check_int(raw["floor_col"], "floor_col"),
            building_col=None if building is None else check_int(building, "building_col"),
            coord_cols=tuple(check_int(c, "coord_columns") for c in raw.get("coord_columns", ())),
        )
        sentinel = check_float(raw["sentinel"], "sentinel")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid manifest {path}: {exc}") from exc
    return Manifest(schema=schema, sentinel=sentinel, name=str(raw.get("name", "")))


def load_csv(path, schema: ColumnSchema, sentinel_raw: float, name: str = "") -> RadioMap:
    """Load a fingerprint CSV (header row expected) into a RadioMap.

    Cells equal to ``sentinel_raw`` are remapped to the canonical
    not-detected value 0; every other cell is kept verbatim. Parse errors
    report the 1-based line number of the offending row.
    """
    path = Path(path)
    lines = read_lines(path)
    width = len(lines[0].split(","))
    if schema.max_col() >= width:
        raise SchemaError(
            f"{path}: schema references column {schema.max_col()} "
            f"but the file has {width} columns"
        )
    data = parse_rows(lines, path)

    rss = data[:, schema.ap_start : schema.ap_end + 1].copy()
    rss[rss == sentinel_raw] = NOT_DETECTED
    floor = data[:, schema.floor_col]
    building = None if schema.building_col is None else data[:, schema.building_col]
    coords = data[:, list(schema.coord_cols)] if schema.coord_cols else None
    try:
        return RadioMap(rss=rss, floor=floor, building=building, name=name or path.stem, coords=coords)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def read_lines(path) -> list[str]:
    """Lines of a CSV file, header first; an empty file raises ParseError."""
    try:
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not lines:
        raise ParseError(f"{path}: empty file (expected a header row)")
    return lines


def parse_rows(lines: list[str], path) -> np.ndarray:
    """Data rows of ``read_lines`` output as an N x width float matrix.

    ``width`` is the header's cell count. Blank and whitespace-only lines are
    skipped. A ragged row, a non-numeric cell or a non-finite value raises
    ParseError naming its 1-based line number.
    """
    width = len(lines[0].split(","))
    rows = [line for line in lines[1:] if line and not line.isspace()]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    # numpy's C parser takes the common, well-formed file. It accepts a subset
    # of what float() does (no "1_0" cells), so anything it rejects or reads
    # into another shape goes through the line-split path below, which either
    # parses it the same way as before or locates the offending line.
    try:
        data = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape != (len(rows), width):
        data = _parse_lines_slow(lines, width, path)
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"{path}:{int(bad[0]) + 2}: non-finite value in column {int(bad[1])}")
    return data


def _parse_lines_slow(lines: list[str], width: int, path) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
            )
        rows.append(cells)
    try:
        return np.asarray(rows, dtype=np.float64)
    except ValueError:
        return _parse_cells_slow(rows, path)


def _parse_cells_slow(rows, path) -> np.ndarray:
    # Fallback taken only when the bulk conversion fails: find the culprit cell.
    out = np.empty((len(rows), len(rows[0])), dtype=np.float64)
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}:{i + 2}: non-numeric cell {cell!r} in column {j}"
                ) from None
    return out


def split_validation(radio_map: RadioMap, fraction: float, seed: int) -> tuple[RadioMap, RadioMap]:
    """Stratified train/validation split over (building, floor) groups.

    Within each group, ceil(fraction * group_size) samples go to validation,
    drawn without replacement from a generator seeded with ``seed``. Groups
    with fewer than 2 samples stay whole in training (with a warning). Row
    order of the input is preserved in both outputs.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if radio_map.n_samples == 0:
        raise ValueError("cannot split an empty radio map")
    pairs = radio_map.label_pairs()
    rng = np.random.default_rng(seed)
    val_mask = np.zeros(radio_map.n_samples, dtype=bool)
    groups = sorted({(int(b), int(f)) for b, f in pairs})
    for b, f in groups:
        idx = np.flatnonzero((pairs[:, 0] == b) & (pairs[:, 1] == f))
        if idx.size < 2:
            warnings.warn(
                f"group (building={b}, floor={f}) has {idx.size} sample(s); kept in training",
                stacklevel=2,
            )
            continue
        k = math.ceil(fraction * idx.size)
        chosen = rng.choice(idx, size=k, replace=False)
        val_mask[chosen] = True
    train = radio_map.take(np.flatnonzero(~val_mask))
    val = radio_map.take(np.flatnonzero(val_mask))
    return train, val
