"""Radio-map loading and validation, plus the benchmark dataset registry.

A radio map is a matrix of RSS readings (rows = fingerprints, columns = APs)
with per-sample building/floor labels. Raw CSV files mark "AP not detected"
with a dataset-specific sentinel (UJI-style files use 100); on load that
sentinel is remapped to the canonical value 0 so downstream transforms can
branch on it directly. Detected readings are strictly negative dBm.

Column layout is supplied per dataset through a small JSON manifest:

    {"ap_columns": [first, last], "floor_col": i, "building_col": j | null,
     "sentinel": 100}

``ap_columns`` bounds are inclusive; any other key is ignored.

Every JSON file, a model, a manifest, a config or a report, goes through one
reader, ``load_json``: it decodes UTF-8 and refuses, naming the file, a
document whose top level is not an object, one that names a key twice in one
object and one nested deeper than the parser can follow. The CSV reader
decodes UTF-8 too, so no file is read in the locale's encoding.

Every fingerprint file, a training split or a query file, goes through one
reader, which cuts lines where str.splitlines cuts them: the caller checks the
header's width before any row is parsed, and numpy's C parser reads the rows
as they stream, as 32-bit integers first (fingerprint files store whole dBm
and whole labels), then, if a cell is no such integer, again as floats. Only
input neither parse can vouch for is read again, twice, row by row with
float(), which names the offending line. An integer read stores a "-0" cell
as 0.0, not -0.0; either is "not detected". ``rss_block`` turns the AP
columns into the float64 RSS matrix, the sentinel at 0, in one pass.

Every setting (a seed, a size, the ridge term c, a mode or the int8 flag)
passes ``check_setting``, which reads its rule from one table, ``_SETTINGS``:
the config, the stage constructors and the entry points that take one all
call it. A command-line flag's text goes through ``parse_setting``, which
converts it by the kind that table gives first.
No map is split: the hidden-size sweep (``elm.sweep_hidden``) fits every
training row and scores a stratified tenth by exact leave-one-out.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

#: Canonical in-memory value for "AP not detected".
NOT_DETECTED = 0.0

#: The strings the settings ``approach`` and ``norm_mode`` (a ``PreprocessParams``'
#: ``mode``) may hold: the pipeline variants and the unit-norm modes.
APPROACHES = ("cnn_elm", "elm_only")
NORM_MODES = ("per_feature", "per_sample")


class ParseError(ValueError):
    """A file that is not what it should be: a CSV row of the wrong width, a
    non-numeric cell or bytes that are not UTF-8, or a JSON file ``load_json``
    refuses."""


class SchemaError(ValueError):
    """Column mapping inconsistent with the file or the label requirements."""


class UnknownDatasetError(KeyError):
    """Dataset name not present in the registry."""

    def __str__(self) -> str:
        return str(self.args[0])  # KeyError's own str() quotes the message


@dataclass(frozen=True)
class RadioMap:
    """Immutable set of RSS fingerprints with building/floor labels.

    ``rss`` is N x n_aps float64. ``building`` is None for single-building
    datasets; label accessors then report building 0 for every sample.
    Each stored array is a read-only view: of a converted copy, or of the
    caller's own array when it already has the stored dtype and layout. The
    map then shares that buffer, and the caller's array stays writeable.
    """

    rss: np.ndarray
    floor: np.ndarray
    building: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        rss = rss_matrix(self.rss, "rss")
        n = rss.shape[0]
        object.__setattr__(self, "rss", frozen(rss))
        object.__setattr__(self, "floor", frozen(check_labels(self.floor, "floor", n)))
        if self.building is not None:
            object.__setattr__(self, "building", frozen(check_labels(self.building, "building", n)))

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


def frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``: it shares the buffer, and ``arr`` itself
    stays writeable. Every array an object keeps is stored through this."""
    view = arr.view()
    view.flags.writeable = False
    return view


def feature_matrix(data, what: str, width: int | None = None, nonempty: bool = False) -> np.ndarray:
    """``data`` as a C-contiguous float64 matrix, not copied if it is one; ``ValueError``
    naming ``what`` unless it holds numbers (checked before the cast, which reads "-60" as
    -60.0), is 2-D, ``width`` wide if given and, if ``nonempty``, has a row. Not scanned
    for NaN or infinities: the caller's one pass over the values does that."""
    x = np.ascontiguousarray(check_array(data, what), dtype=np.float64)
    if x.ndim != 2 or width not in (None, x.shape[1]) or (nonempty and x.shape[0] == 0):
        raise ValueError(f"{what} must be N x {'d' if width is None else width}"
                         f"{' with N >= 1' if nonempty else ''}, got shape {np.shape(data)}")
    return x


def rss_matrix(data, what: str) -> np.ndarray:
    """``data`` as ``feature_matrix`` reads it; ``ValueError`` naming ``what`` unless it
    is also finite with no reading above 0 dBm."""
    rss = feature_matrix(data, what)
    check_finite(rss, what)
    if rss.size and float(rss.max()) > 0.0:
        raise ValueError(
            f"{what}: detected RSS values must be <= 0 dBm; found "
            f"{float(rss.max())} (is the sentinel remapped?)"
        )
    return rss


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


def _at_least(low: int):
    return lambda v: None if v >= low else f">= {low}"


def _c_fault(c: float) -> str | None:
    # 1 / c must be finite too: a subnormal c would add inf to the Gram
    if not c > 0:
        return "positive"
    if not math.isfinite(1.0 / c):
        return "large enough for a finite 1 / c"
    return None


# Every setting's rule, under each name it goes by: the strings it may hold, or
# its type and a range rule mapping a value to what it must be instead (None if
# it may be). step and L_max have the one joint range elm.check_grid applies.
_SETTINGS = {
    "approach": (APPROACHES, None),
    **dict.fromkeys(("norm_mode", "mode"), (NORM_MODES, None)),
    **dict.fromkeys(("L", "n_filters", "n_aps", "n_features", "n_train", "n_test"),
                    (int, _at_least(1))),
    **dict.fromkeys(("step", "L_max"), (int, None)),
    "seed": (int, _at_least(0)),
    # "same" padding keeps input and output aligned only for odd kernels
    "kernel_size": (int, lambda v: None if v >= 1 and v % 2 == 1 else "odd and positive"),
    "c": (float, _c_fault),
    "min_rss": (float, lambda v: None if v < 0 else "negative"),
    **dict.fromkeys(("quantize", "quantized"), (bool, None)),
}


def check_setting(name: str, value):
    """``value`` checked by the rule ``_SETTINGS`` holds for the setting ``name``;
    the value to store.

    Raises ``ValueError`` naming the setting. Integers come back as Python ints
    and numbers as Python floats, so a checked setting always serializes.
    """
    kind, fault = _SETTINGS[name]
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
    elif kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} must hold true or false, got {value!r}")
    else:
        value = check_int(value, name) if kind is int else check_float(value, name)
    wrong = fault and fault(value)
    if wrong:
        raise ValueError(f"{name} must be {wrong}, got {value!r}")
    return value


def parse_setting(name: str, text: str):
    """The setting ``name`` read from command-line ``text``: converted by the
    kind ``_SETTINGS`` gives, as ``int(text)`` or ``float(text)`` if its stripped
    form is ASCII (``_cell``'s rule: both read "٣" as 3), then checked by
    ``check_setting``. Other text, or a default that is no text, is checked as it
    is, so such text is refused with the message a config-file string gets."""
    kind = _SETTINGS[name][0]
    if kind in (int, float) and isinstance(text, str) and text.strip().isascii():
        try:
            text = kind(text)
        except ValueError:
            pass
    return check_setting(name, text)


def store_settings(obj, names) -> None:
    """Each setting in ``names`` of the frozen dataclass ``obj`` replaced by its
    ``check_setting`` value: the one check its constructor makes of them."""
    for name in names:
        object.__setattr__(obj, name, check_setting(name, getattr(obj, name)))


# numpy dtype kinds of arrays that hold no numbers. A lone true among numbers
# in a Python list reads as 1; ``check_entries`` walks such lists for one.
_NOT_NUMBERS = {"b": "true/false values", "U": "strings", "c": "complex numbers"}
_BOOLS = (bool, np.bool_)


def check_array(value, key: str) -> np.ndarray:
    """``value`` as numpy reads it, refused by ``key`` unless it holds numbers: the
    rule to apply before any float cast. A value that is no ndarray is walked by
    ``check_entries`` first. It is not scanned for non-finite values."""
    if not isinstance(value, np.ndarray):
        check_entries(value, key)
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        what = _NOT_NUMBERS.get(arr.dtype.kind, "nulls or other non-numbers")
        raise ValueError(f"{key} must hold numbers, got {what}")
    return arr


def check_entries(value, key: str, check=None):
    """``value`` once each entry of its nested lists and tuples passes
    ``check(entry, key)``, or else is no true or false, which numpy would read
    as 1 among numbers: one walk, any depth."""
    level = [value]
    while level:
        deeper = []
        for entry in level:
            if isinstance(entry, (list, tuple)):
                deeper += entry
            elif check is not None:
                check(entry, key)
            elif type(entry) in _BOOLS:  # bool has no subclasses; type() is cheaper
                raise ValueError(f"{key} must hold numbers, got true/false values")
        level = deeper
    return value


def check_labels(values, what: str, n: int) -> np.ndarray:
    """``values`` as a length-``n`` int64 vector of whole, non-negative numbers
    within int64; anything else raises ``ValueError`` naming ``what``. A value that
    is no ndarray is walked by ``check_entries`` first."""
    if not isinstance(values, np.ndarray):
        check_entries(values, what)
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"{what} labels must be a length-{n} vector, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":  # np.round raises a bare TypeError on the rest
        raise ValueError(f"{what} labels must be numbers, got dtype {arr.dtype}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.round(arr)
        if not np.allclose(arr, rounded, rtol=0, atol=0):
            raise ValueError(f"{what} labels must be integers")
        arr = rounded
    lo, hi = (arr.min().item(), arr.max().item()) if arr.size else (0, 0)
    if hi >= 2**63 or lo < -(2**63):  # as Python numbers, before the cast would wrap or warn
        raise ValueError(f"{what} labels must lie within int64, found {hi if hi >= 2**63 else lo}")
    if lo < 0:
        raise ValueError(f"{what} labels must be non-negative, found {int(lo)}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def label_rows(pairs, what: str, n: int | None = None) -> np.ndarray:
    """``pairs`` as an N x 2 int64 matrix of (building, floor) rows, ``n`` of them if
    given; ``ValueError`` naming ``what`` for another shape, and naming the column
    for a label ``check_labels`` refuses. A value that is no ndarray is walked by
    ``check_entries`` first."""
    if not isinstance(pairs, np.ndarray):
        check_entries(pairs, what)
    arr = np.asarray(pairs)
    if arr.ndim != 2 or arr.shape[1] != 2 or n not in (None, arr.shape[0]):
        raise ValueError(f"{what} must be {'N' if n is None else n} x 2, got shape {arr.shape}")
    # by column, so an object matrix (a Python int beyond int64) names the odd column
    building, floor = arr.T.tolist() if arr.dtype.kind == "O" else arr.T
    check_labels(building, "building", arr.shape[0])
    check_labels(floor, "floor", arr.shape[0])
    return np.ascontiguousarray(arr, dtype=np.int64)  # exact: every label is a whole int64


def class_index(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of N x 2 (building, floor) label rows, sorted by building
    then floor, and each row's index among them: ``classes[index]`` is ``pairs``."""
    classes, index = np.unique(np.asarray(pairs, dtype=np.int64), axis=0, return_inverse=True)
    return classes, index.reshape(-1)  # numpy 2.0.0 returns the index as N x 1


@dataclass(frozen=True)
class DatasetDescriptor:
    """Registry entry: sizes and per-dataset ELM hyperparameters."""

    name: str
    train_size: int
    test_size: int
    n_aps: int
    L_default: int
    c_default: float


# The twelve public benchmark sets with their published sizes and the
# hidden-neuron count / regularization term selected for each.
_REGISTRY: dict[str, DatasetDescriptor] = {
    d.name: d
    for d in [
        DatasetDescriptor("LIB1", 576, 3120, 174, 105, 0.05),
        DatasetDescriptor("LIB2", 576, 3120, 197, 105, 0.01),
        DatasetDescriptor("TUT1", 1476, 490, 309, 75, 0.1),
        DatasetDescriptor("TUT2", 584, 176, 354, 160, 0.01),
        DatasetDescriptor("TUT3", 697, 3951, 992, 235, 0.05),
        DatasetDescriptor("TUT4", 3951, 697, 992, 275, 0.05),
        DatasetDescriptor("TUT5", 446, 982, 489, 195, 0.01),
        DatasetDescriptor("TUT6", 3116, 7269, 652, 450, 0.1),
        DatasetDescriptor("TUT7", 2787, 6504, 801, 200, 1.0),
        DatasetDescriptor("UJI1", 19861, 1111, 520, 530, 0.1),
        DatasetDescriptor("UJI2", 20972, 5179, 520, 215, 0.01),
        DatasetDescriptor("UTS1", 9108, 388, 589, 275, 0.01),
        # Bundled synthetic benchmark set (3 buildings x 4 floors); defaults
        # chosen by a validation sweep on the generated data.
        DatasetDescriptor("SYN1", 6000, 1000, 100, 500, 1.0),
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

    def __post_init__(self):
        if self.ap_start < 0 or self.ap_end < self.ap_start:
            raise SchemaError(f"bad AP column range [{self.ap_start}, {self.ap_end}]")
        # a negative index would count from the right, onto some other column
        for key, col in (("floor_col", self.floor_col), ("building_col", self.building_col)):
            if col is not None and col < 0:
                raise SchemaError(f"{key} must be >= 0, got {col}")
            if col is not None and self.ap_start <= col <= self.ap_end:
                raise SchemaError(f"column {col} falls inside the AP range")
        if self.floor_col == self.building_col:
            raise SchemaError(f"floor_col and building_col are both {self.floor_col}")

    @property
    def n_aps(self) -> int:
        return self.ap_end - self.ap_start + 1

    def max_col(self) -> int:
        return max(self.ap_end, self.floor_col, self.building_col or 0)


@dataclass(frozen=True)
class Manifest:
    schema: ColumnSchema
    sentinel: float


def load_json(path, what: str) -> dict:
    """The JSON object in the file ``path``, decoded as UTF-8: the one reader of a
    model, manifest, config or report file. A file that does not decode, is not
    JSON, nests too deep for the parser, names a key twice in one object or holds
    no object at its top level raises ``ParseError("<path> is not <what>: <reason>")``;
    ``OSError`` passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        if not isinstance(doc, dict):
            raise ValueError("its top level is not a JSON object")
    except (RecursionError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise ParseError(f"{path} is not {what}: {exc}") from None
    return doc


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; ``ValueError`` for a key named twice,
    whose later value json would otherwise keep in silence."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is named twice in one object")
        doc[key] = value
    return doc


def load_manifest(path) -> Manifest:
    """Read a dataset manifest JSON into a column schema + raw sentinel."""
    path = Path(path)
    raw = load_json(path, "valid JSON")
    try:
        ap_lo, ap_hi = raw["ap_columns"]
        building = raw.get("building_col")
        schema = ColumnSchema(
            ap_start=check_int(ap_lo, "ap_columns"),
            ap_end=check_int(ap_hi, "ap_columns"),
            floor_col=check_int(raw["floor_col"], "floor_col"),
            building_col=None if building is None else check_int(building, "building_col"),
        )
        sentinel = check_float(raw["sentinel"], "sentinel")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid manifest {path}: {exc}") from exc
    return Manifest(schema=schema, sentinel=sentinel)


def load_csv(path, schema: ColumnSchema, sentinel_raw: float, name: str = "") -> RadioMap:
    """Load a fingerprint CSV (header row expected) into a RadioMap.

    Cells equal to ``sentinel_raw`` are remapped to the canonical
    not-detected value 0; every other cell is kept verbatim. Parse errors
    report the 1-based line number of the offending row.
    """
    path = Path(path)
    radio_map = _read_map(path, schema, sentinel_raw, name or path.stem)
    if radio_map.n_samples == 0:
        raise ParseError(f"{path}: no data rows")
    return radio_map


def _read_map(path, schema: ColumnSchema, sentinel_raw: float, name: str) -> RadioMap:
    """``load_csv`` without its row check: the map may have no rows."""
    def check_width(width):
        if schema.max_col() >= width:
            raise SchemaError(
                f"{path}: schema references column {schema.max_col()} "
                f"but the file has {width} columns"
            )

    data = _read_matrix(path, check_width)
    rss = rss_block(data[:, schema.ap_start : schema.ap_end + 1], sentinel_raw)
    floor = data[:, schema.floor_col]
    building = None if schema.building_col is None else data[:, schema.building_col]
    try:
        return RadioMap(rss=rss, floor=floor, building=building, name=name)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def rss_block(ap: np.ndarray, sentinel_raw: float) -> np.ndarray:
    """The AP columns ``ap`` of a parsed file, int32 or float64, as a new float64
    matrix (``NOT_DETECTED`` is a Python float, which makes int32 float64), each
    cell equal to ``sentinel_raw`` set to ``NOT_DETECTED``: one pass."""
    return np.where(ap == sentinel_raw, NOT_DETECTED, ap)


def _read_matrix(path, check_width) -> np.ndarray:
    """Data rows of a CSV file as an N x width matrix, int32 if every cell is a
    32-bit integer, else float64; N may be 0.

    Line 1 is the header, ``width`` its cell count; ``check_width(width)``
    runs before any row is parsed. Blank and whitespace-only lines are skipped
    but counted. numpy parses the rows as int32, and where that fails as
    float64; where that raises too (it reads no "1_0"), a width differs or a
    value is not finite, ``_parse_rows`` reads them again. A ragged row, a
    non-numeric cell or a non-finite value raises ParseError naming its 1-based
    line number; so does an empty file or one that does not decode.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = _lines(fh)
            header = next(lines, (1, None))[1]
            if header is None:
                raise ParseError(f"{path}: empty file (expected a header row)")
            width = len(header.split(","))
            check_width(width)
            data = _loadtxt(_rows(lines), np.int32)
            if data is None:
                fh.seek(0)
                data = _loadtxt(_rows(_lines(fh)), np.float64)
        if data is None or data.shape[1] != width or not np.all(np.isfinite(data)):
            data = _parse_rows(path, width)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return data


def _loadtxt(rows, dtype) -> np.ndarray | None:
    """The streamed ``rows`` as numpy's parser reads them into ``dtype``, or None
    where it raises. numpy before 2.0 reads "-70.5" as the int -70 with a
    DeprecationWarning ("integer via a float"); that warning is a failure too."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            return np.loadtxt((line for _, line in rows), dtype=dtype,
                              delimiter=",", comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None


def _lines(fh):
    r"""(line number, text) for each line of ``fh``, counted from 1, cut where
    str.splitlines cuts the whole text: a physical line keeps "\r\n" whole."""
    return enumerate(chain.from_iterable(map(str.splitlines, fh)), start=1)


def _rows(lines):
    """The data rows among ``lines``: not the header, not blank."""
    return ((n, line) for n, line in lines if n > 1 and line and not line.isspace())


def _cell(text: str) -> float:
    """float(text) if the stripped text is ASCII: float() alone also reads digits of
    other scripts ("١٢" as 12), which numpy's parser refuses."""
    if not text.strip().isascii():
        raise ValueError(text)
    return float(text)


def _parse_rows(path, width: int) -> np.ndarray:
    """The data rows of ``path`` read by float(), in two passes over its lines:
    one checks every row's width, the next fills the matrix row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        linenos = []
        for lineno, line in _rows(_lines(fh)):
            found = line.count(",") + 1
            if found != width:
                raise ParseError(f"{path}:{lineno}: expected {width} columns, found {found}")
            linenos.append(lineno)
    data = np.empty((len(linenos), width), dtype=np.float64)
    with open(path, newline="", encoding="utf-8") as fh:
        for row, (lineno, line) in zip(data, _rows(_lines(fh))):
            cells = line.split(",")
            try:
                read = float if line.isascii() else _cell
                row[:] = [read(cell) for cell in cells]
            except ValueError:
                for j, cell in enumerate(cells):  # find the culprit
                    try:
                        _cell(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: non-numeric cell {cell!r} in column {j}"
                        ) from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        lineno, col = linenos[bad[0, 0]], int(bad[0, 1])
        raise ParseError(f"{path}:{lineno}: non-finite value in column {col}")
    return data
