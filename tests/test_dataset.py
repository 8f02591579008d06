import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_peak
from elmloc.dataset import (
    ColumnSchema,
    Manifest,
    ParseError,
    RadioMap,
    SchemaError,
    UnknownDatasetError,
    check_array,
    check_float,
    class_index,
    load_csv,
    load_manifest,
    registry_lookup,
    registry_names,
)
from elmloc.elm import ClassCodebook, ElmModel
from elmloc.knn import build_index
from elmloc.preprocess import PreprocessParams


def _map(n=6, aps=4, buildings=True):
    rng = np.random.default_rng(1)
    rss = np.where(rng.random((n, aps)) < 0.5, -rng.uniform(30, 90, (n, aps)), 0.0)
    floor = np.arange(n) % 3
    b = (np.arange(n) % 2) if buildings else None
    return RadioMap(rss=rss, floor=floor, building=b)


class TestRadioMap:
    def test_basic_properties(self):
        m = _map()
        assert m.n_samples == 6
        assert m.n_aps == 4
        assert m.has_building

    def test_rss_must_be_nonpositive(self):
        # a positive reading almost always means the raw sentinel (100) was
        # not remapped; the error should say so
        with pytest.raises(ValueError, match="sentinel"):
            RadioMap(rss=np.array([[100.0, -50.0]]), floor=np.array([0]))

    def test_rss_must_be_finite(self):
        with pytest.raises(ValueError):
            RadioMap(rss=np.array([[np.nan, -50.0]]), floor=np.array([0]))

    def test_rss_must_be_2d(self):
        with pytest.raises(ValueError, match=r"^rss must be N x d, got shape \(4,\)$"):
            RadioMap(rss=np.zeros(4), floor=np.array([0]))

    def test_float_labels_must_be_integral(self):
        with pytest.raises(ValueError):
            RadioMap(rss=np.zeros((1, 2)), floor=np.array([1.5]))
        # exact integral floats are fine
        m = RadioMap(rss=np.zeros((1, 2)), floor=np.array([2.0]))
        assert m.floor.dtype == np.int64

    @pytest.mark.parametrize("label, shown", [
        (1e20, "1e+20"), (-1e20, "-1e+20"), (9.3e18, "9.3e+18"), (np.inf, "inf"),
        (np.uint64(2**63), "9223372036854775808"),
    ])
    @pytest.mark.parametrize("what", ["floor", "building"])
    def test_labels_beyond_int64_refused_before_the_cast(self, label, shown, what):
        # the cast would warn and wrap them to a label the input does not hold
        labels = {"floor": np.array([0]), what: np.array([label])}
        with pytest.raises(ValueError, match=rf"^{what} labels must lie within int64, "
                                             rf"found {re.escape(shown)}$"):
            RadioMap(rss=np.zeros((1, 2)), **labels)

    @pytest.mark.parametrize("label, dtype", [
        ("3", "<U1"), (None, "object"), (2**64, "object"), (np.array(1.0, dtype=object), "object"),
        (1 + 0j, "complex128"),
    ], ids=["string", "none", "beyond_uint64", "object_float", "complex"])
    @pytest.mark.parametrize("what", ["floor", "building"])
    def test_non_numeric_labels_refused(self, label, dtype, what):
        # np.round would raise a bare TypeError on them, naming no label
        labels = {"floor": np.array([0]), what: np.array([label])}
        with pytest.raises(ValueError, match=rf"^{what} labels must be numbers, got dtype "
                                             rf"{dtype}$"):
            RadioMap(rss=np.zeros((1, 2)), **labels)

    @pytest.mark.parametrize("labels", [
        np.array([2**63 - 1]), np.array([2**63 - 1], dtype=np.uint64),
        np.array([True, False]), np.array([3.0, 1.0], dtype=np.float16),
    ], ids=["int64_max", "uint64", "bool", "float16"])
    def test_labels_within_int64_kept(self, labels):
        m = RadioMap(rss=np.zeros((len(labels), 2)), floor=labels)
        assert m.floor.tolist() == [int(v) for v in labels.tolist()]

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            RadioMap(rss=np.zeros((1, 2)), floor=np.array([-1]))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            RadioMap(rss=np.zeros((2, 2)), floor=np.array([0]))

    def test_arrays_frozen(self):
        m = _map()
        with pytest.raises(ValueError):
            m.rss[0, 0] = -1.0
        with pytest.raises(ValueError):
            m.floor[0] = 9

    @pytest.mark.parametrize("build, given", [
        (RadioMap, lambda: {"rss": np.full((3, 2), -60.0), "floor": np.arange(3),
                            "building": np.zeros(3, dtype=np.int64)}),
        (build_index, lambda: {"features": np.eye(3), "pairs": np.zeros((3, 2), dtype=np.int64)}),
        (lambda beta: ElmModel(beta, 1.0, ClassCodebook(np.array([[0, 0], [0, 1]])), 0, 4),
         lambda: {"beta": np.ones((5, 2))}),
        (lambda feature_norms: PreprocessParams(-90.0, feature_norms=feature_norms),
         lambda: {"feature_norms": np.ones(4)}),
    ], ids=["RadioMap", "build_index", "ElmModel", "PreprocessParams"])
    def test_caller_arrays_stay_writeable(self, build, given):
        # arrays that need no conversion are shared with the object, not frozen under the caller
        given = given()
        kept = build(**given)
        for name, arr in given.items():
            stored = getattr(kept, name)
            assert np.shares_memory(stored, arr), name
            assert arr.flags.writeable and not stored.flags.writeable, name
            arr.flat[0] += 1
            assert stored.flat[0] == arr.flat[0], name

    def test_label_pairs_without_building(self):
        m = _map(buildings=False)
        pairs = m.label_pairs()
        assert pairs.shape == (6, 2)
        assert (pairs[:, 0] == 0).all()
        assert (pairs[:, 1] == m.floor).all()


class TestRegistry:
    def test_known_names_present(self):
        names = registry_names()
        for name in ("UJI1", "UJI2", "TUT3", "LIB1", "UTS1", "SYN1"):
            assert name in names
        assert names == sorted(names)

    def test_lookup_fields(self):
        d = registry_lookup("UJI1")
        assert d.train_size == 19861
        assert d.test_size == 1111
        assert d.n_aps == 520
        assert d.L_default == 530
        assert d.c_default == 0.1

    def test_tut3_defaults(self):
        d = registry_lookup("TUT3")
        assert (d.L_default, d.c_default) == (235, 0.05)

    def test_unknown_name_lists_known(self):
        with pytest.raises(UnknownDatasetError, match="LIB1"):
            registry_lookup("NOPE")


class TestColumnSchema:
    def test_inclusive_bounds(self):
        s = ColumnSchema(ap_start=0, ap_end=3, floor_col=4)
        assert s.n_aps == 4
        assert s.max_col() == 4

    def test_max_col_spans_all_fields(self):
        s = ColumnSchema(ap_start=0, ap_end=3, floor_col=5, building_col=4)
        assert s.max_col() == 5
        s = ColumnSchema(ap_start=1, ap_end=3, floor_col=4, building_col=0)
        assert s.max_col() == 4

    def test_overlapping_label_column_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema(ap_start=0, ap_end=3, floor_col=2)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema(ap_start=3, ap_end=0, floor_col=4)

    def test_one_column_for_both_labels_rejected(self):
        with pytest.raises(SchemaError, match=r"^floor_col and building_col are both 4$"):
            ColumnSchema(ap_start=0, ap_end=3, floor_col=4, building_col=4)


class TestManifest:
    def test_load(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({
            "ap_columns": [0, 519], "floor_col": 522, "building_col": 523,
            "sentinel": 100,
        }))
        m = load_manifest(p)
        assert m.schema.n_aps == 520
        assert m.schema.floor_col == 522
        assert m.sentinel == 100.0

    def test_one_column_for_both_labels(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({
            "ap_columns": [0, 1], "floor_col": 2, "building_col": 2, "sentinel": 100,
        }))
        with pytest.raises(SchemaError, match=r"^invalid manifest .*manifest\.json: floor_col "
                                              r"and building_col are both 2$"):
            load_manifest(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"ap_columns": [0, 3], "sentinel": 100}))
        with pytest.raises(SchemaError, match="floor_col"):
            load_manifest(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{nope")
        with pytest.raises(ParseError):
            load_manifest(p)

    # json alone would overflow the stack on the first and keep the later
    # sentinel of the second in silence
    @pytest.mark.parametrize("text, reason", [
        ('{"sentinel": ' + "[" * 200_000 + "]" * 200_000 + "}",
         "maximum recursion depth exceeded while decoding a JSON array"),
        ('{"ap_columns": [0, 3], "floor_col": 4, "sentinel": 100, "sentinel": -110}',
         "key 'sentinel' is named twice in one object$"),
    ], ids=["deep", "repeated_key"])
    def test_refused_json_named(self, tmp_path, text, reason):
        p = tmp_path / "manifest.json"
        p.write_text(text)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(p))} is not valid JSON: {reason}"):
            load_manifest(p)

    # an int() or float() cast would load each of these as some column or number,
    # and a negative index counts from the right: in a 102-column file -2 and -1
    # are the label columns, and -102 is AP column 0
    @pytest.mark.parametrize("edit, message", [
        ({"ap_columns": [0.9, 99]}, r"ap_columns must hold 64-bit integers, got 0\.9"),
        ({"ap_columns": [0, "99"]}, r"ap_columns must hold 64-bit integers, got '99'"),
        ({"floor_col": 100.9}, r"floor_col must hold 64-bit integers, got 100\.9"),
        ({"building_col": True}, r"building_col must hold 64-bit integers, got True"),
        ({"sentinel": True}, r"sentinel must hold a float, got True"),
        ({"sentinel": "100"}, r"sentinel must hold a float, got '100'"),
        ({"floor_col": -2, "building_col": -1}, r"floor_col must be >= 0, got -2"),
        ({"building_col": -1}, r"building_col must be >= 0, got -1"),
        ({"floor_col": -102}, r"floor_col must be >= 0, got -102"),
    ], ids=["ap_fraction", "ap_string", "floor_fraction", "building_bool",
            "sentinel_bool", "sentinel_string", "labels_negative", "building_negative",
            "floor_onto_ap"])
    def test_uncast_values_rejected(self, tmp_path, edit, message):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({
            "ap_columns": [0, 99], "floor_col": 100, "building_col": 101,
            "sentinel": 100, **edit,
        }))
        with pytest.raises(SchemaError, match=rf"invalid manifest .*manifest\.json: {message}"):
            load_manifest(p)

    def test_integer_sentinel_and_null_building_load(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"ap_columns": [0, 3], "floor_col": 4,
                                 "building_col": None, "sentinel": -110}))
        m = load_manifest(p)
        assert m.schema.building_col is None
        assert type(m.sentinel) is float and m.sentinel == -110.0


SCHEMA = ColumnSchema(ap_start=0, ap_end=2, floor_col=3, building_col=4)


def _write(tmp_path, text):
    p = tmp_path / "d.csv"
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_golden_small_file(self, tmp_path):
        p = _write(tmp_path, "a,b,c,f,bl\n-30,100,-70.5,2,1\n100,100,100,0,0\n")
        m = load_csv(p, SCHEMA, sentinel_raw=100.0)
        assert m.rss.shape == (2, 3)
        # sentinel cells land on the internal not-detected value 0.0
        assert m.rss[0].tolist() == [-30.0, 0.0, -70.5]
        assert m.rss[1].tolist() == [0.0, 0.0, 0.0]
        assert m.floor.tolist() == [2, 0]
        assert m.building.tolist() == [1, 0]

    def test_parse_error_names_line_and_cell(self, tmp_path):
        # header is line 1, so the bad row reports as compiler-style :3
        p = _write(tmp_path, "a,b,c,f,bl\n-30,-40,-50,1,0\n-30,oops,-50,1,0\n")
        with pytest.raises(ParseError, match=r":3: .*'oops' in column 1"):
            load_csv(p, SCHEMA, sentinel_raw=100.0)

    # numpy's parser refuses each of these cells; float() alone reads them as numbers,
    # so the row-by-row fallback must refuse them too, wherever the file reaches it
    @pytest.mark.parametrize("cell", ["\u0661\u0662", "-\uff16\uff10", "-6\u0660", "-6\u0660_0"],
                             ids=["arabic_indic", "fullwidth", "mixed", "mixed_underscore"])
    @pytest.mark.parametrize("first", ["-40", "-4_0"],
                             ids=["first_row_plain", "first_row_underscore"])
    def test_non_ascii_digits_refused(self, tmp_path, cell, first):
        p = tmp_path / "d.csv"
        p.write_bytes(f"a,b,c,f,bl\n-30,{first},-50,1,0\n-30,{cell},-50,1,0\n".encode("utf-8"))
        message = f"{p}:3: non-numeric cell {cell!r} in column 1"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_csv(p, SCHEMA, sentinel_raw=100.0)

    def test_non_ascii_space_around_a_cell_is_stripped(self, tmp_path):
        # the rule reads the stripped text: float() strips Unicode spaces too
        p = tmp_path / "d.csv"
        p.write_bytes("a,b,c,f,bl\n-30,\u00a0-4_0\u2003,-50,1,0\n".encode("utf-8"))
        assert load_csv(p, SCHEMA, sentinel_raw=100.0).rss.tolist() == [[-30.0, -40.0, -50.0]]

    def test_width_mismatch_names_line(self, tmp_path):
        p = _write(tmp_path, "a,b,c,f,bl\n-30,-40,-50,1\n")
        with pytest.raises(ParseError, match=r":2: expected 5 columns"):
            load_csv(p, SCHEMA, sentinel_raw=100.0)

    def test_schema_wider_than_file(self, tmp_path):
        wide = ColumnSchema(ap_start=0, ap_end=5, floor_col=6)
        p = _write(tmp_path, "a,b,c,f,bl\n-30,-40,-50,1,0\n")
        with pytest.raises((SchemaError, ParseError)):
            load_csv(p, wide, sentinel_raw=100.0)

    def test_no_data_rows(self, tmp_path):
        p = _write(tmp_path, "a,b,c,f,bl\n")
        with pytest.raises(ParseError):
            load_csv(p, SCHEMA, sentinel_raw=100.0)

    WIDE_N, WIDE_APS = 3000, 150
    WIDE_SCHEMA = ColumnSchema(0, WIDE_APS - 1, WIDE_APS, WIDE_APS + 1)

    def _wide(self, tmp_path, cell=None, row=0):
        """A WIDE_N-row file with WIDE_APS AP columns, ``cell`` written into
        column 5 of data row ``row``; its path and the bound on load_csv's
        traced peak: the parsed matrix, the rss copy and half the text."""
        n, aps = self.WIDE_N, self.WIDE_APS
        rng = np.random.default_rng(0)
        readings = np.round(-rng.uniform(30, 100, (n, aps)), 2)
        cells = np.where(rng.random((n, aps)) < 0.1, readings, 100).astype(str)
        labels = np.column_stack([np.arange(n) % 4, np.arange(n) % 3]).astype(str)
        rows = np.hstack([cells, labels]).tolist()
        if cell is not None:
            rows[row][5] = cell
        p = tmp_path / "wide.csv"
        p.write_text(",".join(f"c{j}" for j in range(aps + 2)) + "\n"
                     + "\n".join(",".join(r) for r in rows) + "\n")
        return p, n * (aps + 2) * 8 + n * aps * 8 + p.stat().st_size / 2

    def test_traced_peak_keeps_no_text(self, tmp_path):
        # The file is streamed into the parser: at its peak load_csv holds the
        # parsed matrix, the rss copy and masks an eighth their size, not the
        # text or its lines (which would take the peak to about 1.2x the bound)
        p, bound = self._wide(tmp_path)
        tracemalloc.start()
        try:
            m = load_csv(p, self.WIDE_SCHEMA, sentinel_raw=100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.rss.shape == (self.WIDE_N, self.WIDE_APS)
        assert peak < bound

    @pytest.mark.parametrize("cell, row, error", [
        ("-7_0", 0, None),
        ("oops", -1, r":3001: non-numeric cell 'oops' in column 5$"),
    ], ids=["underscore", "bad_last_row"])
    def test_fallback_traced_peak_keeps_no_text(self, tmp_path, cell, row, error):
        # numpy refuses these files, so float() reads them again in two passes
        # over the lines: the matrix is filled a row at a time, and neither the
        # text, its lines nor their cells are held
        p, bound = self._wide(tmp_path, cell, row)
        if error is None:
            m, peak = traced_peak(lambda: load_csv(p, self.WIDE_SCHEMA, sentinel_raw=100.0))
            assert m.rss.shape == (self.WIDE_N, self.WIDE_APS) and m.rss[0, 5] == -70.0
        else:
            _, peak = traced_peak(lambda: pytest.raises(
                ParseError, load_csv, p, self.WIDE_SCHEMA, 100.0).match(error))
        assert peak < bound


def reference_load_csv(path, schema, sentinel_raw, name=""):
    """The list-of-lists parser that load_csv replaced: every line split in Python."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file (expected a header row)")
    width = len(lines[0].split(","))
    if schema.max_col() >= width:
        raise SchemaError(
            f"{path}: schema references column {schema.max_col()} "
            f"but the file has {width} columns"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
        rows.append(cells)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    try:
        data = np.asarray(rows, dtype=np.float64)
    except ValueError:
        data = np.empty((len(rows), width))
        for i, cells in enumerate(rows):
            for j, cell in enumerate(cells):
                try:
                    data[i, j] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}:{[k for k, s in enumerate(lines) if k and s.strip()][i] + 1}: "
                        f"non-numeric cell {cell!r} in column {j}"
                    ) from None
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(
            f"{path}:{[k for k, s in enumerate(lines) if k and s.strip()][int(bad[0])] + 1}: "
            f"non-finite value in column {int(bad[1])}")
    rss = data[:, schema.ap_start : schema.ap_end + 1].copy()
    rss[rss == sentinel_raw] = 0.0
    floor = data[:, schema.floor_col]
    building = None if schema.building_col is None else data[:, schema.building_col]
    try:
        return RadioMap(rss=rss, floor=floor, building=building, name=name or path.stem)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# Cells as they occur in fingerprint files, plus the malformed ones load_csv
# must locate; repeats weight the draw towards files that parse.
_GOOD_CELLS = ["-50", "-71", "-30.5", "100", "100", "0", "1", "2", "-1_0", " -60", "-88 ", "+0"]
_BAD_CELLS = ["x", "", "nan", "1e400", "5", "2.5", "1__0", "#1", '"-5"']
_cell = st.sampled_from(_GOOD_CELLS * 6 + _BAD_CELLS)
_blank = st.sampled_from(["", " ", "\t", "  \t "])


# every line end str.splitlines knows
_eol = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                        "\u2028", "\u2029"])


@st.composite
def _csv_text(draw):
    width = draw(st.integers(1, 5))
    n_rows = draw(st.sampled_from([0, 1, 1, 2, 3, 6]))
    lines = [",".join(f"c{j}" for j in range(width))]
    for _ in range(n_rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(_blank))
            continue
        n_cells = width + draw(st.sampled_from([0] * 12 + [-1, 1]))
        lines.append(",".join(draw(st.lists(_cell, min_size=n_cells, max_size=n_cells))))
    for i, line in enumerate(lines):
        if draw(st.integers(0, 9)) == 0:  # a line end inside the line
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(_eol) + line[at:]
    eol = draw(_eol)
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


def _outcome(load, path, schema):
    try:
        m = load(path, schema, 100.0)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return tuple(
        None if a is None else (a.shape, a.dtype, a.tobytes())
        for a in (m.rss, m.floor, m.building)
    ) + (m.name,)


class TestLoadCsvReference:
    @given(_csv_text(), st.integers(2, 5), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_parser(self, tmp_path_factory, text, schema_width, building):
        path = tmp_path_factory.getbasetemp() / "reference.csv"
        path.write_bytes(text.encode())
        if building and schema_width >= 3:
            schema = ColumnSchema(0, schema_width - 3, schema_width - 2, schema_width - 1)
        else:
            schema = ColumnSchema(0, schema_width - 2, schema_width - 1)
        assert _outcome(load_csv, path, schema) == _outcome(reference_load_csv, path, schema)

    def test_fixed_cases_match_reference(self, tmp_path):
        cases = [
            "a,b,c,f,bl\r\n-30,100,-70,2,1\r\n\r\n  \r\n100,-1_0,100,0,0\r\n",
            "a,b,c,f,bl\n-30,-40,-50,1,0\n-30,-40\n",
            "a,b,c,f,bl\n-30,-40,-50,1,0,7\n",
            "a,b,c,f,bl\n-30,x,-50,1,0\n",
            "a,b,c,f,bl\n",
            "a,b,c,f,bl\n-30,-40,-50,1,0",
            # line breaks that str.splitlines knows and the file object does not,
            # in the header and in rows, and whitespace-only lines
            "a,b,c,f,bl\x0c\n-30,-40,-50,1,0\n",
            "a,b,c\x0bf,bl\n-30,-40,-50,1,0\n",
            "a,b,c,f,bl\x1c-30,-40,-50,1,0\n-30,-40,-50,2,1\n",
            "a,b,c,f,bl\u2028\n-30,-40,-50,1,0\n-30,x,-50,1,0\n",
            "a,b,c,f,bl\n-30\x0c,-40,-50,1,0\n",
            "a,b,c,f,bl\n-30,\u2028-40,-50,1,0\n",
            "a,b,c,f,bl\n-30,-40,-50,1,0\x85-20,-40,-50,1,0\n",
            "a,b,c,f,bl\n-30,-40,-50,1,0\x1c\n-30,-40,-50,2,1\x0b\n",
            "a,b,c,f,bl\n-30,-40,-50,1,0\x0b\n-30,x,-50,1,0\n",
            "a,b,c,f,bl\n \t \n-30,-40,-50,1,0\n\x0c\n \x85 \n-30,-40,-50,2,1\n",
            "a,b,c,f,bl\n\u2028\n\t\n",
        ]
        for text in cases:
            p = _write(tmp_path, text)
            assert _outcome(load_csv, p, SCHEMA) == _outcome(reference_load_csv, p, SCHEMA), text
        # blank lines before a bad cell still count towards its line number
        for cell, message in [("oops", "non-numeric cell 'oops'"), ("nan", "non-finite value")]:
            p = _write(tmp_path, f"a,b,c,f,bl\n\n\n-30,{cell},-50,1,0\n")
            outcome = _outcome(load_csv, p, SCHEMA)
            assert outcome == _outcome(reference_load_csv, p, SCHEMA)
            assert outcome == (ParseError, f"{p}:4: {message} in column 1")


def label_rows(labels):
    """Lists of one to 40 (building, floor) tuples drawn from ``labels``."""
    return st.lists(st.tuples(labels, labels), min_size=1, max_size=40)


class TestClassIndex:
    @given(label_rows(st.integers(0, 3) | st.integers(0, 2**63 - 1)))
    @settings(max_examples=100, deadline=None)
    @example([(0, 0)])  # one row
    @example([(2, 1)] * 4)  # one class
    @example([(2, 0), (0, 3), (1, 1), (0, 3), (2, 0), (1, 0)])  # several buildings
    def test_matches_a_sorted_set_and_a_dict(self, rows):
        classes, index = class_index(np.array(rows))
        want = sorted(set(rows))
        lookup = {pair: k for k, pair in enumerate(want)}
        assert classes.dtype == np.int64 and classes.shape == (len(want), 2)
        assert [tuple(pair) for pair in classes.tolist()] == want
        assert index.shape == (len(rows),)
        assert index.tolist() == [lookup[pair] for pair in rows]


class TestCheckFloat:
    @pytest.mark.parametrize("value", [0.5, -90, 2, -1e308])
    def test_json_numbers_accepted(self, value):
        out = check_float(value, "c")
        assert type(out) is float and out == value

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [1.0]])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ValueError, match=r"^c must hold a float, got "):
            check_float(value, "c")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400])
    def test_non_finite_rejected(self, value):
        # json.loads reads NaN and Infinity, and integers of any size
        with pytest.raises(ValueError, match=r"^c must be finite, got "):
            check_float(value, "c")


class TestCheckArray:
    @pytest.mark.parametrize("value", [[0.5, -2], [[1, 2], [3, 4]], [], [2 ** 63]])
    def test_json_number_arrays_accepted(self, value):
        out = check_array(value, "w")
        assert out.dtype.kind in "iuf" and out.tolist() == value

    @pytest.mark.parametrize("value, what", [
        (["0.25", 1.0], "strings"),
        ([True, False], "true/false values"),
        (None, "nulls or other non-numbers"),
        ([1.0, None], "nulls or other non-numbers"),
        ([1, 10 ** 400], "nulls or other non-numbers"),
    ], ids=["string", "all_bool", "null", "null_entry", "huge_int"])
    def test_non_numbers_rejected(self, value, what):
        # a float cast would read "0.25" as 0.25 and true as 1.0
        with pytest.raises(ValueError, match=rf"^w must hold numbers, got {what}$"):
            check_array(value, "w")

    def test_lone_bool_among_numbers_is_read_as_a_number(self):
        # the stated limit: numpy gives [1.0, true] a float dtype
        assert check_array([1.0, True], "w").tolist() == [1.0, 1.0]
