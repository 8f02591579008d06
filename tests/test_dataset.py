import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elmloc.dataset import (
    ColumnSchema,
    Manifest,
    ParseError,
    RadioMap,
    SchemaError,
    UnknownDatasetError,
    check_array,
    check_float,
    load_csv,
    load_manifest,
    registry_lookup,
    registry_names,
    split_validation,
)


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
        with pytest.raises(ValueError):
            RadioMap(rss=np.zeros(4), floor=np.array([0]))

    def test_float_labels_must_be_integral(self):
        with pytest.raises(ValueError):
            RadioMap(rss=np.zeros((1, 2)), floor=np.array([1.5]))
        # exact integral floats are fine
        m = RadioMap(rss=np.zeros((1, 2)), floor=np.array([2.0]))
        assert m.floor.dtype == np.int64

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

    def test_label_pairs_without_building(self):
        m = _map(buildings=False)
        pairs = m.label_pairs()
        assert pairs.shape == (6, 2)
        assert (pairs[:, 0] == 0).all()
        assert (pairs[:, 1] == m.floor).all()

    def test_take_preserves_alignment(self):
        m = _map()
        sub = m.take(np.array([4, 1]))
        assert sub.n_samples == 2
        assert (sub.rss == m.rss[[4, 1]]).all()
        assert (sub.floor == m.floor[[4, 1]]).all()
        assert (sub.building == m.building[[4, 1]]).all()


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
        assert d.db_type == "MB-MF"

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
        s = ColumnSchema(ap_start=0, ap_end=3, floor_col=4, building_col=5,
                         coord_cols=(6, 7))
        assert s.max_col() == 7

    def test_overlapping_label_column_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema(ap_start=0, ap_end=3, floor_col=2)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema(ap_start=3, ap_end=0, floor_col=4)


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

    # an int() or float() cast would load each of these as some column or number
    @pytest.mark.parametrize("edit, message", [
        ({"ap_columns": [0.9, 99]}, r"ap_columns must hold 64-bit integers, got 0\.9"),
        ({"ap_columns": [0, "99"]}, r"ap_columns must hold 64-bit integers, got '99'"),
        ({"floor_col": 100.9}, r"floor_col must hold 64-bit integers, got 100\.9"),
        ({"building_col": True}, r"building_col must hold 64-bit integers, got True"),
        ({"coord_columns": [102, 103.5]},
         r"coord_columns must hold 64-bit integers, got 103\.5"),
        ({"sentinel": True}, r"sentinel must hold a float, got True"),
        ({"sentinel": "100"}, r"sentinel must hold a float, got '100'"),
    ], ids=["ap_fraction", "ap_string", "floor_fraction", "building_bool",
            "coord_fraction", "sentinel_bool", "sentinel_string"])
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

    def test_coords_extracted(self, tmp_path):
        schema = ColumnSchema(ap_start=0, ap_end=1, floor_col=2, coord_cols=(3, 4))
        p = _write(tmp_path, "a,b,f,x,y\n-30,-40,1,12.5,-3.25\n")
        m = load_csv(p, schema, sentinel_raw=100.0)
        assert m.coords.tolist() == [[12.5, -3.25]]


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
                        f"{path}:{i + 2}: non-numeric cell {cell!r} in column {j}"
                    ) from None
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"{path}:{int(bad[0]) + 2}: non-finite value in column {int(bad[1])}")
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
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
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
        ]
        for text in cases:
            p = _write(tmp_path, text)
            assert _outcome(load_csv, p, SCHEMA) == _outcome(reference_load_csv, p, SCHEMA), text


class TestSplitValidation:
    def test_sizes_single_group(self):
        m = RadioMap(rss=-np.ones((100, 3)), floor=np.zeros(100, dtype=int))
        tr, val = split_validation(m, 0.1, seed=0)
        assert (tr.n_samples, val.n_samples) == (90, 10)

    def test_per_group_allocation(self):
        floor = np.repeat([0, 1], 50)
        m = RadioMap(rss=-np.ones((100, 3)), floor=floor)
        tr, val = split_validation(m, 0.1, seed=0)
        assert val.n_samples == 10
        assert (np.bincount(val.floor) == [5, 5]).all()

    def test_ceil_rounding(self):
        # 0.1 of 11 -> ceil(1.1) = 2 held out
        m = RadioMap(rss=-np.ones((11, 3)), floor=np.zeros(11, dtype=int))
        _, val = split_validation(m, 0.1, seed=0)
        assert val.n_samples == 2

    def test_disjoint_and_exhaustive(self, syn_small):
        train, _ = syn_small
        tr, val = split_validation(train, 0.2, seed=5)
        assert tr.n_samples + val.n_samples == train.n_samples
        joined = np.vstack([tr.rss, val.rss])
        assert sorted(map(tuple, joined)) == sorted(map(tuple, train.rss))

    def test_deterministic_in_seed(self, syn_small):
        train, _ = syn_small
        a = split_validation(train, 0.1, seed=9)
        b = split_validation(train, 0.1, seed=9)
        assert (a[1].rss == b[1].rss).all()
        c = split_validation(train, 0.1, seed=10)
        assert not (a[1].rss == c[1].rss).all()

    def test_tiny_group_stays_in_training(self):
        floor = np.array([0] * 50 + [1])
        m = RadioMap(rss=-np.ones((51, 3)), floor=floor)
        with pytest.warns(UserWarning, match="kept in training"):
            tr, val = split_validation(m, 0.1, seed=0)
        assert 1 in tr.floor
        assert 1 not in val.floor

    def test_bad_fraction(self):
        m = RadioMap(rss=-np.ones((10, 3)), floor=np.zeros(10, dtype=int))
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split_validation(m, frac, seed=0)


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
