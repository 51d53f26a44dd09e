"""Dataset loading, neighbour pairs, weights, discretization, synthesis."""

import io
import math
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rainpatterns import (HIGH, LOW, ParseError, SyntheticSpec,
                          ValidationError, compute_spatial_weights,
                          discretize_by_mean, generate_synthetic,
                          load_dataset, save_dataset)
from rainpatterns import data as data_module
from rainpatterns.data import make_dataset

from conftest import neighbour_lists


# zero, the smallest subnormal, a mid subnormal and the top of the range
RAIN_EDGES = [0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
              np.finfo(float).max]


@st.composite
def records(draw):
    """(rain, grid_coords, year_of_day): a ragged grid, in drawn order, over
    one to four years of one to three days each."""
    coords = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=1, max_size=8, unique=True))
    runs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    years = sorted(draw(st.sets(st.integers(-50, 3000), min_size=len(runs),
                                max_size=len(runs))))
    year_of_day = np.repeat(years, runs)
    rain = draw(hnp.arrays(
        np.float64, (len(coords), year_of_day.size),
        elements=st.one_of(st.sampled_from(RAIN_EDGES),
                           st.floats(min_value=0.0, allow_nan=False,
                                     allow_infinity=False))))
    return rain, np.array(coords), year_of_day


def write_files(tmp_path, coords, rain, years):
    loc = tmp_path / "locations.csv"
    rn = tmp_path / "rainfall.csv"
    with open(loc, "w") as fh:
        fh.write("loc_id,grid_x,grid_y\n")
        for s, (x, y) in enumerate(coords):
            fh.write(f"{s},{x},{y}\n")
    with open(rn, "w") as fh:
        fh.write("loc_id,day_index,year,rain_mm\n")
        for s in range(len(coords)):
            for t in range(len(years)):
                fh.write(f"{s},{t},{years[t]},{rain[s][t]}\n")
    return loc, rn


class TestLoadDataset:
    def test_paper_scale_shape(self, tmp_path):
        # 357 locations x 976 days round-trips with the documented shape
        spec = SyntheticSpec(n_locations=357, n_days=976, n_day_patterns=3,
                             n_loc_groups=6, n_years=8, seed=0)
        data, _ = generate_synthetic(spec)
        loc, rn = tmp_path / "l.csv", tmp_path / "r.csv"
        save_dataset(data, loc, rn)
        loaded = load_dataset(loc, rn)
        assert loaded.n_locations == 357
        assert loaded.n_days == 976
        assert np.array_equal(loaded.rain, data.rain)
        assert np.array_equal(loaded.year_of_day, data.year_of_day)

    def test_single_cell(self, tmp_path):
        loc, rn = write_files(tmp_path, [(5, 9)], [[0.0]], [2000])
        d = load_dataset(loc, rn)
        assert d.n_locations == 1 and d.n_days == 1
        assert len(d.pairs[0]) == len(d.pairs[1]) == 0

    def test_malformed_row_reports_line(self, tmp_path):
        loc, rn = write_files(tmp_path, [(0, 0)], [[1.0, "oops"]], [0, 0])
        with pytest.raises(ParseError, match=r":3:"):
            load_dataset(loc, rn)

    def test_duplicate_coordinate_rejected(self, tmp_path):
        loc, rn = write_files(tmp_path, [(1, 1), (1, 1)],
                              [[1.0], [2.0]], [0])
        with pytest.raises(ValidationError):
            load_dataset(loc, rn)

    def test_negative_rainfall_rejected(self, tmp_path):
        loc, rn = write_files(tmp_path, [(0, 0)], [[-3.0]], [0])
        with pytest.raises(ValidationError, match="negative"):
            load_dataset(loc, rn)

    def test_missing_cell_rejected(self, tmp_path):
        loc = tmp_path / "l.csv"
        rn = tmp_path / "r.csv"
        loc.write_text("loc_id,grid_x,grid_y\n0,0,0\n1,1,0\n")
        rn.write_text("loc_id,day_index,year,rain_mm\n0,0,0,1.0\n")
        with pytest.raises(ValidationError, match="expected 2 cells"):
            load_dataset(loc, rn)

    def test_conflicting_year_rejected(self, tmp_path):
        loc = tmp_path / "l.csv"
        rn = tmp_path / "r.csv"
        loc.write_text("loc_id,grid_x,grid_y\n0,0,0\n1,1,0\n")
        rn.write_text("loc_id,day_index,year,rain_mm\n"
                      "0,0,0,1.0\n1,0,1,1.0\n")
        with pytest.raises(ValidationError, match="conflicting year"):
            load_dataset(loc, rn)

    # each case: locations body, rainfall body, error type, message; the
    # headers are prepended, and {loc}/{rain} stand for the two paths
    @pytest.mark.parametrize("locations,rainfall,error,message", [
        pytest.param("0,0,0\n", "0,0,0,1.0\n5,0,0,1.0\n", ValidationError,
                     "{rain}:3: unknown loc_id 5", id="unknown-loc"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,0,0,2.0\n", ValidationError,
                     "{rain}:3: duplicate cell (0, 0)", id="duplicate-cell"),
        pytest.param("0,0,0\n0,1,0\n", "0,0,0,1.0\n", ValidationError,
                     "{loc}:3: duplicate loc_id 0", id="duplicate-loc"),
        pytest.param("0,0,0\n2,1,0\n", "0,0,0,1.0\n", ValidationError,
                     "{loc}: loc_id must be dense from 0", id="sparse-loc"),
        pytest.param("0,0,a\n", "0,0,0,1.0\n", ParseError,
                     "{loc}:2: non-integer field", id="non-integer-coord"),
        pytest.param("", "0,0,0,1.0\n", ValidationError,
                     "{loc}: no locations", id="no-locations"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,2,0,1.0\n", ValidationError,
                     "{rain}: day_index must be dense from 0",
                     id="sparse-day"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,1,0\n", ParseError,
                     "{rain}:3: expected 4 fields", id="field-count"),
        pytest.param("0,0,0\n", "", ValidationError,
                     "{rain}: no rainfall rows", id="header-only"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n\n0,1,0,oops\n", ParseError,
                     "{rain}:4: malformed field", id="blank-line-counts"),
        # one row with two faults reports the check that runs first
        pytest.param("0,0,0\n", "5,0,0,oops\n", ParseError,
                     "{rain}:2: malformed field", id="parse-before-unknown"),
        pytest.param("0,0,0\n", "5,0,0,-1.0\n", ValidationError,
                     "{rain}:2: unknown loc_id 5",
                     id="unknown-before-negative"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,0,0,-1.0\n", ValidationError,
                     "{rain}:3: negative rainfall",
                     id="negative-before-duplicate"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,0,1,1.0\n", ValidationError,
                     "{rain}:3: duplicate cell (0, 0)",
                     id="duplicate-before-conflicting-year"),
        # faults on two lines: the earlier line wins, whatever its check
        pytest.param("0,0,0\n", "0,0,0,-1.0\n7,1,0,1.0\n", ValidationError,
                     "{rain}:2: negative rainfall",
                     id="negative-then-unknown"),
        pytest.param("0,0,0\n1,1,0\n", "0,0,0,1.0\n0,1,0,1.0\n1,1,1,1.0\n"
                     "0,2,0,oops\n", ValidationError,
                     "{rain}:4: conflicting year for day 1",
                     id="conflicting-year-then-malformed"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,0,0,1.0\n\n0,1\n",
                     ValidationError, "{rain}:3: duplicate cell (0, 0)",
                     id="duplicate-then-field-count"),
        pytest.param("0,0,0\n1,1,0\n1,2,0\n0,x,0\n", "0,0,0,1.0\n",
                     ValidationError, "{loc}:4: duplicate loc_id 1",
                     id="duplicate-loc-then-non-integer"),
        # a non-finite value was reported without its file and line
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,1,0,inf\n", ValidationError,
                     "{rain}:3: non-finite rain_mm", id="inf-rain"),
        pytest.param("0,0,0\n", "0,0,0,nan\n0,1,0,1.0\n", ValidationError,
                     "{rain}:2: non-finite rain_mm", id="nan-rain"),
        pytest.param("0,0,0\n", "0,0,0,-inf\n", ValidationError,
                     "{rain}:2: non-finite rain_mm",
                     id="non-finite-before-negative"),
        # a float's text in an integer field, which numpy's parser rejects
        pytest.param("0,1.0,0\n", "0,0,0,1.0\n", ParseError,
                     "{loc}:2: non-integer field", id="float-text-coord"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,1.0,0,1.0\n", ParseError,
                     "{rain}:3: malformed field", id="float-text-day"),
        # text that Python's int and float read but numpy's parser does
        # not: a quoted field, a digit separator and a non-ASCII digit
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,1_0,0,1.0\n", ParseError,
                     "{rain}:3: malformed field", id="separator-day"),
        pytest.param("0,0,0\n", '0,0,0,1.0\n0,"1",0,1.0\n', ParseError,
                     "{rain}:3: malformed field", id="quoted-day"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,1,0,1_0\n", ParseError,
                     "{rain}:3: malformed field", id="separator-rain"),
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,\u0661,0,1.0\n", ParseError,
                     "{rain}:3: malformed field", id="arabic-indic-day"),
        pytest.param("0,0,0\n1,1_0,0\n", "0,0,0,1.0\n", ParseError,
                     "{loc}:3: non-integer field", id="separator-coord"),
        # numpy skips an ASCII separator control around a field, as
        # whitespace, so the valid line 2 is not the one to blame
        pytest.param("0,0,0\n", "0,0,0,\x1c1.0\n0,1,0,x\n", ParseError,
                     "{rain}:3: malformed field", id="control-before-rain"),
        pytest.param("0,0,0\n", "0,0\x1c,0,1.0\n0,1,0,x\n", ParseError,
                     "{rain}:3: malformed field", id="control-after-day"),
        # a byte that is not UTF-8 (written for "\udcff") fails its field;
        # it raised UnicodeDecodeError
        pytest.param("0,0,0\n", "0,0,0,1.0\n0,1,0,2.\udcff5\n", ParseError,
                     "{rain}:3: malformed field", id="undecodable-rain"),
        pytest.param("0,0,\udcff\n", "0,0,0,1.0\n", ParseError,
                     "{loc}:2: non-integer field", id="undecodable-coord"),
        pytest.param("0,0,0\n", "0,0,0,-1.0\n0,1,0,\udcff\n",
                     ValidationError, "{rain}:2: negative rainfall",
                     id="negative-then-undecodable"),
    ])
    def test_error_names_first_faulty_line(self, tmp_path, locations,
                                           rainfall, error, message):
        loc = tmp_path / "l.csv"
        rn = tmp_path / "r.csv"
        loc.write_text("loc_id,grid_x,grid_y\n" + locations,
                       errors="surrogateescape")
        rn.write_text("loc_id,day_index,year,rain_mm\n" + rainfall,
                      errors="surrogateescape")
        with pytest.raises(error) as info:
            load_dataset(loc, rn)
        assert str(info.value) == message.format(loc=loc, rain=rn)

    # "\udcff" is written as a byte that is not UTF-8
    @pytest.mark.parametrize("header", ["loc_id,day,year,rain_mm\n", "\n",
                                        "loc_id,day_index,year,rain_\udcffmm\n"])
    def test_bad_header_rejected(self, tmp_path, header):
        loc, rn = write_files(tmp_path, [(0, 0)], [[1.0]], [0])
        rn.write_text(header + "0,0,0,1.0\n", errors="surrogateescape")
        with pytest.raises(ParseError, match=re.escape(
                f"{rn}:1: expected header loc_id,day_index,year,rain_mm")):
            load_dataset(loc, rn)

    def test_crlf_and_trailing_blank_lines_accepted(self, tmp_path):
        loc = tmp_path / "l.csv"
        rn = tmp_path / "r.csv"
        loc.write_bytes(b"loc_id,grid_x,grid_y\r\n1,4,0\r\n0,3,0\r\n\r\n")
        rn.write_bytes(b"loc_id,day_index,year,rain_mm\r\n0,1,7,2.5\r\n"
                       b"1,0,7,0\r\n1,1,7,1e-3\r\n\r\n0,0,7,4\r\n\r\n")
        d = load_dataset(loc, rn)
        assert d.grid_coords.tolist() == [[3, 0], [4, 0]]
        assert d.rain.tolist() == [[4.0, 2.5], [0.0, 1e-3]]
        assert d.year_of_day.tolist() == [7, 7]

    @given(records())
    @example((np.array([[5e-324, 2.2250738585072014e-308 / 3, 0.0, 1e300]]),
              np.array([[0, 0]]), np.array([0, 0, 1, 1])))
    @example((np.array([[0.0], [np.nextafter(0.0, 1.0)], [1e300]]),
              np.array([[0, 0], [2, 0], [1, 1]]), np.array([7])))
    @example((np.array([[1e308, np.finfo(float).max], [0.0, 5e-324]]),
              np.array([[3, -1], [-2, 4]]), np.array([1990, 2000])))
    @settings(max_examples=60, deadline=None)
    def test_save_load_round_trip_is_bit_identical(self, record):
        rain, coords, years = record
        data = make_dataset(rain, coords, years)
        with tempfile.TemporaryDirectory() as tmp:
            loc, rn = Path(tmp) / "l.csv", Path(tmp) / "r.csv"
            save_dataset(data, loc, rn)
            loaded = load_dataset(loc, rn)
            with no_parse():
                warm = load_dataset(loc, rn)
        assert loaded.rain.tobytes() == rain.tobytes()
        assert loaded.grid_coords.tobytes() == data.grid_coords.tobytes()
        assert loaded.year_of_day.tobytes() == data.year_of_day.tobytes()
        assert record_bytes(warm) == record_bytes(loaded)

    def test_noncontiguous_years_rejected(self):
        with pytest.raises(ValidationError, match="contiguous"):
            make_dataset(np.ones((1, 3)), np.array([[0, 0]]),
                         np.array([0, 1, 0]))


def no_parse():
    """Fail any load that parses the CSVs in place of reading the sidecar."""
    return mock.patch.object(data_module, "_parse_dataset",
                             side_effect=AssertionError("CSVs parsed"))


def record_bytes(d):
    """Every array of a dataset, as (dtype, shape, bytes)."""
    return [(a.dtype, a.shape, a.tobytes()) for a in
            (d.rain, d.grid_coords, d.year_of_day, *d.pairs)]


def outcome(loc, rn):
    """What a load returns, as arrays, or what it raises, as type and text."""
    try:
        return record_bytes(load_dataset(loc, rn))
    except (ValidationError, OSError) as exc:
        return type(exc), str(exc)


def sidecar_of(rn):
    return Path(f"{rn}.npz")


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


class TestSidecar:
    """``load_dataset``'s binary copy of a parsed record, keyed by the bytes
    of both CSVs: read when they are unchanged, otherwise rewritten."""

    RAIN = [[1.5, 0.0, 2.25], [0.5, 3.0, 1e-3], [7.0, 0.0, 0.125]]

    @pytest.fixture()
    def files(self, tmp_path):
        return write_files(tmp_path, [(0, 0), (1, 0), (0, 1)], self.RAIN,
                           [1990, 1990, 1991])

    def test_second_load_reads_the_sidecar(self, files):
        loc, rn = files
        cold = load_dataset(loc, rn)
        assert sidecar_of(rn).is_file()
        with no_parse():
            warm = load_dataset(loc, rn)
        assert record_bytes(warm) == record_bytes(cold)
        assert not warm.rain.flags.writeable

    @pytest.mark.parametrize("which,edit", [
        pytest.param(1, lambda t: t.replace("3.0", "4.0"), id="value"),
        pytest.param(1, lambda t: t.replace("1990", "1991", 1),
                     id="conflicting-year"),
        pytest.param(1, lambda t: t.replace("3.0", "-3.0"), id="negative"),
        pytest.param(1, lambda t: t.replace("3.0", "x.0"), id="malformed"),
        pytest.param(1, lambda t: t.rsplit("\n", 2)[0] + "\n",
                     id="dropped-row"),
        pytest.param(1, lambda t: "", id="emptied"),
        pytest.param(0, lambda t: t.replace("1,1,0", "1,2,0"), id="moved-loc"),
        pytest.param(0, lambda t: t.replace("1,1,0", "0,1,0"),
                     id="duplicate-loc"),
    ])
    def test_edited_csv_is_parsed_again(self, files, which, edit):
        loc, rn = files
        load_dataset(loc, rn)
        path = files[which]
        path.write_text(edit(path.read_text()))
        got = outcome(loc, rn)
        sidecar_of(rn).unlink(missing_ok=True)
        assert got == outcome(loc, rn)

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o644])
    def test_sidecar_has_the_csvs_permissions(self, files, mode):
        loc, rn = files
        rn.chmod(mode)
        load_dataset(loc, rn)
        assert sidecar_of(rn).stat().st_mode & 0o777 == mode

    def test_failed_load_writes_no_sidecar(self, files):
        loc, rn = files
        rn.write_text(rn.read_text().replace("3.0", "x"))
        with pytest.raises(ParseError):
            load_dataset(loc, rn)
        assert not sidecar_of(rn).exists()

    @staticmethod
    def resave(rain=None, key=None, **arrays):
        """A damage that saves the sidecar's arrays again with some of them
        replaced; ``rain`` maps the stored rain to the new one."""
        def damage(path):
            with np.load(path) as npz:
                old = {name: npz[name] for name in npz.files}
            if rain is not None:
                old["rain"] = rain(old["rain"])
            old.update(arrays)
            if key is not None:
                old["key"] = np.array(key)
            with open(path, "wb") as fh:
                np.savez(fh, **old)
        return damage

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda p: p.write_bytes(p.read_bytes()[:len(
            p.read_bytes()) // 2]), id="truncated"),
        pytest.param(lambda p: p.write_bytes(b""), id="empty"),
        pytest.param(lambda p: p.write_bytes(bytes(range(256)) * 8),
                     id="garbage"),
        pytest.param(lambda p: p.write_bytes(npy_bytes(np.zeros(3))),
                     id="plain-npy"),
        pytest.param(resave(rain=lambda r: r + 1.0, key="another key"),
                     id="another-key"),
        pytest.param(resave(rain=lambda r: np.where(r > 2.0, np.nan, r)),
                     id="nan"),
        pytest.param(resave(rain=lambda r: r.T[:, :2]), id="wrong-shape"),
        pytest.param(resave(rain=lambda r: r.astype(np.float32)),
                     id="wrong-dtype"),
        pytest.param(resave(year_of_day=np.array([1990, 1991, 1990])),
                     id="split-year"),
        pytest.param(resave(rain=lambda r: r, grid_coords=np.zeros(
            (3, 2), dtype=np.int64)), id="repeated-coords"),
        # arrays that make_dataset rejects
        pytest.param(resave(rain=lambda r: r.ravel()), id="one-dimensional"),
        pytest.param(resave(rain=lambda r: r[:0]), id="no-locations"),
        pytest.param(resave(grid_coords=np.zeros((3, 3), dtype=np.int64)),
                     id="coords-shape"),
        pytest.param(resave(rain=lambda r: -r - 1.0), id="negative"),
        pytest.param(lambda p: p.unlink(), id="deleted"),
    ])
    def test_damaged_sidecar_is_ignored_and_rewritten(self, files, damage):
        loc, rn = files
        cold = load_dataset(loc, rn)
        damage(sidecar_of(rn))
        assert record_bytes(load_dataset(loc, rn)) == record_bytes(cold)
        with no_parse():
            assert record_bytes(load_dataset(loc, rn)) == record_bytes(cold)

    def test_sidecar_that_cannot_be_written_is_skipped(self, files):
        loc, rn = files
        cold = load_dataset(loc, rn)
        sidecar_of(rn).unlink()
        sidecar_of(rn).mkdir()
        before = sorted(p.name for p in rn.parent.iterdir())
        for _ in range(2):
            assert record_bytes(load_dataset(loc, rn)) == record_bytes(cold)
        assert sorted(p.name for p in rn.parent.iterdir()) == before
        assert not any(sidecar_of(rn).iterdir())

    def test_sidecar_without_a_temporary_file_is_skipped(self, files):
        loc, rn = files
        cold = load_dataset(loc, rn)
        sidecar_of(rn).unlink()
        before = sorted(p.name for p in rn.parent.iterdir())
        no_temp = mock.patch.object(data_module.tempfile, "mkstemp",
                                    side_effect=PermissionError("read-only"))
        parse = mock.patch.object(data_module, "_parse_dataset",
                                  wraps=data_module._parse_dataset)
        with no_temp as mkstemp, parse as parsed:
            for _ in range(2):
                assert record_bytes(load_dataset(loc, rn)) \
                    == record_bytes(cold)
        # each load parsed and tried to write, and left nothing behind
        assert parsed.call_count == mkstemp.call_count == 2
        assert sorted(p.name for p in rn.parent.iterdir()) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: t, id="valid"),
        # a fault's line was counted by opening the pipe again, which hung
        pytest.param(lambda t: t.replace("3.0", "x"), id="parse-fault"),
        pytest.param(lambda t: t.replace("3.0", "-3.0"), id="check-fault")])
    def test_pipe_is_read_once(self, files, tmp_path, edit):
        loc, rn = files
        rn.write_text(edit(rn.read_text()))
        pipe = tmp_path / "pipe.csv"
        # the regular file's outcome, with the pipe's name in an error
        want = outcome(loc, rn)
        if isinstance(want, tuple):
            want = (want[0], want[1].replace(str(rn), str(pipe)))
        os.mkfifo(pipe)
        threading.Thread(target=pipe.write_bytes, args=(rn.read_bytes(),),
                         daemon=True).start()
        got = []
        loader = threading.Thread(target=lambda: got.append(outcome(loc, pipe)),
                                  daemon=True)
        loader.start()
        loader.join(timeout=60)
        assert not loader.is_alive(), "the pipe was read twice"
        assert got == [want]
        assert not sidecar_of(pipe).exists()

    def test_csv_changed_during_a_load_leaves_no_stale_sidecar(self, files):
        # the rainfall CSV changes after it was hashed and before it is
        # parsed; filing the new values under the old bytes' key would hand
        # them out once the old bytes are back
        loc, rn = files
        original = rn.read_text()
        load_locations = data_module._load_locations

        def edit_then_load(path):
            rn.write_text(original.replace("3.0", "4.25"))
            return load_locations(path)

        sidecar_of(rn).unlink(missing_ok=True)
        with mock.patch.object(data_module, "_load_locations",
                               edit_then_load):
            assert load_dataset(loc, rn).rain[1, 1] == 4.25
        rn.write_text(original)
        assert load_dataset(loc, rn).rain[1, 1] == 3.0


# lines that numpy's parser may reject in a two-field (integer, float)
# table: field counts, text, quotes, separators, controls, line separators
# that are not line ends, and a byte that is not UTF-8 (written for "\udcff")
ODD_LINES = ["1", "1,2,3", "x,1.0", "1.5,2", "1,\udcff", "\udcff", " ", "\x1c",
             '"1",2', "1_0,2", "1,2\x00", ",", "1,", "1,1e999", " 1 , 2 ",
             "1,nan", "+1,-0", "1,2\x0b", "1,\u2028", "1,2\x85"]


@st.composite
def tables(draw):
    """(lines, ends): rows, blank lines and zero to two odd lines of a table
    with the header "a,b", and the end of the header and of each line: LF,
    CRLF, CR or a mix of LF and CRLF, and none after the last line at
    times."""
    row = st.builds("{},{!r}".format, st.integers(-9, 99),
                    st.integers(-1, 20).map(lambda v: v / 4))
    lines = draw(st.lists(st.one_of(row, st.just("")), max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(ODD_LINES)))
    kinds = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n"]]))
    ends = draw(st.lists(st.sampled_from(kinds), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    if draw(st.booleans()):
        ends[-1] = ""
    return lines, ends


class TestTableSearch:
    """``_read_table`` finds the line it blames with numpy's parser alone:
    compared here with numpy's parse of each line on its own."""

    KINDS = [np.int64, float]
    DTYPE = np.dtype([("a", np.int64), ("b", float)])

    @staticmethod
    def checks(t):
        return [(t["b"] < 0, lambda i: "negative b")]

    @classmethod
    def first_fault(cls, lines):
        """The rows before the first faulty line, in file order, and that
        line's (error type, "line: message"), or None: a line numpy
        rejects on its own, or a row the check flags."""
        rows = [np.empty(0, cls.DTYPE)]
        for lineno, line in enumerate(lines, start=2):
            text = line.encode("utf-8", "surrogateescape").decode(
                "utf-8", "replace")
            if text == "":
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    row = np.loadtxt([text], delimiter=",", dtype=cls.DTYPE,
                                     comments=None, ndmin=1)
            except (ValueError, DeprecationWarning):
                fault = ("expected 2 fields" if text.count(",") != 1
                         else "malformed field")
                return rows, (ParseError, f"{lineno}: {fault}")
            if row["b"][0] < 0:
                return rows, (ValidationError, f"{lineno}: negative b")
            rows.append(row)
        return rows, None

    @given(tables())
    # blank lines before a check fault; CR-only line ends with blank lines:
    # a valid table, a parse fault, and a check fault before a parse fault
    @example((["", "1,2.0", "", "2,-0.25", "3,1.0"], ["\n"] * 6))
    @example((["", "1,2.0", "", "3,0.5"], ["\r"] * 5))
    @example((["1,2.0", "", "", "1,x", "2,1.0"], ["\r"] * 5 + [""]))
    @example((["1,2.0", "", "2,-0.25", "x"], ["\r"] * 5))
    @settings(max_examples=200, deadline=None)
    def test_error_names_the_first_line_numpy_rejects(self, table):
        lines, ends = table
        rows, want = self.first_fault(lines)
        raw = "".join(map(str.__add__, ["a,b", *lines], ends))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(raw.encode("utf-8", "surrogateescape"))
            if want is None:
                got = data_module._read_table(path, ["a", "b"], self.KINDS,
                                              self.checks)
                assert got.dtype == self.DTYPE
                assert got.tobytes() == np.concatenate(rows).tobytes()
            else:
                with pytest.raises(ValidationError) as info:
                    data_module._read_table(path, ["a", "b"], self.KINDS,
                                            self.checks)
                assert (info.type, str(info.value)) \
                    == (want[0], f"{path}:{want[1]}")


def lattice(coords):
    """A one-day dataset on the lattice cells ``coords``."""
    return make_dataset(np.zeros((len(coords), 1)), np.array(coords),
                        np.zeros(1, dtype=int))


class TestNeighborhoods:
    """``data.pairs`` against the eight lattice offsets on a 3 × 3 grid,
    and on Hypothesis lattices two locked ``intp`` arrays sorted by src,
    then dst, with every pair's mirror present."""

    def test_three_by_three_lattice(self):
        # oracle: enumerate the eight offsets, clip at the boundary
        coords = [(x, y) for y in range(3) for x in range(3)]
        nbs = neighbour_lists(lattice(coords))
        index = {c: i for i, c in enumerate(coords)}
        for s, (x, y) in enumerate(coords):
            expect = sorted(index[(x + a, y + b)]
                            for a in (-1, 0, 1) for b in (-1, 0, 1)
                            if (a, b) != (0, 0) and (x + a, y + b) in index)
            assert list(nbs[s]) == expect
        center = index[(1, 1)]
        assert len(nbs[center]) == 8
        for corner in [(0, 0), (2, 0), (0, 2), (2, 2)]:
            assert len(nbs[index[corner]]) == 3

    @given(st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                   min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_property(self, coord_set):
        d = lattice(sorted(coord_set))
        src, dst = d.pairs
        # locked intp arrays, sorted by src, then dst, each pair once
        assert src.dtype == dst.dtype == np.intp
        assert not (src.flags.writeable or dst.flags.writeable)
        assert (np.diff(src * len(coord_set) + dst) > 0).all()
        nbs = neighbour_lists(d)
        for s, nb in enumerate(nbs):
            assert s not in nb
            assert len(nb) <= 8
            for s2 in nb:
                assert s in nbs[s2]


def pair_weights(d, w):
    """Every directed neighbour pair's weight, keyed (s, s2)."""
    src, dst = d.pairs
    return dict(zip(zip(src.tolist(), dst.tolist()), w.tolist()))


class TestSpatialWeights:
    def make(self, series):
        # horizontal strip of adjacent locations
        series = np.asarray(series, dtype=float)
        coords = np.array([[i, 0] for i in range(series.shape[0])])
        years = np.zeros(series.shape[1], dtype=int)
        return make_dataset(series, coords, years)

    def test_identical_series(self):
        d = self.make([[1, 2, 3], [1, 2, 3]])
        w = neighbour_lists(d, compute_spatial_weights(d))
        assert w[0][0] == pytest.approx(1.0)

    def test_anticorrelated_series(self):
        d = self.make([[1, 2, 3], [5, 4, 3]])
        w = neighbour_lists(d, compute_spatial_weights(d))
        assert w[0][0] == pytest.approx(-1.0)

    def test_hand_case(self):
        # oracle: Pearson formula evaluated by hand on (1,2,3) vs (2,2,4)
        x = np.array([1.0, 2, 3])
        y = np.array([2.0, 2, 4])
        xc, yc = x - x.mean(), y - y.mean()
        expect = (xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc))
        assert expect == pytest.approx(math.sqrt(3) / 2)
        d = self.make([x, y])
        w = neighbour_lists(d, compute_spatial_weights(d))
        assert w[0][0] == pytest.approx(expect)
        assert w[0][0] == pytest.approx(0.866, abs=1e-3)

    def test_zero_variance_gets_zero(self):
        d = self.make([[2, 2, 2], [1, 5, 3]])
        w = neighbour_lists(d, compute_spatial_weights(d))
        assert w[0][0] == 0.0
        assert w[1][0] == 0.0

    def test_symmetric_and_bounded(self, small_synth):
        data, _ = small_synth
        pair = pair_weights(data, compute_spatial_weights(data))
        for (s, s2), g in pair.items():
            assert -1.0 <= g <= 1.0
            assert g == pytest.approx(pair[s2, s])

    def test_mirror_pairs_weigh_alike_on_ragged_lattice(self):
        # rows of unequal width and a hole: up to 8 neighbours per location
        coords = np.array([(x, y) for y, width in enumerate([6, 3, 5, 1, 6])
                           for x in range(width) if (x, y) != (4, 4)])
        rain = np.random.default_rng(3).gamma(1.5, 2.0, (len(coords), 12))
        d = make_dataset(rain, coords, np.zeros(12, dtype=int))
        w = compute_spatial_weights(d)
        assert w.shape == d.pairs[0].shape and not w.flags.writeable
        assert max(map(len, neighbour_lists(d))) == 8
        pair = pair_weights(d, w)
        assert len(pair) == len(w)
        for (i, j), v in pair.items():
            assert v == pair[j, i]

    def test_needs_two_days(self):
        d = self.make([[1.0], [2.0]])
        with pytest.raises(ValidationError):
            compute_spatial_weights(d)

    @staticmethod
    def per_direction_weights(d):
        """The reference: one correlation per directed pair, clipped by
        numpy, each direction computed on its own."""
        centered = d.rain - d.rain.mean(axis=1, keepdims=True)
        norms = np.sqrt((centered * centered).sum(axis=1))
        values = []
        for s, nb in enumerate(neighbour_lists(d)):
            row = np.zeros(len(nb))
            for k, s2 in enumerate(nb):
                denom = norms[s] * norms[s2]
                if denom > 0:
                    row[k] = float(np.clip(centered[s] @ centered[s2] / denom,
                                           -1.0, 1.0))
            values.append(row)
        return values

    @pytest.mark.parametrize("S,T,seed", [(25, 96, 5), (31, 97, 3),
                                          (64, 123, 8)])
    def test_bitwise_equal_to_the_per_direction_loop(self, S, T, seed):
        # the weights reuse one correlation for both directions of a pair;
        # one location has zero variance and one a scale near the range's top
        data, _ = generate_synthetic(SyntheticSpec(
            n_locations=S, n_days=T, n_day_patterns=3, n_loc_groups=4,
            n_years=1, seed=seed))
        rain = data.rain.copy()
        rain[S // 2] = 1.5
        rain[1] *= 1e150
        d = make_dataset(rain, data.grid_coords, data.year_of_day)
        got = neighbour_lists(d, compute_spatial_weights(d))
        want = self.per_direction_weights(d)
        assert [v.dtype for v in got] == [v.dtype for v in want]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
        assert not got[S // 2].any()


class TestDiscretize:
    def make(self, series):
        series = np.asarray(series, dtype=float)
        coords = np.array([[i, 0] for i in range(series.shape[0])])
        return make_dataset(series, coords,
                            np.zeros(series.shape[1], dtype=int))

    def test_constant_zero_is_all_low(self):
        z = discretize_by_mean(self.make([[0, 0, 0]]))
        assert (z == LOW).all()

    def test_two_day_threshold(self):
        z = discretize_by_mean(self.make([[0, 10]]))
        assert list(z[0]) == [LOW, HIGH]

    def test_tie_resolves_low(self):
        # mean of (4, 4, 10) is 6; the 4s sit below, 10 above
        z = discretize_by_mean(self.make([[4, 4, 10]]))
        assert list(z[0]) == [LOW, LOW, HIGH]

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2,
                    max_size=20))
    # the mean rounds up to the maximum
    @example([100.0, 99.99999999999999])
    @settings(max_examples=60, deadline=None)
    def test_nonconstant_row_has_a_high(self, vals):
        arr = np.array(vals)
        if np.ptp(arr) == 0:
            return
        z = discretize_by_mean(self.make([arr]))
        assert (z[0] == HIGH).any()


class TestSynthetic:
    def test_zero_noise_single_pattern(self):
        spec = SyntheticSpec(n_locations=16, n_days=30, n_day_patterns=1,
                             n_loc_groups=3, n_years=3, flip_noise=0.0, seed=1)
        data, truth = generate_synthetic(spec)
        assert (truth.day_labels == 1).all()
        # every day's state vector equals the single planted pattern
        assert (truth.states == truth.states[:, :1]).all()

    def test_seed_determinism(self):
        spec = SyntheticSpec(n_locations=20, n_days=50, n_day_patterns=3,
                             n_loc_groups=4, n_years=5, seed=9)
        d1, t1 = generate_synthetic(spec)
        d2, t2 = generate_synthetic(spec)
        assert np.array_equal(d1.rain, d2.rain)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.day_labels, t2.day_labels)
        assert np.array_equal(t1.loc_labels, t2.loc_labels)

    def test_flip_rate_near_nominal(self):
        # oracle: count disagreements between states and the planted pattern
        spec = SyntheticSpec(n_locations=64, n_days=300, n_day_patterns=3,
                             n_loc_groups=6, n_years=6, flip_noise=0.1, seed=4)
        data, truth = generate_synthetic(spec)
        clean_spec = SyntheticSpec(**{**spec.__dict__, "flip_noise": 0.0})
        _, clean = generate_synthetic(clean_spec)
        rate = (truth.states != clean.states).mean()
        assert abs(rate - 0.1) <= 0.02

    def test_labels_dense(self):
        spec = SyntheticSpec(n_locations=30, n_days=60, n_day_patterns=4,
                             n_loc_groups=5, n_years=4, seed=2)
        _, truth = generate_synthetic(spec)
        assert sorted(np.unique(truth.day_labels)) == [1, 2, 3, 4]
        assert sorted(np.unique(truth.loc_labels)) == [1, 2, 3, 4, 5]

    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(flip_noise=0.5).validate()
        with pytest.raises(ValidationError):
            SyntheticSpec(n_day_patterns=0).validate()
        with pytest.raises(ValidationError):
            SyntheticSpec(n_loc_groups=100, n_locations=10).validate()
