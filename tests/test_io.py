"""Tests for dataset ingestion, emission, and splitting."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import funkreg.io
from funkreg import (
    NonMonotoneGrid,
    ParseError,
    RaggedRows,
    SimulationConfig,
    ValidationError,
    generate_functional_sample,
    load_sample,
    save_sample,
    split_sample,
)
from funkreg.curves import FunctionalSample, SamplingGrid
from funkreg.io import _fmt, _grid_from_header, _parse_cell, _read_rows


def write(path, text):
    path.write_text(text)
    return path


class TestLoadSample:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "0,1,2,3,response\n"
                     "1,2,3,4,10\n"
                     "5,6,7,8,20\n"
                     "0,0,0,0,30\n")
        sample = load_sample(path)
        assert len(sample) == 3
        assert len(sample.grid) == 4
        np.testing.assert_array_equal(sample.responses, [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(sample.curves[1].values, [5.0, 6.0, 7.0, 8.0])

    def test_parse_error_names_the_cell(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "0,1,2,response\n"
                     "1,2,3,10\n"
                     "1,oops,3,20\n")
        with pytest.raises(ParseError, match="row 3, column 2"):
            load_sample(path)

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "0,1,2,response\n"
                     "1,2,3,10\n"
                     "1,2,10\n")
        with pytest.raises(RaggedRows, match="row 3"):
            load_sample(path)

    def test_non_monotone_grid(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "0,2,1,response\n"
                     "1,2,3,10\n")
        with pytest.raises(NonMonotoneGrid):
            load_sample(path)

    def test_response_file_mode(self, tmp_path):
        data = write(tmp_path / "d.csv",
                     "0,0.5,1\n"
                     "1,2,3\n"
                     "4,5,6\n")
        resp = write(tmp_path / "r.txt", "10\n20\n")
        sample = load_sample(data, response_path=resp)
        assert len(sample) == 2
        np.testing.assert_array_equal(sample.responses, [10.0, 20.0])

    def test_response_count_mismatch(self, tmp_path):
        data = write(tmp_path / "d.csv", "0,1\n1,2\n3,4\n")
        resp = write(tmp_path / "r.txt", "10\n")
        with pytest.raises(ValidationError):
            load_sample(data, response_path=resp)

    def test_spectral_shape(self, tmp_path):
        # the 215-curve, 100-channel layout of a spectrometric file
        rng = np.random.default_rng(0)
        grid = np.linspace(850.0, 1050.0, 100)
        header = ",".join(str(g) for g in grid) + ",response"
        rows = [
            ",".join(str(v) for v in rng.normal(size=100)) + f",{rng.random()}"
            for _ in range(215)
        ]
        path = write(tmp_path / "spectra.csv", header + "\n" + "\n".join(rows) + "\n")
        sample = load_sample(path)
        assert len(sample) == 215
        assert len(sample.grid) == 100

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_sample(tmp_path / "absent.csv")


class TestRoundTrip:
    def test_save_load_is_exact(self, tmp_path):
        config = SimulationConfig(n_train=7, n_test=3, grid_size=21, seed=9)
        train, _ = generate_functional_sample(config)
        path = tmp_path / "train.csv"
        save_sample(train, path)
        loaded = load_sample(path)
        np.testing.assert_array_equal(loaded.responses, train.responses)
        np.testing.assert_array_equal(loaded.values_matrix(), train.values_matrix())
        np.testing.assert_array_equal(loaded.grid.points, train.grid.points)


class TestSplitSample:
    def test_deterministic_and_disjoint(self):
        config = SimulationConfig(n_train=30, n_test=1, seed=2)
        sample, _ = generate_functional_sample(config)
        a_train, a_test = split_sample(sample, 20, 10, seed=5)
        b_train, b_test = split_sample(sample, 20, 10, seed=5)
        np.testing.assert_array_equal(a_train.responses, b_train.responses)
        np.testing.assert_array_equal(a_test.responses, b_test.responses)
        combined = sorted(
            list(a_train.responses) + list(a_test.responses)
        )
        assert combined == sorted(sample.responses)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_an_invalid_seed(self, seed):
        sample, _ = generate_functional_sample(SimulationConfig(n_train=10, n_test=1))
        with pytest.raises(ValidationError, match="seed"):
            split_sample(sample, 5, 5, seed=seed)

    def test_rejects_oversized_split(self):
        config = SimulationConfig(n_train=10, n_test=1, seed=2)
        sample, _ = generate_functional_sample(config)
        with pytest.raises(ValidationError):
            split_sample(sample, 8, 5, seed=0)


def reference_load_sample(path, response_path=None):
    """The per-cell loader that the one-pass parse replaced: every row's
    width is checked first, then each cell goes through float() alone."""
    rows = _read_rows(path)
    header = rows[0]
    width = len(header)
    grid = _grid_from_header(header if response_path else header[:-1], path)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {i} has {len(row)} cells, expected {width}")
    table = np.array([[_parse_cell(c, i, j + 1, path) for j, c in enumerate(row)]
                      for i, row in enumerate(rows[1:], start=2)])
    if response_path is None:
        return FunctionalSample(grid, table[:, :-1], table[:, -1])
    with open(response_path) as fh:
        responses = [_parse_cell(line.strip(), lineno, 1, response_path)
                     for lineno, line in enumerate(fh, start=1) if line.strip()]
    if not responses:
        raise ValidationError(f"{response_path}: response file is empty")
    if len(responses) != len(table):
        raise ValidationError(
            f"{response_path}: {len(responses)} responses for {len(table)} curves"
        )
    return FunctionalSample(grid, table, responses)


def outcome(load, *paths):
    """The loaded values and responses, bit for bit, or the exception type
    and text."""
    try:
        sample = load(*paths)
    except ValidationError as exc:
        return type(exc), str(exc)
    return (sample.values.shape, sample.values.tobytes(),
            sample.responses.tobytes())


#: Cell spellings float() accepts, written as a writer would.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)

#: Exotic numbers float() accepts, quoted cells (some holding the
#: delimiter, a line end or a doubled quote), surrounding whitespace of
#: every kind, non-finite values and cells float() rejects.
ODD_CELLS = st.sampled_from([
    " 1.5", "2.5 ", "\t-3e2 ", "1_000", "+.5", "-0", "1E-310", "0x10",
    '"7.25"', '" 8 "', '"1,5"', "nan", "inf", "-Infinity", "",
    "oops", "1..2", "--1",
    '"2.5\n"', '"1\r\n2"', '"3,"', '"1""5"', ' "1.5"', '"4"5', '"6" ',
    "#", "#1", "1\x0b", "\x0c2", "1\x0b2", "\x1c1", "1\x1f", "\x1e",
    "\u0661\u0662", "\xa01", "1\u3000", "\u20283", "1\x85",
])

CELLS = st.one_of(NUMBERS, ODD_CELLS)

#: Lines of a response file: numbers, blank and whitespace-only lines, and
#: lines that are not one number.
RESPONSE_LINES = st.one_of(NUMBERS, st.sampled_from([
    "", "  ", "\t", "\x0c", " 2 ", "1_0", "\u0661", "\x1c1", "1\x1c",
    "\xa03", "1 2", "1,2", '"1"', "#1", "nan", "oops",
]))


@st.composite
def dataset_files(draw):
    """(CSV text, response-file text or None): blank lines before the
    header, blank or whitespace-only lines between rows, \\n, \\r\\n or
    lone \\r line ends, one curve or none (a header-only file), and the
    responses in the final column or in a companion file."""
    n, p = draw(st.integers(0, 4)), draw(st.integers(2, 5))
    response_file = draw(st.booleans())
    header = ",".join(str(j) for j in range(p))
    if not response_file:
        header += ",response"
    width = p if response_file else p + 1
    lines = [""] * draw(st.integers(0, 2)) + [header]
    for _ in range(n):
        cells = CELLS if draw(st.booleans()) else NUMBERS
        lines.append(",".join(draw(st.lists(cells, min_size=width,
                                            max_size=width))))
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", "\x0c"]),
                               max_size=1))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + end
    if not response_file:
        return text, None
    count = draw(st.sampled_from([n, n, n + 1]))
    kind = RESPONSE_LINES if draw(st.booleans()) else NUMBERS
    values = draw(st.lists(kind, min_size=count, max_size=count))
    return text, draw(st.sampled_from(["\n", "\r\n", "\r"])).join(values)


class TestOnePassParse:
    # no input may make the numpy path warn: its warnings are not filtered
    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(max_examples=400, deadline=None)
    @given(dataset_files())
    def test_matches_the_per_cell_parser(self, tmp_path_factory, files):
        text, responses = files
        out = tmp_path_factory.mktemp("csv")
        paths = [out / "d.csv"]
        paths[0].write_text(text, newline="")
        if responses is not None:
            paths.append(out / "r.txt")
            paths[1].write_text(responses, newline="")
        assert outcome(load_sample, *paths) == outcome(reference_load_sample, *paths)

    def test_bad_cell_text_is_unchanged(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "0,1,2,response\n"
                     "1,2,3,10\n"
                     '1," 2",x3,20\n'
                     "1,2,bad,30\n")
        expected = outcome(reference_load_sample, path)
        assert expected[0] is ParseError
        assert outcome(load_sample, path) == expected
        assert "row 3, column 3" in expected[1] and "'x3'" in expected[1]

    def test_ragged_rows_are_found_before_cells_are_parsed(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "0,1,2,response\n"
                     "1,oops,3,10\n"
                     "1,2,10\n")
        with pytest.raises(RaggedRows, match="row 3 has 3 cells, expected 4"):
            load_sample(path)


class TestNumpyPath:
    """A written file is read by numpy's parser alone, into one table."""

    @pytest.fixture
    def no_fallback(self, monkeypatch):
        def fail(path):
            raise AssertionError(f"the float() parser read {path}")

        monkeypatch.setattr(funkreg.io, "_read_rows", fail)

    def test_saved_file_takes_the_numpy_path(self, tmp_path, no_fallback):
        config = SimulationConfig(n_train=40, n_test=1, grid_size=21, seed=4)
        train, _ = generate_functional_sample(config)
        save_sample(train, tmp_path / "train.csv")
        loaded = load_sample(tmp_path / "train.csv")
        assert loaded.values.tobytes() == train.values.tobytes()
        assert loaded.responses.tobytes() == train.responses.tobytes()
        assert loaded.grid.points.tobytes() == train.grid.points.tobytes()

    def test_peak_memory_is_about_one_table(self, tmp_path):
        config = SimulationConfig(n_train=2000, n_test=1, grid_size=101, seed=1)
        train, _ = generate_functional_sample(config)
        save_sample(train, tmp_path / "train.csv")
        table_bytes = 2000 * 102 * 8
        tracemalloc.start()
        try:
            loaded = load_sample(tmp_path / "train.csv")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sample is one table's bytes and is copied from the parsed
        # table, so the peak is at least twice the table; what the parse
        # holds beyond the returned sample stays under two tables (csv's
        # lists of strings held about eleven)
        assert loaded.values.nbytes + loaded.responses.nbytes == table_bytes
        assert peak - kept < 2 * table_bytes


def reference_save_sample(sample, path):
    """The per-cell writer that the per-row format replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([_fmt(p) for p in sample.grid.points] + ["response"])
        for row, resp in zip(sample.values, sample.responses):
            writer.writerow([_fmt(v) for v in row] + [_fmt(resp)])


#: Finite floats with the awkward cases named: signed zeros, subnormals,
#: extreme exponents and integral values.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300,
                     -1e300, 1e-300, -1e-300, 3.0, -1e16, 2.0**53 + 1.0]),
    st.integers(-2**53, 2**53).map(float),
)


class TestRowFormat:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 6), st.data())
    def test_bytes_match_the_per_cell_writer(self, tmp_path_factory, n, p, data):
        grid = SamplingGrid(np.cumsum(data.draw(st.lists(
            st.floats(0.25, 1e3), min_size=p, max_size=p))))
        values = np.array(data.draw(st.lists(FINITE, min_size=n * p,
                                             max_size=n * p))).reshape(n, p)
        responses = data.draw(st.lists(FINITE, min_size=n, max_size=n))
        sample = FunctionalSample(grid, values, responses)
        out = tmp_path_factory.mktemp("csv")
        save_sample(sample, out / "rows.csv")
        reference_save_sample(sample, out / "cells.csv")
        assert (out / "rows.csv").read_bytes() == (out / "cells.csv").read_bytes()

    @given(st.one_of(FINITE, st.sampled_from([math.inf, -math.inf, math.nan])))
    def test_printf_format_is_format_17g(self, x):
        # a sample holds only finite values; the writer's format must still
        # agree with format(x, ".17g") on every double
        assert "%.17g" % x == format(x, ".17g") == _fmt(x)
