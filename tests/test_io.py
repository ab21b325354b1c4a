"""Tests for dataset ingestion, emission, and splitting."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def reference_load_sample(path):
    """The per-cell response_column loader that the one-pass parse replaced."""
    rows = _read_rows(path)
    header = rows[0]
    grid = _grid_from_header(header[:-1], path)
    width = len(header)
    values = np.empty((len(rows) - 1, len(grid)))
    responses = np.empty(len(rows) - 1)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {i} has {len(row)} cells, expected {width}")
        parsed = [_parse_cell(c, i, j + 1, path) for j, c in enumerate(row)]
        values[i - 2] = parsed[:-1]
        responses[i - 2] = parsed[-1]
    return FunctionalSample(grid, values, responses)


def outcome(load, path):
    """The loaded (values, responses), or the exception type and text."""
    try:
        sample = load(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    return sample.values.tolist(), sample.responses.tolist()


#: Cell spellings: plain and exotic numbers float() accepts, quoted cells
#: (some holding the delimiter), surrounding whitespace, non-finite values
#: and cells float() rejects.
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        " 1.5", "2.5 ", "\t-3e2 ", "1_000", "+.5", "-0", "1E-310", "0x10",
        '"7.25"', '" 8 "', '"1,5"', "nan", "inf", "-Infinity", "",
        "oops", "1..2", "--1",
    ]),
)


class TestOnePassParse:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 5), st.data())
    def test_matches_the_per_cell_parser(self, tmp_path_factory, n, p, data):
        rows = [",".join(str(j) for j in range(p)) + ",response"]
        for _ in range(n):
            rows.append(",".join(data.draw(st.lists(CELLS, min_size=p + 1,
                                                    max_size=p + 1))))
            if data.draw(st.booleans()):
                rows.append("")  # blank lines are skipped
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        assert outcome(load_sample, path) == outcome(reference_load_sample, path)

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
