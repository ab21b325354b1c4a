"""Curve dataset files: CSV ingestion and emission.

Layout: the header row holds the grid abscissae; each subsequent row holds
one curve's values. Responses either ride along as a final column (the
header's last cell is then a label, conventionally "response") or live in a
companion file with one number per line. Floats are written with 17
significant digits so a written file reloads to the exact same sample.
"""

import csv
import itertools
from pathlib import Path

import numpy as np

from .curves import FunctionalSample, SamplingGrid
from .errors import (
    NonMonotoneGrid,
    ParseError,
    RaggedRows,
    ValidationError,
    require_integers,
)
from .simulation import check_seed

RESPONSE_LABEL = "response"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_cell(cell: str, row: int, col: int, path) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: cell at row {row}, column {col} is not numeric: {cell!r}"
        ) from None


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(filter(None, csv.reader(fh)))  # blank lines dropped
    if len(rows) < 2:
        raise ValidationError(f"{path}: need a header row and at least one curve")
    return rows


def _grid_from_header(cells: list[str], path) -> SamplingGrid:
    points = [_parse_cell(c, 1, j + 1, path) for j, c in enumerate(cells)]
    diffs = np.diff(points)
    if np.any(diffs <= 0):
        j = int(np.argmax(diffs <= 0))
        raise NonMonotoneGrid(
            f"{path}: header abscissae not strictly increasing at column {j + 2}"
        )
    return SamplingGrid(np.asarray(points))


def load_responses(path) -> np.ndarray:
    """Companion response file: one numeric response per line."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"response file not found: {path}")
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            values.append(_parse_cell(line, lineno, 1, path))
    if not values:
        raise ValidationError(f"{path}: response file is empty")
    return np.asarray(values)


def load_sample(path, response_path=None) -> FunctionalSample:
    """Load a curve dataset into a validated FunctionalSample.

    Args:
        path: CSV file as described in the module docstring.
        response_path: companion response file. Without it the final
            column holds the responses and the final header cell is a
            label; with it every header cell is a grid abscissa.

    Raises:
        ParseError: naming the offending cell.
        RaggedRows: when a row's length disagrees with the header.
        NonMonotoneGrid: when the header abscissae are not increasing.
    """
    rows = _read_rows(path)
    header = rows[0]
    width = len(header)
    if response_path is None:
        if width < 3:
            raise ValidationError(
                f"{path}: response_column layout needs >= 2 grid columns "
                "plus the response column"
            )
        grid = _grid_from_header(header[:-1], path)
    else:
        grid = _grid_from_header(header, path)

    body = rows[1:]
    for i, row in enumerate(body, start=2):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: row {i} has {len(row)} cells, expected {width}"
            )
    try:
        cells = np.fromiter(map(float, itertools.chain.from_iterable(body)),
                            float, count=len(body) * width)
    except ValueError:
        # name the first bad cell in row-major order
        for i, row in enumerate(body, start=2):
            for j, cell in enumerate(row, start=1):
                _parse_cell(cell, i, j, path)
        raise
    table = cells.reshape(len(body), width)
    if response_path is None:
        values, responses = table[:, :-1], table[:, -1]
    else:
        values = table
        responses = load_responses(response_path)
        if responses.size != values.shape[0]:
            raise ValidationError(
                f"{response_path}: {responses.size} responses for "
                f"{values.shape[0]} curves"
            )
    return FunctionalSample(grid, values, responses)


def save_sample(sample: FunctionalSample, path) -> None:
    """Write a sample in the CSV layout that load_sample reads, with the
    responses in the final column.

    Values are rendered with 17 significant digits, so load_sample(path)
    reproduces the in-memory sample exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([sample.values, sample.responses]).tolist()
    # "%.17g" % x formats exactly as format(x, ".17g"); one pattern per row
    row_format = ",".join(["%.17g"] * (len(sample.grid) + 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([_fmt(p) for p in sample.grid.points]
                          + [RESPONSE_LABEL]) + "\n")
        fh.writelines(row_format % tuple(row) for row in table)


def split_sample(sample: FunctionalSample, n_train: int, n_test: int,
                 seed: int) -> tuple[FunctionalSample, FunctionalSample]:
    """Seed-deterministic train/test split by permuting sample indices.

    Raises:
        ValidationError: on a seed ``check_seed`` rejects, or an impossible
            split.
    """
    seed = check_seed(seed)
    require_integers(n_train=n_train, n_test=n_test)
    n = len(sample)
    if n_train < 1 or n_test < 1 or n_train + n_test > n:
        raise ValidationError(
            f"split {n_train}:{n_test} impossible for a sample of size {n}"
        )
    order = np.random.default_rng(seed).permutation(n)
    take = lambda idx: FunctionalSample(
        sample.grid, sample.values[idx], sample.responses[idx]
    )
    return take(order[:n_train]), take(order[n_train:n_train + n_test])
