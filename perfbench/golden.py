"""Reference Betti tables and the correctness gate of the benchmark.

References come from `tests/golden/<space>.csv`, the engine-independent
tables the test suite uses. A space with no table there may have one under
`perfbench/reference/`. Every non-blank reference cell inside the requested
grid is compared with the table the CLI printed; a missing or different
value is one wrong Betti number.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIRS = (ROOT / "tests" / "golden", Path(__file__).resolve().parent / "reference")

Table = dict[tuple[int, int], int]  # (n, i) -> b_i(Conf^n)


def parse_table(text: str) -> Table:
    """A CSV Betti table (header n,b_0,b_1,...) -> {(n, i): value}; blanks are absent."""
    table: Table = {}
    for row in csv.DictReader(io.StringIO(text)):
        n = int(row["n"])
        for key, cell in row.items():
            if key.startswith("b_") and cell not in (None, ""):
                table[(n, int(key[2:]))] = int(cell)
    return table


def reference_path(space: str) -> Path:
    for directory in REFERENCE_DIRS:
        path = directory / f"{space}.csv"
        if path.is_file():
            return path
    raise FileNotFoundError(f"no reference table for space {space!r}")


def load_reference(space: str) -> Table:
    return parse_table(reference_path(space).read_text())


def reference_cells(reference: Table, n_max: int, i_max: int) -> list[tuple[int, int]]:
    """Reference cells inside the grid n in 1..n_max, i in 0..i_max."""
    return sorted((n, i) for n, i in reference if n <= n_max and i <= i_max)


def compare(table: Table, reference: Table, n_max: int, i_max: int) -> tuple[int, list]:
    """(cells checked, [(n, i, got, want), ...] for each wrong Betti number)."""
    cells = reference_cells(reference, n_max, i_max)
    wrong = [
        (n, i, table.get((n, i)), reference[(n, i)])
        for n, i in cells
        if table.get((n, i)) != reference[(n, i)]
    ]
    return len(cells), wrong
