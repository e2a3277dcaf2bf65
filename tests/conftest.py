from __future__ import annotations

import csv
import importlib.util
from pathlib import Path

import pytest

from confbetti import (
    parse_ring,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_surface,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
RINGGEN = Path(__file__).parents[1] / "perfbench" / "ringgen.py"


def seeded_ring(space: str, seed: int):
    """A ring from the benchmark's generator: the space's classes permuted and re-signed."""
    spec = importlib.util.spec_from_file_location("ringgen", RINGGEN)
    ringgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ringgen)
    return parse_ring(ringgen.ring_document(space, seed))


@pytest.fixture(scope="session")
def cp1():
    return ring_cp(1)


@pytest.fixture(scope="session")
def cp2():
    return ring_cp(2)


@pytest.fixture(scope="session")
def cp3():
    return ring_cp(3)


@pytest.fixture(scope="session")
def sigma1():
    return ring_surface(1)


@pytest.fixture(scope="session")
def sigma2():
    return ring_surface(2)


@pytest.fixture(scope="session")
def cp1xcp1():
    return ring_product(ring_cp(1), ring_cp(1))


@pytest.fixture(scope="session")
def pbundle():
    return ring_projective_bundle_cp2()


def load_golden(name: str) -> dict[tuple[int, int], int]:
    """Golden CSV -> {(n, i): betti}; blank cells are absent."""
    values: dict[tuple[int, int], int] = {}
    with open(GOLDEN_DIR / f"{name}.csv") as fh:
        for row in csv.DictReader(fh):
            n = int(row["n"])
            for key, cell in row.items():
                if key.startswith("b_") and cell not in (None, ""):
                    values[(n, int(key[2:]))] = int(cell)
    return values
