from __future__ import annotations

import concurrent.futures
import csv
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import confbetti.engine as engine_module
from confbetti import (
    GradedRing,
    Monomial,
    RingElement,
    RingError,
    algebra_element,
    dual_basis,
    element,
    parse_ring,
    rank_profile_exact,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_surface,
)
from confbetti.basis import _odd_flat

GOLDEN_DIR = Path(__file__).parent / "golden"
RINGGEN = Path(__file__).parents[1] / "perfbench" / "ringgen.py"


# -- references: ring, monomial and matrix arithmetic the program itself does not need --


def basis_element(ring: GradedRing, i: int) -> RingElement:
    return RingElement(ring, ((i, Fraction(1)),))


def multiply(ring: GradedRing, u: RingElement, v: RingElement) -> RingElement:
    """Bilinear extension of the structure constants."""
    if u.ring != ring or v.ring != ring:
        raise RingError("elements are not over the given ring")
    out: dict[int, Fraction] = {}
    for a, ca in u.coeffs:
        row = ring.products[a]
        for b, cb in v.coeffs:
            scale = ca * cb
            for k, c in row[b]:
                out[k] = out.get(k, Fraction(0)) + scale * c
    return element(ring, out)


def monomial_length(mon: Monomial) -> int:
    """Length-1 generators count once, length-2 generators twice."""
    return sum(mon.r) + 2 * sum(mon.s)


def multiply_monomials(ring: GradedRing, a: Monomial, b: Monomial) -> tuple[int, Monomial | None]:
    """Product in the free graded-commutative algebra: (sign, monomial) or (0, None)."""
    e1 = a.r + a.s
    e2 = b.r + b.s
    odd = _odd_flat(ring)
    crossings = 0
    passed = 0  # odd factors of `a` seen so far, scanning from the top position down
    for pos in range(len(odd) - 1, -1, -1):
        if not odd[pos]:
            continue
        if e1[pos] and e2[pos]:
            return 0, None
        if e2[pos]:
            crossings += passed
        if e1[pos]:
            passed += 1
    merged = tuple(x + y for x, y in zip(e1, e2))
    m = ring.top_generator_count
    return (1 if crossings % 2 == 0 else -1), Monomial(merged[:m], merged[m:])


def rank(m) -> int:
    """Exact rank of m over Q."""
    return rank_profile_exact(m).rank


def seeded_ring(space: str, seed: int):
    """A ring from the benchmark's generator: the space's classes permuted and re-signed."""
    spec = importlib.util.spec_from_file_location("ringgen", RINGGEN)
    ringgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ringgen)
    return parse_ring(ringgen.ring_document(space, seed))


def _capped_vectors(degrees, caps, weight, count, exact_weight, exact_count):
    """Exponent vectors with degree-weighted sum and entry count bounded, or hit exactly.

    A plain depth-first search: a branch stops once its positions cannot
    reach an exact target.
    """
    size = len(degrees)
    cap_left = [sum(caps[pos:]) for pos in range(size + 1)]
    deg_left = [max(degrees[pos:], default=0) for pos in range(size + 1)]
    found = []
    prefix = []

    def descend(pos, weight_left, count_left):
        if exact_count and count_left > cap_left[pos]:
            return
        if exact_weight and weight_left > min(count_left, cap_left[pos]) * deg_left[pos]:
            return
        if pos == size:
            found.append(tuple(prefix))
            return
        top = min(caps[pos], count_left)
        if degrees[pos] > 0:
            top = min(top, weight_left // degrees[pos])
        for e in range(top + 1):
            prefix.append(e)
            descend(pos + 1, weight_left - e * degrees[pos], count_left - e)
            prefix.pop()

    if weight >= 0 and count >= 0:
        descend(0, weight, count)
    return found


def _reference_basis(ring, p, q, n, reduced):
    """A cell by a capped search per cell, then the graded-lex sort.

    Every s-vector of q entries and weight at most p, completed by every
    r-vector of the remaining weight and at most n - 2q entries; each
    exponent is capped at p + 1 unless its generator is odd. It uses nothing
    from confbetti but `Monomial` and the ring's accessors, so it checks the
    one join of parts, `differential.packed_pieces`, from outside.
    """
    m, top = ring.top_generator_count, ring.orientation_index
    big = p + 1
    r_degs = [ring.degree(i) for i in range(1, m + 1)]
    r_caps = [1 if ring.is_odd(i) or (reduced and i == top) else big for i in range(1, m + 1)]
    s_degs = [ring.degree(j) for j in range(m + 1)]
    s_caps = [0 if reduced and j == top else 1 if not ring.is_odd(j) else big for j in range(m + 1)]
    if n - 2 * q < 0:
        return ()
    found = []
    for s_vec in _capped_vectors(s_degs, s_caps, p, q, False, True):
        s_weight = sum(e * d for e, d in zip(s_vec, s_degs))
        for r_vec in _capped_vectors(r_degs, r_caps, p - s_weight, n - 2 * q, True, False):
            found.append(Monomial(r_vec, s_vec))
    found.sort(key=lambda mon: (sum(mon.r) + sum(mon.s), mon.r + mon.s))
    return tuple(found)


def reference_d_generator(ring, j):
    """The image of the length-2 generator of y_j, built through ring and monomial products.

    For every class y_i: (-1)^|y_i| times the length-1 expansion of y_j * y_i
    times that of the Poincaré dual of y_i, each pair multiplied in the free
    graded-commutative algebra, so the Koszul sign comes from
    `multiply_monomials`. `differential.d_generator` reads the same sum off
    the product table.
    """
    m = ring.top_generator_count

    def length_one(a):
        r = [0] * m
        if a:
            r[a - 1] = 1
        return Monomial(tuple(r), (0,) * (m + 1))

    duals = dual_basis(ring)
    out = {}
    for i in range(ring.size):
        sign = -1 if ring.is_odd(i) else 1
        product = multiply(ring, basis_element(ring, j), basis_element(ring, i))
        for a, ca in product.items():
            for b, cb in duals[i].items():
                koszul, mon = multiply_monomials(ring, length_one(a), length_one(b))
                if koszul:
                    out[mon] = out.get(mon, Fraction(0)) + sign * koszul * ca * cb
    return algebra_element(out)


class InlineExecutor:
    """Runs every job in this process, as one worker that takes them in pool order."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.fixture
def inline_pool(monkeypatch):
    """A `workers > 1` table runs its pool jobs in this process, where a test sees their calls."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(engine_module, "_POOL_ENGINE", None, raising=False)


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
