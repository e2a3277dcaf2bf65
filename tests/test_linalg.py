from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rank

from confbetti import RationalMatrix, rank_profile_exact
from confbetti.linalg import rank_profile_modular, row_reduce


def _matrix(rows, cols, entries):
    return RationalMatrix(rows, cols, {k: Fraction(v) for k, v in entries.items()})


def _transposed(m):
    return RationalMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()})


def test_rank_identity():
    m = _matrix(5, 5, {(i, i): 1 for i in range(5)})
    assert rank(m) == 5
    assert rank_profile_exact(m).prefix_ranks == [0, 1, 2, 3, 4, 5]


def test_rank_zero_matrix():
    m = _matrix(4, 3, {})
    assert rank(m) == 0
    assert rank_profile_exact(m).prefix_ranks == [0, 0, 0, 0]


def test_rank_with_fractions():
    m = _matrix(2, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
                       (1, 0): Fraction(3, 2), (1, 1): 2})
    assert rank(m) == 2  # det = 1/2
    singular = _matrix(2, 2, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
                              (1, 0): Fraction(3, 2), (1, 1): 1})
    assert rank(singular) == 1  # second row = 3 * first row


def test_rank_dependent_rows():
    m = _matrix(3, 3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 1})
    assert rank(m) == 2


def test_transpose_preserves_rank():
    rng = random.Random(11)
    for _ in range(10):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = {
            (r, c): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for r in range(rows)
            for c in range(cols)
            if rng.random() < 0.4
        }
        entries = {k: v for k, v in entries.items() if v}
        m = RationalMatrix(rows, cols, entries)
        assert rank(m) == rank(_transposed(m))


def test_row_and_column_scaling_invariance():
    rng = random.Random(5)
    entries = {
        (r, c): Fraction(rng.randint(-5, 5))
        for r in range(6)
        for c in range(6)
        if rng.random() < 0.5
    }
    entries = {k: v for k, v in entries.items() if v}
    m = RationalMatrix(6, 6, entries)
    scaled = RationalMatrix(
        6,
        6,
        {
            (r, c): v * Fraction(r + 1, 2) * Fraction(1, c + 1)
            for (r, c), v in entries.items()
        },
    )
    assert rank(m) == rank(scaled)


def test_permutation_invariance():
    rng = random.Random(13)
    entries = {
        (r, c): Fraction(rng.randint(-3, 3))
        for r in range(5)
        for c in range(7)
        if rng.random() < 0.5
    }
    entries = {k: v for k, v in entries.items() if v}
    m = RationalMatrix(5, 7, entries)
    rperm = list(range(5))
    cperm = list(range(7))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    permuted = RationalMatrix(
        5, 7, {(rperm[r], cperm[c]): v for (r, c), v in entries.items()}
    )
    assert rank(m) == rank(permuted)


def test_modular_matches_exact_on_random_products():
    rng = random.Random(23)
    for _ in range(8):
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        entries = {
            (r, c): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for r in range(rows)
            for c in range(cols)
            if rng.random() < 0.6
        }
        entries = {k: v for k, v in entries.items() if v}
        m = RationalMatrix(rows, cols, entries)
        assert rank_profile_modular(m, 1000003).rank == rank(m)


def test_modular_profile_vanishes_where_an_update_is_a_multiple_of_the_prime():
    # det = 2*5 - 3*1 = 7: the update of row 1 leaves 7 in column 1, zero modulo 7
    m = _matrix(2, 2, {(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, 1): 5})
    assert rank_profile_modular(m, 7).prefix_ranks == [0, 1, 1]
    assert rank_profile_modular(m, 11).prefix_ranks == [0, 1, 2]
    assert rank_profile_exact(m).prefix_ranks == [0, 1, 2]
    scaled = _matrix(2, 2, {(0, 0): Fraction(2, 3), (0, 1): 3, (1, 0): Fraction(1, 3), (1, 1): 5})
    assert rank_profile_modular(scaled, 7).prefix_ranks == [0, 1, 1]


def test_rank_profile_prefix_consistency():
    rng = random.Random(31)
    entries = {
        (r, c): Fraction(rng.randint(-6, 6))
        for r in range(8)
        for c in range(10)
        if rng.random() < 0.5
    }
    entries = {k: v for k, v in entries.items() if v}
    m = RationalMatrix(8, 10, entries)
    profile = rank_profile_exact(m)
    assert profile.prefix_ranks[0] == 0
    assert profile.prefix_ranks[-1] == profile.rank
    for k in range(1, 11):
        assert profile.prefix_ranks[k] == rank(m.column_prefix(k))
        assert 0 <= profile.prefix_ranks[k] - profile.prefix_ranks[k - 1] <= 1


@st.composite
def shuffled_sparse(draw):
    """Sparse rows sharing columns, in shuffled order: elimination fills in, and the
    lightest holder of a column is often not its lowest row."""
    rows, cols = draw(st.integers(2, 9)), draw(st.integers(1, 9))
    entries = {}
    for r in range(rows):
        for c in draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=4)):
            value = draw(st.integers(-4, 4).filter(bool))
            entries[(r, c)] = Fraction(value, draw(st.integers(1, 3)))
    order = draw(st.permutations(range(rows)))
    return RationalMatrix(rows, cols, {(order[r], c): v for (r, c), v in entries.items()})


@settings(max_examples=150, deadline=None)
@given(shuffled_sparse())
def test_modular_profile_is_every_prefix_rank(m):
    profile = rank_profile_modular(m, 1000003)
    assert len(profile.prefix_ranks) == m.cols + 1
    for k in range(m.cols + 1):
        assert profile.prefix_ranks[k] == rank(m.column_prefix(k))
        capped = rank_profile_modular(m, 1000003, col_cap=k)
        assert capped.prefix_ranks == profile.prefix_ranks[: k + 1]


def test_matmul_and_rank_of_composition():
    a = _matrix(3, 2, {(0, 0): 1, (1, 1): 2, (2, 0): 3})
    b = _matrix(2, 4, {(0, 0): 1, (0, 3): -1, (1, 1): Fraction(1, 2)})
    ab = a.matmul(b)
    assert (ab.rows, ab.cols) == (3, 4)
    assert ab.entries[(0, 0)] == 1
    assert ab.entries[(1, 1)] == 1
    assert ab.entries[(2, 3)] == -3
    assert rank(ab) <= min(rank(a), rank(b))


def test_column_prefix():
    m = _matrix(3, 4, {(0, 0): 1, (1, 2): 5, (2, 3): 7})
    prefix = m.column_prefix(3)
    assert prefix.cols == 3
    assert (2, 3) not in prefix.entries
    block = m.column_prefix(3, rows=2)
    assert (block.rows, block.cols) == (2, 3)
    assert block.entries == prefix.entries
    with pytest.raises(ValueError):
        m.column_prefix(3, rows=1)  # row 1 still holds the entry in column 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_rank_bounds_hypothesis(rows, cols, data):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if data.draw(st.booleans()):
                v = data.draw(st.integers(-5, 5))
                if v:
                    entries[(r, c)] = Fraction(v)
    m = RationalMatrix(rows, cols, entries)
    value = rank(m)
    assert 0 <= value <= min(rows, cols)
    assert value == rank(_transposed(m))


def test_sympy_rank_agreement():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(6):
        rows, cols = rng.randint(2, 8), rng.randint(2, 8)
        entries = {
            (r, c): Fraction(rng.randint(-7, 7), rng.randint(1, 3))
            for r in range(rows)
            for c in range(cols)
            if rng.random() < 0.55
        }
        entries = {k: v for k, v in entries.items() if v}
        m = RationalMatrix(rows, cols, entries)
        dense = sympy.zeros(rows, cols)
        for (r, c), v in entries.items():
            dense[r, c] = sympy.Rational(v.numerator, v.denominator)
        assert rank(m) == dense.rank()


@st.composite
def int_or_fraction_sparse(draw):
    """Sparse matrices of plain ints or of Fractions, some with entries past 2**64."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    fractions = draw(st.booleans())
    values = st.integers(-4, 4) | st.sampled_from([2**70 + 1, -(3**45)])
    entries = {}
    for r in range(rows):
        for c in draw(st.sets(st.integers(0, cols - 1), max_size=4)):
            value = draw(values.filter(bool))
            if fractions:
                value = Fraction(value, draw(st.integers(1, 4)))
            entries[(r, c)] = value
    return RationalMatrix(rows, cols, entries)


def _sympy_prefix_ranks(sympy, m):
    dense = sympy.zeros(m.rows, m.cols)
    for (r, c), v in m.entries.items():
        v = Fraction(v)
        dense[r, c] = sympy.Rational(v.numerator, v.denominator)
    return [dense[:, :k].rank() for k in range(m.cols + 1)]


@settings(max_examples=120, deadline=None)
@given(st.one_of(int_or_fraction_sparse(), shuffled_sparse()))
def test_exact_profile_is_every_prefix_rank_over_q(m):
    sympy = pytest.importorskip("sympy")
    expected = _sympy_prefix_ranks(sympy, m)
    assert rank_profile_exact(m).prefix_ranks == expected
    assert rank(m) == expected[-1]


@st.composite
def unit_and_other_pivots(draw):
    """Sparse int rows mixing entries 1 and -1 with non-units: some columns pivot on a
    unit, and others scale the rows they update, which later unit pivots then meet."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(1, 8))
    values = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -6])
    entries = {}
    for r in range(rows):
        for c in draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=4)):
            entries[(r, c)] = draw(values)
    return RationalMatrix(rows, cols, entries)


@settings(max_examples=150, deadline=None)
@given(unit_and_other_pivots())
def test_unit_and_other_pivots_give_every_prefix_rank_over_q(m):
    sympy = pytest.importorskip("sympy")
    assert rank_profile_exact(m).prefix_ranks == _sympy_prefix_ranks(sympy, m)


def test_exact_profile_finds_the_rank_both_primes_miss():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    p1, p2 = 1000003, 999983
    planted = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1 + p1 * p2}  # determinant p1 * p2
    dense = DomainMatrix.from_Matrix(sympy.Matrix([[1, 1], [1, 1 + p1 * p2]]))
    assert [dense.convert_to(sympy.GF(p)).rank() for p in (p1, p2)] == [1, 1]
    for scale in (1, Fraction(1, 7)):
        m = RationalMatrix(2, 2, {key: v * scale for key, v in planted.items()})
        assert rank_profile_exact(m).prefix_ranks == [0, 1, 2] == _sympy_prefix_ranks(sympy, m)
        for p in (p1, p2):
            assert rank_profile_modular(m, p).prefix_ranks == [0, 1, 1]


@st.composite
def deficient_rows(draw):
    """Small dense integer rows, with a zero row and a sum of two rows mixed in."""
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    rows.append([0] * width)
    a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    rows.append([x + y for x, y in zip(rows[a], rows[b])])
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(deficient_rows())
def test_row_reduce_is_sympy_rref(rows):
    sympy = pytest.importorskip("sympy")
    rref, pivots = sympy.Matrix(rows).rref()
    solved = row_reduce(rows)
    assert tuple(c for c, _ in solved) == pivots
    for k, (c, row) in enumerate(solved):
        assert all(isinstance(x, int) for x in row)
        assert [Fraction(x, row[c]) for x in row] == [
            Fraction(int(v.p), int(v.q)) for v in rref.row(k)
        ]


def test_row_reduce_of_no_rows_and_zero_rows():
    assert row_reduce([]) == []
    assert row_reduce([[0, 0], [0, 0]]) == []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_clearing_the_codomains_pivot_rows_keeps_every_prefix_rank(data):
    # a random integer complex C2 -d-> C1 -d'-> C0 with d'd = 0: the columns of
    # d are integer combinations of a nullspace basis of d'
    middle = data.draw(st.integers(1, 7), label="dim C1")
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    outer = [
        data.draw(st.lists(entry, min_size=middle, max_size=middle), label="row of d'")
        for _ in range(data.draw(st.integers(0, 5), label="dim C0"))
    ]
    solved = row_reduce(outer)
    pivot_columns = {c for c, _ in solved}
    nullspace = []
    for free in range(middle):
        if free in pivot_columns:
            continue
        vector = [Fraction(0)] * middle
        vector[free] = Fraction(1)
        for c, row in solved:
            vector[c] = -Fraction(row[free], row[c])
        scale = math.lcm(*(v.denominator for v in vector))
        nullspace.append([int(v * scale) for v in vector])
    columns = []
    for _ in range(data.draw(st.integers(1, 6), label="dim C2")):
        coefficients = [data.draw(st.integers(-3, 3), label="coefficient") for _ in nullspace]
        columns.append([sum(a * v[k] for a, v in zip(coefficients, nullspace)) for k in range(middle)])
    d = RationalMatrix(middle, len(columns), {
        (k, j): Fraction(v) for j, column in enumerate(columns) for k, v in enumerate(column) if v
    })
    d_outer = RationalMatrix(len(outer), middle, {
        (r, k): Fraction(v) for r, row in enumerate(outer) for k, v in enumerate(row) if v
    })
    assert d_outer.matmul(d).entries == {}
    prefix = rank_profile_exact(d_outer).prefix_ranks
    pivots = {k for k in range(middle) if prefix[k + 1] > prefix[k]}
    cleared = RationalMatrix(middle, d.cols, {
        (k, j): v for (k, j), v in d.entries.items() if k not in pivots
    })
    assert rank_profile_exact(cleared).prefix_ranks == rank_profile_exact(d).prefix_ranks
