"""Release gate for the configuration-space Betti-number engine.

Every test in this module is one release criterion.  All comparisons are
exact integer equality -- the pipeline is exact arithmetic end to end, so
there are no tolerances anywhere.  Each criterion also carries a wall-clock
budget and prints a single PASS/FAIL line (with its elapsed time) straight
to the terminal, bypassing pytest's capture.

The large whole-table comparisons that are not part of the gate live at the
bottom behind the ``extended`` marker (``pytest -m extended``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from conftest import load_golden, rank

import confbetti.engine as engine_module
from confbetti.differential import assemble_matrix, enumerate_basis
from confbetti.engine import betti_table, engine_for, stable_betti
from confbetti.linalg import rank_profile_exact
from confbetti.oracles import (
    check_d_squared,
    check_euler,
    check_reduction_equivalence,
    check_theorems,
)
from confbetti.spaces import REGISTRY, resolve_space

# The spaces the oracle suites run on: small enough to verify quickly, yet
# covering spheres, surfaces, products, and the two rings with equal Betti
# bases but different multiplication.
ORACLE_SPACES = (
    "cp1",
    "cp2",
    "cp3",
    "sigma1",
    "sigma2",
    "cp1xcp1",
    "pbundle_cp2",
)

@contextmanager
def criterion(capsys, num: str, label: str, budget_s: float):
    """Time a criterion body and print one PASS/FAIL line to the terminal."""
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - t0
        ok = (not failed) and elapsed < budget_s
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(
                f"{status} criterion {num:>3}: {label} "
                f"[{elapsed:.1f}s of {budget_s:.0f}s allowed]"
            )
    assert elapsed < budget_s, (
        f"criterion {num} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"
    )


# ----------------------------------------------------------------------
# Closed forms used as expectations.
# ----------------------------------------------------------------------


def _cp1_expected(i: int, n: int) -> int:
    if i == 0:
        return 1
    if i == 2 and n == 1:
        return 1
    if i == 3 and n >= 3:
        return 1
    return 0


def _cp2_expected(i: int, n: int) -> int:
    if i in (0, 2, 4):
        return 1
    if i in (7, 9) and n >= 3:
        return 1
    if i == 11 and n >= 4:
        return 1
    return 0


def _sigma1_expected(i: int, n: int) -> int:
    if i == 0:
        return 1
    if i == 1:
        return 2
    if n >= i + 1 and i >= 2:
        return 2 * i - 1
    if n == i and i >= 2 and i % 2 == 0:
        return (3 * i - 4) // 2
    if n == i and i >= 3 and i % 2 == 1:
        return (3 * i - 1) // 2
    if n == i - 1 and i >= 2 and i % 2 == 0:
        # At i = 2 this is the one-point configuration space, i.e. the
        # torus itself, and the even-case value i/2 = 1 is exactly b_2.
        return i // 2
    if n == i - 1 and i >= 3 and i % 2 == 1:
        return (i - 3) // 2
    return 0


# ----------------------------------------------------------------------
# Criteria 1-2: complex projective line and plane against closed forms.
# ----------------------------------------------------------------------


def test_criterion_01_cp1_closed_form(capsys):
    with criterion(capsys, "1", "CP^1 full grid n<=10, i<=4 vs closed form", 1.0):
        table = betti_table(resolve_space("cp1"), 1, 10, 4)
        for n in range(1, 11):
            for i in range(5):
                assert table.betti(n, i) == _cp1_expected(i, n), (n, i)


def test_criterion_02_cp2_closed_form(capsys):
    with criterion(capsys, "2", "CP^2 full grid n<=10, i<=12 vs closed form", 5.0):
        table = betti_table(resolve_space("cp2"), 1, 10, 12)
        for n in range(1, 11):
            for i in range(13):
                assert table.betti(n, i) == _cp2_expected(i, n), (n, i)
        # Onsets: the odd-degree classes appear exactly at three and four
        # points, not earlier.
        assert table.betti(3, 7) == 1 and table.betti(2, 7) == 0
        assert table.betti(3, 9) == 1 and table.betti(2, 9) == 0
        assert table.betti(4, 11) == 1 and table.betti(3, 11) == 0


# ----------------------------------------------------------------------
# Criterion 3: CP^3 -- whole published grid plus its stable structure.
# ----------------------------------------------------------------------


def test_criterion_03_cp3_full_grid(capsys):
    with criterion(
        capsys, "3", "CP^3 grid n<=21, i<=50 vs reference table + stable tail", 300.0
    ):
        table = betti_table(resolve_space("cp3"), 1, 21, 50)
        golden = load_golden("cp3")
        cells = 0
        for (n, i), expected in golden.items():
            if n <= 21 and i <= 50:
                assert table.betti(n, i) == expected, (n, i, expected)
                cells += 1
        assert cells >= 1000
        # Stable range: two independent classes in every degree 23..50 once
        # n reaches ceil(i/2).
        for i in range(23, 51):
            for n in range((i + 1) // 2, 22):
                assert table.betti(n, i) == 2, (n, i)
        # The just-below-stable diagonal also carries exactly two classes.
        for n in range(10, 22):
            assert table.betti(n, 2 * n + 1) == 2, n


# ----------------------------------------------------------------------
# Criterion 4: genus-1 surface against the five-case closed form.
# ----------------------------------------------------------------------


def test_criterion_04_sigma1_closed_form(capsys):
    with criterion(capsys, "4", "Sigma_1 full grid n<=15, i<=16 vs closed form", 60.0):
        table = betti_table(resolve_space("sigma1"), 1, 15, 16)
        for n in range(1, 16):
            for i in range(17):
                assert table.betti(n, i) == _sigma1_expected(i, n), (n, i)


# ----------------------------------------------------------------------
# Criterion 5: genus-2 surface -- whole published grid.
# ----------------------------------------------------------------------


def test_criterion_05_sigma2_full_grid(capsys):
    with criterion(
        capsys, "5", "Sigma_2 grid n<=21, i<=21 vs reference table", 900.0
    ):
        table = betti_table(resolve_space("sigma2"), 1, 21, 21)
        golden = load_golden("sigma2")
        cells = 0
        for (n, i), expected in golden.items():
            if n <= 21 and i <= 21:
                assert table.betti(n, i) == expected, (n, i, expected)
                cells += 1
        assert cells >= 400
        assert table.betti(21, 20) == 2175
        assert table.betti(21, 21) == 1783


# ----------------------------------------------------------------------
# Criterion 6: the two rings with identical additive structure but
# different multiplication must give different configuration-space
# cohomology at fifteen points.
# ----------------------------------------------------------------------


def test_criterion_06_multiplication_sensitivity(capsys):
    with criterion(
        capsys,
        "6",
        "CP^1 x CP^2 vs twisted bundle at n=15: (b_11, b_12) = (2,17) vs (1,16)",
        600.0,
    ):
        product = engine_for(resolve_space("cp1xcp2"))
        twisted = engine_for(resolve_space("pbundle_cp2"))
        assert (product.betti_number(11, 15), product.betti_number(12, 15)) == (2, 17)
        assert (twisted.betti_number(11, 15), twisted.betti_number(12, 15)) == (1, 16)


# ----------------------------------------------------------------------
# Criterion 7: CP^1 x CP^1 -- whole published grid plus stable row.
# ----------------------------------------------------------------------


def test_criterion_07_cp1xcp1_full_grid(capsys):
    with criterion(
        capsys, "7", "CP^1 x CP^1 grid n<=21, i<=26 vs reference table + stable row", 600.0
    ):
        ring = resolve_space("cp1xcp1")
        table = betti_table(ring, 1, 21, 26)
        golden = load_golden("cp1xcp1")
        cells = 0
        for (n, i), expected in golden.items():
            if n <= 21 and i <= 26:
                assert table.betti(n, i) == expected, (n, i, expected)
                cells += 1
        assert cells >= 400
        stable_row = [stable_betti(ring, i) for i in range(12)]
        assert stable_row == [1, 0, 2, 0, 3, 0, 2, 2, 2, 4, 2, 5]


# ----------------------------------------------------------------------
# Criterion 8: spot rows for the remaining published tables.
# ----------------------------------------------------------------------


def _check_rows(name: str, n_max: int) -> int:
    golden = load_golden(name)
    engine = engine_for(resolve_space(name))
    cells = 0
    for (n, i), expected in sorted(golden.items()):
        if n <= n_max:
            assert engine.betti_number(i, n) == expected, (name, n, i, expected)
            cells += 1
    return cells


def test_criterion_08a_sigma3_rows(capsys):
    with criterion(capsys, "8a", "Sigma_3 rows n<=8 vs reference table", 900.0):
        assert _check_rows("sigma3", 8) >= 80


def test_criterion_08b_sigma1xcp1_rows(capsys):
    with criterion(capsys, "8b", "Sigma_1 x CP^1 rows n<=7 vs reference table", 900.0):
        assert _check_rows("sigma1xcp1", 7) >= 80


def test_criterion_08c_cp4_rows(capsys):
    with criterion(capsys, "8c", "CP^4 rows n<=8 vs reference table", 900.0):
        assert _check_rows("cp4", 8) >= 80


def test_criterion_08d_cp6_row3(capsys):
    with criterion(capsys, "8d", "CP^6 row n=3 vs reference table", 900.0):
        golden = load_golden("cp6")
        engine = engine_for(resolve_space("cp6"))
        cells = 0
        for (n, i), expected in sorted(golden.items()):
            if n == 3:
                assert engine.betti_number(i, n) == expected, (n, i, expected)
                cells += 1
        assert cells >= 30
        assert engine.betti_number(33, 3) == 1


# ----------------------------------------------------------------------
# Criterion 9: the intermediate cell dimensions, differential ranks, and
# limit-page dimensions for CP^2, CP^3, and Sigma_1.  Dimensions are read
# off the combinatorial basis, ranks are certified with exact arithmetic,
# and limit dimensions come from the engine.
# ----------------------------------------------------------------------


class _Tally:
    def __init__(self) -> None:
        self.count = 0

    def eq(self, actual: int, expected: int, where: tuple) -> None:
        assert actual == expected, (*where, f"expected {expected}, got {actual}")
        self.count += 1


def _dim(ring, p, q, n) -> int:
    return len(enumerate_basis(ring, p, q, n))


def _rank_exact(ring, p, q, n) -> int:
    return rank(assemble_matrix(ring, p, q, n))


def _criterion9_cp2(t: _Tally) -> None:
    ring = resolve_space("cp2")
    eng = engine_for(ring)
    # Cell dimensions, q = 0: two monomials once n >= p, one at n = p - 1.
    for p in range(2, 8):
        for n in range(1, 11):
            expected = 2 if n >= p else 1 if n == p - 1 else 0
            t.eq(_dim(ring, 2 * p, 0, n), expected, ("cp2 dim", 2 * p, 0, n))
    for n in range(1, 7):
        t.eq(_dim(ring, 0, 0, n), 1, ("cp2 dim", 0, 0, n))
        t.eq(_dim(ring, 2, 0, n), 1, ("cp2 dim", 2, 0, n))
    # Cell dimensions, q = 1.
    for p in range(3, 8):
        for n in range(1, 11):
            if n >= p + 2:
                expected = 4
            elif n == p + 1:
                expected = 3
            elif n == p:
                expected = 1
            else:
                expected = 0
            t.eq(_dim(ring, 2 * p, 1, n), expected, ("cp2 dim", 2 * p, 1, n))
    for n in range(1, 7):
        t.eq(_dim(ring, 0, 1, n), 1 if n >= 2 else 0, ("cp2 dim", 0, 1, n))
        t.eq(
            _dim(ring, 2, 1, n),
            2 if n >= 3 else 1 if n == 2 else 0,
            ("cp2 dim", 2, 1, n),
        )
        t.eq(
            _dim(ring, 4, 1, n),
            3 if n >= 4 else 2 if n == 3 else 0,
            ("cp2 dim", 4, 1, n),
        )
    # Differential ranks, q = 1.
    for p in range(1, 8):
        for n in range(1, 11):
            expected = 2 if n >= p + 2 else 1 if n == p + 1 else 0
            t.eq(_rank_exact(ring, 2 * p, 1, n), expected, ("cp2 rank", 2 * p, 1, n))
    for n in range(1, 7):
        t.eq(_rank_exact(ring, 0, 1, n), 1 if n >= 2 else 0, ("cp2 rank", 0, 1, n))
    # Cells and ranks, q = 2: the differential is injective there.
    for p in range(3, 8):
        for n in range(1, 12):
            expected = 2 if n >= p + 3 else 1 if n == p + 2 else 0
            t.eq(_dim(ring, 2 * p, 2, n), expected, ("cp2 dim", 2 * p, 2, n))
            t.eq(_rank_exact(ring, 2 * p, 2, n), expected, ("cp2 rank", 2 * p, 2, n))
    for n in range(1, 7):
        t.eq(_dim(ring, 0, 2, n), 0, ("cp2 dim", 0, 2, n))
        t.eq(_dim(ring, 2, 2, n), 1 if n >= 4 else 0, ("cp2 dim", 2, 2, n))
        t.eq(_dim(ring, 4, 2, n), 1 if n >= 5 else 0, ("cp2 dim", 4, 2, n))
        t.eq(_rank_exact(ring, 0, 2, n), 0, ("cp2 rank", 0, 2, n))
        t.eq(_rank_exact(ring, 2, 2, n), 1 if n >= 4 else 0, ("cp2 rank", 2, 2, n))
        t.eq(_rank_exact(ring, 4, 2, n), 1 if n >= 5 else 0, ("cp2 rank", 4, 2, n))
    # Limit page: six one-dimensional spots, three of them from the start.
    for n in range(1, 7):
        for p in (0, 2, 4):
            t.eq(eng.e_infinity_dim(p, 0, n), 1, ("cp2 einf", p, 0, n))
        t.eq(eng.e_infinity_dim(4, 1, n), 1 if n >= 3 else 0, ("cp2 einf", 4, 1, n))
        t.eq(eng.e_infinity_dim(6, 1, n), 1 if n >= 3 else 0, ("cp2 einf", 6, 1, n))
        t.eq(eng.e_infinity_dim(8, 1, n), 1 if n >= 4 else 0, ("cp2 einf", 8, 1, n))


def _criterion9_cp3(t: _Tally) -> None:
    ring = resolve_space("cp3")
    eng = engine_for(ring)
    # Cell dimensions, q = 0.
    for p in range(4, 9):
        for n in range(1, p + 3):
            if n >= p:
                expected = p
            elif n >= p - 2:
                expected = n
            elif 2 * n >= p - 2:
                expected = 2 * n - p + 2
            else:
                expected = 0
            t.eq(_dim(ring, 2 * p, 0, n), expected, ("cp3 dim", 2 * p, 0, n))
    small_q0 = {1: (1, 1, 1, 1), 2: (1, 1, 2, 2), 3: (1, 1, 2, 3)}
    for n, row in small_q0.items():
        for p, expected in enumerate(row):
            t.eq(_dim(ring, 2 * p, 0, n), expected, ("cp3 dim", 2 * p, 0, n))
    for n in (4, 5):
        for p, expected in enumerate(small_q0[3]):
            t.eq(_dim(ring, 2 * p, 0, n), expected, ("cp3 dim", 2 * p, 0, n))
    # Cell dimensions, q = 1.
    for p in range(6, 9):
        for n in range(1, p + 4):
            if n >= p + 2:
                expected = 3 * p - 3
            elif n == p + 1:
                expected = 3 * p - 4
            elif n == p:
                expected = 3 * p - 6
            elif n == p - 1:
                expected = 3 * p - 10
            elif 2 * n >= p + 2 and n <= p - 2:
                expected = 6 * n - 3 * p - 3
            elif 2 * n == p + 1:
                expected = 1
            else:
                expected = 0
            t.eq(_dim(ring, 2 * p, 1, n), expected, ("cp3 dim", 2 * p, 1, n))
    small_q1 = {
        1: (0, 0, 0, 0, 0, 0),
        2: (1, 1, 1, 0, 0, 0),
        3: (1, 2, 3, 3, 2, 1),
        4: (1, 2, 4, 5, 6, 5),
        5: (1, 2, 4, 6, 8, 9),
        6: (1, 2, 4, 6, 9, 11),
        7: (1, 2, 4, 6, 9, 12),
        8: (1, 2, 4, 6, 9, 12),
    }
    for n, row in small_q1.items():
        for p, expected in enumerate(row):
            t.eq(_dim(ring, 2 * p, 1, n), expected, ("cp3 dim", 2 * p, 1, n))
    # Differential ranks, q = 1.
    for p in range(2, 8):
        for n in range(1, p + 4):
            if n >= p + 2:
                expected = p + 2
            elif 2 * n >= p + 2 and n <= p + 1:
                expected = 2 * n - p - 1
            else:
                expected = 0
            t.eq(_rank_exact(ring, 2 * p, 1, n), expected, ("cp3 rank", 2 * p, 1, n))
    for n in range(1, 5):
        t.eq(_rank_exact(ring, 0, 1, n), 1 if n >= 2 else 0, ("cp3 rank", 0, 1, n))
        t.eq(
            _rank_exact(ring, 2, 1, n),
            2 if n >= 3 else 1 if n == 2 else 0,
            ("cp3 rank", 2, 1, n),
        )
    # Cell dimensions, q = 2.
    for p in range(7, 10):
        for n in range(1, p + 5):
            if n >= p + 3:
                expected = 3 * p - 6
            elif n == p + 2:
                expected = 3 * p - 7
            elif n == p + 1:
                expected = 3 * p - 9
            elif n == p:
                expected = 3 * p - 13
            elif 2 * n >= p + 5 and n <= p - 1:
                expected = 6 * n - 3 * p - 12
            elif 2 * n == p + 4:
                expected = 1
            else:
                expected = 0
            t.eq(_dim(ring, 2 * p, 2, n), expected, ("cp3 dim", 2 * p, 2, n))
    small_q2 = {
        3: (0, 0, 0, 0, 0, 0, 0),
        # At (2p, n) = (6, 4) the single monomial of weight 6 and length 4 in
        # filtration q = 2 survives the length truncation, giving dimension 1.
        4: (0, 1, 1, 1, 0, 0, 0),
        5: (0, 1, 2, 3, 3, 2, 1),
        6: (0, 1, 2, 4, 5, 6, 5),
        7: (0, 1, 2, 4, 6, 8, 9),
        8: (0, 1, 2, 4, 6, 9, 11),
        9: (0, 1, 2, 4, 6, 9, 12),
        10: (0, 1, 2, 4, 6, 9, 12),
    }
    for n, row in small_q2.items():
        for p, expected in enumerate(row):
            t.eq(_dim(ring, 2 * p, 2, n), expected, ("cp3 dim", 2 * p, 2, n))
    # Differential ranks, q = 2.
    for p in range(5, 9):
        for n in range(1, p + 5):
            if n >= p + 3:
                expected = 2 * p - 1
            elif n == p + 2:
                expected = 2 * p - 2
            elif n == p + 1:
                expected = 2 * p - 4
            elif 2 * n >= p + 5 and n <= p:
                expected = 4 * n - 2 * p - 8
            elif 2 * n == p + 4:
                expected = 1
            else:
                expected = 0
            t.eq(_rank_exact(ring, 2 * p, 2, n), expected, ("cp3 rank", 2 * p, 2, n))
    small_rank_q2 = {
        3: (0, 0, 0, 0, 0),
        # The image of the (6, 4) basis element above is nonzero after
        # truncation, so the matching rank entry is also 1.
        4: (0, 1, 1, 1, 0),
        5: (0, 1, 2, 3, 3),
        6: (0, 1, 2, 4, 5),
        7: (0, 1, 2, 4, 6),
        8: (0, 1, 2, 4, 6),
        9: (0, 1, 2, 4, 6),
        10: (0, 1, 2, 4, 6),
    }
    for n, row in small_rank_q2.items():
        for p, expected in enumerate(row):
            t.eq(_rank_exact(ring, 2 * p, 2, n), expected, ("cp3 rank", 2 * p, 2, n))
    # q = 3: the differential is injective, so dimensions equal ranks.
    for p in range(6, 10):
        for n in range(1, p + 5):
            if n >= p + 3:
                expected = p - 3
            elif n == p + 2:
                expected = p - 4
            elif 2 * n >= p + 8 and n <= p + 1:
                expected = 2 * n - p - 7
            else:
                expected = 0
            t.eq(_dim(ring, 2 * p, 3, n), expected, ("cp3 dim", 2 * p, 3, n))
            t.eq(_rank_exact(ring, 2 * p, 3, n), expected, ("cp3 rank", 2 * p, 3, n))
    small_q3 = {
        5: (0, 0, 0, 0, 0, 0),
        6: (0, 0, 0, 1, 0, 0),
        7: (0, 0, 0, 1, 1, 1),
        8: (0, 0, 0, 1, 1, 2),
        9: (0, 0, 0, 1, 1, 2),
    }
    for n, row in small_q3.items():
        for p, expected in enumerate(row):
            t.eq(_dim(ring, 2 * p, 3, n), expected, ("cp3 dim", 2 * p, 3, n))
            t.eq(_rank_exact(ring, 2 * p, 3, n), expected, ("cp3 rank", 2 * p, 3, n))
    # Limit page, q = 0.
    for p in range(5, 9):
        for n in range(1, 11):
            t.eq(
                eng.e_infinity_dim(2 * p, 0, n),
                1 if n >= p else 0,
                ("cp3 einf", 2 * p, 0, n),
            )
    small_einf_q0 = {
        1: (1, 1, 1, 1, 0),
        2: (1, 1, 2, 1, 1),
        3: (1, 1, 2, 2, 1),
        4: (1, 1, 2, 2, 2),
        5: (1, 1, 2, 2, 2),
        6: (1, 1, 2, 2, 2),
    }
    for n, row in small_einf_q0.items():
        for p, expected in enumerate(row):
            t.eq(eng.e_infinity_dim(2 * p, 0, n), expected, ("cp3 einf", 2 * p, 0, n))
    # Limit page, q = 1.
    for p in range(8, 12):
        for n in range(1, 14):
            expected = 2 if n >= p else 1 if n == p - 1 else 0
            t.eq(eng.e_infinity_dim(2 * p, 1, n), expected, ("cp3 einf", 2 * p, 1, n))
    small_einf_q1 = {
        1: (0, 0, 0, 0, 0, 0, 0, 0),
        2: (0, 0, 0, 0, 0, 0, 0, 0),
        3: (0, 0, 0, 1, 1, 1, 0, 0),
        4: (0, 0, 0, 1, 2, 2, 1, 1),
        5: (0, 0, 0, 1, 2, 3, 2, 1),
        6: (0, 0, 0, 1, 2, 3, 3, 2),
        7: (0, 0, 0, 1, 2, 3, 3, 3),
        8: (0, 0, 0, 1, 2, 3, 3, 3),
    }
    for n, row in small_einf_q1.items():
        for p, expected in enumerate(row):
            t.eq(eng.e_infinity_dim(2 * p, 1, n), expected, ("cp3 einf", 2 * p, 1, n))
    # Limit page, q = 2 and q = 3.
    for p in range(7, 11):
        for n in range(1, 13):
            t.eq(
                eng.e_infinity_dim(2 * p, 2, n),
                1 if n >= p - 1 else 0,
                ("cp3 einf", 2 * p, 2, n),
            )
    for p in range(0, 7):
        for n in range(1, 9):
            t.eq(eng.e_infinity_dim(2 * p, 2, n), 0, ("cp3 einf", 2 * p, 2, n))
    for p in range(0, 10):
        for n in range(1, 9):
            t.eq(eng.e_infinity_dim(2 * p, 3, n), 0, ("cp3 einf", 2 * p, 3, n))


def _criterion9_sigma1(t: _Tally) -> None:
    ring = resolve_space("sigma1")
    eng = engine_for(ring)
    for q in range(1, 6):
        for n in range(1, 2 * q + 5):
            # p = q - 1: the cell equals its own image dimension.
            expected = q if n >= 2 * q else 0
            t.eq(_dim(ring, q - 1, q, n), expected, ("s1 dim", q - 1, q, n))
            t.eq(_rank_exact(ring, q - 1, q, n), expected, ("s1 rank", q - 1, q, n))
            # p = q.
            dim_expected = (
                3 * q + 1 if n >= 2 * q + 1 else q + 1 if n == 2 * q else 0
            )
            rank_expected = 2 * q if n >= 2 * q + 1 else q + 1 if n == 2 * q else 0
            t.eq(_dim(ring, q, q, n), dim_expected, ("s1 dim", q, q, n))
            t.eq(_rank_exact(ring, q, q, n), rank_expected, ("s1 rank", q, q, n))
            # p = q + 1.
            dim_expected = (
                4 * q + 2 if n >= 2 * q + 2 else 3 * q + 2 if n == 2 * q + 1 else 0
            )
            rank_expected = q if n >= 2 * q + 1 else 0
            t.eq(_dim(ring, q + 1, q, n), dim_expected, ("s1 dim", q + 1, q, n))
            t.eq(_rank_exact(ring, q + 1, q, n), rank_expected, ("s1 rank", q + 1, q, n))
            # p = q + 2, q + 3, q + 4 map to empty cells.
            dim_expected = (
                4 * q + 2 if n >= 2 * q + 2 else q + 1 if n == 2 * q + 1 else 0
            )
            t.eq(_dim(ring, q + 2, q, n), dim_expected, ("s1 dim", q + 2, q, n))
            t.eq(_rank_exact(ring, q + 2, q, n), 0, ("s1 rank", q + 2, q, n))
            dim_expected = (
                3 * q + 2 if n >= 2 * q + 3 else 2 * q + 2 if n == 2 * q + 2 else 0
            )
            t.eq(_dim(ring, q + 3, q, n), dim_expected, ("s1 dim", q + 3, q, n))
            t.eq(_rank_exact(ring, q + 3, q, n), 0, ("s1 rank", q + 3, q, n))
            dim_expected = q + 1 if n >= 2 * q + 3 else 0
            t.eq(_dim(ring, q + 4, q, n), dim_expected, ("s1 dim", q + 4, q, n))
            t.eq(_rank_exact(ring, q + 4, q, n), 0, ("s1 rank", q + 4, q, n))
    # q = 0 row.
    small_q0 = {1: (1, 2, 1, 0, 0), 2: (1, 2, 2, 2, 0), 3: (1, 2, 2, 2, 1)}
    for n, row in small_q0.items():
        for p, expected in enumerate(row):
            t.eq(_dim(ring, p, 0, n), expected, ("s1 dim", p, 0, n))
    for n in (4, 5):
        for p, expected in enumerate(small_q0[3]):
            t.eq(_dim(ring, p, 0, n), expected, ("s1 dim", p, 0, n))
    # Limit page.
    for q in range(1, 6):
        for n in range(1, 2 * q + 5):
            saturated = n >= 2 * q + 2
            onset = n == 2 * q + 1
            t.eq(
                eng.e_infinity_dim(q, q, n),
                q + 1 if (saturated or onset) else 0,
                ("s1 einf", q, q, n),
            )
            t.eq(
                eng.e_infinity_dim(q + 1, q, n),
                3 * q + 2 if saturated else 2 * q + 2 if onset else 0,
                ("s1 einf", q + 1, q, n),
            )
            t.eq(
                eng.e_infinity_dim(q + 2, q, n),
                3 * q + 1 if saturated else q + 1 if onset else 0,
                ("s1 einf", q + 2, q, n),
            )
            t.eq(
                eng.e_infinity_dim(q + 3, q, n),
                q if saturated else 0,
                ("s1 einf", q + 3, q, n),
            )
            t.eq(eng.e_infinity_dim(q - 1, q, n), 0, ("s1 einf", q - 1, q, n))
            t.eq(eng.e_infinity_dim(q + 4, q, n), 0, ("s1 einf", q + 4, q, n))
    for n in range(1, 6):
        for p, expected in enumerate((1, 2, 1, 0, 0)):
            t.eq(eng.e_infinity_dim(p, 0, n), expected, ("s1 einf", p, 0, n))


def test_criterion_09_intermediate_tables(capsys):
    with criterion(
        capsys,
        "9",
        "cell dims, differential ranks, limit dims for CP^2/CP^3/Sigma_1",
        60.0,
    ):
        tally = _Tally()
        _criterion9_cp2(tally)
        _criterion9_cp3(tally)
        _criterion9_sigma1(tally)
        assert tally.count >= 60, tally.count


# ----------------------------------------------------------------------
# Criterion 10: property suites.
# ----------------------------------------------------------------------


def test_criterion_10_property_suites(capsys):
    with criterion(
        capsys,
        "10",
        "d^2=0, model equivalence, Euler, stability/vanishing/sharpness",
        600.0,
    ):
        # The differential squares to zero on every built-in space, in both
        # the full and the reduced model.
        for name in sorted(REGISTRY):
            ring = resolve_space(name)
            for n in range(1, 7):
                for reduced in (True, False):
                    for result in check_d_squared(ring, n, 14, reduced):
                        assert result.passed, result.line()
        # The reduced model computes the same Betti numbers as the full one.
        for name in ORACLE_SPACES:
            ring = resolve_space(name)
            for n in range(1, 6):
                for result in check_reduction_equivalence(ring, n, 12):
                    assert result.passed, result.line()
        # Alternating row sums match the binomial transform of the Euler
        # characteristic.
        for name in ORACLE_SPACES:
            ring = resolve_space(name)
            for n in range(1, 9):
                result = check_euler(ring, n)
                assert result.passed, result.line()
        # Stability, vanishing (boundary included), and surface sharpness,
        # with every surface of genus one through four.
        for name in ORACLE_SPACES + ("sigma3", "sigma4"):
            ring = resolve_space(name)
            for result in check_theorems(ring, 8, 8):
                assert result.passed, result.line()


# ----------------------------------------------------------------------
# Non-gating extended table comparisons (pytest -m extended).
# ----------------------------------------------------------------------

EXTENDED_TABLES = (
    ("sigma3", 15, 16),
    ("sigma4", 10, 11),
    ("cp1xcp1", 24, 50),
    ("cp4", 30, 71),
    ("cp5", 22, 98),
    ("cp6", 17, 115),
    ("cp1xcp1xcp1", 11, 24),
    ("cp1xcp2", 18, 74),
    ("pbundle_cp2", 18, 51),
    ("sigma1xcp1", 15, 41),
)


@pytest.mark.extended
@pytest.mark.parametrize("name,n_max,i_max", EXTENDED_TABLES, ids=lambda v: str(v))
def test_extended_full_tables(name, n_max, i_max):
    golden = load_golden(name)
    table = betti_table(resolve_space(name), 1, n_max, i_max)
    checked = 0
    for (n, i), expected in sorted(golden.items()):
        if n <= n_max and i <= i_max:
            assert table.betti(n, i) == expected, (name, n, i, expected)
            checked += 1
    assert checked >= 100


@pytest.mark.extended
@pytest.mark.parametrize("name,n_max,i_max", [("cp6", 12, 115), ("sigma3", 15, 16)])
def test_extended_each_cleared_pair_composes_to_zero(name, n_max, i_max, monkeypatch):
    """d' d = 0 on the very matrices clearing reads, and clearing keeps every prefix rank.

    d' is the codomain's matrix as the engine ranked it (its own pivot rows
    cleared), d the source's on the same codes without clearing.
    """
    ring = resolve_space(name)
    assembled = {}
    original = engine_module.assemble_matrix

    def recording(ring, p, q, n, reduced=True, bases=None, cleared=()):
        matrix = original(ring, p, q, n, reduced, bases, cleared=cleared)
        assembled[p, q] = (n, bases, bool(cleared), matrix)
        return matrix

    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    engine = engine_module.BettiEngine(ring)
    engine.compute_ranks(n_max, i_max)
    monkeypatch.undo()
    pairs = 0
    for (p, q), (n, bases, cleared, matrix) in assembled.items():
        if not cleared:
            continue
        *_, outer = assembled[p + ring.dimension, q - 1]
        whole = assemble_matrix(ring, p, q, n, True, bases)
        assert outer.matmul(whole).entries == {}
        assert rank_profile_exact(matrix).prefix_ranks == rank_profile_exact(whole).prefix_ranks
        pairs += 1
    assert pairs > 20


@pytest.mark.extended
@pytest.mark.parametrize(
    "name,n_min,n_max,i_max", [("cp6", 12, 17, 115), ("pbundle_cp2", 17, 17, 52)]
)
def test_extended_unreduced_model_agrees_on_the_blanked_golden_rows(name, n_min, n_max, i_max):
    """The rows whose golden cells are blanked, checked through the unreduced model.

    It is a larger complex with the same cohomology, so its matrices differ;
    cp6 rows 12..17 take about 50 s unreduced.
    """
    ring = resolve_space(name)
    reduced = betti_table(ring, n_min, n_max, i_max)
    unreduced = betti_table(ring, n_min, n_max, i_max, reduced=False)
    assert unreduced.grid == reduced.grid
    assert sum(reduced.grid.values()) > 0
