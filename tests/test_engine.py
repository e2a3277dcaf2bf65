from __future__ import annotations

import multiprocessing
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

import confbetti.engine as engine_module
from confbetti import (
    BettiEngine,
    RationalMatrix,
    betti_number,
    betti_odd_closed,
    betti_table,
    e_infinity_dim,
    engine_for,
    rank,
    rank_profile_modular,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_sphere,
    ring_surface,
    stable_betti,
    vanishing_bound,
)
from confbetti.linalg import CERTIFICATION_LIMIT, PRIMES

README = Path(__file__).parents[1] / "README.md"


def test_e_infinity_worked_examples(cp3, sigma1):
    assert e_infinity_dim(cp3, 14, 2, 6) == 1
    assert e_infinity_dim(sigma1, 3, 2, 5) == 6
    assert e_infinity_dim(cp3, 0, 0, 4) == 1


def test_betti_point_examples(cp1, cp2, cp3, sigma1, cp1xcp1):
    assert betti_number(cp1, 3, 3) == 1
    assert betti_number(cp2, 11, 4) == 1
    assert betti_number(cp3, 11, 3) == 1
    assert betti_number(sigma1, 4, 5) == 7
    assert betti_number(sigma1, 4, 4) == 4
    assert betti_number(sigma1, 4, 3) == 2
    assert betti_number(cp1xcp1, 11, 21) == 5
    assert betti_number(cp3, 21, 10) == 2
    assert betti_number(cp3, 0, 9) == 1


def test_one_point_recovers_the_manifold(cp3, sigma2, pbundle):
    for ring in (cp3, sigma2, pbundle):
        expected = [0] * (ring.dimension + 1)
        for k in range(ring.size):
            expected[ring.degree(k)] += 1
        got = [betti_number(ring, i, 1) for i in range(ring.dimension + 1)]
        assert got == expected


def test_stable_betti_examples(cp3, sigma1):
    assert stable_betti(cp3, 24) == 2
    for i in range(2, 9):
        assert stable_betti(sigma1, i) == 2 * i - 1
    assert stable_betti(sigma1, 0) == 1
    assert stable_betti(cp3, 0) == 1


def test_vanishing_bound_values(cp1, cp3):
    assert vanishing_bound(cp1, 4) == 6
    assert vanishing_bound(cp3, 2) == 12
    for n in (1, 2, 3):
        top = vanishing_bound(cp1, n)
        assert betti_number(cp1, top, n) == 0
        assert betti_number(cp1, top + 3, n) == 0


def test_table_grid_and_onsets(sigma1):
    table = betti_table(sigma1, 1, 6, 6)
    assert table.betti(5, 4) == 7
    assert table.row(1)[:3] == [1, 2, 1]
    # b_2 settles to its stable value 3 from n = 3 onward
    assert table.stabilization_onsets[2] == 3
    assert table.vanishing_bounds[4] == 6


def test_consistency_guard_quiet_on_valid_grid():
    engine = BettiEngine(ring_cp(2))
    for n in (1, 2, 3, 4):
        for i in range(0, 8):
            engine.betti_number(i, n)
    assert engine.uncertified_cells == []


def test_exact_only_engine_matches_hybrid(sigma2):
    exact = BettiEngine(sigma2, exact_only=True)
    hybrid = BettiEngine(sigma2)
    for n in (2, 5, 8):
        for i in range(0, 10):
            assert exact.betti_number(i, n) == hybrid.betti_number(i, n)


def test_required_ranks_covers_incoming(cp2):
    engine = BettiEngine(cp2)
    tasks = engine.required_ranks(1, 4, 8)
    assert all(q >= 1 for (_, q, _) in tasks)
    assert all(n_eff <= p + 2 * q for (p, q, n_eff) in tasks)


def test_engine_rejects_odd_dimension():
    with pytest.raises(ValueError):
        BettiEngine(ring_sphere(3))


def test_betti_odd_closed_sphere():
    s3 = ring_sphere(3)
    assert betti_odd_closed(s3, 0) == [1]
    assert betti_odd_closed(s3, 1) == [1, 0, 0, 1]
    assert betti_odd_closed(s3, 2) == [1, 0, 0, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        betti_odd_closed(ring_cp(2), 2)


def test_betti_odd_closed_products():
    s1xs2 = ring_product(ring_sphere(1), ring_cp(1))
    assert s1xs2.dimension == 3
    row = betti_odd_closed(s1xs2, 2)
    assert row[0] == 1
    assert len(row) == 2 * 3 + 1
    # Euler characteristic of every configuration space of an odd manifold is
    # the binomial count with chi = 0, i.e. zero for n >= 1
    assert sum(v * (1 if i % 2 == 0 else -1) for i, v in enumerate(row)) == 0


def test_engine_cache_is_shared(cp2):
    a = engine_for(cp2)
    b = engine_for(cp2)
    assert a is b


@pytest.fixture
def fresh_engines(monkeypatch):
    """Empty the shared engine registry, so each reset starts every ring cold."""

    def reset():
        monkeypatch.setattr(engine_module, "_ENGINES", {})

    reset()
    return reset


def test_cells_grow_when_a_later_table_reads_further(sigma2, fresh_engines):
    betti_table(sigma2, 1, 3, 8)
    shared = betti_table(sigma2, 1, 8, 8)
    assert shared.betti(4, 4) == 24
    fresh_engines()
    assert shared.grid == betti_table(sigma2, 1, 8, 8).grid


def test_direct_query_after_a_table_reads_past_its_cells(sigma2, fresh_engines):
    betti_table(sigma2, 1, 3, 8)
    shared = engine_for(sigma2)
    fresh = BettiEngine(sigma2)
    for i in range(9):
        assert shared.betti_number(i, 6) == fresh.betti_number(i, 6)


def test_worker_pool_table_matches_serial(cp1xcp1, fresh_engines):
    pooled = betti_table(cp1xcp1, 1, 6, 10, workers=2)
    fresh_engines()
    assert pooled.grid == betti_table(cp1xcp1, 1, 6, 10, workers=1).grid


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked worker inherits the patched limit",
)
def test_worker_pool_keeps_proof_status(cp1xcp1, fresh_engines, monkeypatch):
    # with no exact ranking of deficient blocks, two tasks stay unproven
    monkeypatch.setattr(engine_module, "CERTIFICATION_LIMIT", 0)
    serial = betti_table(cp1xcp1, 1, 8, 14, workers=1)
    unproven = sorted(engine_for(cp1xcp1).uncertified_cells)
    assert unproven == [(8, 2, 7), (8, 2, 8)]
    fresh_engines()
    pooled = betti_table(cp1xcp1, 1, 8, 14, workers=2)
    assert pooled.grid == serial.grid
    assert sorted(engine_for(cp1xcp1).uncertified_cells) == unproven


def test_query_past_a_table_builds_each_cell_once(sigma2, fresh_engines, monkeypatch):
    betti_table(sigma2, 1, 4, 8)
    builds: dict[tuple[int, int], int] = {}
    original = engine_module.enumerate_basis

    def counting(ring, p, q, n, reduced=True):
        builds[(p, q)] = builds.get((p, q), 0) + 1
        return original(ring, p, q, n, reduced)

    monkeypatch.setattr(engine_module, "enumerate_basis", counting)
    values = [stable_betti(sigma2, i) for i in range(12)]
    assert builds and max(builds.values()) == 1
    fresh = BettiEngine(sigma2)
    assert values == [fresh.betti_number(i, i + 1) for i in range(12)]


@pytest.fixture
def planted_cell(cp1, monkeypatch):
    """Make cell (0, 1) of cp1 the given 2 x 2 matrix, between two length-2 bases."""

    def plant(entries):
        original = engine_module.enumerate_basis

        def two_copies(ring, p, q, n, reduced=True):
            (monomial,) = original(ring, p, q, n, reduced)
            return (monomial, monomial)

        def planted(ring, p, q, n, reduced=True, bases=None):
            assert (p, q) == (0, 1)
            values = {key: Fraction(v) for key, v in entries.items()}
            return RationalMatrix(2, 2, values)

        monkeypatch.setattr(engine_module, "enumerate_basis", two_copies)
        monkeypatch.setattr(engine_module, "assemble_matrix", planted)
        return BettiEngine(cp1)

    return plant


def test_rank_above_both_modular_ranks_is_found(planted_cell):
    p1, p2 = PRIMES[:2]
    engine = planted_cell({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1 + p1 * p2})
    # the determinant p1 * p2 vanishes at both primes, so both mod-p ranks are 1
    assert engine.rank(0, 1, 2) == 2
    assert engine.uncertified_cells == []


def test_deficient_block_above_the_limit_is_uncertified_once(planted_cell, monkeypatch):
    monkeypatch.setattr(engine_module, "CERTIFICATION_LIMIT", 0)
    engine = planted_cell({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert engine.rank(0, 1, 2) == 1
    assert engine.rank(0, 1, 2) == 1
    assert engine.uncertified_cells == [(0, 1, 2)]


def test_primes_disagreeing_above_the_limit_rank_past_the_cap(planted_cell, monkeypatch):
    monkeypatch.setattr(engine_module, "CERTIFICATION_LIMIT", 0)
    p1 = PRIMES[0]
    engine = planted_cell({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1 + p1})
    # rank 1 at the first prime and 2 at the second, so the full cut is ranked exactly
    assert engine.rank(0, 1, 2) == 2
    assert engine._cells[(0, 1)].profiles[(0, 0)].prefix_ranks == [0, 1, 2]
    assert engine.uncertified_cells == []


def test_unusable_prime_moves_only_its_block(planted_cell):
    engine = planted_cell({(0, 0): Fraction(1, PRIMES[0]), (1, 1): 1})
    assert engine.rank(0, 1, 2) == 2
    cell = engine._cells[(0, 1)]
    assert [block.cols for block in cell.blocks] == [(0,), (1,)]
    assert cell.profiles[(0, PRIMES[0])] is None
    assert cell.profiles[(0, PRIMES[1])].rank == 1
    assert cell.profiles[(1, PRIMES[0])].rank == 1
    assert (1, PRIMES[1]) not in cell.profiles


@pytest.mark.parametrize(
    "ring, n_max",
    [
        (ring_surface(2), 8),
        (ring_cp(3), 6),
        (ring_product(ring_cp(1), ring_cp(2)), 5),
        (ring_projective_bundle_cp2(), 4),
    ],
    ids=["sigma2", "cp3", "cp1xcp2", "pbundle_cp2"],
)
def test_block_prefix_ranks_match_the_whole_cell(ring, n_max):
    engine = BettiEngine(ring)
    top = vanishing_bound(ring, n_max) - 1
    engine.compute_ranks(engine.required_ranks(1, n_max, top))
    checked = 0
    for (p, q), cell in list(engine._cells.items()):
        if q == 0:
            continue
        whole = rank_profile_modular(engine.cell_matrix(p, q, cell.truncation), PRIMES[0])
        profiles = [engine._block_profile(cell, index, 0) for index in range(len(cell.blocks))]
        assert all(profile.prime == PRIMES[0] for profile in profiles)
        combined = [
            sum(
                profile.prefix_ranks[bisect_left(block.cols, k)]
                for block, profile in zip(cell.blocks, profiles)
            )
            for k in range(len(cell.lengths) + 1)
        ]
        assert combined == whole.prefix_ranks
        checked += 1
    assert checked > 0


def test_exact_only_table_matches_hybrid_on_sigma3():
    sigma3 = ring_surface(3)
    exact = BettiEngine(sigma3, exact_only=True)
    hybrid = BettiEngine(sigma3)
    for engine in (exact, hybrid):
        engine.compute_ranks(engine.required_ranks(1, 6, 12))
    for n in range(1, 7):
        for i in range(13):
            assert exact.betti_number(i, n) == hybrid.betti_number(i, n)
    assert hybrid.uncertified_cells == []


def test_worker_pool_table_matches_serial_on_sigma2(sigma2, fresh_engines):
    top = vanishing_bound(sigma2, 6) - 1
    pooled = betti_table(sigma2, 1, 6, top, workers=2)
    fresh_engines()
    assert pooled.grid == betti_table(sigma2, 1, 6, top, workers=1).grid


@pytest.mark.parametrize("exact_only", [True, False], ids=["exact-only", "hybrid"])
def test_exact_profile_runs_once_per_block(sigma2, exact_only, monkeypatch):
    calls: dict[int, int] = {}  # id of the block matrix -> exact profiles of it
    original = engine_module.exact_rank

    def counting(matrix, col_cap=None):
        calls[id(matrix)] = calls.get(id(matrix), 0) + 1
        return original(matrix, col_cap)

    monkeypatch.setattr(engine_module, "exact_rank", counting)
    engine = BettiEngine(sigma2, exact_only=exact_only)
    tasks = engine.required_ranks(1, 8, vanishing_bound(sigma2, 8) - 1)
    engine.compute_ranks(tasks)
    blocks = {id(block.matrix) for cell in engine._cells.values() for block in cell.blocks or ()}
    assert calls and set(calls) <= blocks
    assert max(calls.values()) == 1
    monkeypatch.undo()
    fresh = BettiEngine(sigma2, exact_only=exact_only)
    for p, q, n_eff in tasks:
        assert engine.rank(p, q, n_eff) == fresh.rank(p, q, n_eff)
        if exact_only:
            assert engine.rank(p, q, n_eff) == rank(engine.truncated_matrix(p, q, n_eff))


@pytest.mark.parametrize("limit", [CERTIFICATION_LIMIT, 10])
def test_hybrid_exact_profile_stops_at_the_modular_limit(sigma2, limit, monkeypatch):
    monkeypatch.setattr(engine_module, "CERTIFICATION_LIMIT", limit)
    engine = BettiEngine(sigma2)
    tasks = engine.required_ranks(1, 8, vanishing_bound(sigma2, 8) - 1)
    engine.compute_ranks(tasks)
    profiles = capped = 0
    for cell in engine._cells.values():
        for (index, prime), profile in cell.profiles.items():
            if prime != 0:
                continue
            modular = engine._block_profile(cell, index, 0).prefix_ranks
            limit_column = bisect_right(modular, limit) - 1
            assert len(profile.prefix_ranks) - 1 == limit_column
            profiles += 1
            capped += limit_column < len(modular) - 1
    assert profiles > 0
    assert capped > 0 or limit == CERTIFICATION_LIMIT  # no sigma2 block ranks above 64
    exact = BettiEngine(sigma2, exact_only=True)
    assert [engine.rank(*task) for task in tasks] == [exact.rank(*task) for task in tasks]


def test_readme_library_snippet_runs():
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names: dict = {}
    exec(snippet, names)
    table = names["table"]
    assert names["grid"] == table.grid and table.grid[(7, 13)] == names["b"]
    assert names["onsets"] == table.stabilization_onsets
    assert len(names["row"]) == 21
