from __future__ import annotations

import concurrent.futures
import gc
import math
import os
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confbetti.differential as differential_module
import confbetti.engine as engine_module
import confbetti.rings as rings_module
from conftest import InlineExecutor, load_golden, rank
from confbetti import (
    BettiEngine,
    InternalConsistencyError,
    RankProfile,
    RationalMatrix,
    assemble_matrix,
    betti_number,
    betti_odd_closed,
    betti_table,
    engine_for,
    enumerate_basis,
    parse_ring,
    rank_profile_exact,
    ring_cp,
    ring_product,
    ring_projective_bundle_cp2,
    ring_sphere,
    ring_surface,
    stable_betti,
    vanishing_bound,
)
from confbetti.differential import PackedPieces, packed_pieces
from confbetti.spaces import REGISTRY, resolve_space

README = Path(__file__).parents[1] / "README.md"


def test_e_infinity_worked_examples(cp3, sigma1):
    assert engine_for(cp3).e_infinity_dim(14, 2, 6) == 1
    assert engine_for(sigma1).e_infinity_dim(3, 2, 5) == 6
    assert engine_for(cp3).e_infinity_dim(0, 0, 4) == 1


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
    assert vanishing_bound(sigma1, 4) == 6


def test_consistency_guard_quiet_on_valid_grid():
    engine = BettiEngine(ring_cp(2))
    for n in (1, 2, 3, 4):
        for i in range(0, 8):
            engine.betti_number(i, n)
    assert engine.uncertified_cells == []


def _whole_matrix_betti(engine: BettiEngine, i: int, n: int) -> int:
    """b_i from the rank of each matrix assembled at n, with no cell record's ranks."""
    if i >= vanishing_bound(engine.ring, n):
        return 0

    def whole_rank(p, q):
        if q <= 0 or p < 0 or n < 2 * q:
            return 0
        return rank(assemble_matrix(engine.ring, p, q, n, engine.reduced))

    def dim(p, q):
        return len(enumerate_basis(engine.ring, p, q, n, engine.reduced))

    row_weight = engine.ring.dimension - 1
    line = [(i - row_weight * q, q) for q in range(min(i // row_weight, n // 2) + 1)]
    return sum(
        dim(p, q) - whole_rank(p, q) - whole_rank(p - engine.ring.dimension, q + 1)
        for p, q in line
        if dim(p, q)
    )


def test_exact_only_engine_matches_hybrid(sigma2, fresh_engines):
    # perfbench still asks for the exact-only engine: it is the one engine, and proven
    exact = engine_for(sigma2, True, True)
    assert exact is engine_for(sigma2)
    whole = BettiEngine(sigma2)
    for n in (2, 5, 8):
        for i in range(0, 10):
            assert exact.betti_number(i, n) == _whole_matrix_betti(whole, i, n)
    assert exact.uncertified_cells == []


def test_required_ranks_covers_incoming(cp2):
    engine = BettiEngine(cp2)
    tasks = engine.required_ranks(1, 4, 8)
    assert all(q >= 1 for (_, q, _) in tasks)
    assert all(n_eff <= p + 2 * q for (p, q, n_eff) in tasks)


def _reference_required_ranks(engine, n_min, n_max, i_max):
    """The plan as an n x i x line-cell loop: each cell on a line of the table, and its source.

    A cell whose p is not a multiple of the gcd of the ring's degrees is
    empty, and so is its source: neither is planned.
    """
    dimension = engine.ring.dimension
    step = math.gcd(*(cls.degree for cls in engine.ring.basis))
    needed = set()
    for n in range(n_min, n_max + 1):
        top = min(i_max, vanishing_bound(engine.ring, n) - 1)
        for i in range(top + 1):
            for q in range(min(i // (dimension - 1), n // 2) + 1):
                p = i - (dimension - 1) * q
                if p < 0 or p % step:
                    continue
                for cp, cq in ((p, q), (p - dimension, q + 1)):
                    if cq > 0 and cp >= 0 and 2 * cq <= n:
                        needed.add((cp, cq, min(n, cp + 2 * cq)))
    return sorted(needed)


_PLANNED_RINGS = [
    ring_cp(1), ring_cp(2), ring_cp(3), ring_cp(6), ring_surface(2),
    ring_product(ring_cp(1), ring_cp(2)), ring_projective_bundle_cp2(),
    ring_product(ring_surface(1), ring_cp(1)),
]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_PLANNED_RINGS),
    st.integers(1, 14),
    st.integers(0, 14),
    st.integers(0, 80),
)
def test_required_ranks_is_the_line_cell_loop(ring, n_min, extra, i_max):
    engine = BettiEngine(ring)
    n_max = n_min + extra
    assert engine.required_ranks(n_min, n_max, i_max) == _reference_required_ranks(
        engine, n_min, n_max, i_max
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_PLANNED_RINGS),
    st.integers(1, 14),
    st.integers(1, 14),
    st.integers(0, 80),
)
def test_compute_ranks_ranks_each_cell_a_table_reads_once_at_its_largest_read(
    ring, n_min, n_max, i_max
):
    n_min = min(n_min, n_max)
    engine = BettiEngine(ring)
    chains, rank_chain = [], engine._rank_chain
    engine._rank_chain = lambda chain, reach: (chains.append(chain), rank_chain(chain, reach))
    engine.compute_ranks(n_max, i_max)
    largest: dict[tuple[int, int], int] = {}
    for p, q, n_eff in engine.required_ranks(n_min, n_max, i_max):
        largest[p, q] = max(largest.get((p, q), 0), n_eff)
    ranked = [(p, q) for chain in chains for p, q, _ in chain]
    assert sorted(ranked) == sorted(largest)  # each cell once
    for key, n_eff in largest.items():
        cell = engine._cells[key]
        assert cell.ranks is not None and cell.truncation == n_eff


@pytest.mark.parametrize(
    "space, n_min, n_max, i_max, reduced",
    [
        pytest.param("sigma2", 1, 7, 12, True, id="sigma2-7-12"),
        pytest.param("cp3", 1, 6, 24, True, id="cp3-6-24"),
        pytest.param("cp1xcp2", 1, 5, 30, True, id="cp1xcp2-5-30"),
        pytest.param("sigma3", 1, 9, 16, True, id="sigma3-9-16"),  # the benchmark's two tables
        pytest.param("cp6", 1, 5, 115, True, id="cp6-5-115"),
        pytest.param("cp3", 3, 7, 24, True, id="cp3-3..7-24"),
        pytest.param("sigma2", 1, 6, 12, False, id="sigma2-6-12-unreduced"),
    ],
)
def test_a_table_reads_what_single_queries_read(
    space, n_min, n_max, i_max, reduced, fresh_engines
):
    ring = resolve_space(space)
    table = betti_table(ring, n_min, n_max, i_max, reduced=reduced)
    fresh = BettiEngine(ring, reduced=reduced)
    assert list(table.grid) == [
        (n, i) for n in range(n_min, n_max + 1) for i in range(i_max + 1)
    ]
    for (n, i), value in table.grid.items():
        assert value == fresh.betti_number(i, n), (n, i)


def test_negative_limit_page_dimension_raises_on_a_tampered_record(sigma2):
    engine = BettiEngine(sigma2)
    value = engine.e_infinity_dim(2, 1, 4)
    assert value == 16
    cell = engine._cells[(2, 1)]
    cell.ranks = [r + value + 1 for r in cell.ranks]  # one more rank than the page leaves
    message = r"negative limit-page dimension -1 at \(p=2, q=1, n=4\)"
    with pytest.raises(InternalConsistencyError, match=message):
        engine.e_infinity_dim(2, 1, 4)


@pytest.mark.parametrize("space, n_max, i_max", [("sigma3", 9, 16), ("cp6", 5, 115)])
def test_every_part_list_asked_for_holds_a_part(space, n_max, i_max, fresh_engines, monkeypatch):
    ring = resolve_space(space)
    listing = []  # the p of each cell listed
    asked = []  # (p of the cell being listed, parts found) for each part-list request
    original_pieces = engine_module.packed_pieces
    original_call = differential_module._PartCodes.__call__

    def pieces(ring, p, q, n, reduced=True):
        listing.append(p)
        return original_pieces(ring, p, q, n, reduced)

    def call(self, weight, count, pos=0):
        found = original_call(self, weight, count, pos)
        if pos == 0:
            asked.append((listing[-1], bool(found)))
        return found

    monkeypatch.setattr(engine_module, "packed_pieces", pieces)
    monkeypatch.setattr(differential_module._PartCodes, "__call__", call)
    differential_module._part_codes.cache_clear()
    betti_table(ring, 1, n_max, i_max)
    assert asked and all(found for _, found in asked)
    if space == "cp6":  # every degree is even: no odd cell is listed, so none asks for a part
        assert not any(p % 2 for p in listing)
        assert not [p for p, _ in asked if p % 2]


@pytest.mark.parametrize("space, n_max, i_max", [("cp6", 5, 115), ("pbundle_cp2", 8, 40)])
def test_a_table_builds_no_cell_off_the_degree_lattice(space, n_max, i_max, fresh_engines):
    ring = resolve_space(space)
    step = math.gcd(*(cls.degree for cls in ring.basis))
    assert step == 2
    betti_table(ring, 1, n_max, i_max)
    cells = engine_for(ring)._cells
    assert cells and not [p for p, _ in cells if p % step]


@pytest.mark.parametrize("space", sorted(REGISTRY))
def test_one_degree_gcd_steps_the_part_search_and_the_engine(space):
    ring = REGISTRY[space]
    g = differential_module.degree_gcd(ring)
    assert g == math.gcd(*(ring.degree(k) for k in range(ring.size)))
    for reduced in (True, False):
        _, s_codes = differential_module._part_codes(ring, reduced, 8, (0,) * ring.size)
        assert s_codes.gcd == g  # s-parts hold every class, the unit included
        assert BettiEngine(ring, reduced)._p_step == g


def test_engine_rejects_odd_dimension():
    with pytest.raises(ValueError):
        BettiEngine(ring_sphere(3))


def test_engine_rejects_dimension_zero():
    point = parse_ring(
        '{"name": "point", "dimension": 0, "basis": [{"label": "1", "degree": 0}], '
        '"products": [[0, 0, {"0": 1}]]}'
    )
    with pytest.raises(ValueError, match="positive dimension"):
        BettiEngine(point)


def test_betti_odd_closed_sphere():
    s3 = ring_sphere(3)
    assert betti_odd_closed(s3, 0) == [1]
    assert betti_odd_closed(s3, 1) == [1, 0, 0, 1]
    assert betti_odd_closed(s3, 2) == [1, 0, 0, 1, 0, 0, 0]
    assert betti_odd_closed(s3, 2, i_max=4) == [1, 0, 0, 1, 0]  # the degrees up to i_max
    assert betti_odd_closed(s3, 1, i_max=9) == [1, 0, 0, 1]
    with pytest.raises(ValueError):
        betti_odd_closed(ring_cp(2), 2)
    with pytest.raises(ValueError, match="i_max"):
        betti_odd_closed(s3, 2, i_max=-1)


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


def test_pool_workers_take_the_ring_without_validating_it(cp1xcp1, monkeypatch):
    validations = []
    monkeypatch.setattr(rings_module, "validate_ring", validations.append)
    monkeypatch.setattr(engine_module, "_POOL_ENGINE", None, raising=False)
    engine_module._pool_init(cp1xcp1, True)
    assert validations == []
    assert engine_module._POOL_ENGINE.ring is cp1xcp1


@pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
def test_worker_pool_asks_for_no_more_workers_than_cpus(
    cp1xcp1, cpus, expected, fresh_engines, inline_pool, monkeypatch
):
    requested = []

    class Recording(InlineExecutor):
        """Records the pool size asked for."""

        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            super().__init__(max_workers, initializer, initargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pooled = betti_table(cp1xcp1, 1, 6, 10, workers=10**6)
    assert requested == [expected]
    assert engine_for(cp1xcp1).uncertified_cells == []
    fresh_engines()
    assert pooled.grid == betti_table(cp1xcp1, 1, 6, 10, workers=1).grid


def _record_plans(monkeypatch) -> dict[int, int]:
    """Map each record a plan builds, by id, to that plan's largest n."""
    built: dict[int, int] = {}
    alive = []  # every record built, so no id is reused
    original = BettiEngine._plan

    def recording(engine, reach, reads, workers=1):
        before = dict(engine._cells)
        original(engine, reach, reads, workers)
        for key, cell in engine._cells.items():
            if before.get(key) is not cell:
                built[id(cell)] = reach
                alive.append(cell)

    monkeypatch.setattr(BettiEngine, "_plan", recording)
    return built


def _truncations_within_their_plans(engine: BettiEngine, built: dict[int, int]) -> bool:
    """Every record was built by a plan, and at no more than that plan's largest n."""
    return bool(engine._cells) and all(
        cell.truncation <= built.get(id(cell), -1) for cell in engine._cells.values()
    )


def test_query_past_a_table_builds_within_the_reach(sigma2, fresh_engines, monkeypatch):
    # each value plans its cells at its own n, so a later, larger n may build a
    # record again; none is built past the n of its plan, and a second pass builds none
    plans = _record_plans(monkeypatch)
    betti_table(sigma2, 1, 4, 8)
    engine = engine_for(sigma2)
    builds: list[tuple[int, int]] = []
    original = BettiEngine._cell

    def counting(engine, p, q, n, reach):
        kept = engine._cells.get((p, q))
        cell, codes = original(engine, p, q, n, reach)
        if cell is not kept:  # the record was built
            builds.append((p, q))
        return cell, codes

    # counts records, not calls of `packed_pieces`: the engine also lists a
    # ranked codomain's pieces again for a cell that maps into it
    monkeypatch.setattr(BettiEngine, "_cell", counting)
    values = [stable_betti(sigma2, i) for i in range(12)]
    assert builds and _truncations_within_their_plans(engine, plans)
    builds.clear()
    assert [stable_betti(sigma2, i) for i in range(12)] == values
    assert builds == []
    fresh = BettiEngine(sigma2)
    assert values == [fresh.betti_number(i, i + 1) for i in range(12)]


_SINGLE_VALUES = {  # i names a line that holds a ranked cell at n = 4
    "betti_number": lambda ring, i: betti_number(ring, i, 4),
    "engine.betti_number": lambda ring, i: engine_for(ring).betti_number(i, 4),
    "stable_betti": lambda ring, i: stable_betti(ring, i),
    "rank": lambda ring, i: engine_for(ring).rank(2, 1, 4),
    "e_infinity_dim": lambda ring, i: engine_for(ring).e_infinity_dim(2, 1, 4),
    "betti_raw": lambda ring, i: engine_for(ring).betti_raw(i + 3, 3),  # past the vanishing bound
}


@pytest.mark.parametrize("space, i", [("sigma2", 5), ("cp6", 22)])
@pytest.mark.parametrize("call", sorted(_SINGLE_VALUES))
def test_a_single_value_builds_no_record_past_the_reach(
    space, i, call, fresh_engines, monkeypatch
):
    ring = resolve_space(space)
    plans = _record_plans(monkeypatch)
    _SINGLE_VALUES[call](ring, i)
    assert _truncations_within_their_plans(engine_for(ring), plans)


def test_a_read_no_plan_ranked_is_an_internal_error(sigma2, monkeypatch):
    monkeypatch.setattr(BettiEngine, "_plan", lambda engine, reach, reads, workers=1: None)
    with pytest.raises(InternalConsistencyError, match=r"no plan ranked cell \(2, 1\) at n=4"):
        BettiEngine(sigma2).e_infinity_dim(2, 1, 4)


_GROWN_REACH = {  # calls that rank (3, 1), then a call that reads its source (1, 2)
    "betti_number": (
        lambda ring: (betti_number(ring, 5, 4), stable_betti(ring, 15)),
        lambda ring: betti_number(ring, 4, 4),
    ),
    "betti_table": (
        lambda ring: engine_for(ring).rank(3, 1, 4),
        lambda ring: betti_table(ring, 5, 5, 3).row(5),
    ),
}


@pytest.mark.parametrize("call", sorted(_GROWN_REACH))
def test_a_plan_keeps_a_ranked_record_it_found_covered(sigma2, call, fresh_engines):
    # when the source (1, 2) of the ranked cell (3, 1) is built past (3, 1)'s
    # truncation, listing (3, 1) for its rows must not unrank its record
    before, last = _GROWN_REACH[call]
    before(sigma2)
    value = last(sigma2)
    assert engine_for(sigma2)._cells[3, 1].ranks is not None
    fresh_engines()
    assert value == last(sigma2)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_table_after_a_stable_value_builds_within_its_own_n(workers, fresh_engines, inline_pool):
    # the n of one plan does not carry over: the table builds nothing past n = 8
    cp6 = ring_cp(6)
    stable_betti(cp6, 40)
    engine = engine_for(cp6)
    kept = dict(engine._cells)
    table = betti_table(cp6, 1, 8, 115, workers=workers)
    built = [cell for key, cell in engine._cells.items() if kept.get(key) is not cell]
    assert built and max(cell.truncation for cell in built) <= 8
    fresh_engines()
    assert table.grid == betti_table(cp6, 1, 8, 115).grid


_SEQUENCE_RINGS = [resolve_space(name) for name in ("sigma2", "cp2", "cp3", "cp1xcp1", "sigma1xcp1")]

_PUBLIC_CALLS = {  # each public call on a ring, from three small integers
    "betti_number": lambda ring, a, b, c: betti_number(ring, a, b),
    "stable_betti": lambda ring, a, b, c: stable_betti(ring, a),
    "e_infinity_dim": lambda ring, a, b, c: engine_for(ring).e_infinity_dim(a, c, b),
    "rank": lambda ring, a, b, c: engine_for(ring).rank(a, c, b),
    "betti_raw": lambda ring, a, b, c: engine_for(ring).betti_raw(a, b),
    "betti_table": lambda ring, a, b, c: betti_table(ring, max(1, b - c), b, a).grid,
}


def _ranked_truncations(engine: BettiEngine) -> dict[tuple[int, int], int]:
    cells = engine._cells.items()
    return {key: cell.truncation for key, cell in cells if key[1] and cell.ranks is not None}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SEQUENCE_RINGS),
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_PUBLIC_CALLS)),
            st.integers(0, 10),
            st.integers(1, 7),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_a_ranked_record_stays_ranked(ring, calls):
    registry, shared = engine_module._ENGINES, BettiEngine(ring)
    try:
        for name, a, b, c in calls:
            before = _ranked_truncations(shared)
            engine_module._ENGINES = {(ring, True): shared}
            value = _PUBLIC_CALLS[name](ring, a, b, c)
            after = _ranked_truncations(shared)
            assert all(after.get(key, -1) >= t for key, t in before.items())
            engine_module._ENGINES = {}  # the same call on a fresh engine
            assert value == _PUBLIC_CALLS[name](ring, a, b, c)
    finally:
        engine_module._ENGINES = registry


@pytest.mark.parametrize(
    "space, n_min, n_max, i_max",
    [("sigma3", 1, 15, 4), ("cp6", 1, 12, 20), ("pbundle_cp2", 2, 8, 40), ("cp1xcp2", 1, 10, 74)],
)
def test_a_table_builds_each_cell_once_and_indexes_it_by_length(
    space, n_min, n_max, i_max, fresh_engines, monkeypatch
):
    ring = resolve_space(space)
    engine = engine_for(ring)  # the table's: `monkeypatch.undo` would restore the shared registry
    builds: dict[tuple[int, int], int] = {}
    original = engine_module.packed_pieces

    def counting(ring, p, q, n, reduced=True):
        builds[(p, q)] = builds.get((p, q), 0) + 1
        return original(ring, p, q, n, reduced)

    monkeypatch.setattr(engine_module, "packed_pieces", counting)
    betti_table(ring, n_min, n_max, i_max)
    monkeypatch.setattr(engine_module, "packed_pieces", original)
    assert builds and max(builds.values()) == 1
    assert set(engine._cells) == set(builds)
    assert any(cell.ranks is not None and any(cell.ranks) for cell in engine._cells.values())
    for (p, q), cell in engine._cells.items():
        lengths = range(1, cell.truncation + 1)  # every read is at a length n >= 1
        assert cell.dims[1:] == [len(enumerate_basis(ring, p, q, n)) for n in lengths]
        if cell.ranks is not None:
            assert cell.ranks[1:] == [rank(assemble_matrix(ring, p, q, n)) for n in lengths]


@pytest.fixture
def planted_cell(cp1, monkeypatch):
    """Make cell (0, 1) of cp1 the given 2 x 2 matrix, between two length-2 bases."""

    def plant(entries):
        original = engine_module.packed_pieces

        def two_copies(ring, p, q, n, reduced=True):
            (code,), ((orbit, length, count),) = original(ring, p, q, n, reduced)
            return PackedPieces([code, code], [(orbit, length, 2 * count)])

        def planted(ring, p, q, n, reduced=True, bases=None, **kwargs):
            assert (p, q) == (0, 1)
            values = {key: Fraction(v) for key, v in entries.items()}
            return RationalMatrix(2, 2, values)

        monkeypatch.setattr(engine_module, "packed_pieces", two_copies)
        monkeypatch.setattr(engine_module, "assemble_matrix", planted)
        return BettiEngine(cp1)

    return plant


def test_rank_above_both_modular_ranks_is_found(planted_cell):
    p1, p2 = 1000003, 999983
    engine = planted_cell({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1 + p1 * p2})
    # the determinant p1 * p2 vanishes at both primes, so both mod-p ranks are 1
    assert engine.rank(0, 1, 2) == 2
    assert engine._cells[(0, 1)].ranks == [0, 0, 2]  # both planted columns have length 2
    assert engine.uncertified_cells == []


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
    engine.compute_ranks(n_max, top)
    checked = 0
    for (p, q), cell in engine._cells.items():
        if q == 0 or cell.ranks is None:
            continue
        # the engine ranks the whole cell in one pass; the profile here is independent of it
        whole = rank_profile_exact(assemble_matrix(ring, p, q, cell.truncation))
        assert cell.ranks == [whole.prefix_ranks[d] for d in cell.dims]
        checked += 1
    assert checked > 0


def test_exact_only_table_matches_hybrid_on_sigma3(fresh_engines):
    # the exact-only engine perfbench reads is the default one, and proven
    sigma3 = ring_surface(3)
    exact = engine_for(sigma3, True, True)
    assert exact is engine_for(sigma3)
    exact.compute_ranks(6, 12)
    whole = BettiEngine(sigma3)
    for n in range(1, 7):
        for i in range(13):
            assert exact.betti_number(i, n) == _whole_matrix_betti(whole, i, n)
    assert exact.uncertified_cells == []


def test_cp6_table_is_proven_and_matches_the_golden_table(fresh_engines):
    cp6 = ring_cp(6)
    table = betti_table(cp6, 1, 9, 115)
    golden = {(n, i): v for (n, i), v in load_golden("cp6").items() if n <= 9 and i <= 115}
    assert len(golden) > 900
    assert {key: table.grid[key] for key in golden} == golden
    assert engine_for(cp6).uncertified_cells == []


@pytest.mark.parametrize("space, n_max, i_max", [("sigma3", 9, 16), ("cp6", 7, 115)])
def test_a_table_builds_no_monomial(space, n_max, i_max, fresh_engines, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table path built a Monomial basis")

    for module in (engine_module, differential_module):
        monkeypatch.setattr(module, "enumerate_basis", refuse, raising=False)
    # every Monomial decoded from packed codes comes out of _unpack
    monkeypatch.setattr(differential_module, "_unpack", refuse)
    table = betti_table(resolve_space(space), 1, n_max, i_max)
    golden = {
        (n, i): v for (n, i), v in load_golden(space).items() if n <= n_max and i <= i_max
    }
    assert len(golden) > 100
    assert {key: table.grid[key] for key in golden} == golden


@pytest.mark.parametrize("space, n_max, i_max", [("sigma3", 9, 16), ("cp6", 7, 115)])
def test_a_table_assembles_no_matrix_into_an_empty_codomain(
    space, n_max, i_max, fresh_engines, monkeypatch
):
    assembled = _record_assemblies(monkeypatch)
    ring = resolve_space(space)
    table = betti_table(ring, 1, n_max, i_max)
    # a codomain record built past t adds rows longer than t, so its dimension at t decides
    assert assembled and all(
        packed_pieces(ring, p + ring.dimension, q - 1, t, whole=True).runs
        for (p, q, t), _ in assembled
    )
    golden = {
        (n, i): v for (n, i), v in load_golden(space).items() if n <= n_max and i <= i_max
    }
    assert {key: table.grid[key] for key in golden} == golden


def test_worker_pool_table_matches_serial_on_sigma2(sigma2, fresh_engines):
    top = vanishing_bound(sigma2, 6) - 1
    pooled = betti_table(sigma2, 1, 6, top, workers=2)
    fresh_engines()
    assert pooled.grid == betti_table(sigma2, 1, 6, top, workers=1).grid


def _record_assemblies(monkeypatch) -> list:
    """Keep every matrix the engine assembles alive, with its cell and truncation."""
    assembled = []
    original = engine_module.assemble_matrix

    def recording(ring, p, q, n, reduced=True, bases=None, **kwargs):
        matrix = original(ring, p, q, n, reduced, bases, **kwargs)
        assembled.append(((p, q, n), matrix))
        return matrix

    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    return assembled


@pytest.mark.parametrize("exact_only", [True, False], ids=["exact-only", "hybrid"])
def test_exact_profile_runs_once_per_block(sigma2, exact_only, fresh_engines, monkeypatch):
    # perfbench asks engine_for for both; the flag is ignored, so both rank exactly
    assembled = _record_assemblies(monkeypatch)
    calls: dict[int, int] = {}  # id of an assembled matrix -> exact profiles of it
    original = engine_module.exact_rank

    def counting(matrix):
        calls[id(matrix)] = calls.get(id(matrix), 0) + 1
        return original(matrix)

    monkeypatch.setattr(engine_module, "exact_rank", counting)
    engine = engine_for(sigma2, True, exact_only)
    top = vanishing_bound(sigma2, 8) - 1
    engine.compute_ranks(8, top)
    assert assembled and set(calls) == {id(matrix) for _, matrix in assembled}
    assert set(calls.values()) == {1}
    assert len({cell[:2] for cell, _ in assembled}) == len(assembled)  # each cell once
    monkeypatch.undo()
    fresh = BettiEngine(sigma2)
    for p, q, n_eff in engine.required_ranks(1, 8, top):
        assert engine.rank(p, q, n_eff) == fresh.rank(p, q, n_eff)
        assert engine.rank(p, q, n_eff) == rank(assemble_matrix(sigma2, p, q, n_eff))


def test_spot_check_catches_an_exact_profile_below_the_modular_one(sigma2, monkeypatch):
    checked = []
    original = engine_module.rank_profile_modular

    def recording(matrix, prime, col_cap=None):
        checked.append(matrix)
        return original(matrix, prime, col_cap)

    monkeypatch.setattr(engine_module, "rank_profile_modular", recording)
    assembled = _record_assemblies(monkeypatch)
    engine = BettiEngine(sigma2)
    engine.compute_ranks(6, 10)
    assert checked and {id(matrix) for matrix in checked} <= {id(m) for _, m in assembled}
    monkeypatch.setattr(
        engine_module, "exact_rank", lambda matrix: RankProfile([0] * (matrix.cols + 1))
    )
    with pytest.raises(InternalConsistencyError, match="modulo 1000003"):
        BettiEngine(sigma2).compute_ranks(6, 10)


def test_no_matrix_outlives_its_ranking(sigma2):
    engine = BettiEngine(sigma2)
    engine.compute_ranks(6, vanishing_bound(sigma2, 6) - 1)
    assert any(any(cell.ranks) for cell in engine._cells.values() if cell.ranks)
    seen, stack = set(), [engine]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, RationalMatrix)
        stack.extend(gc.get_referents(obj))


def test_worker_pool_leaves_the_serial_ranks_in_each_record(sigma2, fresh_engines, monkeypatch):
    top = vanishing_bound(sigma2, 6) - 1
    assembled = _record_assemblies(monkeypatch)  # a worker's calls stay in the worker
    betti_table(sigma2, 1, 6, top, workers=2)
    assert assembled == []
    pooled = engine_for(sigma2)
    serial = BettiEngine(sigma2)
    serial.compute_ranks(6, top)
    ranked = {key: cell.ranks for key, cell in pooled._cells.items() if cell.ranks}
    assert len(ranked) > 10
    assert ranked == {key: serial._cells[key].ranks for key in ranked}


def test_readme_library_snippet_runs():
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names: dict = {}
    exec(snippet, names)
    table = names["table"]
    assert names["grid"] == table.grid and table.grid[(7, 13)] == names["b"]
    assert names["onsets"] == table.stabilization_onsets
    assert len(names["row"]) == 21


@pytest.mark.parametrize(
    "space, small, large, i_max",
    [("sigma3", 5, 9, 16), ("sigma2", 4, 8, 12), ("cp1xcp2", 5, 10, 40), ("cp6", 4, 8, 80)],
)
def test_a_second_larger_table_leaves_no_cyclic_garbage(space, small, large, i_max, fresh_engines):
    # a CLI run keeps the collector off, so a table must free its memory by reference counts
    ring = resolve_space(space)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        betti_table(ring, 1, small, i_max)
        gc.collect()  # the first table of a symmetric ring leaves its automorphism search
        betti_table(ring, 1, large, i_max)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def test_stabilization_onsets_are_computed_when_first_read(cp2):
    table = betti_table(cp2, 1, 6, 8)
    assert "stabilization_onsets" not in vars(table)
    onsets = table.stabilization_onsets
    assert onsets is table.stabilization_onsets
    assert onsets == {
        i: min(n for n in range(1, 7) if all(table.betti(m, i) == table.betti(6, i) for m in range(n, 7)))
        for i in range(9)
    }


@pytest.mark.parametrize(
    "space, n_max, i_max, workers",
    [("sigma3", 9, 16, 1), ("cp6", 9, 115, 1), ("cp1xcp2", 10, 74, 1), ("sigma2", 6, 10, 2)],
)
def test_no_record_keeps_codes_or_pivots_after_compute_ranks(space, n_max, i_max, workers):
    engine = BettiEngine(resolve_space(space))
    for n in (n_max - 3, n_max):  # the second, larger plan rebuilds some records
        engine.compute_ranks(n, i_max, workers)
        fields = [set(vars(cell)) for cell in engine._cells.values()]
        assert fields and all(names == {"truncation", "dims", "ranks"} for names in fields)


def _assert_each_codomains_pivot_rows_are_cleared(workers, monkeypatch):
    # cp6 has no symmetry, so every record is one piece listed in code order
    assembled = {}
    original = engine_module.assemble_matrix

    def recording(ring, p, q, n, reduced=True, bases=None, cleared=()):
        assert (p, q) not in assembled
        assembled[p, q] = (n, bases, set(cleared))
        return original(ring, p, q, n, reduced, bases, cleared=cleared)

    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    ring = ring_cp(6)
    betti_table(ring, 1, 9, 115, workers=workers)
    checked = 0
    for (p, q), (_, bases, cleared) in assembled.items():
        codomain = (p + ring.dimension, q - 1)
        if codomain not in assembled:
            assert not cleared  # no ranked codomain, so no pivots to clear
            continue
        n, codomain_bases, _ = assembled[codomain]
        assert bases[1] == codomain_bases[0]  # the rows as the codomain's own assembly listed them
        prefix = rank_profile_exact(assemble_matrix(ring, *codomain, n, True, codomain_bases))
        rises = zip(codomain_bases[0], prefix.prefix_ranks, prefix.prefix_ranks[1:])
        assert cleared == {code for code, before, after in rises if after > before}
        checked += bool(cleared)
    assert checked > 20


def test_a_table_clears_each_codomains_pivot_rows(fresh_engines, monkeypatch):
    _assert_each_codomains_pivot_rows_are_cleared(1, monkeypatch)


def test_a_pool_table_clears_each_codomains_pivot_rows(fresh_engines, inline_pool, monkeypatch):
    _assert_each_codomains_pivot_rows_are_cleared(2, monkeypatch)


@pytest.mark.parametrize("space, n_max, i_max", [("sigma3", 9, 16), ("cp6", 9, 115)])
def test_serial_and_pool_tables_assemble_the_same_matrices(
    space, n_max, i_max, fresh_engines, inline_pool, monkeypatch
):
    original = engine_module.assemble_matrix
    shapes: dict[int, list] = {1: [], 2: []}

    def recording(ring, p, q, n, reduced=True, bases=None, cleared=()):
        matrix = original(ring, p, q, n, reduced, bases, cleared=cleared)
        shapes[workers].append((p, q, matrix.rows, matrix.cols, len(matrix.entries)))
        return matrix

    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    ring = resolve_space(space)
    for workers in (1, 2):
        fresh_engines()
        betti_table(ring, 1, n_max, i_max, workers=workers)
    assert len(shapes[1]) > 20
    assert sorted(shapes[2]) == sorted(shapes[1])


def test_a_pool_parent_lists_no_cell_it_ranks(sigma2, fresh_engines, monkeypatch):
    top = vanishing_bound(sigma2, 6) - 1
    listed = []  # the parent's listings; a worker's stay in the worker
    original = engine_module.packed_pieces

    def recording(ring, p, q, n, reduced=True):
        listed.append((p, q))
        return original(ring, p, q, n, reduced)

    monkeypatch.setattr(engine_module, "packed_pieces", recording)
    table = betti_table(sigma2, 1, 6, top, workers=2)
    planned = {(p, q) for p, q, _ in engine_for(sigma2).required_ranks(1, 6, top)}
    assert len(planned) > 10 and not planned & set(listed)
    fresh_engines()
    assert table.grid == betti_table(sigma2, 1, 6, top).grid


def test_a_chain_lists_a_codomain_record_shorter_than_its_cell_again(cp2, fresh_engines):
    # b_11 at n = 4 ranks (8, 1) at 4; b_10 at n = 5 builds its source (4, 2) at 5,
    # and lists (8, 1) again for the rows, past its record, which stays
    betti_number(cp2, 11, 4)
    value = betti_number(cp2, 10, 5)
    engine = engine_for(cp2)
    assert engine._cells[(8, 1)].truncation == 4 and engine._cells[(8, 1)].ranks is not None
    assert engine._cells[(4, 2)].truncation == 5
    assert value == BettiEngine(cp2).betti_number(10, 5)
    checked = 0
    for (p, q), cell in engine._cells.items():
        if q and cell.ranks is not None:
            lengths = range(1, cell.truncation + 1)
            assert cell.ranks[1:] == [rank(assemble_matrix(cp2, p, q, n)) for n in lengths]
            checked += 1
    assert checked >= 3
