"""Gradings, automorphisms and the orbit-reduced cell records built from them."""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate

import pytest
from conftest import _reference_basis, monomial_length, multiply_monomials, seeded_ring

import confbetti.basis as basis_module
import confbetti.engine as engine_module
from confbetti import (
    BettiEngine,
    Monomial,
    assemble_matrix,
    d_monomial,
    enumerate_basis,
    parse_ring,
    rank_profile_exact,
    serialize_ring,
    vanishing_bound,
)
from confbetti.basis import _orbits, automorphisms, grading
from confbetti.differential import _field_width, _unpack, packed_pieces
from confbetti.spaces import resolve_space

SEEDED = {f"seeded-sigma3-{k}": ("sigma3", k) for k in (1, 2, 3)}


def _ring(name):
    return seeded_ring(*SEEDED[name]) if name in SEEDED else resolve_space(name)


def _preserves_products(ring, sigma) -> bool:
    """sigma(y_i) * sigma(y_j) = sigma(y_i * y_j) for every pair, checked from the table."""
    for i in range(ring.size):
        for j in range(ring.size):
            (a, sign_a), (b, sign_b) = sigma[i], sigma[j]
            image = {sigma[k][0]: sign_a * sign_b * sigma[k][1] * c for k, c in ring.products[i][j]}
            if image != dict(ring.products[a][b]):
                return False
    return True


def _label(ring, mon: Monomial) -> tuple[int, ...]:
    """The sum of the class weights of the monomial's generators, with multiplicity."""
    weights = grading(ring)
    total = [0] * len(weights[0])
    for cls, e in [*enumerate(mon.r, start=1), *enumerate(mon.s)]:
        for axis, w in enumerate(weights[cls]):
            total[axis] += e * w
    return tuple(total)


def _act(ring, sigma, mon: Monomial) -> tuple[int, Monomial]:
    """sigma on a monomial of the model algebra: (sign, image), generator by generator."""
    m = ring.top_generator_count
    sign, product = 1, Monomial((0,) * m, (0,) * (m + 1))
    for pos, e in enumerate(mon.r + mon.s):
        cls = pos + 1 if pos < m else pos - m
        image, factor = sigma[cls]
        flat = [0] * (2 * m + 1)
        flat[image - 1 if pos < m else m + image] = 1
        generator = Monomial(tuple(flat[:m]), tuple(flat[m:]))
        for _ in range(e):
            koszul, product = multiply_monomials(ring, product, generator)
            sign *= factor * koszul
    return sign, product


def _piece_count(ring, p, q, listed) -> int:
    """The pieces a cell's listing holds: the distinct labels of its monomials."""
    m, width = ring.top_generator_count, _field_width(ring, p, q)
    return len({_label(ring, _unpack(code, width, m)) for code in listed.codes})


def _small_cells(ring, n):
    for q in range(n // 2 + 1):
        for p in range(n * ring.dimension + 1):
            yield p, q


@pytest.mark.parametrize(
    "space, rank, order",
    [
        ("sigma1", 1, 4), ("sigma2", 2, 32), ("sigma3", 3, 384), ("sigma4", 4, 6144),
        ("sigma1xcp1", 2, 8), ("cp1xcp1xcp1", 2, 24), ("cp1xcp1", 1, 4), ("cp1xcp2", 1, 2),
        ("cp6", 0, None), ("pbundle_cp2", 0, None), ("cp2", 0, None),
    ],
)
def test_grading_rank_and_group_order(space, rank, order):
    ring = resolve_space(space)
    weights = grading(ring)
    assert len(weights) == ring.size and {len(w) for w in weights} == {rank}
    assert not any(weights[0]) and not any(weights[ring.orientation_index])
    for i in range(ring.size):
        for j in range(ring.size):
            for k, _ in ring.products[i][j]:
                assert [a + b for a, b in zip(weights[i], weights[j])] == list(weights[k])
    if order is not None:
        found = automorphisms(ring)
        assert found.order == order
        assert all(_preserves_products(ring, sigma) for sigma in found.generators)


@pytest.mark.parametrize(
    "space, weights",
    [
        ("sigma2", ((0, 0), (-1, 0), (0, -1), (1, 0), (0, 1), (0, 0))),
        ("cp1xcp2", ((0,), (-1,), (-2,), (2,), (1,), (0,))),
        (
            "sigma1xcp1",
            ((0, 0), (0, -1), (-1, 0), (-1, -1), (1, 1), (1, 0), (0, 1), (0, 0)),
        ),
    ],
)
def test_grading_vectors_are_pinned(space, weights):
    # the pieces a cell splits into are labelled by these vectors, in this order
    assert grading(resolve_space(space)) == weights


@pytest.mark.parametrize("k", [1, 2, 3])
def test_seeded_rings_have_the_registry_group_and_orbits(k):
    registry, seeded = resolve_space("sigma3"), seeded_ring("sigma3", k)
    assert automorphisms(seeded).order == automorphisms(registry).order
    for p, q in _small_cells(registry, 6):
        pieces, runs = [], []
        for ring in (registry, seeded):
            listed = packed_pieces(ring, p, q, 6)
            pieces.append(_piece_count(ring, p, q, listed))
            runs.append(sorted(listed.runs))
        assert pieces[1] == pieces[0] and runs[1] == runs[0], (p, q)


def test_search_rejects_a_signed_permutation_that_breaks_one_product():
    # sigma2 with a2 * b2 = 2t: every handle symmetry survives, the handle swap does not
    doc = json.loads(serialize_ring(resolve_space("sigma2")))
    for entry in doc["products"]:
        if entry[:2] == [2, 4]:
            entry[2] = {"5": 2}
    ring = parse_ring(json.dumps(doc))
    swap = ((0, 1), (2, 1), (1, 1), (4, 1), (3, 1), (5, 1))  # a1 <-> a2, b1 <-> b2
    assert _preserves_products(resolve_space("sigma2"), swap)
    assert not _preserves_products(ring, swap)
    found = automorphisms(ring)
    assert found.order == 16
    assert all(_preserves_products(ring, sigma) for sigma in found.generators)
    assert all({sigma[1][0], sigma[3][0]} == {1, 3} for sigma in found.generators)
    _assert_records_match_whole_cells(ring, 6)


@pytest.mark.parametrize("space", ["sigma2", "sigma1xcp1", "cp1xcp1xcp1", "seeded-sigma3-1"])
@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_automorphisms_commute_with_d(space, reduced):
    ring = _ring(space)
    generators = automorphisms(ring).generators
    assert generators
    checked = 0
    for p, q in _small_cells(ring, 4):
        for mon in enumerate_basis(ring, p, q, 4, reduced):
            image = d_monomial(ring, mon, reduced).terms
            for sigma in generators:
                sign, moved = _act(ring, sigma, mon)
                expected: dict[Monomial, Fraction] = {}
                for term, c in image:
                    term_sign, term_image = _act(ring, sigma, term)
                    expected[term_image] = term_sign * c
                got = {term: sign * c for term, c in d_monomial(ring, moved, reduced).terms}
                assert got == expected, (sigma, mon)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("space", ["sigma2", "sigma1xcp1", "cp1xcp1xcp1", "seeded-sigma3-2"])
def test_d_keeps_the_label(space):
    ring = _ring(space)
    checked = 0
    for p, q in _small_cells(ring, 5):
        for mon in enumerate_basis(ring, p, q, 5):
            labels = {_label(ring, term) for term, _ in d_monomial(ring, mon).terms}
            assert labels <= {_label(ring, mon)}, mon
            checked += 1
    assert checked > 100


def _assert_records_match_whole_cells(ring, n_max) -> int:
    """Orbit-weighted dims and ranks of every record equal the whole cell's prefix ranks."""
    engine = BettiEngine(ring)
    engine.compute_ranks(n_max, vanishing_bound(ring, n_max) - 1)
    reduced = 0
    for (p, q), cell in engine._cells.items():
        t = cell.truncation
        counts = [0] * (t + 1)
        for mon in enumerate_basis(ring, p, q, t):
            counts[monomial_length(mon)] += 1
        dims = list(accumulate(counts))
        assert cell.dims == dims, (p, q)
        reduced += len(packed_pieces(ring, p, q, t).codes) < dims[-1]
        if cell.ranks is not None and q > 0:
            whole = rank_profile_exact(assemble_matrix(ring, p, q, t))
            assert cell.ranks == [whole.prefix_ranks[d] for d in dims], (p, q)
    return reduced


@pytest.mark.parametrize(
    "space, n_max",
    [
        ("sigma2", 8),
        ("sigma3", 7),
        ("seeded-sigma3-1", 6),
        ("seeded-sigma3-2", 6),
        ("seeded-sigma3-3", 6),
        ("cp1xcp1xcp1", 5),
        ("sigma1xcp1", 7),
    ],
)
def test_orbit_weighted_records_match_the_whole_cells(space, n_max):
    assert _assert_records_match_whole_cells(_ring(space), n_max) > 5


@pytest.mark.parametrize("space, n", [("cp6", 7), ("pbundle_cp2", 6), ("cp1xcp2", 6)])
def test_one_piece_rings_list_the_whole_cell(space, n):
    ring = resolve_space(space)
    assert not _orbits(ring).actions
    for p, q in _small_cells(ring, n):
        monomials = _reference_basis(ring, p, q, n, True)
        counts = [0] * (n + 1)
        for mon in monomials:
            counts[monomial_length(mon)] += 1
        listed = packed_pieces(ring, p, q, n)
        m, width = ring.top_generator_count, _field_width(ring, p, q)
        assert [_unpack(code, width, m) for code in listed.codes] == list(monomials)
        assert listed.runs == [(1, length, count) for length, count in enumerate(counts) if count]


@pytest.mark.parametrize("space", ["sigma3", "sigma1xcp1", "cp1xcp1xcp1", "cp6"])
def test_runs_tile_each_cell_by_label_and_length(space):
    ring = resolve_space(space)
    graded = bool(_orbits(ring).actions)  # else every label is 0 and a cell is one piece
    m = ring.top_generator_count
    checked = 0
    for n in range(1, 7):
        for p, q in _small_cells(ring, n):
            codes, runs = packed_pieces(ring, p, q, n)
            width = _field_width(ring, p, q)
            assert sum(count for _, _, count in runs) == len(codes), (p, q, n)
            keys, start, per_length = [], 0, [0] * (n + 1)
            for orbit, length, count in runs:
                assert count > 0, (p, q, n)
                run = [_unpack(code, width, m) for code in codes[start : start + count]]
                labels = {_label(ring, mon) if graded else () for mon in run}
                assert len(labels) == 1 and {monomial_length(mon) for mon in run} == {length}
                # a packed label orders as its coordinates, the last one first
                keys.append((tuple(reversed(labels.pop())), length))
                per_length[length] += orbit * count
                start += count
            assert keys == sorted(set(keys)), (p, q, n)  # (label, length) order, no repeat
            whole = [0] * (n + 1)
            for mon in enumerate_basis(ring, p, q, n):
                whole[monomial_length(mon)] += 1
            assert per_length == whole, (p, q, n)
            checked += len(runs)
    assert checked > 50


def test_one_piece_smoke_ring_still_spot_checks(monkeypatch):
    checked = []
    original = engine_module.rank_profile_modular

    def recording(matrix, prime, col_cap=None):
        checked.append(col_cap)
        return original(matrix, prime, col_cap)

    monkeypatch.setattr(engine_module, "rank_profile_modular", recording)
    ring = resolve_space("cp2")
    assert grading(ring)[0] == ()
    engine = BettiEngine(ring)
    engine.compute_ranks(4, 12)
    assert checked


def test_a_search_past_its_budget_keeps_no_automorphism(monkeypatch):
    ring = resolve_space("sigma2")
    automorphisms.cache_clear()
    _orbits.cache_clear()
    monkeypatch.setattr(basis_module, "_SEARCH_BUDGET", 10)
    try:
        assert automorphisms(ring) == (1, ())
        assert not _orbits(ring).actions
        _assert_records_match_whole_cells(ring, 5)
    finally:
        automorphisms.cache_clear()
        _orbits.cache_clear()


def test_a_pool_worker_lists_a_gone_codomain_by_its_representatives(inline_pool, monkeypatch):
    shapes: dict[str, dict] = {"serial": {}, "pool": {}}
    original = engine_module.assemble_matrix

    def recording(ring, p, q, n, reduced=True, bases=None, **kwargs):
        matrix = original(ring, p, q, n, reduced, bases, **kwargs)
        shapes[mode][(p, q)] = (matrix.rows, matrix.cols)
        return matrix

    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    ring = resolve_space("sigma3")
    for mode, workers in (("serial", 1), ("pool", 2)):
        engine = BettiEngine(ring)
        engine.compute_ranks(9, 16, workers)
    assert shapes["serial"] and shapes["pool"] == shapes["serial"]


def test_assemble_matrix_without_bases_lists_the_whole_cells():
    ring, n = resolve_space("sigma2"), 6
    checked = 0
    for p, q in _small_cells(ring, n):
        if not q:
            continue
        whole = assemble_matrix(ring, p, q, n)
        codomain = enumerate_basis(ring, p + ring.dimension, q - 1, n)
        assert (whole.rows, whole.cols) == (len(codomain), len(enumerate_basis(ring, p, q, n)))
        pieces = packed_pieces(ring, p + ring.dimension, q - 1, n).codes
        checked += len(pieces) < whole.rows
    assert checked > 5  # codomains whose representative pieces are not the whole cell
