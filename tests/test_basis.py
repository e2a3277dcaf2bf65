from __future__ import annotations

import gc
import itertools
import math
import sys
import weakref
from operator import mul

import pytest
from conftest import _reference_basis, monomial_length, multiply_monomials, rank, seeded_ring
from hypothesis import given, settings
from hypothesis import strategies as st

import confbetti.differential as differential_module
from confbetti.differential import (
    _field_width,
    _pack,
    _part_codes,
    _PartCodes,
    _unpack,
    packed_pieces,
)
from confbetti.spaces import resolve_space
from confbetti import (
    Monomial,
    enumerate_basis,
    format_monomial,
    monomial_bigrade,
    ring_cp,
    ring_product,
    ring_sphere,
    ring_surface,
)


def _cells(ring, n, i_max):
    """Nonempty cells (p, q) -> basis at truncation n, for p + (D-1)q <= i_max + D."""
    row_weight = ring.dimension - 1
    bound = i_max + ring.dimension
    cells = {}
    for q in range(min(n // 2, bound // row_weight) + 1):
        for p in range(bound - row_weight * q + 1):
            mons = enumerate_basis(ring, p, q, n)
            if mons:
                cells[(p, q)] = mons
    return cells


def _brute_force_basis(ring, p, q, n, reduced):
    """Every exponent vector of bigrade (p, q) and length <= n, filtered one by one."""
    m = ring.top_generator_count
    top = ring.orientation_index
    degrees = [ring.degree(i) for i in range(1, m + 1)] + [ring.degree(j) for j in range(m + 1)]
    # a length-1 generator is odd with its class, a length-2 generator with an even class
    odd = [ring.is_odd(i) for i in range(1, m + 1)] + [not ring.is_odd(j) for j in range(m + 1)]
    counts = [n - 2 * q] * m + [q] * (m + 1)  # a bigrade-(p, q) monomial has sum(s) = q
    ranges = [range(min(c, p // d) + 1 if d else c + 1) for c, d in zip(counts, degrees)]
    found = []
    for flat in itertools.product(*ranges):
        if any(o and e > 1 for o, e in zip(odd, flat)):
            continue
        mon = Monomial(flat[:m], flat[m:])
        if monomial_length(mon) > n:
            continue
        if reduced and (mon.r[top - 1] >= 2 or mon.s[top] >= 1):
            continue
        if monomial_bigrade(mon, ring) == (p, q):
            found.append(mon)
    found.sort(key=lambda mon: (sum(mon.r) + sum(mon.s), mon.r + mon.s))
    return tuple(found)


@pytest.mark.parametrize("name", ["cp2", "cp3", "sigma1", "sigma2", "cp1xcp1"])
@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_enumeration_matches_brute_force(request, name, reduced):
    ring = request.getfixturevalue(name)
    checked = 0
    for n in (1, 2, 3, 4, 5):
        for q in range(n // 2 + 1):
            for p in range(2 * ring.dimension + 3):
                expected = _brute_force_basis(ring, p, q, n, reduced)
                assert enumerate_basis(ring, p, q, n, reduced) == expected, (p, q, n)
                checked += len(expected)
    assert checked > 0


REFERENCE_SPACES = [
    "cp2", "cp3", "cp6", "sigma1", "sigma2", "cp1xcp1", "cp1xcp2", "pbundle_cp2", "sigma1xcp1"
]


def _assert_packed_like(ring, p, q, n, reduced, monomials):
    """The whole cell, packed, decodes to the monomials in order, with their count per length.

    `monomials` must come from outside the packed path (`_reference_basis`):
    `enumerate_basis` decodes this same list.
    """
    codes, runs = packed_pieces(ring, p, q, n, reduced, whole=True)
    m = ring.top_generator_count
    assert [_unpack(code, _field_width(ring, p, q), m) for code in codes] == list(monomials)
    counts = [0] * (n + 1)
    for mon in monomials:
        counts[monomial_length(mon)] += 1
    # one piece of orbit size 1: one run per length that holds a monomial
    assert runs == [(1, length, count) for length, count in enumerate(counts) if count], (p, q, n)


@pytest.mark.parametrize("space, seed", [(name, 0) for name in REFERENCE_SPACES] + [("cp1xcp2", 2)])
@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_enumeration_matches_capped_search(space, seed, reduced):
    ring = seeded_ring(space, seed)  # seed 0 is the registry ring
    checked = 0
    for n in range(1, 7):
        for q in range(n // 2 + 2):  # q = n // 2 + 1 is a cell no monomial reaches
            for p in range(-1, n * ring.dimension + 1):  # n classes of the top degree at most
                expected = _reference_basis(ring, p, q, n, reduced) if p >= 0 else ()
                got = enumerate_basis(ring, p, q, n, reduced)
                assert got == expected, (p, q, n)
                if space == "cp6" and p % 2:
                    assert got == ()
                _assert_packed_like(ring, p, q, n, reduced, expected)
                checked += len(expected)
    assert checked > 0


@pytest.mark.parametrize(
    "space, p, q, n",
    [("cp1", 600, 1, 302), ("cp1", 598, 2, 302), ("cp1xcp1", 600, 0, 300)],
)
def test_packed_basis_with_wide_fields(space, p, q, n):
    # exponents pass 255, and the chain bound (p + D q) // 2 (301 on cp1's
    # (600, 1)) picks 16-bit fields; cp1xcp1's (600, 0) cell holds up to 301
    # monomials of one length, which the int sort must put in order
    ring = resolve_space(space)
    monomials = _reference_basis(ring, p, q, n, False)
    assert max(max(mon.r + mon.s) for mon in monomials) > 255
    assert _field_width(ring, p, q) == 16
    _assert_packed_like(ring, p, q, n, False, monomials)


def test_cell_lists_no_s_part_heavier_than_its_p():
    ring = ring_product(ring_surface(1), ring_cp(1))  # odd classes in degrees 1 and 3
    # the packed path keeps each part list it searches: start from empty caches
    differential_module._part_codes.cache_clear()
    p, q, n = 3, 4, 8
    cell = enumerate_basis(ring, p, q, n)
    assert cell == _reference_basis(ring, p, q, n, True)
    # the s-part lists searched are the memo's nonempty states at position 0
    zero = (0,) * ring.size
    _, s_codes = differential_module._part_codes(ring, True, _field_width(ring, p, q), zero)
    states = s_codes.states.items()
    listed = [weight for (pos, weight, _), groups in states if pos == 0 and groups]
    # four length-2 generators of the degree-1 classes reach weight 4 > p
    assert listed and max(listed) == p


def test_clearing_the_part_searches_frees_them():
    ring = resolve_space("cp6")
    p, q, n = 12, 2, 8
    differential_module._part_codes.cache_clear()
    assert packed_pieces(ring, p, q, n, whole=True).codes  # asks the r-part search for counts
    searches = _part_codes(ring, True, _field_width(ring, p, q), (0,) * ring.size)
    alive = [weakref.ref(search) for search in searches]
    del searches
    differential_module._part_codes.cache_clear()
    gc.collect()
    assert [ref() for ref in alive] == [None, None]


@st.composite
def _part_search(draw):
    """A part family (unit's degree 0 first), label weights, its place in a flat code, and keys."""
    size = draw(st.integers(1, 4))
    degrees = (0, *draw(st.lists(st.integers(1, 3), min_size=size - 1, max_size=size - 1)))
    caps = tuple(draw(st.lists(st.sampled_from([0, 1, sys.maxsize]), min_size=size, max_size=size)))
    # all-zero weights put every part in one group, whose int order must hold too
    weights = draw(st.one_of(st.just((0,) * size), st.tuples(*[st.integers(-2, 2)] * size)))
    before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    keys = st.tuples(st.integers(0, 10), st.integers(0, 4))
    return degrees, caps, weights, before, after, draw(keys), draw(st.lists(keys, max_size=6))


def _brute_force_groups(degrees, caps, weights, before, after, weight, count):
    """Every exponent vector of the table with this weight and count, packed as `_pack` packs it."""
    groups: dict[int, list[int]] = {}
    for part in itertools.product(*(range(min(cap, count) + 1) for cap in caps)):
        if sum(part) == count and sum(map(mul, part, degrees)) == weight:
            flat = (0,) * before + part + (0,) * after
            # `_pack` lays out 2m + 1 fields; a leading zero field adds nothing
            code = _pack((0,) * (1 - len(flat) % 2) + flat, 8)
            groups.setdefault(sum(map(mul, part, weights)), []).append(code)
    return {label: sorted(codes) for label, codes in groups.items()}


@settings(max_examples=150, deadline=None)
@given(_part_search())
def test_part_search_matches_brute_force(case):
    degrees, caps, weights, before, after, (weight, count), others = case
    flat = before + len(degrees) + after
    units = [1 << 8 * (flat - 1 - pos) for pos in range(before, before + len(degrees))]
    expected = _brute_force_groups(degrees, caps, weights, before, after, weight, count)
    cold = _PartCodes(degrees, caps, units, weights, 255)
    assert cold(weight, count) == expected
    filled = _PartCodes(degrees, caps, units, weights, 255)
    for other in others:  # fill the memo with other keys' states first
        filled(*other)
    assert filled(weight, count) == expected
    assert cold(weight, count) == expected  # read back from the memo


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
def test_part_table_ranges_run_between_the_cheapest_and_dearest_parts(unit, positive, data):
    degrees = (0, *positive) if unit else tuple(positive)
    caps = tuple(data.draw(st.sampled_from([0, 1, 2, sys.maxsize])) for _ in degrees)
    parts = _PartCodes(degrees, caps, [1] * len(degrees), (0,) * len(degrees), 255)
    most_weight, most_count = 24, 6  # every part of at most 6 entries has entries <= 6
    spans: dict[int, list[int]] = {}  # count -> [least, greatest] weight of its parts
    for part in itertools.product(*(range(min(cap, most_count) + 1) for cap in caps)):
        weight, span = sum(map(mul, part, degrees)), spans.setdefault(sum(part), [])
        spans[sum(part)] = [min(span[:1] + [weight]), max(span[1:] + [weight])]
    step = math.gcd(*degrees) or 1
    for count in range(most_count + 1):
        least, greatest = spans.get(count, (0, -1))
        expected = range(least, min(most_weight, greatest) + 1, step)
        assert parts.weights(count, most_weight) == expected
    if not unit:  # `counts` takes positive degrees only
        for weight in range(most_weight + 1):
            expected = [
                count for count, (least, greatest) in sorted(spans.items())
                if count <= most_count and least <= weight <= greatest and not weight % step
            ]
            assert list(parts.counts(weight, most_count)) == expected


def test_part_codes_raise_past_the_field():
    # cp1 unreduced: one r position of degree 2 with no cap, then two s fields;
    # an exponent of 256 would carry into the s field of the unit
    r_codes, _ = _part_codes(resolve_space("cp1"), False, 8, (0, 0))
    assert dict(r_codes(510, 255)) == {0: [255 << 16]}
    with pytest.raises((OverflowError, ValueError)):
        r_codes(512, 256)


def test_cell_counts_from_worked_examples(cp2, cp3, sigma1):
    assert len(enumerate_basis(cp2, 8, 1, 6)) == 4
    assert len(enumerate_basis(cp3, 10, 1, 5)) == 9
    assert len(enumerate_basis(sigma1, 3, 2, 6)) == 10


def test_zero_cell_is_the_empty_monomial(cp2):
    cell = enumerate_basis(cp2, 0, 0, 3)
    assert cell == (Monomial(r=(0, 0), s=(0, 0, 0)),)
    assert monomial_length(cell[0]) == 0


def test_cp1_low_cells(cp1):
    # n=3, i <= 3 touches exactly the four 1-dimensional cells
    sizes = {pq: len(cell) for pq, cell in _cells(cp1, 3, 3).items()}
    assert sizes == {(0, 0): 1, (2, 0): 1, (0, 1): 1, (2, 1): 1}


def test_single_point_has_no_pairs(cp3):
    cells = _cells(cp3, 1, 20)
    assert all(q == 0 for (_, q) in cells)
    assert all(monomial_length(m) <= 1 for cell in cells.values() for m in cell)


def test_sigma2_i1_line_at_two_points():
    s2 = ring_surface(2)
    # the i=1 line: 4 single odd classes + the length-2 unit generator,
    # of which the latter dies under a rank-1 differential, leaving b_1 = 4
    assert len(enumerate_basis(s2, 1, 0, 2)) == 4
    assert len(enumerate_basis(s2, 0, 1, 2)) == 1
    from confbetti import assemble_matrix, betti_number

    assert rank(assemble_matrix(s2, 0, 1, 2)) == 1
    assert betti_number(s2, 1, 2) == 4


def test_truncation_is_monotone_and_saturates(cp2):
    p, q = 6, 2
    dims = [len(enumerate_basis(cp2, p, q, n)) for n in range(1, p + 2 * q + 3)]
    assert dims == sorted(dims)
    assert dims[p + 2 * q - 1] == dims[-1]  # constant from n = p + 2q on


def test_truncated_cell_is_prefix_of_saturated(cp3):
    p, q = 8, 2
    saturated = enumerate_basis(cp3, p, q, p + 2 * q)
    for n in range(1, p + 2 * q + 1):
        truncated = enumerate_basis(cp3, p, q, n)
        assert truncated == saturated[: len(truncated)]


def test_reduced_drops_orientation_heavy_monomials(cp2):
    full = enumerate_basis(cp2, 8, 1, 6, reduced=False)
    reduced = enumerate_basis(cp2, 8, 1, 6, reduced=True)
    assert set(reduced) <= set(full)
    top = cp2.size - 1
    for mon in set(full) - set(reduced):
        assert mon.r[top - 1] >= 2 or mon.s[top] >= 1


def test_exterior_generators_are_square_free(sigma1):
    for cell in _cells(sigma1, 6, 8).values():
        for mon in cell:
            assert mon.r[0] <= 1 and mon.r[1] <= 1  # odd surface classes
            # A length-2 generator is odd exactly when its underlying class
            # has even degree; those stay square-free, while the generators
            # on the degree-1 classes are even and may repeat.
            for j, e in enumerate(mon.s):
                if sigma1.basis[j].degree % 2 == 0:
                    assert e <= 1


def test_bigrade_recomputation_round_trips(sigma2):
    for (p, q), cell in _cells(sigma2, 5, 8).items():
        for mon in cell:
            assert monomial_bigrade(mon, sigma2) == (p, q)


def test_enumerate_rejects_odd_dimension():
    with pytest.raises(ValueError):
        enumerate_basis(ring_sphere(3), 2, 1, 3)


def test_enumerate_rejects_bad_n(cp1):
    with pytest.raises(ValueError):
        enumerate_basis(cp1, 2, 1, 0)


def test_multiply_monomials_signs(sigma1):
    # two odd r-generators in opposite slot order pick up a sign
    a_only = Monomial(r=(1, 0, 0), s=(0, 0, 0, 0))
    b_only = Monomial(r=(0, 1, 0), s=(0, 0, 0, 0))
    sign_ab, prod = multiply_monomials(sigma1, a_only, b_only)
    assert prod == Monomial(r=(1, 1, 0), s=(0, 0, 0, 0))
    sign_ba, prod2 = multiply_monomials(sigma1, b_only, a_only)
    assert prod2 == prod
    assert sign_ab == -sign_ba


def test_multiply_monomials_odd_collision(sigma1):
    a_only = Monomial(r=(1, 0, 0), s=(0, 0, 0, 0))
    sign, prod = multiply_monomials(sigma1, a_only, a_only)
    assert (sign, prod) == (0, None)


def test_format_monomial_readable(cp2):
    mon = Monomial(r=(2, 0), s=(1, 0, 0))
    text = format_monomial(cp2, mon)
    assert "^2" in text and "~" in text
    empty = Monomial(r=(0, 0), s=(0, 0, 0))
    assert format_monomial(cp2, empty) == "1"
