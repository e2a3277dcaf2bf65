from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import multiply_monomials, rank, reference_d_generator, seeded_ring

import confbetti.differential as differential_module
import confbetti.engine as engine_module
from confbetti import (
    BettiEngine,
    Monomial,
    algebra_element,
    assemble_matrix,
    d_generator,
    d_monomial,
    element,
    enumerate_basis,
    format_monomial,
    parse_ring,
    ring_cp,
    ring_surface,
    vanishing_bound,
)
from confbetti.differential import (
    _Kernel,
    _field_width,
    _pack,
    _unpack,
    image_scale,
    packed_pieces,
)
from confbetti.spaces import REGISTRY, resolve_space

ROOT = Path(__file__).parents[1]
SCALED_CP2 = ROOT / "tests" / "rings" / "cp2_scaled.json"  # x*x = 2*x2, so L = 2
PAIRING_THIRDS = ROOT / "tests" / "rings" / "pairing_thirds.json"  # a pairing block with 2/3


def _generator(ring, pos: int) -> Monomial:
    """The single generator at flat position pos (r positions, then s positions)."""
    m = ring.top_generator_count
    flat = [0] * (2 * m + 1)
    flat[pos] = 1
    return Monomial(tuple(flat[:m]), tuple(flat[m:]))


def _leibniz(ring, mon: Monomial, reduced: bool) -> dict[Monomial, Fraction]:
    """The differential by the Leibniz rule, factor by factor: the reference for the kernel.

    The monomial is its generators in canonical order; d kills length-1
    generators, replaces a length-2 one by its image with the sign of the
    factors before it, and each product is multiplied out left to right.
    """
    m, top = ring.top_generator_count, ring.orientation_index
    factors = [pos for pos, e in enumerate(mon.r + mon.s) for _ in range(e)]
    odd = [ring.is_odd(i) for i in range(1, m + 1)] + [not ring.is_odd(j) for j in range(m + 1)]
    out: dict[Monomial, Fraction] = {}
    for k, pos in enumerate(factors):
        if pos < m:
            continue
        sign = -1 if sum(odd[f] for f in factors[:k]) % 2 else 1
        for image, c in d_generator(ring, pos - m).terms:
            pieces = [_generator(ring, f) for f in factors[:k]] + [image]
            pieces += [_generator(ring, f) for f in factors[k + 1 :]]
            coeff, product = sign * c, Monomial((0,) * m, (0,) * (m + 1))
            for piece in pieces:
                koszul, product = multiply_monomials(ring, product, piece)
                if not koszul:
                    break
                coeff *= koszul
            else:
                if reduced and (product.r[top - 1] >= 2 or product.s[top] >= 1):
                    continue
                out[product] = out.get(product, Fraction(0)) + coeff
    return {mon: c for mon, c in out.items() if c}


def _check_cell_against_leibniz(
    ring, p: int, q: int, n: int, reduced: bool, pieces: bool = False
) -> int:
    """d_monomial and the assembled matrix on one cell equal the Leibniz reference.

    With `pieces`, the domain and codomain are the cells' orbit-representative
    pieces, as the engine lists and assembles them; else the whole cells.
    """
    bases = None
    if pieces:
        bases = tuple(
            packed_pieces(ring, p + ring.dimension * k, q - k, n, reduced).codes for k in (0, 1)
        )
        m, width = ring.top_generator_count, _field_width(ring, p, q)
        domain, codomain = ([_unpack(c, width, m) for c in codes] for codes in bases)
    else:
        domain = enumerate_basis(ring, p, q, n, reduced)
        codomain = enumerate_basis(ring, p + ring.dimension, q - 1, n, reduced)
    row_of = {mon: row for row, mon in enumerate(codomain)}
    scale = image_scale(ring)
    expected = {}
    for col, mon in enumerate(domain):
        reference = _leibniz(ring, mon, reduced)
        assert dict(d_monomial(ring, mon, reduced).terms) == reference, (p, q, mon)
        expected.update({(row_of[image], col): c * scale for image, c in reference.items()})
    matrix = assemble_matrix(ring, p, q, n, reduced, bases)
    assert (matrix.rows, matrix.cols) == (len(row_of), len(domain))
    assert matrix.entries == expected
    assert all(type(v) is int for v in matrix.entries.values())
    return len(domain)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: element(ring_cp(2), {2: Fraction(1, 2), 1: 3, 0: 0}), "coeffs"),
        (lambda: algebra_element({Monomial((1, 0), (0, 0, 0)): Fraction(2, 3)}), "terms"),
    ],
    ids=["ring-element", "algebra-element"],
)
def test_elements_from_equal_data_are_equal_immutable_values(build, field):
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for name in (field, "note"):
        with pytest.raises(AttributeError):
            setattr(first, name, ())


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize(
    "space",
    ["cp2", "cp3", "sigma1", "sigma2", "cp1xcp1", "pbundle_cp2", "scaled", "seeded", "seeded-sigma3"],
)
def test_kernel_matches_leibniz_rule_on_small_cells(space, reduced):
    if space == "scaled":
        ring = parse_ring(SCALED_CP2.read_text())
    elif space == "seeded":
        ring = seeded_ring("sigma1xcp1", 3)
    elif space == "seeded-sigma3":  # the benchmark's surface ring
        ring = seeded_ring("sigma3", 1)
    else:
        ring = resolve_space(space)
    n = 5  # every monomial of length <= 5 lies in some cell at n = 5
    checked = sum(
        _check_cell_against_leibniz(ring, p, q, n, reduced)
        for q in range(n // 2 + 1)
        for p in range(n * ring.dimension + 1)
    )
    assert checked > 20


def test_a_table_expands_each_s_part_once(monkeypatch):
    ring = seeded_ring("sigma3", 2)
    differential_module._kernel.cache_clear()  # a cold kernel, as in a fresh process
    filled, domains = [], []
    fill, assemble = _Kernel.fill, engine_module.assemble_matrix

    def counting(kernel, s_part):
        filled.append((kernel, s_part))
        return fill(kernel, s_part)

    def recording(ring, p, q, n, reduced=True, bases=None, **kwargs):
        domains.append(bases[0])
        return assemble(ring, p, q, n, reduced, bases, **kwargs)

    monkeypatch.setattr(_Kernel, "fill", counting)
    monkeypatch.setattr(engine_module, "assemble_matrix", recording)
    engine = BettiEngine(ring)
    engine.compute_ranks(engine.required_ranks(1, 9, 16), reach=9)
    (kernel,) = {kernel for kernel, _ in filled}
    s_parts = [s_part for _, s_part in filled]
    assert len(domains) > 20 and len(s_parts) == len(set(s_parts)) == len(kernel.table)
    assert set(s_parts) == {code & kernel.s_mask for domain in domains for code in domain}


def test_cells_assembled_from_a_filled_table_match_the_leibniz_rule():
    ring, n = seeded_ring("sigma3", 4), 5
    differential_module._kernel.cache_clear()
    engine = BettiEngine(ring)  # its assemblies fill the table first
    engine.compute_ranks(engine.required_ranks(1, n, vanishing_bound(ring, n) - 1))
    kernel = differential_module._kernel(ring, True, 8)
    filled = dict(kernel.table)
    assert len(filled) > 20
    # the engine assembles orbit-representative pieces, so those are what is checked
    checked = sum(
        _check_cell_against_leibniz(ring, p, q, n, True, pieces=True)
        for q in range(1, n // 2 + 1)
        for p in range(n * ring.dimension + 1)
    )
    assert checked > 100
    # every checked cell read only entries the engine's assemblies had built
    assert kernel.table.keys() == filled.keys()
    assert all(kernel.table[s_part] is entry for s_part, entry in filled.items())


def test_kernel_fields_do_not_carry_past_eight_bits(cp1):
    # unreduced cp1 keeps x^a for any a; on cell (600, 1) the chain bound
    # (p + D q) // 2 is 301, past an 8-bit field, so a carry into the next field would show
    assert _field_width(cp1, 600, 1) == 16
    assert _check_cell_against_leibniz(cp1, 600, 1, 302, False) == 2
    assert _check_cell_against_leibniz(cp1, 598, 2, 302, False) > 0
    # the engine ranks cells past 8-bit fields: b_520 of 301 points on S^2 is 0
    assert BettiEngine(cp1, reduced=False).betti_raw(520, 301) == 0


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("space", ["sigma2", "cp3", "cp1xcp2", "pbundle_cp2"])
def test_the_chain_bound_holds_every_exponent_of_a_cell_and_its_images(space, reduced):
    # the field width rests on this bound; an odd generator's exponent 1 passes
    # (p + D q) // 2 on cell (1, 0) only, and every width holds 1
    ring = resolve_space(space)
    n, checked = 6, 0
    for q in range(n // 2 + 1):
        for p in range(n * ring.dimension + 1):
            bound = max(1, (p + ring.dimension * q) // 2)
            assert _field_width(ring, p + ring.dimension, q - 1) == _field_width(ring, p, q)
            for mon in enumerate_basis(ring, p, q, n, reduced):
                images = [image for image, _ in d_monomial(ring, mon, reduced).terms]
                assert all(max(image.r + image.s) <= bound for image in [mon, *images]), mon
                checked += 1
    assert checked > 100


def test_fields_widen_where_the_chain_bound_passes_a_byte(cp1):
    # unreduced cp1's (508, 1) maps onto x^255, the top of an 8-bit field, and
    # (510, 1) onto x^256, which needs 16 bits
    assert [_field_width(cp1, p, 1) for p in (508, 510)] == [8, 16]
    for p, top in ((508, 255), (510, 256)):
        codomain = enumerate_basis(cp1, p + cp1.dimension, 0, 258, False)
        assert max(mon.r[0] for mon in codomain) == top
        assert _check_cell_against_leibniz(cp1, p, 1, 258, False) == 2


def test_field_width_doubles_from_a_byte_without_limit(cp1):
    # on cp1 (D = 2) the chain bound of cell (p, 0) is p // 2
    bounds = (0, 255, 256, 2**16, 2**32, 2**64)
    widths = [_field_width(cp1, 2 * bound, 0) for bound in bounds]
    assert widths == [8, 8, 16, 32, 64, 128]
    assert _field_width(cp1, -1, 0) == _field_width(cp1, -600, 0) == 8
    for width in (8, 128):
        field = (1 << width) - 1
        for r, s in (((field,), (0, field)), ((1,), (field, 0)), ((0,), (0, 1))):
            assert _unpack(_pack(r + s, width), width, 1) == Monomial(r, s)


@pytest.mark.parametrize("space", ["cp2", "sigma1", "cp1xcp1", "pbundle_cp2"])
def test_reduced_d_is_zero_outside_the_reduced_basis(space):
    # the monomials the reduction drops span a subcomplex, so d is 0 on them in the quotient
    ring, n, checked = resolve_space(space), 6, 0
    for q in range(n // 2 + 1):
        for p in range(n * ring.dimension + 1):
            kept = set(enumerate_basis(ring, p, q, n, True))
            for mon in enumerate_basis(ring, p, q, n, False):
                if mon not in kept:
                    assert _leibniz(ring, mon, True) == {}, mon
                    assert d_monomial(ring, mon, True).is_zero(), mon
                    checked += 1
    assert checked > 20


def test_scaled_ring_matrices_hold_l_times_d():
    ring = parse_ring(SCALED_CP2.read_text())
    assert image_scale(ring) == 2
    assert image_scale(ring_cp(2)) == 1
    assert {str(c) for j in range(3) for _, c in d_generator(ring, j).terms} == {"2", "1/2", "1"}


def _terms_by_text(ring, elem):
    return {format_monomial(ring, m): c for m, c in elem.terms}


@pytest.mark.parametrize("space", [*sorted(REGISTRY), "s3", "seeded-sigma2", "pairing_thirds"])
def test_d_generator_matches_the_construction_through_products(space):
    if space == "pairing_thirds":
        ring = parse_ring(PAIRING_THIRDS.read_text())
    elif space == "seeded-sigma2":  # classes permuted and re-signed: signed duals
        ring = seeded_ring("sigma2", 3)
    else:
        ring = resolve_space(space)
    for j in range(ring.size):
        assert d_generator(ring, j) == reference_d_generator(ring, j), (space, j)


def test_generator_image_cp2(cp2):
    # unit length-2 generator: 2*x2 + x^2 (each class pairs against its dual)
    image = _terms_by_text(cp2, d_generator(cp2, 0))
    assert image == {"x2": 2, "x^2": 1}


def test_generator_image_cp3(cp3):
    image = _terms_by_text(cp3, d_generator(cp3, 1))
    assert image == {"x*x3": 2, "x2^2": 1}


def test_generator_images_sigma1(sigma1):
    d0 = _terms_by_text(sigma1, d_generator(sigma1, 0))
    assert d0 == {"t": 2, "a1*b1": -2}
    d_a = _terms_by_text(sigma1, d_generator(sigma1, 1))
    assert d_a == {"a1*t": 2}
    d_b = _terms_by_text(sigma1, d_generator(sigma1, 2))
    assert d_b == {"b1*t": 2}
    d_t = _terms_by_text(sigma1, d_generator(sigma1, 3))
    assert d_t == {"t^2": 1}


def test_leibniz_worked_example_cp2(cp2):
    # d(Y0 Y1) = 2 x2 Y1 + x^2 Y1 - 2 x x2 Y0 in the unreduced model
    mon = Monomial(r=(0, 0), s=(1, 1, 0))
    image = d_monomial(cp2, mon, reduced=False)
    expected = {
        "x2*x~": 2,
        "x^2*x~": 1,
        "x*x2*1~": -2,
    }
    got = {format_monomial(cp2, m): c for m, c in image.terms}
    assert got == expected


def test_d_squared_is_zero_on_samples(sigma1, cp2):
    rng = random.Random(7)
    for ring, n in ((sigma1, 6), (cp2, 6)):
        cells = [
            (p, q)
            for q in range(2, n // 2 + 1)
            for p in range(0, 9)
            if enumerate_basis(ring, p, q, n)
        ]
        for p, q in rng.sample(cells, min(6, len(cells))):
            for mon in enumerate_basis(ring, p, q, n):
                once = d_monomial(ring, mon)
                twice: dict[Monomial, Fraction] = {}
                for term, coeff in once.terms:
                    for term2, coeff2 in d_monomial(ring, term).terms:
                        twice[term2] = twice.get(term2, Fraction(0)) + coeff * coeff2
                assert all(v == 0 for v in twice.values())


def test_known_matrix_ranks(sigma1, cp3):
    assert rank(assemble_matrix(sigma1, 3, 3, 7)) == 6
    assert rank(assemble_matrix(cp3, 10, 2, 8)) == 9


def test_zero_differential_on_row_zero(cp2):
    matrix = assemble_matrix(cp2, 4, 0, 5)
    assert matrix.entries == {}
    assert matrix.cols == len(enumerate_basis(cp2, 4, 0, 5))


def test_matrix_shape_matches_cells(sigma1):
    p, q, n = 2, 2, 6
    matrix = assemble_matrix(sigma1, p, q, n)
    assert matrix.cols == len(enumerate_basis(sigma1, p, q, n))
    assert matrix.rows == len(enumerate_basis(sigma1, p + 2, q - 1, n))


def test_rank_invariant_under_generator_rescaling(sigma2):
    # multiplying each length-2 generator image by a nonzero scalar is a
    # change of basis: every cell rank is unchanged
    p, q, n = 3, 2, 6
    base = assemble_matrix(sigma2, p, q, n)
    rng = random.Random(3)
    scale = {j: Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2])) for j in range(6)}
    scaled_entries = {}
    domain = enumerate_basis(sigma2, p, q, n)
    for (r, c), v in base.entries.items():
        # scale column c by the product of scales of its length-2 slots
        factor = Fraction(1)
        for j, e in enumerate(domain[c].s):
            factor *= scale[j] ** e
        scaled_entries[(r, c)] = v * factor
    from confbetti import RationalMatrix

    scaled = RationalMatrix(base.rows, base.cols, scaled_entries)
    assert rank(scaled) == rank(base)


def test_algebra_element_drops_zeros(cp2):
    mon = Monomial(r=(1, 0), s=(0, 0, 0))
    elem = algebra_element({mon: Fraction(0)})
    assert elem.is_zero()
    assert elem.terms == ()


@pytest.mark.parametrize(
    "mon",
    [
        Monomial(r=(1,), s=(0, 0, 0, 0)),  # r too short for sigma1
        Monomial(r=(0, 0, 0), s=(1, 0, 0)),  # s too short for sigma1
        Monomial(r=(2, 0, 0), s=(0, 0, 0, 0)),  # odd class a1 squared
        Monomial(r=(0, 0, 0), s=(2, 0, 0, 0)),  # odd length-2 unit generator squared
    ],
    ids=["short-r", "short-s", "odd-r-squared", "odd-s-squared"],
)
def test_d_monomial_rejects_invalid_monomials(sigma1, mon):
    with pytest.raises(ValueError):
        d_monomial(sigma1, mon)
