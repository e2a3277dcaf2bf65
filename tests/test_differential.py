from __future__ import annotations

import random
from fractions import Fraction

import pytest

from confbetti import (
    Monomial,
    algebra_element,
    assemble_matrix,
    d_generator,
    d_monomial,
    enumerate_basis,
    format_monomial,
    rank,
    ring_cp,
    ring_surface,
)


def _terms_by_text(ring, elem):
    return {format_monomial(ring, m): c for m, c in elem.terms}


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
