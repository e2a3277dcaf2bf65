"""The single nontrivial differential, built from generator images as an odd derivation.

The differential maps bigrade (p, q) to (p + D, q - 1): it consumes one length-2
generator and emits a length-(at most 2) product of length-1 generators, so it
preserves the length filtration and every Koszul sign is a plain transposition
count in the free graded-commutative algebra.

Matrix assembly expands each basis monomial with `_expand`, which trusts its
input and returns an unordered coefficient map. `d_monomial` validates the
monomial first and orders the result; `cell_images` (the debug dump) uses it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .basis import (
    Monomial,
    enumerate_basis,
    monomial_bigrade,
    multiply_monomials,
)
from .linalg import RationalMatrix
from .rings import GradedRing, basis_element, dual_basis, multiply


@dataclass(frozen=True)
class AlgebraElement:
    """Rational linear combination of monomials; zero coefficients never stored."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    def is_zero(self) -> bool:
        return not self.terms


def algebra_element(terms: Mapping[Monomial, Fraction]) -> AlgebraElement:
    """Normalize a coefficient map: drop zeros, order graded-lexicographically."""
    kept = [(mon, Fraction(c)) for mon, c in terms.items() if c]
    kept.sort(key=lambda t: (sum(t[0].r) + sum(t[0].s), t[0].r + t[0].s))
    return AlgebraElement(tuple(kept))


@lru_cache(maxsize=None)
def _cached_duals(ring: GradedRing):
    return tuple(dual_basis(ring))


def _length_one_monomial(ring: GradedRing, a: int) -> Monomial:
    """The length-1 generator for class y_a; the unit (a = 0) gives the empty monomial."""
    m = ring.top_generator_count
    r = [0] * m
    if a:
        r[a - 1] = 1
    return Monomial(tuple(r), (0,) * (m + 1))


@lru_cache(maxsize=None)
def d_generator(ring: GradedRing, j: int) -> AlgebraElement:
    """Image of the length-2 generator for class y_j.

    Fixed convention: sum over all classes y_i of (-1)^|y_i| times the
    length-1 expansion of (y_j * y_i) times the length-1 expansion of the
    Poincaré dual of y_i, renormalized with graded-commutative signs.
    """
    duals = _cached_duals(ring)
    out: dict[Monomial, Fraction] = {}
    for i in range(ring.size):
        sign = -1 if ring.is_odd(i) else 1
        product = multiply(ring, basis_element(ring, j), basis_element(ring, i))
        for a, ca in product.items():
            left = _length_one_monomial(ring, a)
            for b, cb in duals[i].items():
                koszul, mon = multiply_monomials(ring, left, _length_one_monomial(ring, b))
                if koszul:
                    out[mon] = out.get(mon, Fraction(0)) + sign * koszul * ca * cb
    return algebra_element(out)


def _expand(ring: GradedRing, mon: Monomial, reduced: bool) -> dict[Monomial, Fraction]:
    """Odd-derivation (Leibniz) expansion of the differential on one valid monomial.

    Each length-2 generator slot j with exponent s_j contributes s_j times the
    generator image inserted in place, signed by the total-degree parity of the
    factors preceding slot j in canonical order; in reduced mode, output terms
    with orientation-class exponents r >= 2 or s >= 1 are projected away.
    Returns the unordered coefficient map with zeros dropped.
    """
    top = ring.orientation_index
    sigma = sum(e for pos, e in enumerate(mon.r) if ring.is_odd(pos + 1)) % 2
    out: dict[Monomial, Fraction] = {}
    for j, s_j in enumerate(mon.s):
        if not s_j:
            continue
        # generator images have no length-2 factor, so every term of slot j
        # keeps the length-2 part of `mon` with s_j lowered by one; those
        # trailing factors sit above every slot of the product, so merging
        # them needs no further sign or collision.
        s_after = mon.s[:j] + (s_j - 1,) + mon.s[j + 1 :]
        if not (reduced and s_after[top] >= 1):
            prefix = Monomial(mon.r, mon.s[:j] + (0,) * (len(mon.s) - j))
            scale = s_j if sigma == 0 else -s_j
            for image_mon, c in d_generator(ring, j).terms:
                koszul, product = multiply_monomials(ring, prefix, image_mon)
                if not koszul or (reduced and product.r[top - 1] >= 2):
                    continue
                merged = Monomial(product.r, s_after)
                term = c * (scale * koszul)
                out[merged] = out[merged] + term if merged in out else term
        if not ring.is_odd(j):  # length-2 generator is odd iff its class is even
            sigma ^= s_j % 2
    return {merged: c for merged, c in out.items() if c}


def d_monomial(ring: GradedRing, mon: Monomial, reduced: bool = True) -> AlgebraElement:
    """The differential on one monomial, validated and in graded-lex order."""
    monomial_bigrade(mon, ring)  # validates shape and exterior constraints
    return algebra_element(_expand(ring, mon, reduced))


def assemble_matrix(
    ring: GradedRing, p: int, q: int, n: int, reduced: bool = True
) -> RationalMatrix:
    """Matrix of the differential on cell (p, q) at truncation n.

    Columns follow the domain basis order, rows the codomain basis order at
    (p + D, q - 1); a q = 0 cell maps to the zero space.
    """
    domain = enumerate_basis(ring, p, q, n, reduced)
    codomain: tuple[Monomial, ...] = ()
    if q >= 1:
        codomain = enumerate_basis(ring, p + ring.dimension, q - 1, n, reduced)
    index = {mon: row for row, mon in enumerate(codomain)}
    entries: dict[tuple[int, int], Fraction] = {}
    for col, mon in enumerate(domain):
        for image_mon, c in _expand(ring, mon, reduced).items():
            row = index.get(image_mon)
            if row is None:
                raise RuntimeError(
                    f"differential image escaped cell ({p + ring.dimension}, {q - 1}) at n={n}"
                )
            entries[(row, col)] = c
    return RationalMatrix(rows=len(codomain), cols=len(domain), entries=entries)


def cell_images(
    ring: GradedRing, p: int, q: int, n: int, reduced: bool = True
) -> list[tuple[Monomial, AlgebraElement]]:
    """(monomial, image) pairs for one cell, in basis order — debug-dump payload."""
    return [
        (mon, d_monomial(ring, mon, reduced))
        for mon in enumerate_basis(ring, p, q, n, reduced)
    ]
