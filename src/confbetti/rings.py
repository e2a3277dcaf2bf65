"""Graded-commutative rational cohomology rings with Poincaré duality."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .linalg import row_reduce

# products[i][j] lists the nonzero structure constants of y_i * y_j.
ProductRow = tuple[tuple[int, Fraction], ...]
ProductTable = tuple[tuple[ProductRow, ...], ...]


class RingError(ValueError):
    """Base class for ring-document and ring-law failures."""


class RingFormatError(RingError):
    """Malformed ring-spec document."""


class RingValidationError(RingError):
    """A graded-algebra law is violated; message names the law and indices."""


class BasisClass(NamedTuple):
    label: str
    degree: int


@dataclass(frozen=True)
class GradedRing:
    """Finite-dimensional graded-commutative Q-algebra with unit and orientation class."""

    name: str
    dimension: int
    basis: tuple[BasisClass, ...]
    products: ProductTable
    orientation_index: int

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def top_generator_count(self) -> int:
        """m: basis elements other than the unit are indexed 1..m."""
        return len(self.basis) - 1

    def degree(self, i: int) -> int:
        return self.basis[i].degree

    def is_odd(self, i: int) -> bool:
        return self.basis[i].degree % 2 == 1

    @cached_property
    def _hash(self) -> int:
        # Every lru_cache lookup keyed on a ring hashes it; rehashing the
        # Fraction product table each time dominated matrix assembly.
        return _value_hash(self)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # String hashes differ between interpreters, so a copy sent to another
        # process computes its own.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _value_hash(ring: GradedRing) -> int:
    return hash(tuple(getattr(ring, f.name) for f in fields(ring)))


class RingElement(NamedTuple):
    """Sparse rational coefficient vector over a ring basis."""

    ring: GradedRing
    coeffs: tuple[tuple[int, Fraction], ...]  # (index, coefficient), sorted, nonzero

    def coefficient(self, i: int) -> Fraction:
        for j, c in self.coeffs:
            if j == i:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return self.coeffs


def element(ring: GradedRing, coeffs: Mapping[int, Fraction]) -> RingElement:
    """Build a RingElement, dropping zeros and sorting by basis index."""
    cleaned = tuple(sorted((i, Fraction(c)) for i, c in coeffs.items() if c))
    return RingElement(ring, cleaned)


def euler_characteristic(ring: GradedRing) -> int:
    return sum(-1 if cls.degree % 2 else 1 for cls in ring.basis)


# ---------------------------------------------------------------------------
# Poincaré duals: each pairing block is inverted by linalg.row_reduce


@lru_cache(maxsize=None)
def dual_basis(ring: GradedRing) -> tuple[RingElement, ...]:
    """Elements y_i^v with the orientation coefficient of y_i * y_j^v equal to delta_ij.

    Built once per ring. Raises RingValidationError on the lowest degree whose
    Poincaré pairing block is not square or is singular.
    """
    top = ring.orientation_index
    by_degree: dict[int, list[int]] = {}
    for i, cls in enumerate(ring.basis):
        by_degree.setdefault(cls.degree, []).append(i)
    duals: dict[int, RingElement] = {}
    for deg, rows in sorted(by_degree.items()):
        cols = by_degree.get(ring.dimension - deg, [])
        k = len(rows)
        if k != len(cols):
            raise RingValidationError(
                f"pairing block degree {deg} is {k}x{len(cols)}, not square"
            )
        # [P | I], P[a][b] the orientation coefficient of y_a * y_b, each row scaled to integers
        augmented = []
        for pos, a in enumerate(rows):
            row = [dict(ring.products[a][b]).get(top, Fraction(0)) for b in cols]
            row += [int(pos == j) for j in range(k)]
            scale = lcm(*(x.denominator for x in row))
            augmented.append([int(x * scale) for x in row])
        solved = row_reduce(augmented)
        if [c for c, _ in solved] != list(range(k)):
            raise RingValidationError(f"singular Poincaré pairing block in degree {deg}")
        for pos, i in enumerate(rows):
            # column pos of the inverse solves P * c = e_pos
            duals[i] = element(
                ring, {cols[r]: Fraction(row[k + pos], row[r]) for r, row in solved}
            )
    return tuple(duals[i] for i in range(ring.size))


# ---------------------------------------------------------------------------
# construction and validation


def _complete_products(
    size: int,
    degrees: list[int],
    sparse: Mapping[tuple[int, int], Mapping[int, Fraction]],
) -> ProductTable:
    """Extend an upper-triangular product table by graded commutativity."""
    full: list[list[ProductRow]] = [[() for _ in range(size)] for _ in range(size)]
    for (i, j), terms in sparse.items():
        row = tuple(sorted((k, Fraction(c)) for k, c in terms.items() if c))
        full[i][j] = row
        if i != j:
            sign = -1 if degrees[i] % 2 and degrees[j] % 2 else 1
            full[j][i] = tuple((k, sign * c) for k, c in row)
    return tuple(tuple(row) for row in full)


def _make_ring(
    name: str,
    dimension: int,
    basis: list[BasisClass],
    sparse: Mapping[tuple[int, int], Mapping[int, Fraction]],
) -> GradedRing:
    degrees = [cls.degree for cls in basis]
    units = [i for i, d in enumerate(degrees) if d == 0]
    if len(units) != 1:
        raise RingValidationError(f"need exactly one degree-0 class, found {len(units)}")
    if units[0] != 0:
        raise RingValidationError("basis element 0 must be the unit (degree 0)")
    tops = [i for i, d in enumerate(degrees) if d == dimension]
    if not tops:
        raise RingValidationError("no orientation class (degree equal to the dimension)")
    if len(tops) > 1 and dimension > 0:
        raise RingValidationError(f"multiple degree-{dimension} classes: {tops}")
    ring = GradedRing(
        name=name,
        dimension=dimension,
        basis=tuple(basis),
        products=_complete_products(len(basis), degrees, sparse),
        orientation_index=tops[0],
    )
    validate_ring(ring)
    return ring


def validate_ring(ring: GradedRing) -> None:
    """Check every graded-algebra law; raise RingValidationError naming the first failure.

    The laws are checked in a fixed order, each on the product table's rows:
    labels and degrees, degree additivity, the unit laws, odd squares,
    associativity on the triples (i, j, k) in lexicographic order, and last
    the Poincaré pairing blocks.
    """
    size = ring.size
    labels = [cls.label for cls in ring.basis]
    if len(set(labels)) != size:
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise RingValidationError(f"duplicate basis labels: {dupes}")
    if ring.dimension < 0:
        raise RingValidationError("dimension must be nonnegative")
    for i, cls in enumerate(ring.basis):
        if not 0 <= cls.degree <= ring.dimension:
            raise RingValidationError(f"degree of basis element {i} outside [0, {ring.dimension}]")

    # degree additivity; products above the top degree vanish
    for i in range(size):
        for j in range(size):
            total = ring.degree(i) + ring.degree(j)
            for k, c in ring.products[i][j]:
                if ring.degree(k) != total:
                    raise RingValidationError(
                        f"product y_{i}*y_{j} has a term in degree {ring.degree(k)}, expected {total}"
                    )

    # unit laws, on both sides
    unit = 0  # `_make_ring` puts the unit first
    for i in range(size):
        if ring.products[unit][i] != ((i, Fraction(1)),):
            raise RingValidationError(f"unit law fails: y_{unit}*y_{i} != y_{i}")
        if ring.products[i][unit] != ((i, Fraction(1)),):
            raise RingValidationError(f"unit law fails: y_{i}*y_{unit} != y_{i}")

    # odd squares vanish (graded commutativity on the diagonal)
    for i in range(size):
        if ring.is_odd(i) and ring.products[i][i]:
            raise RingValidationError(f"odd-degree class y_{i} has nonzero square")

    # associativity on the basis triples that can be nonzero: by additivity,
    # both sides of a triple of degree sum above the dimension are empty, and
    # by the unit laws both sides of a triple holding the unit agree. Each
    # side is a sum of product-table rows: (y_i y_j) y_k over the terms c y_a
    # of y_i y_j, y_i (y_j y_k) over the terms c y_b of y_j y_k.
    products = ring.products
    others = [i for i in range(size) if i != unit]
    for i in others:
        for j in others:
            for k in others:
                if ring.degree(i) + ring.degree(j) + ring.degree(k) > ring.dimension:
                    continue
                difference: dict[int, Fraction] = {}
                for a, c in products[i][j]:
                    for term, v in products[a][k]:
                        difference[term] = difference.get(term, 0) + c * v
                for b, c in products[j][k]:
                    for term, v in products[i][b]:
                        difference[term] = difference.get(term, 0) - c * v
                if any(difference.values()):
                    raise RingValidationError(f"associativity fails on (y_{i}, y_{j}, y_{k})")

    dual_basis(ring)  # Poincaré pairing blocks square and invertible


# ---------------------------------------------------------------------------
# ring-spec documents


def _parse_coefficient(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise RingFormatError(f"{where}: coefficient must be an integer or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise RingFormatError(f"{where}: bad rational {value!r}") from exc
    raise RingFormatError(f"{where}: coefficient must be an integer or 'p/q' string")


def parse_ring(text: str) -> GradedRing:
    """Parse and validate a ring-spec JSON document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long
        raise RingFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RingFormatError("top level must be a JSON object")
    for field in ("name", "dimension", "basis", "products"):
        if field not in doc:
            raise RingFormatError(f"missing field {field!r}")
    name = doc["name"]
    dimension = doc["dimension"]
    if not isinstance(name, str):
        raise RingFormatError("'name' must be a string")
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise RingFormatError("'dimension' must be an integer")
    raw_basis = doc["basis"]
    if not isinstance(raw_basis, list) or not raw_basis:
        raise RingFormatError("'basis' must be a nonempty array")
    basis: list[BasisClass] = []
    for pos, entry in enumerate(raw_basis):
        if not isinstance(entry, dict) or set(entry) != {"label", "degree"}:
            raise RingFormatError(f"basis[{pos}] must be an object with 'label' and 'degree'")
        label, degree = entry["label"], entry["degree"]
        if not isinstance(label, str) or not label:
            raise RingFormatError(f"basis[{pos}].label must be a nonempty string")
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise RingFormatError(f"basis[{pos}].degree must be an integer")
        basis.append(BasisClass(label, degree))
    raw_products = doc["products"]
    if not isinstance(raw_products, list):
        raise RingFormatError("'products' must be an array")
    sparse: dict[tuple[int, int], dict[int, Fraction]] = {}
    size = len(basis)
    for pos, entry in enumerate(raw_products):
        where = f"products[{pos}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise RingFormatError(f"{where} must be [i, j, {{k: coefficient}}]")
        i, j, terms = entry
        for idx in (i, j):
            if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < size:
                raise RingFormatError(f"{where}: index {idx!r} out of range")
        if i > j:
            raise RingFormatError(f"{where}: indices must satisfy i <= j")
        if (i, j) in sparse:
            raise RingFormatError(f"{where}: duplicate entry for pair ({i}, {j})")
        if not isinstance(terms, dict):
            raise RingFormatError(f"{where}: third item must be an object")
        parsed: dict[int, Fraction] = {}
        for key, value in terms.items():
            try:
                k = int(key)
            except ValueError:
                k = None
            if k is None or key != str(k):  # one spelling per index, so no two keys merge
                raise RingFormatError(f"{where}: bad basis index key {key!r}")
            if not 0 <= k < size:
                raise RingFormatError(f"{where}: index key {k} out of range")
            parsed[k] = _parse_coefficient(value, where)
        sparse[(i, j)] = parsed
    return _make_ring(name, dimension, basis, sparse)


def _format_coefficient(c: Fraction) -> int | str:
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def serialize_ring(ring: GradedRing) -> str:
    """Canonical ring-spec JSON document; round-trips through parse_ring."""
    products = []
    for i in range(ring.size):
        for j in range(i, ring.size):
            row = ring.products[i][j]
            if row:
                products.append([i, j, {str(k): _format_coefficient(c) for k, c in row}])
    doc = {
        "name": ring.name,
        "dimension": ring.dimension,
        "basis": [{"label": cls.label, "degree": cls.degree} for cls in ring.basis],
        "products": products,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# built-in rings


def _with_unit_rows(
    size: int, extra: Mapping[tuple[int, int], Mapping[int, Fraction]]
) -> dict[tuple[int, int], dict[int, Fraction]]:
    sparse = {(0, i): {i: Fraction(1)} for i in range(size)}
    sparse.update({pair: dict(terms) for pair, terms in extra.items()})
    return sparse


def ring_cp(k: int) -> GradedRing:
    """Q[x]/(x^(k+1)) with |x| = 2: complex projective k-space."""
    if k < 1:
        raise ValueError("k must be at least 1")
    basis = [BasisClass("1", 0)] + [
        BasisClass("x" if a == 1 else f"x{a}", 2 * a) for a in range(1, k + 1)
    ]
    extra = {
        (a, b): {a + b: Fraction(1)}
        for a in range(1, k + 1)
        for b in range(a, k + 1)
        if a + b <= k
    }
    return _make_ring(f"cp{k}", 2 * k, basis, _with_unit_rows(k + 1, extra))


def ring_surface(g: int) -> GradedRing:
    """Closed orientable surface of genus g; g = 0 gives ring_cp(1)."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return ring_cp(1)
    basis = (
        [BasisClass("1", 0)]
        + [BasisClass(f"a{i}", 1) for i in range(1, g + 1)]
        + [BasisClass(f"b{i}", 1) for i in range(1, g + 1)]
        + [BasisClass("t", 2)]
    )
    top = 2 * g + 1
    extra = {(i, g + i): {top: Fraction(1)} for i in range(1, g + 1)}
    return _make_ring(f"sigma{g}", 2, basis, _with_unit_rows(2 * g + 2, extra))


def ring_sphere(d: int) -> GradedRing:
    """The d-sphere for d >= 1: Q[x]/(x^2) with |x| = d; d = 2 gives ring_cp(1)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 2:
        return ring_cp(1)
    basis = [BasisClass("1", 0), BasisClass("x", d)]
    return _make_ring(f"s{d}", d, basis, _with_unit_rows(2, {}))


def ring_product(r1: GradedRing, r2: GradedRing) -> GradedRing:
    """Künneth product with the Koszul sign; basis ordered left factor major."""
    size2 = r2.size
    basis = [
        BasisClass(f"{c1.label}|{c2.label}", c1.degree + c2.degree)
        for c1 in r1.basis
        for c2 in r2.basis
    ]
    size = len(basis)
    sparse: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(size):
        a, b = divmod(i, size2)
        for j in range(i, size):
            c, d = divmod(j, size2)
            sign = -1 if r2.is_odd(b) and r1.is_odd(c) else 1
            terms: dict[int, Fraction] = {}
            for k1, c1 in r1.products[a][c]:
                for k2, c2 in r2.products[b][d]:
                    k = k1 * size2 + k2
                    terms[k] = terms.get(k, Fraction(0)) + sign * c1 * c2
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                sparse[(i, j)] = terms
    return _make_ring(f"{r1.name}x{r2.name}", r1.dimension + r2.dimension, basis, sparse)


def ring_projective_bundle_cp2() -> GradedRing:
    """Q[h, xi]/(h^3, xi^2 - h*xi): the plane bundle P(O + O(1)) over cp2."""
    basis = [
        BasisClass("1", 0),
        BasisClass("h", 2),
        BasisClass("xi", 2),
        BasisClass("h2", 4),
        BasisClass("hxi", 4),
        BasisClass("h2xi", 6),
    ]
    one = Fraction(1)
    extra = {
        (1, 1): {3: one},  # h*h = h2
        (1, 2): {4: one},  # h*xi = hxi
        (2, 2): {4: one},  # xi*xi = hxi
        (1, 4): {5: one},  # h*hxi = h2xi
        (2, 3): {5: one},  # xi*h2 = h2xi
        (2, 4): {5: one},  # xi*hxi = h2xi
    }
    return _make_ring("pbundle_cp2", 6, basis, _with_unit_rows(6, extra))
