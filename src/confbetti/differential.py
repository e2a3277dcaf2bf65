"""The single nontrivial differential, built from generator images as an odd derivation.

The differential maps bigrade (p, q) to (p + D, q - 1): it consumes one length-2
generator and emits a length-(at most 2) product of length-1 generators, so it
never raises the length and every Koszul sign is a plain transposition count in
the free graded-commutative algebra.

Matrices are assembled from packed monomials: one Python int per monomial, with
one fixed-width field per exponent (all r positions, then all s positions, the
first in the highest field; see `_field_units`), so int order is lexicographic
order. The width is the narrowest of 8, 16, 32, ... bits holding (p + D q) // 2,
which bounds every exponent of cell (p, q) and of its codomain alike (see
`_field_width`). This module alone decides which monomials a cell holds:
`_part_codes` keeps one `_PartCodes` per generator family, with the parts' caps
(odd generators and the reduction), their bounds and one memoized search that
adds up each part's code and label as it descends and never builds the part.
`packed_pieces` joins s-parts with r-parts into a cell's packed
orbit-representative pieces, with one run of codes per piece and length, and
each piece in graded-lex order; a cell whose p is not a multiple of g
(`degree_gcd`) is empty. With `whole` the cell is one piece, which
`decode_codes` turns into `Monomial`s. d keeps a monomial's label, so the
matrix of a cell's pieces is block-diagonal over them. The terms of d on a
monomial depend on its r-part only through mask tests and a popcount, so one
table per ring, `reduced` flag and field width keeps them by s-part (see
`_Kernel`), built once per s-part and shared by every cell. Assembly is one
loop over the domain codes: look up the code's s-part, skip a term whose odd
factor the code already holds, and write the signed coefficient at the row of
`code + delta`. Coefficients are ints scaled by L, the lcm of the images'
denominators, so a matrix holds L * d (L is 1 on every built-in ring).
`d_monomial` assembles the column of one validated monomial and decodes its
rows into graded-lex `Monomial`s with rational coefficients.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache, lru_cache, partial
from math import gcd, lcm
from typing import Collection, Mapping, NamedTuple

from .basis import Monomial, _odd_flat, _orbits, monomial_bigrade
from .linalg import RationalMatrix
from .rings import GradedRing, dual_basis


class AlgebraElement(NamedTuple):
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
def d_generator(ring: GradedRing, j: int) -> AlgebraElement:
    """Image of the length-2 generator for class y_j.

    Fixed convention: sum over all classes y_i of (-1)^|y_i| times the
    length-1 expansion of (y_j * y_i) times the length-1 expansion of the
    Poincaré dual of y_i, renormalized with graded-commutative signs. It is
    read straight off the product table row `products[j][i]` and the dual
    `dual_basis(ring)[i]`: a term y_a of one and y_b of the other give the
    length-1 generators of y_a and y_b (none for the unit), with the Koszul
    sign of putting them in index order, -1 when both are odd and a > b, and
    no term when a == b is odd.
    """
    duals = dual_basis(ring)
    m = ring.top_generator_count
    out: dict[Monomial, Fraction] = {}
    for i in range(ring.size):
        sign = -1 if ring.is_odd(i) else 1
        for a, ca in ring.products[j][i]:
            for b, cb in duals[i].items():
                odd = ring.is_odd(a) and ring.is_odd(b)
                if odd and a == b:
                    continue
                r = [0] * (m + 1)  # over classes 0..m: the unit's entry is dropped
                r[a] += 1
                r[b] += 1
                mon = Monomial(tuple(r[1:]), (0,) * (m + 1))
                koszul = -sign if odd and a > b else sign
                out[mon] = out.get(mon, Fraction(0)) + koszul * ca * cb
    return algebra_element(out)


@lru_cache(maxsize=None)
def image_scale(ring: GradedRing) -> int:
    """L: the lcm of the denominators of every generator image coefficient."""
    return lcm(
        *(c.denominator for j in range(ring.size) for _, c in d_generator(ring, j).terms)
    )


# -- packed monomials ----------------------------------------------------------


def _field_width(ring: GradedRing, p: int, q: int) -> int:
    """The narrowest field width, 8 bits doubled as often as needed, for the d-chain of cell (p, q).

    A length-2 exponent is at most q, an even length-1 class has degree at
    least 2, an odd generator's exponent is at most 1 and D >= 2, so no
    exponent of the cell exceeds max(1, (p + D q) // 2). The codomain
    (p + D, q - 1) has the same p + D q: a cell and its codomain share a width.
    """
    bound, width = (p + ring.dimension * q) // 2, 8
    while bound >> width > 0:  # a negative bound shifts to -1 and stops at 8
        width *= 2
    return width


@lru_cache(maxsize=None)
def _field_units(m: int, width: int) -> tuple[tuple[int, ...], int]:
    """The packed layout: each flat position's field unit, the first highest, and a field's top."""
    return tuple(1 << width * (2 * m - pos) for pos in range(2 * m + 1)), (1 << width) - 1


def _pack(exponents: tuple[int, ...], width: int) -> int:
    units, _ = _field_units(len(exponents) // 2, width)
    return sum(e * unit for e, unit in zip(exponents, units))


def _unpack(code: int, width: int, m: int) -> Monomial:
    units, field = _field_units(m, width)
    fields = tuple(code // unit & field for unit in units)
    return Monomial(fields[:m], fields[m:])


def _fill(ladder, count: int) -> int:
    """The weight of `count` entries taken along `ladder`'s (degree, cap) pairs, each to its cap."""
    weight = 0
    for degree, cap in ladder:
        if count <= cap:
            return weight + count * degree
        weight += cap * degree
        count -= cap
    return weight


def _counts(ladder, step: int, weight: int, most: int) -> range:
    """The entry counts up to `most` that the (degree, cap) `ladder` leaves to parts of `weight`.

    They run from the fewest entries that reach `weight`, dearest first, to
    the most whose cheapest fill stays within it; a weight that is not a
    multiple of `step`, the gcd of the degrees, has none. Every degree must
    be positive.
    """
    if weight % step:
        return range(0)
    fewest, left = 0, weight
    for degree, cap in reversed(ladder):
        if left <= 0:
            break
        take = min(cap, -(-left // degree))
        fewest, left = fewest + take, left - take * degree
    if left > 0:
        return range(0)
    largest, left = 0, weight
    for degree, cap in ladder:
        take = min(cap, left // degree)
        largest, left = largest + take, left - take * degree
    return range(fewest, min(most, largest) + 1)


class _PartCodes:
    """The parts over one generator family, packed and grouped by label, by (weight, count).

    A part is an exponent vector with entries at most `caps`, an entry sum
    (its count) and a degree-weighted sum (its weight). It packs as the sum
    over its positions of exponent times the field unit there, and its label
    as the sum of exponent times the class weight. `weights` and `counts`
    bound the lists worth asking for, and the search is memoized on
    (position, weight left, count left): a state holds its suffixes as
    {label: codes}, and one position up, exponent e adds e times the unit to
    each code and e times the weight to each label. So the (weight, count)
    lists, the states at position 0, share their suffixes, and no part is
    built as a tuple. Codes are in int order within a label. The search skips
    a state whose weight left exceeds its count left times the largest degree
    left, falls below it times the smallest, or is not a multiple of the gcd
    of the degrees left. States at position 1 are built again for each list
    instead of kept: they hold about half the suffix codes, and each serves
    only the lists that differ from it in the first exponent. A part with an
    exponent past the field's largest value raises `OverflowError`, as its
    code would carry into the next field.
    """

    def __init__(self, degrees: list[int], caps: list[int], units: list[int], weights, field: int):
        self.field = field  # the largest exponent a field holds
        # what the positions from pos on can hold: at most cap_left[pos]
        # entries, each of degree in [low_left[pos], deg_left[pos]], making
        # weights that are multiples of gcd_left[pos] (0 when no positive degree is left)
        ends = range(len(degrees) + 1)
        cap_left = [sum(caps[pos:]) for pos in ends]
        low_left = [min(degrees[pos:], default=0) for pos in ends]
        deg_left = [max(degrees[pos:], default=0) for pos in ends]
        gcd_left = [gcd(*degrees[pos:]) for pos in ends]
        self.cap_total, self.gcd = cap_left[0], gcd_left[0]
        self.ladder = sorted(zip(degrees, caps))  # (degree, cap), the cheapest entries first
        # per position: its degree, cap, field unit and label weight, and the
        # bounds of the positions after it
        self.positions = [
            (deg, cap, unit, label_step, cap_left[pos + 1], low_left[pos + 1],
             deg_left[pos + 1], gcd_left[pos + 1])
            for pos, (deg, cap, unit, label_step) in enumerate(zip(degrees, caps, units, weights))
        ]
        self.states: dict[tuple[int, int, int], dict[int, list[int]]] = {}
        # each (weight, most) range is found once, and freed with the search, not the module
        self.counts = cache(partial(_counts, self.ladder, self.gcd))

    def weights(self, count: int, most: int) -> range:
        """The weights up to `most` that the bounds leave to parts of `count` entries.

        They run from the weight of the `count` cheapest entries the caps
        allow to that of the `count` dearest, in steps of the gcd.
        """
        if count > self.cap_total:
            return range(0)
        least, greatest = _fill(self.ladder, count), _fill(reversed(self.ladder), count)
        return range(least, min(most, greatest) + 1, self.gcd or 1)

    def __call__(self, weight: int, count: int, pos: int = 0) -> dict[int, list[int]]:
        """The parts over the positions from `pos` on with this weight and count, by label."""
        if pos == len(self.positions):  # the checks below leave only weight 0 and count 0 here
            return {0: [0]}
        key = (pos, weight, count)
        found = self.states.get(key)
        if found is not None:
            return found
        found = {}
        deg, cap, unit, label_step, cap_after, low, high, step = self.positions[pos]
        top = min(cap, count)
        if deg > 0:
            top = min(top, weight // deg)
        for e in range(max(0, count - cap_after), top + 1):
            count_left, weight_left = count - e, weight - e * deg
            if (
                not count_left * low <= weight_left <= count_left * high
                or step and weight_left % step
            ):
                continue
            suffixes = self(weight_left, count_left, pos + 1)
            if suffixes and e > self.field:
                raise OverflowError(f"exponent {e} exceeds the field's largest value {self.field}")
            code_step = e * unit
            for label, codes in suffixes.items():
                listed = found.setdefault(label + e * label_step, [])
                listed.extend(map(code_step.__add__, codes) if e else codes)
        if pos != 1:
            self.states[key] = found
        return found


@lru_cache(maxsize=None)
def degree_gcd(ring: GradedRing) -> int:
    """g, the gcd of the ring's degrees: every monomial's p is a multiple of it, and so is D."""
    return gcd(*(ring.degree(k) for k in range(ring.size)))


@lru_cache(maxsize=None)
def _part_codes(
    ring: GradedRing, reduced: bool, width: int, weights: tuple[int, ...]
) -> tuple[_PartCodes, _PartCodes]:
    """The r-part and s-part searches of a ring, packed at one field width (see `_PartCodes`).

    An odd generator (`basis._odd_flat`) has cap 1 and an even one none: only
    the unit has degree 0, so every entry at a positive degree is bounded by
    the weight, and the unit's length-2 generator is odd. Reduced mode caps
    the top class's r exponent at 1 and its s exponent at 0. An r-part packs
    with zero s exponents and an s-part with zero r exponents, so a
    monomial's code is the sum of its two parts' codes, and its label, under
    the packed class `weights`, the sum of theirs: one label when every
    weight is 0.
    """
    m = ring.top_generator_count
    degrees = [ring.degree(k) for k in (*range(1, m + 1), *range(m + 1))]  # flat order
    caps = [1 if odd else sys.maxsize for odd in _odd_flat(ring)]
    if reduced:
        top = ring.orientation_index
        caps[top - 1], caps[m + top] = 1, 0
    units, field = _field_units(m, width)
    return (
        _PartCodes(degrees[:m], caps[:m], units[:m], weights[1:], field),
        _PartCodes(degrees[m:], caps[m:], units[m:], weights, field),
    )


class PackedPieces(NamedTuple):
    """The pieces of a cell that represent their orbits, packed at the cell's field width.

    A run is the codes of one piece and one length: a contiguous range of
    `codes`, given by its piece's orbit size, its length and its count. The
    runs follow the codes, so each piece's runs come together, by length.
    """

    codes: list[int]  # piece-major, graded by length inside each piece
    runs: list[tuple[int, int, int]]  # (orbit size, length, count), one per non-empty run


def packed_pieces(
    ring: GradedRing, p: int, q: int, n: int, reduced: bool = True, whole: bool = False
) -> PackedPieces:
    """The orbit-representative pieces of cell (p, q) at truncation n (see `basis._Orbits`).

    A monomial of the cell has length 2q plus its r entry count and its label
    is the sum of its parts' labels, so the codes of each (s-part, r-part)
    label pair whose sum represents its orbit go into that label's bucket for
    the r entry count: one bucket per (label, r count), made when first
    filled. A cell whose p is not a multiple of g (`degree_gcd`; an odd p
    when every degree is even) is empty and asks for no list; otherwise only
    the s-weights and r entry counts that the parts' bounds leave open are
    listed, and the ring's `_Orbits` classifies each label once. Inside a
    bucket int order is graded-lex order, so sorting each bucket as ints and
    joining the buckets in (label, r count) order gives each piece in
    graded-lex order, and the pieces in label order; each bucket is one run.
    With `whole`, or on a ring with no symmetry that moves a label, every
    label is 0 and the whole cell is one piece of orbit size 1;
    `decode_codes` decodes that piece.
    """
    if ring.dimension % 2 or not ring.dimension:
        raise ValueError("the bigraded model requires a positive, even-dimensional ring")
    if n < 1:
        raise ValueError("n must be at least 1")
    max_r = n - 2 * q
    if p < 0 or q < 0 or max_r < 0 or p % degree_gcd(ring):
        return PackedPieces([], [])
    orbits = _orbits(ring)
    weights = (0,) * ring.size if whole else orbits.weights
    r_codes, s_codes = _part_codes(ring, reduced, _field_width(ring, p, q), weights)
    buckets: dict[tuple[int, int], list[int]] = {}  # (representative label, r count) -> codes
    for s_weight in s_codes.weights(q, p):
        s_groups = s_codes(s_weight, q)
        if not s_groups:
            continue
        r_weight = p - s_weight
        for count in r_codes.counts(r_weight, max_r):  # r degrees are positive
            for r_label, r_list in r_codes(r_weight, count).items():
                for s_label in s_groups:
                    label = r_label + s_label
                    if orbits[label]:
                        bucket = buckets.get((label, count))
                        if bucket is None:
                            bucket = buckets[label, count] = []
                        s_list = s_groups[s_label]
                        bucket += [r_code + s_code for r_code in r_list for s_code in s_list]
    codes: list[int] = []
    runs = []
    for label, count in sorted(buckets):
        bucket = buckets[label, count]
        bucket.sort()
        codes += bucket
        runs.append((orbits[label], 2 * q + count, len(bucket)))
    return PackedPieces(codes, runs)


def enumerate_basis(
    ring: GradedRing, p: int, q: int, n: int, reduced: bool = True
) -> tuple[Monomial, ...]:
    """All basis monomials of bigrade (p, q) and length <= n, in graded-lex order."""
    return decode_codes(ring, p, q, packed_pieces(ring, p, q, n, reduced, whole=True).codes)


def decode_codes(ring: GradedRing, p: int, q: int, codes: list[int]) -> tuple[Monomial, ...]:
    """The `Monomial`s of codes that `packed_pieces` lists for cell (p, q)."""
    width, m = _field_width(ring, p, q), ring.top_generator_count
    return tuple(_unpack(code, width, m) for code in codes)


class _Kernel:
    """The differential on the basis codes of one ring, `reduced` flag and field width.

    `table` maps an s-part (a code's s fields, `code & s_mask`) to the terms
    of d on every basis code with that s-part: one tuple for top-class r
    exponent 0, one for 1 or more (a reduced basis code has at most 1, and no
    top-class s exponent). A term (delta, odd, sign, value) sends `code` to
    `code + delta` with coefficient `value`, negated when `code & sign` has
    odd popcount, unless `code & odd` holds an odd factor squared. The s
    exponent of the consumed generator and the part of the sign its s-part
    decides are folded into `value`, so `sign` covers r fields only. `fill`
    builds an s-part's entry on its first lookup; the entry is kept as long
    as the kernel, so every cell of every table shares it.
    """

    def __init__(self, ring: GradedRing, reduced: bool, width: int):
        m = ring.top_generator_count
        scale = image_scale(ring)
        # flat positions: r over classes 1..m, then s over classes 0..m
        unit, self.field = _field_units(m, width)
        shift = [u.bit_length() - 1 for u in unit]
        odd = _odd_flat(ring)
        self.s_mask = unit[m] * (self.field + 1) - 1  # the s fields are the lowest m + 1

        def odd_bits(lo: int, hi: int) -> int:
            """The low bits of the odd fields at flat positions lo <= pos < hi."""
            return sum(unit[pos] for pos in range(lo, hi) if odd[pos])

        top = ring.orientation_index
        self.r_top_shift = shift[top - 1]
        self.slots = []
        for j in range(m + 1):
            slot = m + j
            # factors before the slot give the derivation sign; moving an image
            # factor at r position a left past the factors in a < pos < slot
            # gives its Koszul sign. Both are parities of odd factors present,
            # so one mask per term yields them with one popcount.
            preceding = odd_bits(0, slot)
            terms = []
            for image, c in d_generator(ring, j).terms:
                factors = [pos for pos in range(m) if image.r[pos] and odd[pos]]
                sign_mask = preceding
                for pos in factors:
                    sign_mask ^= odd_bits(pos + 1, slot)
                # the term is kept for the top exponents t < kept: reduced mode
                # drops products whose top-class r exponent reaches 2
                kept = 2 - image.r[top - 1] if reduced else 2
                if kept > 0:
                    s_sign = sign_mask & self.s_mask
                    terms.append((
                        _pack(image.r + image.s, width) - unit[slot],
                        sum(unit[pos] for pos in factors),
                        sign_mask ^ s_sign,
                        s_sign,
                        int(c * scale),
                        kept,
                    ))
            self.slots.append((shift[slot], terms))
        self.table: dict[int, tuple[tuple, ...]] = {}
        # one copy of each distinct term, shared by every entry holding it
        self.distinct: dict[tuple, tuple] = {}

    def fill(self, s_part: int) -> tuple[tuple, ...]:
        """Build and keep the table entry of one s-part."""
        field, distinct = self.field, self.distinct
        by_top: tuple[list, ...] = ([], [])
        for shift, terms in self.slots:
            s_j = (s_part >> shift) & field
            if not s_j:
                continue
            for delta, odd_factors, sign, s_sign, coef, kept in terms:
                value = -s_j * coef if (s_part & s_sign).bit_count() & 1 else s_j * coef
                term = (delta, odd_factors, sign, value)
                term = distinct.setdefault(term, term)
                for listed in by_top[:kept]:
                    listed.append(term)
        entry = self.table[s_part] = tuple(map(tuple, by_top))
        return entry


@lru_cache(maxsize=None)
def _kernel(ring: GradedRing, reduced: bool, width: int) -> _Kernel:
    return _Kernel(ring, reduced, width)


def d_monomial(ring: GradedRing, mon: Monomial, reduced: bool = True) -> AlgebraElement:
    """The differential on one monomial, validated and in graded-lex order.

    Reduced, a monomial off the reduced basis (top-class r exponent above 1
    or s exponent above 0) maps to 0: d never lowers those exponents, and d
    of the top class's length-2 generator is its square in length 1, so such
    monomials span a subcomplex, and the reduced model is the quotient by it.
    Otherwise it is the monomial's column of `assemble_matrix` at its length.
    """
    p, q = monomial_bigrade(mon, ring)  # validates shape and exterior constraints
    top = ring.orientation_index
    if reduced and (mon.r[top - 1] > 1 or mon.s[top]):
        return algebra_element({})
    length, width = max(1, sum(mon.r) + 2 * q), _field_width(ring, p, q)
    rows = packed_pieces(ring, p + ring.dimension, q - 1, length, reduced, whole=True).codes
    column = assemble_matrix(ring, p, q, length, reduced, ([_pack(mon.r + mon.s, width)], rows))
    m, scale = ring.top_generator_count, image_scale(ring)
    image = column.entries.items()
    return algebra_element({_unpack(rows[r], width, m): Fraction(v, scale) for (r, _), v in image})


def assemble_matrix(
    ring: GradedRing,
    p: int,
    q: int,
    n: int,
    reduced: bool = True,
    bases: tuple[list[int], list[int]] | None = None,
    cleared: Collection[int] = (),
) -> RationalMatrix:
    """L times the matrix of the differential on cell (p, q) at truncation n.

    Columns follow the domain codes, rows the codomain codes at (p + D, q - 1);
    a q = 0 cell maps to the zero space. Entries are ints. `bases` are the
    domain and codomain codes as `packed_pieces` lists them, whole cells or
    unions of pieces (d keeps labels); without `bases` both are the whole
    cells at n. Every term landing on a codomain code in `cleared` is
    skipped, which leaves that row empty; the engine clears the codomain's
    pivot columns, whose rows are combinations of the others (see `engine`).
    """
    if bases is None:
        bases = tuple(
            packed_pieces(ring, p + ring.dimension * k, q - k, n, reduced, whole=True).codes
            for k in (0, 1)
        )
    domain, codomain = bases
    kernel = _kernel(ring, reduced, _field_width(ring, p, q))
    table, s_mask = kernel.table, kernel.s_mask
    top_shift, field = kernel.r_top_shift, kernel.field
    index: dict[int, int | None] = {code: row for row, code in enumerate(codomain)}
    index.update(dict.fromkeys(cleared))  # a cleared row takes no term
    entries: dict[tuple[int, int], int] = {}
    try:
        for col, code in enumerate(domain):
            by_top = table.get(code & s_mask) or kernel.fill(code & s_mask)
            for delta, odd_factors, sign, value in by_top[min(1, (code >> top_shift) & field)]:
                if not code & odd_factors:
                    row = index[code + delta]
                    if row is not None:
                        entries[row, col] = -value if (code & sign).bit_count() & 1 else value
    except KeyError:
        raise RuntimeError(
            f"differential image escaped cell ({p + ring.dimension}, {q - 1}) at n={n}"
        ) from None
    return RationalMatrix(rows=len(codomain), cols=len(domain), entries=entries)

