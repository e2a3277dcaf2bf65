"""Monomials of the truncated two-step model algebra, and the ring's grading and symmetry.

The model algebra is free graded-commutative on two families of generators
derived from a ring basis {y_0 = 1, y_1, ..., y_m}:

- one length-1 generator per positive-degree class y_i (i = 1..m), carrying
  bigrade (|y_i|, 0) and the parity of |y_i|;
- one length-2 generator per class y_j (j = 0..m, unit included), carrying
  bigrade (|y_j|, 1) and the parity of |y_j| + 1.

Truncating to total length <= n models n unlabeled points.

This module keeps the monomial API: `Monomial`, its bigrade
(`monomial_bigrade`), its printed form (`format_monomial`) and the parity of
each generator (`_odd_flat`), the one rule that caps an odd exponent at 1.
Which monomials a cell holds is decided in `differential` (`_part_codes`).
It also keeps the ring's symmetry: a cell splits into pieces by the ring's
grading (`grading`), and one piece per orbit of the ring's automorphisms
(`automorphisms`, `_Orbits`) is kept; both are found from the product table
on first use, once per ring.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .linalg import row_reduce
from .rings import GradedRing


class Monomial(NamedTuple):
    """Exponent vectors: r over the length-1 generators, s over the length-2 ones."""

    r: tuple[int, ...]  # indexed by ring basis index - 1 (classes y_1..y_m)
    s: tuple[int, ...]  # indexed by ring basis index (classes y_0..y_m)


@lru_cache(maxsize=None)
def _odd_flat(ring: GradedRing) -> tuple[bool, ...]:
    """Parity of each generator in flat order (all r positions, then all s positions)."""
    m = ring.top_generator_count
    length_one = [ring.is_odd(i) for i in range(1, m + 1)]
    length_two = [not ring.is_odd(j) for j in range(m + 1)]
    return tuple(length_one + length_two)


def monomial_bigrade(mon: Monomial, ring: GradedRing) -> tuple[int, int]:
    """(p, q): weighted degree over the ring, and the length-2 generator count."""
    m = ring.top_generator_count
    if len(mon.r) != m or len(mon.s) != m + 1:
        raise ValueError("exponent vectors do not match the ring basis")
    for pos, odd in enumerate(_odd_flat(ring)):
        exponent = mon.r[pos] if pos < m else mon.s[pos - m]
        if odd and exponent > 1:
            raise ValueError(f"odd generator at flat position {pos} has exponent {exponent}")
    p = sum(e * ring.degree(i + 1) for i, e in enumerate(mon.r))
    p += sum(e * ring.degree(j) for j, e in enumerate(mon.s))
    return p, sum(mon.s)


def format_monomial(ring: GradedRing, mon: Monomial) -> str:
    """Human-readable form for dumps; length-2 generators carry a ~ suffix."""
    parts = []
    for i, e in enumerate(mon.r):
        if e:
            label = ring.basis[i + 1].label
            parts.append(label if e == 1 else f"{label}^{e}")
    for j, e in enumerate(mon.s):
        if e:
            label = f"{ring.basis[j].label}~"
            parts.append(label if e == 1 else f"{label}^{e}")
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=None)
def grading(ring: GradedRing) -> tuple[tuple[int, ...], ...]:
    """An integer basis of the ring's gradings, as one weight vector per class.

    A grading gives each class a rational weight w, with w = 0 on the unit and
    the top class and w_i + w_j = w_k whenever c_ij^k is nonzero. The result
    holds, for each class, its weight under every basis grading: vectors of
    length 0 when the only grading is 0 (as on cpK).
    """
    size = ring.size
    equations = {tuple(int(k == c) for k in range(size)) for c in (0, ring.orientation_index)}
    for i in range(size):
        for j in range(i, size):
            for c, _ in ring.products[i][j]:
                row = [0] * size
                row[i] += 1
                row[j] += 1
                row[c] -= 1
                equations.add(tuple(row))
    solved = row_reduce(equations)
    pivot_cols = {c for c, _ in solved}
    basis = []
    for free in range(size):
        if free in pivot_cols:
            continue
        scale = lcm(*(abs(row[c]) for c, row in solved if row[free]))
        vector = [0] * size
        vector[free] = scale
        for c, row in solved:
            vector[c] = -row[free] * scale // row[c]
        content = gcd(*vector)
        basis.append([x // content for x in vector])
    return tuple(tuple(vector[k] for vector in basis) for k in range(size))


class Automorphisms(NamedTuple):
    order: int  # of the group the generators generate
    generators: tuple[tuple[tuple[int, int], ...], ...]  # sigma[k] = (image, sign) of y_k


# placements the search may check: a K3 surface's ring (22 classes in degree 2) takes 93,048
_SEARCH_BUDGET = 200_000


class _SearchCut(Exception):
    """The automorphism search ran past its budget."""


@lru_cache(maxsize=None)
def automorphisms(ring: GradedRing) -> Automorphisms:
    """Signed permutations of the classes within each degree that fix the unit
    and the top class and preserve every structure constant.

    The search backtracks over the product table along a stabilizer chain,
    from its last level up: with the classes before level t fixed, it looks
    for an automorphism taking class t to each image (class and sign) that
    the automorphisms kept so far do not reach, and keeps each one it finds.
    The kept ones then reach every image class t can reach, and the sizes of
    these orbits multiply to the group order. A product y_i * y_j is checked
    as soon as every class it involves is placed.
    """
    size, top = ring.size, ring.orientation_index
    order = [k for k in range(1, size) if k != top]
    order.sort(key=ring.degree)
    position = {k: pos for pos, k in enumerate(order)}
    images = {k: [c for c in order if ring.degree(c) == ring.degree(k)] for k in order}
    checks: list[list[tuple[int, int]]] = [[] for _ in order]
    for i in order:
        for j in order:
            if i <= j:
                involved = [i, j, *(c for c, _ in ring.products[i][j])]
                last = max(position.get(c, -1) for c in involved)
                checks[last].append((i, j))
    sigma = [(k, 1) for k in range(size)]
    used: set[int] = set()
    budget = _SEARCH_BUDGET

    def holds(pos: int) -> bool:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise _SearchCut
        for i, j in checks[pos]:
            (a, sign_a), (b, sign_b) = sigma[i], sigma[j]
            sign = sign_a * sign_b
            mapped = [(sigma[c][0], sign * sigma[c][1] * v) for c, v in ring.products[i][j]]
            if tuple(sorted(mapped)) != ring.products[a][b]:
                return False
        return True

    def extend(pos: int) -> bool:
        """Place the classes from pos on; True, with sigma filled in, if they fit."""
        if pos == len(order):
            return True
        k = order[pos]
        for image in images[k]:
            if image in used:
                continue
            used.add(image)
            for sign in (1, -1):
                sigma[k] = (image, sign)
                if holds(pos) and extend(pos + 1):
                    return True
            used.discard(image)
        return False

    group_order, generators = 1, []
    try:
        for level in reversed(range(len(order))):
            k = order[level]
            orbit = {(k, 1)}  # of y_k, under the generators kept so far, which fix order[:level]
            for image in images[k]:
                for sign in (1, -1):
                    if image in order[:level] or (image, sign) in orbit:
                        continue
                    sigma[:] = [(c, 1) for c in range(size)]
                    sigma[k] = (image, sign)
                    used.clear()
                    used.update(order[:level], (image,))
                    if holds(level) and extend(level + 1):
                        generators.append(tuple(sigma))
                        frontier = list(orbit)
                        while frontier:
                            c, s = frontier.pop()
                            for generator in generators:
                                point = (generator[c][0], s * generator[c][1])
                                if point not in orbit:
                                    orbit.add(point)
                                    frontier.append(point)
            group_order *= len(orbit)
    except _SearchCut:  # keep no automorphism: every cell stays one piece
        return Automorphisms(1, ())
    return Automorphisms(group_order, tuple(generators))


_LABEL_BITS = 32  # per coordinate of a packed label


def _pack_label(coordinates) -> int:
    """A label as one int, one signed field per coordinate: packed labels add as vectors."""
    return sum(x << _LABEL_BITS * l for l, x in enumerate(coordinates))


class _Orbits(dict):
    """Monomial labels under the ring's grading, and their orbits under its automorphisms.

    A monomial's label is the sum of the weights (`grading`) of its
    generators' classes, each counted with its exponent, packed into one int;
    d keeps it, so a cell splits into one piece per label. A ring automorphism
    σ induces a chain automorphism that keeps bigrade and length and maps the
    piece of label w onto the piece of σ(w), which has the same rank profile.
    σ acts on labels by a matrix, held here as its packed columns over
    `scale`: column l is the weight of the image of a class weighing a
    multiple of axis l only. Without a grading, or when no automorphism moves
    a label, every label is 0 and a cell is one piece; there is no search
    without a grading. Label 0 is fixed by every σ. As a dict, it maps each
    label met so far to its orbit's size if the label is the orbit's least
    member (the piece kept for the orbit), else to 0; a new label's whole
    orbit is classified on its first lookup, so once per ring.
    """

    def __init__(self, ring: GradedRing):
        weights = grading(ring)
        self.rank = len(weights[0])
        axes = [
            next((k, w[l]) for k, w in enumerate(weights) if w[l] and sum(map(bool, w)) == 1)
            for l in range(self.rank)
        ]
        self.scale = lcm(*(d for _, d in axes)) if self.rank else 1
        identity = tuple(self.scale << _LABEL_BITS * l for l in range(self.rank))
        self.actions: list[tuple[int, ...]] = []
        for sigma in automorphisms(ring).generators if self.rank else ():
            action = tuple(
                _pack_label(x * (self.scale // d) for x in weights[sigma[k][0]]) for k, d in axes
            )
            if action != identity and action not in self.actions:
                self.actions.append(action)
        self.weights = tuple(map(_pack_label, weights)) if self.actions else (0,) * ring.size

    def __missing__(self, label: int) -> int:
        """Classify the orbit of a new label: its least member maps to its size, the rest to 0."""
        half, mask = 1 << _LABEL_BITS - 1, (1 << _LABEL_BITS) - 1
        orbit, frontier = {label}, [label]
        for rest in frontier:  # grows as images are found
            coordinates = []
            for _ in range(self.rank):
                x = (rest + half & mask) - half
                coordinates.append(x)
                rest = (rest - x) >> _LABEL_BITS
            for action in self.actions:
                image = sum(map(mul, coordinates, action)) // self.scale
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        self.update(dict.fromkeys(orbit, 0))
        self[min(orbit)] = len(orbit)
        return self[label]


@lru_cache(maxsize=None)
def _orbits(ring: GradedRing) -> _Orbits:
    return _Orbits(ring)

