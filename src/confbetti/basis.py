"""Bigraded, length-filtered monomial bases of the truncated two-step model algebra.

The model algebra is free graded-commutative on two families of generators
derived from a ring basis {y_0 = 1, y_1, ..., y_m}:

- one length-1 generator per positive-degree class y_i (i = 1..m), carrying
  bigrade (|y_i|, 0) and the parity of |y_i|;
- one length-2 generator per class y_j (j = 0..m, unit included), carrying
  bigrade (|y_j|, 1) and the parity of |y_j| + 1.

Truncating to total length <= n models n unlabeled points.

A cell (p, q) is enumerated as pairs of exponent vectors: every s-vector with
q entries and weight at most p, completed by every r-vector of the remaining
weight and length at most n - 2q. The r-vectors depend only on that remaining
weight, so each weight is enumerated once per cell. Both searches cut a branch
as soon as the positions left cannot reach the target, and one final sort puts
the cell in graded-lex order.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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


def monomial_length(mon: Monomial) -> int:
    """Length-1 generators count once, length-2 generators twice."""
    return sum(mon.r) + 2 * sum(mon.s)


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


def multiply_monomials(ring: GradedRing, a: Monomial, b: Monomial) -> tuple[int, Monomial | None]:
    """Product in the free graded-commutative algebra: (sign, monomial) or (0, None)."""
    e1 = a.r + a.s
    e2 = b.r + b.s
    odd = _odd_flat(ring)
    crossings = 0
    passed = 0  # odd factors of `a` seen so far, scanning from the top position down
    for pos in range(len(odd) - 1, -1, -1):
        if not odd[pos]:
            continue
        if e1[pos] and e2[pos]:
            return 0, None
        if e2[pos]:
            crossings += passed
        if e1[pos]:
            passed += 1
    merged = tuple(x + y for x, y in zip(e1, e2))
    m = ring.top_generator_count
    return (1 if crossings % 2 == 0 else -1), Monomial(merged[:m], merged[m:])


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


def _vectors(
    degrees: tuple[int, ...],
    caps: tuple[int, ...],
    weight: int,
    count: int,
    *,
    exact_weight: bool,
    exact_count: bool,
) -> list[tuple[int, ...]]:
    """Exponent vectors with weighted degree sum and entry count bounded (or hit exactly).

    A branch stops as soon as it cannot finish: the positions from `pos` on
    hold at most cap_left[pos] entries, each of degree at most deg_left[pos].
    """
    size = len(degrees)
    cap_left = [0] * (size + 1)
    deg_left = [0] * (size + 1)
    for pos in range(size - 1, -1, -1):
        cap_left[pos] = cap_left[pos + 1] + caps[pos]
        deg_left[pos] = max(deg_left[pos + 1], degrees[pos])
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def descend(pos: int, weight_left: int, count_left: int) -> None:
        if exact_count and count_left > cap_left[pos]:
            return
        if exact_weight and weight_left > min(count_left, cap_left[pos]) * deg_left[pos]:
            return
        if pos == size:  # the checks above leave only exact hits here
            found.append(tuple(prefix))
            return
        deg = degrees[pos]
        top = min(caps[pos], count_left)
        if deg > 0:
            top = min(top, weight_left // deg)
        for e in range(top + 1):
            prefix.append(e)
            descend(pos + 1, weight_left - e * deg, count_left - e)
            prefix.pop()

    if weight >= 0 and count >= 0:
        descend(0, weight, count)
    return found


def _cell_monomials(
    ring: GradedRing, p: int, q: int, n: int, reduced: bool
) -> tuple[Monomial, ...]:
    m = ring.top_generator_count
    top = ring.orientation_index
    big = p + 1  # effectively unbounded exponent for even generators
    r_degs = tuple(ring.degree(i) for i in range(1, m + 1))
    r_caps = []
    for i in range(1, m + 1):
        cap = 1 if ring.is_odd(i) else big
        if reduced and i == top:
            cap = min(cap, 1)
        r_caps.append(cap)
    s_degs = tuple(ring.degree(j) for j in range(m + 1))
    s_caps = []
    for j in range(m + 1):
        cap = 1 if not ring.is_odd(j) else big
        if reduced and j == top:
            cap = 0
        s_caps.append(cap)

    max_r = n - 2 * q
    if max_r < 0:
        return ()
    found = []
    r_by_weight: dict[int, list[tuple[int, ...]]] = {}  # s-weight -> r-vectors completing it
    for s_vec in _vectors(s_degs, tuple(s_caps), p, q, exact_weight=False, exact_count=True):
        s_weight = sum(e * d for e, d in zip(s_vec, s_degs))
        r_vecs = r_by_weight.get(s_weight)
        if r_vecs is None:
            r_vecs = _vectors(
                r_degs, tuple(r_caps), p - s_weight, max_r, exact_weight=True, exact_count=False
            )
            r_by_weight[s_weight] = r_vecs
        found.extend(Monomial(r_vec, s_vec) for r_vec in r_vecs)
    found.sort(key=lambda mon: (sum(mon.r) + sum(mon.s), mon.r + mon.s))
    return tuple(found)


def enumerate_basis(
    ring: GradedRing, p: int, q: int, n: int, reduced: bool = True
) -> tuple[Monomial, ...]:
    """All basis monomials of bigrade (p, q) and length <= n, in graded-lex order."""
    if ring.dimension % 2:
        raise ValueError("the bigraded model requires an even-dimensional ring")
    if n < 1:
        raise ValueError("n must be at least 1")
    if p < 0 or q < 0:
        return ()
    return _cell_monomials(ring, p, q, n, reduced)
