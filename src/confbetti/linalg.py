"""Exact and modular rank computation for sparse rational matrices.

The exact path clears denominators per column and runs fraction-free
(Bareiss-style) integer elimination with Markowitz pivoting and deferred row
scaling. The modular path eliminates sparse rows over a large prime field and
records the rank of every column prefix in one pass, so one elimination serves
every truncation of the same matrix. It takes the columns strictly left to
right, and pivots each on the live row holding it with the fewest entries,
which keeps fill low (as in structured sparse elimination over finite fields,
Dumas & Villard, CASC 2002).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

# Fixed large primes for the modular pre-pass; later entries are retry spares.
PRIMES = (1000003, 999983, 999979, 999961, 999959)

# Largest mod-p rank of a rank-deficient block that the hybrid path ranks
# exactly; a deficient block above it is only cross-checked at a second prime.
CERTIFICATION_LIMIT = 64


class UnusablePrimeError(ValueError):
    """The prime divides the denominator of some entry."""


@dataclass
class RationalMatrix:
    """Sparse exact-rational matrix: (row, col) -> nonzero coefficient."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def transpose(self) -> RationalMatrix:
        flipped = {(c, r): v for (r, c), v in self.entries.items()}
        return RationalMatrix(rows=self.cols, cols=self.rows, entries=flipped)

    def matmul(self, other: RationalMatrix) -> RationalMatrix:
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        rows_by_inner: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, k), v in self.entries.items():
            rows_by_inner.setdefault(k, []).append((r, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (k, c), w in other.entries.items():
            for r, v in rows_by_inner.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, Fraction(0)) + v * w
        out = {key: v for key, v in out.items() if v}
        return RationalMatrix(rows=self.rows, cols=other.cols, entries=out)

    def column_prefix(self, cols: int, rows: int | None = None) -> RationalMatrix:
        """The first `cols` columns; `rows` drops the trailing rows they leave empty."""
        kept = {(r, c): v for (r, c), v in self.entries.items() if c < cols}
        rows = self.rows if rows is None else rows
        if any(r >= rows for r, _ in kept):
            raise ValueError(f"the first {cols} columns have entries below row {rows}")
        return RationalMatrix(rows=rows, cols=cols, entries=kept)

    def dump_triplets(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for (r, c), v in sorted(self.entries.items()):
            lines.append(f"{r} {c} {v}")
        return "\n".join(lines) + "\n"


class Block(NamedTuple):
    """One connected component of a matrix's row-column graph."""

    rows: tuple[int, ...]  # increasing global row indices
    cols: tuple[int, ...]  # increasing global column indices
    matrix: RationalMatrix  # local entry (i, j) is global entry (rows[i], cols[j])


def split_blocks(m: RationalMatrix) -> list[Block]:
    """The connected components of m's row-column graph, ordered by first column.

    No entry links two blocks, so the rank of m and of every column prefix is
    the sum over the blocks. Rows and columns without entries are in no block;
    the local matrices share the Fraction objects of m.
    """
    parent = list(range(m.rows + m.cols))  # row r is node r, column c is node rows + c

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for r, c in m.entries:
        a, b = find(r), find(m.rows + c)
        if a != b:
            parent[a] = b
    groups: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (r, c), v in m.entries.items():
        groups.setdefault(find(r), []).append((r, c, v))
    blocks = []
    for group in groups.values():
        rows = sorted({r for r, _, _ in group})
        cols = sorted({c for _, c, _ in group})
        row_at = {r: i for i, r in enumerate(rows)}
        col_at = {c: j for j, c in enumerate(cols)}
        local = {(row_at[r], col_at[c]): v for r, c, v in group}
        blocks.append(Block(tuple(rows), tuple(cols), RationalMatrix(len(rows), len(cols), local)))
    return sorted(blocks, key=lambda block: block.cols[0])


def _integer_rows(m: RationalMatrix) -> dict[int, dict[int, int]]:
    """Clear denominators per column (a rank-preserving column scaling)."""
    col_scale: dict[int, int] = {}
    for (_, c), v in m.entries.items():
        col_scale[c] = lcm(col_scale.get(c, 1), v.denominator)
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in m.entries.items():
        value = int(v * col_scale[c])
        if value:
            rows.setdefault(r, {})[c] = value
    return rows


def rank(m: RationalMatrix) -> int:
    """Exact rank over Q by fraction-free elimination with Markowitz pivoting.

    Rows untouched for several steps carry a stamp and are rescaled lazily by
    the exact ratio of pivot minors, keeping the elimination single-pass over
    the sparse structure.
    """
    rows = _integer_rows(m)
    col_count: dict[int, int] = {}
    for row in rows.values():
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
    stamp = {r: 0 for r in rows}
    minors = [1]  # minors[t] = Bareiss pivot after step t
    steps = 0
    while rows:
        best: tuple[tuple[int, int, int], int, int] | None = None
        for r, row in rows.items():
            row_weight = len(row) - 1
            for c in row:
                key = (row_weight * (col_count[c] - 1), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
        assert best is not None
        _, pr, pc = best

        def materialize(r: int) -> dict[int, int]:
            row = rows[r]
            if stamp[r] != steps:
                num, den = minors[steps], minors[stamp[r]]
                row = {c: v * num // den for c, v in row.items()}
                rows[r] = row
                stamp[r] = steps
            return row

        pivot_row = materialize(pr)
        pivot = pivot_row[pc]
        previous = minors[steps]
        steps += 1
        minors.append(pivot)
        for c in pivot_row:
            col_count[c] -= 1
        del rows[pr]
        for r in list(rows):
            if pc not in rows[r]:
                continue
            row = materialize(r)
            multiplier = row.pop(pc)
            col_count[pc] -= 1
            updated: dict[int, int] = {}
            for c, v in row.items():
                if c == pc:
                    continue
                value = (v * pivot - multiplier * pivot_row.get(c, 0)) // previous
                if value:
                    updated[c] = value
                else:
                    col_count[c] -= 1
            for c in pivot_row:
                if c != pc and c not in row:
                    value = -multiplier * pivot_row[c] // previous
                    if value:
                        updated[c] = value
                        col_count[c] = col_count.get(c, 0) + 1
            if updated:
                rows[r] = updated
                stamp[r] = steps
            else:
                del rows[r]
                del stamp[r]
    return steps


@dataclass
class RankProfile:
    """Ranks of every column prefix of one matrix modulo one prime."""

    prime: int
    prefix_ranks: list[int]  # prefix_ranks[k] = rank of the first k columns

    @property
    def rank(self) -> int:
        return self.prefix_ranks[-1]


def _residue_triples(m: RationalMatrix, prime: int, col_cap: int) -> list[tuple[int, int, int]]:
    triples = []
    for (r, c), v in m.entries.items():
        if c >= col_cap:
            continue
        if type(v) is int:  # what the engine assembles
            residue = v % prime
        else:
            if v.denominator % prime == 0:
                raise UnusablePrimeError(f"prime {prime} divides a denominator")
            residue = v.numerator % prime
            if v.denominator != 1:
                residue = residue * pow(v.denominator % prime, prime - 2, prime) % prime
        if residue:
            triples.append((r, c, residue))
    return triples


def _profile(col_cap: int, triples: list[tuple[int, int, int]], prime: int) -> RankProfile:
    live: dict[int, dict[int, int]] = {}  # row -> its nonzero residues, by column
    holders: dict[int, set[int]] = {}  # column -> the live rows with an entry there
    for r, c, v in triples:
        live.setdefault(r, {})[c] = v
        holders.setdefault(c, set()).add(r)
    prefix = [0]  # prefix[-1] = pivots found so far
    for j in range(col_cap):
        candidates = holders.pop(j, None)
        if not candidates:
            prefix.append(prefix[-1])
            continue
        # the lightest holder makes the least fill; ties go to the lowest row
        pivot_row = min(candidates, key=lambda r: (len(live[r]), r))
        candidates.discard(pivot_row)
        pivot_entries = live.pop(pivot_row)
        inverse = pow(pivot_entries.pop(j), prime - 2, prime)
        for c in pivot_entries:
            holders[c].discard(pivot_row)
        for r in candidates:
            row = live[r]
            factor = row.pop(j) * inverse % prime
            for c, v in pivot_entries.items():
                value = (row.get(c, 0) - factor * v) % prime
                if value:
                    if c not in row:
                        holders[c].add(r)
                    row[c] = value
                else:  # factor and v are nonzero, so row held c
                    del row[c]
                    holders[c].discard(r)
            if not row:
                del live[r]
        prefix.append(prefix[-1] + 1)
        if not live:
            prefix.extend([prefix[-1]] * (col_cap - j - 1))
            break
    return RankProfile(prime=prime, prefix_ranks=prefix)


def rank_profile_modular(
    m: RationalMatrix, prime: int, col_cap: int | None = None
) -> RankProfile:
    """Prefix ranks of m modulo prime, eliminating columns strictly left to right."""
    cap = m.cols if col_cap is None else min(col_cap, m.cols)
    return _profile(cap, _residue_triples(m, prime, cap), prime)
