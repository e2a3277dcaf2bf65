"""Exact elimination: prefix ranks of sparse rational matrices, and dense row reduction.

Every elimination in the package is one of two routines here. `_profile` ranks
the large sparse matrices of the differential, and `row_reduce` solves the
ring's own small dense systems: its Poincaré pairing blocks and its gradings.

One sparse elimination over Q takes the columns strictly left to right and
pivots each on the live row holding it with the fewest entries, which keeps
fill low (as in structured sparse elimination over finite fields, Dumas &
Villard, CASC 2002). So one pass records the rank of every column prefix, and
one elimination serves every truncation of the same matrix. A column's pivot
and updates touch only rows holding that column, so the pass never mixes the
independent blocks of a matrix (the connected components of its row-column
graph), and ranking the blocks one by one would repeat the same row operations.

The rows hold integers (a column with Fraction entries is first scaled by the
lcm of their denominators) and updates are fraction-free: with pivot a, the
row's entry b and g = gcd(a, b), the row becomes row*(a/g) - pivot_row*(b/g),
and is then divided by the gcd of its entries. A unit pivot (a = 1 or -1)
divides every entry, so the row becomes row - pivot_row*(a*b) with no gcd and
no rescale. Modulo a prime the same update runs on residues, which are reduced
instead of divided; the engine uses it only as a spot check, since reduction
can lower a rank but never raise it.
`row_reduce` makes the same fraction-free update on dense integer rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm


@dataclass
class RationalMatrix:
    """Sparse exact-rational matrix: (row, col) -> nonzero coefficient."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

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


@dataclass(slots=True)
class RankProfile:
    """Ranks over Q of every column prefix of one matrix."""

    prefix_ranks: list[int]  # prefix_ranks[k] = rank of the first k columns

    @property
    def rank(self) -> int:
        return self.prefix_ranks[-1]


def _profile(m: RationalMatrix, cols: int, prime: int = 0) -> RankProfile:
    """Prefix ranks of the first cols columns of m, each column scaled to integers.

    The ranks are over Q, or modulo prime when one is given. Int entries,
    which the engine assembles, are read as they are; a column holding a
    Fraction is scaled by the lcm of its denominators, which keeps every
    prefix rank.
    """
    entries = m.entries
    if not set(map(type, entries.values())) <= {int}:
        scale: dict[int, int] = {}
        for (_, c), v in entries.items():
            scale[c] = lcm(scale.get(c, 1), v.denominator)
        entries = {(r, c): int(v * scale[c]) for (r, c), v in entries.items()}
    # row -> its entries, by column; column -> the live rows holding it. A pivot's
    # row and column are dropped, as no other row or column refers to them again.
    live: list = [None] * m.rows
    holders: list = [set() for _ in range(cols)]
    for (r, c), v in entries.items():
        if c < cols:
            if prime:
                v %= prime
            if v:
                row = live[r]
                if row is None:
                    row = live[r] = {}
                row[c] = v
                holders[c].add(r)
    remaining = sum(map(bool, live))  # live rows
    prefix = [0]  # prefix[-1] = pivots found so far
    for j in range(cols):
        candidates, holders[j] = holders[j], None
        if not candidates:
            prefix.append(prefix[-1])
            continue
        if len(candidates) == 1:
            pivot_row = candidates.pop()
        else:  # the lightest holder makes the least fill; ties go to the lowest row
            pivot_row = min(candidates, key=lambda r: (len(live[r]), r))
            candidates.discard(pivot_row)
        pivot_entries, live[pivot_row] = live[pivot_row], None
        remaining -= 1
        pivot = pivot_entries.pop(j)
        unit = pivot == 1 or pivot == -1
        for c in pivot_entries:
            holders[c].discard(pivot_row)
        for r in candidates:
            row = live[r]
            entry = row.pop(j)
            if unit:  # row - pivot_row * (entry / pivot), and 1 / pivot is pivot
                factor = entry * pivot
            else:  # row * (pivot / g) - pivot_row * (entry / g) keeps integers
                g = gcd(pivot, entry)
                factor, scale = entry // g, pivot // g
                if scale != 1:
                    for c in row:
                        row[c] *= scale
            for c, v in pivot_entries.items():
                value = row.get(c, 0) - factor * v
                if prime:
                    value %= prime
                if value:
                    if c not in row:
                        holders[c].add(r)
                    row[c] = value
                else:  # factor and v are nonzero, so row held c
                    del row[c]
                    holders[c].discard(r)
            if not row:
                remaining -= 1
            elif prime:  # a/g is a nonzero residue, so the update was a row operation
                for c in row:
                    row[c] %= prime
            else:
                content = gcd(*row.values())
                if content != 1:
                    for c in row:
                        row[c] //= content
        prefix.append(prefix[-1] + 1)
        if not remaining:
            prefix.extend([prefix[-1]] * (cols - j - 1))
            break
    return RankProfile(prefix)


def rank_profile_exact(m: RationalMatrix) -> RankProfile:
    """Prefix ranks of m over Q: m.cols + 1 entries, from one left-to-right elimination."""
    return _profile(m, m.cols)


def rank_profile_modular(
    m: RationalMatrix, prime: int, col_cap: int | None = None
) -> RankProfile:
    """Prefix ranks modulo prime of m with its columns scaled to integers.

    Each is at most the rank over Q of the same prefix. The profile stops after
    col_cap columns when one is given; perfbench's tracer passes it by position.
    """
    return _profile(m, m.cols if col_cap is None else min(col_cap, m.cols), prime)


def row_reduce(rows) -> list[tuple[int, list[int]]]:
    """Fraction-free Gauss-Jordan of dense integer rows of one width.

    Returns (pivot column, row) for each pivot, by increasing column: each
    pivot row ends up alone in its pivot column, and row / row[column] is the
    matching row of the reduced row echelon form.
    """
    rows = [list(row) for row in rows]
    solved: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for col in range(len(rows[0]) if rows else 0):
        found = next((row for row in rows if row[col]), None)
        if found is None:
            continue

        def eliminate(row: list[int]) -> list[int]:
            if not row[col]:
                return row
            g = gcd(found[col], row[col])
            row = [found[col] // g * x - row[col] // g * y for x, y in zip(row, found)]
            content = gcd(*row)
            return [x // content for x in row] if content > 1 else row

        rows = [row for row in map(eliminate, rows) if any(row)]
        solved = [(c, eliminate(row)) for c, row in solved] + [(col, found)]
    return solved
