"""Betti-number engine: orchestrates enumeration, differentials, and ranks.

Each bigrade cell (p, q) is one record, built once at a truncation t and
indexed by length L <= t: the dimension and the rank over Q of the
differential leaving the cell at truncation L (0 when q = 0: d sends the
cell to the zero space). A record is stored only once it is complete.
Every read is planned first: a plan is one n over (p, q) cells, and it
builds each record at min(saturation, n) (saturation is length p + 2q,
beyond which the cell stops growing). A table reading a cell at some n reads
it at every larger n up to its last, so this is the largest truncation the
table reads the cell at. The record is built by `packed_pieces`, with no `Monomial`
made: the ring's grading splits the cell into pieces, one per label, which d
keeps, and the ring's automorphisms make whole orbits of pieces rank-equal,
so only one piece per orbit is listed, with its orbit size (see
`basis._Orbits`); without a grading or a symmetry that moves a label, a cell
is one piece. The differential preserves length and label, so the matrix is
block-diagonal over the pieces, and within a piece the matrix at any n <= t is
its leading columns of length at most n. The listing comes in runs, one per
piece and length: a dimension or rank at n sums, over the runs of length at
most n, orbit size times the run's count or the rise of the prefix rank
across it. The matrix is assembled once from the packed pieces, ranked by one
exact left-to-right elimination, and dropped, so every rank is proven. When
the columns of the first run (the first piece's shortest monomials) are
rank-deficient, they are also eliminated modulo one prime as a spot check: the
exact ranks may not fall below those anywhere. An empty cell is never
assembled, nor one whose codomain is empty at its truncation: every rank of
its differential is 0. Only the library calls `assemble_matrix` without
bases; it then lists both whole cells.

d maps (p, q) to (p + D, q - 1), so it keeps the chain key p + Dq, and
`_rank_chain` ranks one chain's cells bottom-up, q ascending: each cell is
listed, assembled against the codes of the cell ranked just before it,
ranked and recorded, and only its own codes and prefix ranks, whose rises
mark its pivots, pass on to the next cell. A q = 0 cell, a chain's bottom,
is listed and recorded with ranks 0. `_rank_chain` is a function of the
ring, the model, n and the chain alone: it touches no engine and returns the
chain's records. The codes are its local values, never a record's. Ranking
the codomain first clears rows, as in persistent homology (Chen & Kerber,
EuroCG 2011; Bauer, Kerber & Reininghaus, TopoInVis 2013). Let d' leave the
codomain (p + D, q - 1) of d, and A be the codomain's pivot columns: those
where its prefix rank rises, so d' is injective on them. Since d' d = 0,
each row of d at A is a combination of the rows outside A, in every column,
so deleting those rows keeps the rank of every column prefix: every rank at
every length end of every piece, and the spot check's. Pieces keep this, as
d keeps labels and the codomain's pieces hold the rows of the cell's.
`assemble_matrix` skips every term landing on A. A cell whose codomain the
pass did not rank just before it, such as a chain's first, is assembled
without clearing: it lists its codomain at its own truncation for the rows
only, and keeps no record of it.

A table walks the cells it reads once, in `_table_reads`: each n, then the
cells (p, q) on its lines below n's vanishing bound. The lines only grow
with n, so the reads at the largest n name each cell, at its largest
truncation min(n, p + 2q), and `compute_ranks` plans their cells at the
largest n: `_plan` groups the cells no record covers by chain, q = 0
included, ranks each chain once and stores the records it returns; no other
code stores one, so every record is a cell some plan named. A table's cells
of one chain form one interval of q, so each cell but the chain's lowest is
cleared. A single value plans just the cells it reads, at its own n; a read
that no plan covered raises `InternalConsistencyError`. A pool job is one
chain: it carries the ring and returns the chain's records, so the parent
lists no cell. Every monomial's p, and D, are multiples of g (`degree_gcd`),
the gcd of the ring's degrees (2 when all are even), so p steps by g: a cell
off that lattice is empty, like its source, and is neither planned nor read.
Every Betti number is then a sum of limit-page dimensions over its line's
cells: a single query sums one line, and a table adds each read into its
line. `_limit_dim` reads the dimension and the two ranks straight off the
records and raises `InternalConsistencyError` when they leave a negative
dimension.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate

from .differential import assemble_matrix, degree_gcd, packed_pieces
from .linalg import RankProfile, RationalMatrix, rank_profile_modular
from .linalg import rank_profile_exact as exact_rank
from .rings import GradedRing


class InternalConsistencyError(RuntimeError):
    """A provable inequality came out false: abort loudly."""


# The spot check's modulus (see the module docstring). perfbench's traced smoke
# run also expects this call: it looks for a `linalg.modular` span with a prime.
_CHECK_PRIME = 1000003


def vanishing_bound(ring: GradedRing, n: int) -> int:
    """Cohomological degree from which all Betti numbers of n points vanish."""
    return (ring.dimension - 1) * n + 2


class _Cell:
    """One bigrade cell, built at truncation t; it serves every n with min(n, p + 2q) <= t."""

    def __init__(self, truncation: int, dims: list[int], ranks: list[int]):
        self.truncation = truncation
        self.dims = dims  # dims[L] = basis monomials of length <= L, for L <= truncation
        self.ranks = ranks  # ranks[L] = rank of d on the monomials of length <= L


def _per_length(runs, prefix, truncation: int) -> list[int]:
    """[L] for L <= truncation: the sum, over runs of length <= L, of orbit size times rise.

    A run's rise is that of prefix from the run's first column to past its
    last. With prefix[k] = k this counts the monomials of length <= L. With a
    matrix's prefix ranks it is the rank at L: d keeps labels, so the matrix
    is block-diagonal over the pieces, and a piece's rank at L is the rise
    of the prefix rank from the piece's start to its end at L.
    """
    added, start = [0] * (truncation + 1), 0
    for orbit, length, count in runs:
        end = start + count
        added[length] += orbit * (prefix[end] - prefix[start])
        start = end
    return list(accumulate(added))


def _rank_chain(
    ring: GradedRing, reduced: bool, n: int, chain: list[tuple[int, int]]
) -> dict[tuple[int, int], _Cell]:
    """The records of the cells (p, q) of one chain p + Dq, q ascending, at min(saturation, n).

    Each cell is listed, ranked over Q in one pass against the codes of
    its codomain (p + D, q - 1), and returned as a complete record; a q = 0
    cell ranks 0, as d sends it to the zero space. The codomain ranked
    just before gives its codes as the rows and its pivot codes to clear;
    any other is listed at the cell's truncation t for its rows alone
    (rows longer than t would stay empty: d never raises length) and not
    returned. It reads and writes no engine, so a pool job is one call.
    """
    records = {}
    below = None  # the q, codes and prefix ranks of the cell ranked last
    for p, q in chain:
        t = min(max(1, p + 2 * q), n)  # `packed_pieces` lists from length 1
        codes = packed_pieces(ring, p, q, t, reduced)
        dims = _per_length(codes.runs, range(len(codes.codes) + 1), t)
        ranks, prefix = [0] * (t + 1), ()  # an empty cell ranks 0
        if q and dims[-1]:
            cleared = ()
            if below and below[0] == q - 1:
                _, rows, ranked = below
                rises = zip(rows.codes, ranked, ranked[1:])
                cleared = {code for code, before, after in rises if after > before}
            else:
                rows = packed_pieces(ring, p + ring.dimension, q - 1, t, reduced)
            if any(length <= t for _, length, _ in rows.runs):  # else no row at t
                bases = (codes.codes, rows.codes)
                matrix = assemble_matrix(ring, p, q, t, reduced, bases=bases, cleared=cleared)
                profile = exact_rank(matrix)
                prefix = profile.prefix_ranks
                shortest = codes.runs[0][2]  # the first piece's shortest monomials
                if prefix[shortest] < shortest:  # else no prime ranks higher
                    _spot_check(matrix, profile, shortest, (p, q))
                ranks = _per_length(codes.runs, prefix, t)
        records[p, q] = _Cell(t, dims, ranks)
        below = q, codes, prefix
    return records


def _spot_check(
    matrix: RationalMatrix, profile: RankProfile, k: int, cell: tuple[int, int]
) -> None:
    """Reduction modulo a prime never raises a rank, so the exact profile dominates."""
    modular = rank_profile_modular(matrix, _CHECK_PRIME, k)
    if any(m > e for m, e in zip(modular.prefix_ranks, profile.prefix_ranks)):
        raise InternalConsistencyError(
            f"exact prefix ranks {profile.prefix_ranks[: k + 1]} fall below the ranks "
            f"{modular.prefix_ranks} modulo {_CHECK_PRIME} in cell {cell}"
        )


class BettiEngine:
    """Per-ring computation state: one record per bigrade cell."""

    def __init__(self, ring: GradedRing, reduced: bool = True):
        if ring.dimension % 2:
            raise ValueError("the spectral-sequence engine requires even dimension")
        if not ring.dimension:
            raise ValueError("the spectral-sequence engine requires a positive dimension")
        self.ring = ring
        self.reduced = reduced
        self._cells: dict[tuple[int, int], _Cell] = {}
        self._p_step = degree_gcd(ring)  # the p of every monomial is a multiple of it
        self.uncertified_cells: list[tuple[int, int, int]] = []  # always empty; perfbench reads it

    # -- cell records -----------------------------------------------------------

    def _covered(self, p: int, q: int, n: int) -> _Cell | None:
        """The record of cell (p, q) if it covers truncation n."""
        cell = self._cells.get((p, q))
        return cell if cell and cell.truncation >= min(n, p + 2 * q) else None

    def _ranked(self, p: int, q: int, n: int) -> _Cell:
        """The record of cell (p, q), covered by a plan, else an internal error."""
        cell = self._covered(p, q, n)
        if cell is None:
            raise InternalConsistencyError(f"no plan ranked cell ({p}, {q}) at n={n}")
        return cell

    # -- ranks ----------------------------------------------------------------

    def rank(self, p: int, q: int, n: int) -> int:
        """Rank of the differential leaving cell (p, q) at truncation n.

        Both bases are graded by length and the differential preserves it, so
        the matrix at n is the cell's columns of length at most n.
        """
        if q <= 0 or p < 0 or n < 2 * q or p % self._p_step:  # else the cell is empty
            return 0
        self._plan(n, [(p, q)])
        cell = self._ranked(p, q, n)
        return cell.ranks[min(n, cell.truncation)]

    # -- dimensions of the limit page and Betti numbers ------------------------

    def e_infinity_dim(self, p: int, q: int, n: int) -> int:
        """dim of the limit page at (p, q) for n points, once the cells it reads are planned.

        The cell's dimension at n less the ranks of d leaving it and entering
        it from its source (p - D, q + 1), which follows it in its chain.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        if p < 0 or q < 0 or n < 2 * q or p % self._p_step:  # else it and its source are empty
            return 0
        self._plan(n, [(p, q), (p - self.ring.dimension, q + 1)])
        return self._limit_dim(p, q, n)

    def _limit_dim(self, p: int, q: int, n: int) -> int:
        """dim of the limit page at (p, q) for n points, read off planned records."""
        cell = self._ranked(p, q, n)
        value = cell.dims[min(n, cell.truncation)]
        if not value:
            return 0
        value -= cell.ranks[min(n, cell.truncation)]
        if p >= self.ring.dimension and n >= 2 * q + 2:
            source = self._ranked(p - self.ring.dimension, q + 1, n)  # d enters from the source
            value -= source.ranks[min(n, source.truncation)]
        if value < 0:
            raise InternalConsistencyError(
                f"negative limit-page dimension {value} at (p={p}, q={q}, n={n})"
            )
        return value

    def betti_raw(self, i: int, n: int) -> int:
        """Sum of limit-page dimensions along the line, with no vanishing shortcut."""
        if i < 0:
            return 0
        row_weight = self.ring.dimension - 1
        return sum(
            self.e_infinity_dim(i - row_weight * q, q, n)
            for q in range(min(i // row_weight, n // 2) + 1)
            if not (i - row_weight * q) % self._p_step  # else the cell is empty
        )

    def betti_number(self, i: int, n: int) -> int:
        if n < 1:
            raise ValueError("n must be at least 1")
        return 0 if i >= vanishing_bound(self.ring, n) else self.betti_raw(i, n)

    # -- planning and tables ----------------------------------------------------

    def _table_reads(self, n_min: int, n_max: int, i_max: int):
        """The (p, q, n) a table over the grid reads the limit page at: n, then q, then p.

        n reads the cells on line i = p + (D - 1) q with 2q <= n and
        i <= min(i_max, vanishing_bound(n) - 1), p on the degree lattice.
        """
        row_weight = self.ring.dimension - 1
        for n in range(n_min, n_max + 1):
            top = min(i_max, vanishing_bound(self.ring, n) - 1)
            for q in range(min(n // 2, top // row_weight) + 1):
                for p in range(0, top - row_weight * q + 1, self._p_step):
                    yield p, q, n

    def required_ranks(self, n_min: int, n_max: int, i_max: int) -> list[tuple[int, int, int]]:
        """Distinct (p, q, n_eff) rank computations a table over the grid needs, sorted.

        A read of cell (p, q) at n needs the rank leaving it, if q >= 1, at
        truncation min(n, p + 2q), and the rank entering it, whose source the
        table also reads at n. The matrix dump writes one matrix per entry.
        """
        reads = self._table_reads(n_min, n_max, i_max)
        return sorted({(p, q, min(n, p + 2 * q)) for p, q, n in reads if q})

    def compute_ranks(self, n_max: int, i_max: int, workers: int = 1) -> None:
        """Rank each cell a table up to n_max and i_max reads, once, one chain at a time.

        A table reads a cell at every n from its first read up to n_max, so
        its reads at n_max name every cell, and the table is one plan at n_max.
        """
        cells = ((p, q) for p, q, _ in self._table_reads(n_max, n_max, i_max))
        self._plan(n_max, cells, workers)

    def _plan(self, n: int, cells, workers: int = 1) -> None:
        """Rank and store each cell (p, q) at n not covered yet, with its chain p + Dq.

        A cell with no monomial at n (p < 0 or n < 2q) is skipped. Each
        record is built at min(saturation, n): the limit page reads cell
        dimensions at n too. Each chain's cells come q ascending, and
        `_rank_chain`, which touches no engine, returns their records; this
        is the only place that stores one. The chains run largest key
        first, in this process or, with `workers > 1`, as one pool job each.
        """
        chains: dict[int, list[tuple[int, int]]] = {}
        for p, q in cells:
            if p >= 0 and n >= 2 * q and not self._covered(p, q, n):
                chains.setdefault(p + self.ring.dimension * q, []).append((p, q))
        jobs = [chains[key] for key in sorted(chains, reverse=True)]
        rank_chain = partial(_rank_chain, self.ring, self.reduced, n)
        ranked = map(rank_chain, jobs)
        if workers > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

            # a forking pool starts every worker at once, so ask for no more than can run
            size = min(workers, len(jobs), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=size) as pool:
                ranked = list(pool.map(rank_chain, jobs))
        for records in ranked:
            self._cells.update(records)


@dataclass
class BettiTable:
    """Grid of Betti numbers over an n range, with stabilization metadata."""

    ring: GradedRing
    n_min: int
    n_max: int
    i_max: int
    grid: dict[tuple[int, int], int]  # (n, i) -> Betti number

    @cached_property
    def stabilization_onsets(self) -> dict[int, int]:
        """i -> the least n in the range from which b_i keeps its value at n_max."""
        onsets = {}
        for i in range(self.i_max + 1):
            onset = self.n_max
            while onset > self.n_min and self.grid[(onset - 1, i)] == self.grid[(self.n_max, i)]:
                onset -= 1
            onsets[i] = onset
        return onsets

    def betti(self, n: int, i: int) -> int:
        return self.grid[(n, i)]

    def row(self, n: int) -> list[int]:
        return [self.grid[(n, i)] for i in range(self.i_max + 1)]


_ENGINES: dict[tuple, BettiEngine] = {}


def engine_for(
    ring: GradedRing,
    reduced: bool = True,
    exact_only: bool = False,  # ignored: every rank is exact; perfbench still passes it
) -> BettiEngine:
    """Shared per-ring engine so cell records persist across queries."""
    key = (ring, reduced)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = _ENGINES[key] = BettiEngine(ring, reduced=reduced)
    return engine


def betti_number(ring: GradedRing, i: int, n: int, reduced: bool = True) -> int:
    return engine_for(ring, reduced).betti_number(i, n)


def betti_table(
    ring: GradedRing,
    n_min: int,
    n_max: int,
    i_max: int,
    *,
    reduced: bool = True,
    workers: int = 1,
) -> BettiTable:
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    engine = engine_for(ring, reduced)
    engine.compute_ranks(n_max, i_max, workers)
    grid = dict.fromkeys(((n, i) for n in range(n_min, n_max + 1) for i in range(i_max + 1)), 0)
    row_weight = ring.dimension - 1
    for p, q, n in engine._table_reads(n_min, n_max, i_max):
        grid[(n, p + row_weight * q)] += engine._limit_dim(p, q, n)
    return BettiTable(ring=ring, n_min=n_min, n_max=n_max, i_max=i_max, grid=grid)


def stable_betti(ring: GradedRing, i: int) -> int:
    """The stable value, evaluated at the provable stabilization point n = i + 1."""
    return betti_number(ring, i, max(i + 1, 1))


def betti_odd_closed(ring: GradedRing, n: int, i_max: int | None = None) -> list[int]:
    """Betti numbers of n points on an odd-dimensional manifold, by closed formula.

    Dimensions, graded by cohomological degree up to n * dim (or i_max, if
    smaller: degree d reads only the degrees below it), of the direct sum over
    i + j = n of Sym^i(even cohomology) tensor Exterior^j(odd cohomology).
    """
    if ring.dimension % 2 == 0:
        raise ValueError("even-dimensional rings take the spectral-sequence path")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if i_max is not None and i_max < 0:
        raise ValueError("i_max must be nonnegative")
    if n == 0:
        return [1]
    top_degree = n * ring.dimension if i_max is None else min(n * ring.dimension, i_max)
    # table[j][d]: ways to place j points with total cohomological degree d
    table = [[0] * (top_degree + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for index in range(ring.size):
        degree = ring.degree(index)
        # a symmetric (even) factor lets any number of points share this class,
        # so row j reads the already-updated row j - 1; an exterior (odd)
        # factor takes at most one point, so rows update top-down
        for j in range(n, 0, -1) if degree % 2 else range(1, n + 1):
            row, prev = table[j], table[j - 1]
            for d in range(degree, top_degree + 1):
                row[d] += prev[d - degree]
    return table[n]

