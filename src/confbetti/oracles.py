"""Independent cross-checks: algebraic identities the computation must satisfy."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .differential import assemble_matrix, degree_gcd, packed_pieces
from .engine import betti_table, engine_for, vanishing_bound
from .rings import GradedRing, euler_characteristic

_UNREDUCED_N_MAX = 5  # run_all checks the unreduced model, which grows fast, up to this n


class CheckResult(NamedTuple):
    passed: bool
    oracle: str
    ring: str
    coordinates: str
    expected: str
    actual: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.oracle} {self.ring} {self.coordinates} "
            f"expected={self.expected} actual={self.actual}"
        )


class OracleReport(NamedTuple):
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def _result(oracle, ring, coordinates, expected, actual) -> CheckResult:
    return CheckResult(
        passed=(expected == actual),
        oracle=oracle,
        ring=ring.name,
        coordinates=coordinates,
        expected=str(expected),
        actual=str(actual),
    )


def check_d_squared(
    ring: GradedRing, n: int, i_max: int, reduced: bool = True
) -> list[CheckResult]:
    """The differential composed with itself must vanish on every cell."""
    results = []
    mode = "reduced" if reduced else "unreduced"
    dim, row_weight = ring.dimension, ring.dimension - 1

    @cache  # each cell is listed once, and only when a nonempty domain needs it
    def codes(p: int, q: int) -> list[int]:
        return packed_pieces(ring, p, q, n, reduced, whole=True).codes

    for q in range(2, n // 2 + 1):
        # a cell off the degree lattice is empty
        for p in range(0, i_max + dim - row_weight * q + 1, degree_gcd(ring)):
            domain = codes(p, q)
            if domain:
                middle, target = codes(p + dim, q - 1), codes(p + 2 * dim, q - 2)
                inner = assemble_matrix(ring, p, q, n, reduced, bases=(domain, middle))
                outer = assemble_matrix(ring, p + dim, q - 1, n, reduced, bases=(middle, target))
                composite = outer.matmul(inner)
                results.append(
                    _result(
                        f"d-squared[{mode}]",
                        ring,
                        f"(p={p},q={q},n={n})",
                        0,
                        len(composite.entries),
                    )
                )
    return results


def _binomial_euler(chi: Fraction, n: int) -> int:
    """Generalized binomial coefficient C(chi, n) as an exact integer."""
    value = Fraction(1)
    for t in range(n):
        value *= Fraction(chi) - t
    value /= math.factorial(n)
    if value.denominator != 1:
        raise ArithmeticError(f"Euler count C({chi}, {n}) is not an integer")
    return int(value)


def check_euler(ring: GradedRing, n: int, reduced: bool = True) -> CheckResult:
    """Alternating sum of row n of a planned table equals the binomial Euler count."""
    row = betti_table(ring, n, n, vanishing_bound(ring, n) - 1, reduced=reduced).row(n)
    total = sum(row[0::2]) - sum(row[1::2])
    expected = _binomial_euler(euler_characteristic(ring), n)
    return _result("euler", ring, f"(n={n})", expected, total)


def check_reduction_equivalence(ring: GradedRing, n: int, i_max: int) -> list[CheckResult]:
    """Dropping top-class-heavy monomials must not change row n of a planned table."""
    reduced_row = betti_table(ring, n, n, i_max).row(n)
    full_row = betti_table(ring, n, n, i_max, reduced=False).row(n)
    return [
        _result("reduction-equivalence", ring, f"(i={i},n={n})", full, kept)
        for i, (full, kept) in enumerate(zip(full_row, reduced_row))
    ]


def check_theorems(ring: GradedRing, n_max: int, i_max: int) -> list[CheckResult]:
    """Structural facts: stabilization, vanishing, and surface sharpness."""
    engine = engine_for(ring, reduced=True)
    # plan the stability and sharpness lines at n_max
    engine.compute_ranks(n_max, max(min(i_max, 8), min(8, n_max) + 1))
    results = []
    for i in range(min(i_max, 8) + 1):
        for n in range(i + 1, min(i + 4, n_max)):
            results.append(
                _result(
                    "stability",
                    ring,
                    f"(i={i},n={n}->{n + 1})",
                    engine.betti_number(i, n),
                    engine.betti_number(i, n + 1),
                )
            )
    vanishing = {  # largest n first, so each cell is built once, at its largest read
        (n, i): engine.betti_raw(i, n)
        for n in range(n_max, 0, -1)
        for i in range(vanishing_bound(ring, n), vanishing_bound(ring, n) + 5)
    }
    for (n, i), value in sorted(vanishing.items()):
        results.append(_result("vanishing", ring, f"(i={i},n={n})", 0, value))
    if ring.dimension == 2 and any(ring.is_odd(k) for k in range(ring.size)):
        for n in range(3, min(8, n_max) + 1):
            value = engine.betti_number(n + 1, n)
            results.append(
                _result("sharpness", ring, f"(i={n + 1},n={n})", True, value > 0)
            )
    return results


def run_all(
    ring: GradedRing, n_min: int, n_max: int, i_max: int
) -> OracleReport:
    """Every oracle over the grid; one result per individual assertion."""
    # plan each engine once, at its largest n, so no cell is built twice
    engine_for(ring).compute_ranks(n_max, vanishing_bound(ring, n_max) - 1)
    if n_min <= _UNREDUCED_N_MAX:
        engine_for(ring, reduced=False).compute_ranks(min(n_max, _UNREDUCED_N_MAX), i_max)
    results: list[CheckResult] = []
    for n in range(n_min, n_max + 1):
        results.extend(check_d_squared(ring, n, i_max, reduced=True))
        results.extend(check_d_squared(ring, n, i_max, reduced=False))
    for n in range(n_min, n_max + 1):
        results.append(check_euler(ring, n))
    for n in range(n_min, min(n_max, _UNREDUCED_N_MAX) + 1):
        results.extend(check_reduction_equivalence(ring, n, i_max))
    results.extend(check_theorems(ring, n_max, i_max))
    return OracleReport(tuple(results))
