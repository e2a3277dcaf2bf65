from __future__ import annotations

import pathlib

import pytest

import confbetti.differential as differential_module
import confbetti.engine as engine_module
import confbetti.oracles as oracles_module
from confbetti import (
    check_d_squared,
    check_euler,
    check_reduction_equivalence,
    check_theorems,
    engine_for,
    ring_cp,
    ring_surface,
    run_all,
)
from confbetti.spaces import resolve_space


def test_d_squared_passes_low_grid(cp2, sigma1):
    for ring in (cp2, sigma1):
        for n in (4, 6):
            results = check_d_squared(ring, n, 10)
            assert results, "expected at least one composable cell"
            assert all(r.passed for r in results)


def test_d_squared_unreduced(sigma2):
    results = check_d_squared(sigma2, 5, 8, reduced=False)
    assert results and all(r.passed for r in results)


def test_d_squared_assembles_no_cell_off_the_degree_lattice(monkeypatch):
    ring = ring_cp(3)  # every degree even: an odd-p cell is empty
    original, assembled = oracles_module.assemble_matrix, []

    def assemble(ring, p, q, n, reduced=True, bases=None):
        assembled.append(p)
        return original(ring, p, q, n, reduced, bases)

    monkeypatch.setattr(oracles_module, "assemble_matrix", assemble)
    results = check_d_squared(ring, 6, 20)
    assert results and all(r.passed for r in results)
    assert assembled and not [p for p in assembled if p % 2]


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_d_squared_lists_each_cell_once(monkeypatch, sigma2, reduced):
    listed = []
    for module in (oracles_module, differential_module):  # by name, or inside `assemble_matrix`
        original = module.packed_pieces

        def listing(ring, p, q, n, reduced=True, whole=False, original=original):
            listed.append((p, q))
            return original(ring, p, q, n, reduced, whole)

        monkeypatch.setattr(module, "packed_pieces", listing)
    results = check_d_squared(sigma2, 6, 14, reduced)
    assert results and all(r.passed for r in results)
    assert listed and len(listed) == len(set(listed))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_euler_counts_sigma2(sigma2, n):
    result = check_euler(sigma2, n)
    assert result.passed, result.line()


def test_euler_example_value(sigma2):
    # 1 - 4 + 6 - 11 + 4 = -4 = C(-2, 3)
    result = check_euler(sigma2, 3)
    assert result.passed
    assert result.expected == "-4"


def test_reduction_equivalence_small(cp2, sigma1):
    for ring in (cp2, sigma1):
        for n in (1, 3, 5):
            results = check_reduction_equivalence(ring, n, 8)
            assert all(r.passed for r in results)


def test_theorem_checks_pass(cp1, sigma1):
    for ring in (cp1, sigma1):
        results = check_theorems(ring, 6, 8)
        assert results
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_sharpness_only_for_surfaces(cp2, sigma1):
    kinds = {r.oracle for r in check_theorems(sigma1, 5, 6)}
    assert "sharpness" in kinds
    kinds_cp = {r.oracle for r in check_theorems(cp2, 5, 6)}
    assert "sharpness" not in kinds_cp


def test_report_lines_format(cp1):
    report = run_all(cp1, 1, 3, 4)
    assert report.passed
    for line in report.lines():
        assert line.startswith("PASS ")
        assert " expected=" in line and " actual=" in line


def test_run_all_builds_no_cell_past_its_largest_n(monkeypatch):
    monkeypatch.setattr(engine_module, "_ENGINES", {})
    ring = resolve_space("cp6")
    assert run_all(ring, 1, 4, 20).passed
    for reduced in (True, False):
        cells = engine_for(ring, reduced)._cells.values()
        assert cells and max(cell.truncation for cell in cells) <= 4


@pytest.mark.parametrize("space, n_min, n_max, i_max", [("cp6", 1, 8, 40), ("sigma3", 1, 8, 14)])
def test_run_all_builds_each_cell_once(space, n_min, n_max, i_max, monkeypatch):
    monkeypatch.setattr(engine_module, "_ENGINES", {})
    ring = resolve_space(space)
    builds = []
    original = engine_module.BettiEngine._cell

    def counting(engine, p, q, n, reach):
        kept = engine._cells.get((p, q))
        cell, codes = original(engine, p, q, n, reach)
        if cell is not kept:  # the record was built
            builds.append((engine.reduced, p, q))
        return cell, codes

    monkeypatch.setattr(engine_module.BettiEngine, "_cell", counting)
    assert run_all(ring, n_min, n_max, i_max).passed
    records = [
        (reduced, *key) for reduced in (True, False) for key in engine_for(ring, reduced)._cells
    ]
    assert len(builds) == len(set(builds)) == len(records)


def test_package_never_imports_sympy():
    # sympy is a test-only oracle; the library itself must not touch it
    import confbetti

    root = pathlib.Path(confbetti.__file__).parent
    for path in root.glob("*.py"):
        assert "sympy" not in path.read_text(), path
