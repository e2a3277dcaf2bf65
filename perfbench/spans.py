"""In-memory spans around the calls the engine makes into each layer.

The tracer wraps module attributes at the names `confbetti.engine` and
`confbetti.differential` call them by, so nothing inside the package changes.
Each call becomes a span (name, start, end, parent) carrying the per-cell
facts of that call: cell (p, q, n), matrix shape, nonzeros, prime. Spans stay
in memory and are written once, when the table is done.
"""
from __future__ import annotations

import json
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

TABLE = "table"
BASIS = "basis.enumerate_basis"
DIFFERENTIAL = "differential.assemble_matrix"
MODULAR = "linalg.modular"
EXACT = "linalg.exact"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._matrix_cells: dict[int, tuple] = {}  # id(matrix) -> (weakref, cell)

    @contextmanager
    def span(self, name: str, **info):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": self.clock(),
            "end": None,
            **info,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.clock()

    # -- wrappers ------------------------------------------------------------

    def _remember(self, matrix, cell) -> None:
        self._matrix_cells[id(matrix)] = (weakref.ref(matrix), cell)

    def _cell_of(self, matrix):
        entry = self._matrix_cells.get(id(matrix))
        if entry is not None and entry[0]() is matrix:
            return entry[1]
        return None

    def _enumerate(self, original):
        def wrapper(ring, p, q, n, *args, **kwargs):
            with self.span(BASIS, cell=(p, q, n)) as record:
                result = original(ring, p, q, n, *args, **kwargs)
                record["monomials"] = len(result)
            return result

        return wrapper

    def _assemble(self, original):
        def wrapper(ring, p, q, n, *args, **kwargs):
            with self.span(DIFFERENTIAL, cell=(p, q, n)) as record:
                matrix = original(ring, p, q, n, *args, **kwargs)
                record.update(_shape(matrix))
            self._remember(matrix, (p, q, n))
            return matrix

        return wrapper

    def _modular(self, original):
        def wrapper(matrix, prime, col_cap=None, *args, **kwargs):
            shape = _shape(matrix)
            if col_cap is not None:
                shape["cols"] = min(col_cap, shape["cols"])
            with self.span(MODULAR, cell=self._cell_of(matrix), prime=prime, **shape):
                return original(matrix, prime, col_cap, *args, **kwargs)

        return wrapper

    def _exact(self, original):
        def wrapper(matrix, *args, **kwargs):
            cell = self._cell_of(matrix)
            with self.span(EXACT, cell=cell, assembled=cell is not None, **_shape(matrix)):
                return original(matrix, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, engine_module, differential_module):
        """Wrap the layer entry points for the duration of the block.

        A name the package no longer has is left alone, and its layer reads
        zero calls, so a refactor inside the package does not stop the run.
        """
        targets = [
            (engine_module, "enumerate_basis", self._enumerate),
            (engine_module, "assemble_matrix", self._assemble),
            (engine_module, "rank_profile_modular", self._modular),
            (engine_module, "exact_rank", self._exact),
            (differential_module, "enumerate_basis", self._enumerate),
        ]
        saved = []
        try:
            for module, attr, make in targets:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: Path, **labels) -> None:
        """Write every span once, each tagged with the run labels (workload, seed)."""
        spans = [{**span, **labels} for span in self.spans]
        cells = [
            {key: span.get(key) for key in ("name", "cell", "rows", "cols", "nnz", "prime")}
            | {"s": span["end"] - span["start"]}
            for span in self.spans
            if span["name"] in (DIFFERENTIAL, MODULAR, EXACT)
        ]
        path.write_text(json.dumps({**labels, "spans": spans, "cells": cells}) + "\n")


def _shape(matrix) -> dict:
    return {"rows": matrix.rows, "cols": matrix.cols, "nnz": len(matrix.entries)}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], reach)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = duration(span) - covered
    return out


def layer_metrics(spans: list[dict], exact_only: bool) -> dict[str, float]:
    """Per-layer counts and seconds of one traced table (one root span)."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    (root,) = by_name[TABLE]
    basis = by_name.get(BASIS, [])
    assembled = by_name.get(DIFFERENTIAL, [])
    modular = by_name.get(MODULAR, [])
    exact = by_name.get(EXACT, [])
    linalg = modular + exact
    linalg_s = sum(map(duration, linalg))

    primes_by_cell: dict = {}
    for span in modular:
        cell = span["cell"]
        primes_by_cell.setdefault(None if cell is None else cell[:2], []).append(span["prime"])
    second_prime = sum(
        sum(prime != primes[0] for prime in primes) for primes in primes_by_cell.values()
    )
    decisive = sum(len(set(primes)) == 1 for primes in primes_by_cell.values())

    return {
        "basis.calls": len(basis),
        "basis.s": sum(map(duration, basis)),
        "basis.monomials": sum(span["monomials"] for span in basis),
        "differential.calls": len(assembled),
        "differential.s": sum(map(duration, assembled)),
        "differential.self_s": sum(own[span["id"]] for span in assembled),
        "differential.nnz": sum(span["nnz"] for span in assembled),
        "differential.distinct_ratio": _ratio(
            len({span["cell"][:2] for span in assembled}), len(assembled)
        ),
        "linalg.s": linalg_s,
        "linalg.max_s": max(map(duration, linalg), default=0.0),
        "linalg.modular.calls": len(modular),
        "linalg.modular.share": _ratio(sum(map(duration, modular)), linalg_s),
        "linalg.modular.cols": sum(span["cols"] for span in modular),
        "linalg.modular.area": sum(span["rows"] * span["cols"] for span in modular),
        "linalg.modular.second_prime_calls": second_prime,
        "linalg.exact.calls": len(exact),
        "engine.self_s": own[root["id"]],
        "engine.exact_fallbacks": 0 if exact_only else sum(span["assembled"] for span in exact),
        "engine.first_prime_decisive": _ratio(decisive, len(primes_by_cell)),
        "trace.table_s": duration(root),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
