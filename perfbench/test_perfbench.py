"""Tests of the benchmark harness itself: generator, correctness gate, spans, smoke run.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden

sys.path.insert(0, str(golden.ROOT / "src"))

from confbetti.engine import BettiEngine  # noqa: E402
from confbetti.rings import parse_ring, serialize_ring  # noqa: E402
from confbetti.spaces import REGISTRY  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402
from ringgen import ring_document  # noqa: E402

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((golden.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("space", ["cp2", "sigma2", "sigma3", "cp6", "pbundle_cp2"])
def test_seed_zero_is_the_registry_ring(space):
    doc = ring_document(space, 0)
    assert serialize_ring(parse_ring(doc)) == serialize_ring(REGISTRY[space])


def _table(ring, n_max=5, i_max=12):
    engine = BettiEngine(ring)
    return {(n, i): engine.betti_number(i, n) for n in range(1, n_max + 1) for i in range(i_max + 1)}


@pytest.mark.parametrize("space", ["cp2", "sigma2"])
def test_seeded_rings_validate_and_keep_the_table(space):
    base = _table(parse_ring(ring_document(space, 0)))
    for seed in (1, 2, 3):
        ring = parse_ring(ring_document(space, seed))  # parse_ring validates every ring law
        assert _table(ring) == base, seed


def test_seeds_rename_the_basis():
    docs = {ring_document("sigma3", seed) for seed in range(4)}
    assert len(docs) == 4
    cp6_docs = {ring_document("cp6", seed) for seed in range(4)}
    assert len(cp6_docs) > 1  # one class per degree: only signs can change


def test_gate_counts_one_planted_wrong_cell():
    reference = golden.load_reference("cp2")
    table = golden.parse_table(golden.reference_path("cp2").read_text())
    assert golden.compare(table, reference, 4, 12) == (52, [])
    table[(3, 7)] += 1
    checked, wrong = golden.compare(table, reference, 4, 12)
    assert checked == 52
    assert wrong == [(3, 7, 2, 1)]
    del table[(3, 7)]
    assert golden.compare(table, reference, 4, 12)[1] == [(3, 7, None, 1)]


def _span(ident, name, parent, start, end, **info):
    return {"id": ident, "name": name, "parent": parent, "start": start, "end": end, **info}


def test_self_time_subtracts_child_coverage():
    synthetic = [
        _span(0, "table", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 2.0, 4.0),  # overlaps a: covered once
        _span(3, "c", 1, 1.5, 2.5),  # grandchild: inside a, not counted for the root
        _span(4, "d", 0, 9.5, 11.0),  # clipped to the parent's end
    ]
    own = spans.self_times(synthetic)
    assert own[0] == pytest.approx(10.0 - 3.0 - 0.5)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)


def test_layer_metrics_split_the_table():
    synthetic = [
        _span(0, spans.TABLE, None, 0.0, 10.0),
        _span(1, spans.BASIS, 0, 0.5, 1.0, cell=(0, 1, 2), monomials=4),
        _span(2, spans.DIFFERENTIAL, 0, 1.0, 4.0, cell=(0, 1, 2), rows=3, cols=4, nnz=5),
        _span(3, spans.BASIS, 2, 1.0, 1.5, cell=(0, 1, 2), monomials=4),
        _span(4, spans.MODULAR, 0, 4.0, 6.0, cell=(0, 1, 2), prime=7, rows=3, cols=4, nnz=5),
        _span(5, spans.MODULAR, 0, 6.0, 7.0, cell=(0, 1, 2), prime=5, rows=3, cols=2, nnz=5),
        _span(6, spans.EXACT, 0, 7.0, 8.0, cell=None, assembled=False, rows=2, cols=2, nnz=2),
    ]
    layers = spans.layer_metrics(synthetic, exact_only=False)
    assert layers["basis.calls"] == 2 and layers["basis.monomials"] == 8
    assert layers["differential.self_s"] == pytest.approx(2.5)
    assert layers["linalg.s"] == pytest.approx(4.0)
    assert layers["linalg.modular.area"] == 3 * 4 + 3 * 2
    assert layers["linalg.modular.second_prime_calls"] == 1
    assert layers["engine.first_prime_decisive"] == 0.0
    assert layers["engine.exact_fallbacks"] == 0
    top_level = 0.5 + 3.0 + 2.0 + 1.0 + 1.0
    assert layers["engine.self_s"] + top_level == pytest.approx(layers["trace.table_s"])


def test_pacer_scale_reads_the_loop_speed_over_an_interval(tmp_path):
    pacer = pace.Pacer(tmp_path / "pace.log")
    # one chunk per second of wall time; chunks cost 10 ms of CPU, then 20 ms
    cpu = [0.01 * k for k in range(6)] + [0.05 + 0.02 * k for k in range(1, 5)]
    pacer.stamps = [(float(k), c) for k, c in enumerate(cpu)]
    assert pacer.scale(0.5, 3.5) == pytest.approx(pace.REFERENCE_CHUNK_S / 0.01)
    assert pacer.scale(6.0, 9.0) == pytest.approx(pace.REFERENCE_CHUNK_S / 0.02)
    with pytest.raises(RuntimeError):
        pacer.scale(8.5, 9.5)


def _bench(*args, cwd=golden.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _report(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_run_end_to_end():
    report = _report(_bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 52
    assert set(report["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    for metric in CONFIG["end_to_end"]:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert report["metrics"][metric["name"]]["value"] > 0


def test_smoke_run_traced():
    report = _report(_bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", "1"))
    assert report["correct"]
    assert set(report["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}
    trace = json.loads((golden.ROOT / ".bench_work" / "trace-smoke-seed2-lane0.json").read_text())
    assert trace["workload"] == "smoke" and trace["seed"] == 2
    assert all(span["workload"] == "smoke" and span["seed"] == 2 for span in trace["spans"])
    (root,) = [span for span in trace["spans"] if span["parent"] is None]
    top_level = [span for span in trace["spans"] if span["parent"] == root["id"]]
    assert {span["name"] for span in top_level} >= {spans.DIFFERENTIAL, spans.MODULAR}
    own = spans.self_times(trace["spans"])[root["id"]]
    assert own + sum(map(spans.duration, top_level)) == pytest.approx(spans.duration(root))
    assert any(cell["prime"] for cell in trace["cells"] if cell["name"] == spans.MODULAR)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(golden.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "smoke", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
