"""Benchmark of confbetti: cold, single-process Betti tables, checked against references.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record perfbench/baseline.json --seed 0 --seconds 30

Each table runs in a fresh interpreter (`table.py`), so every table pays the
same cold caches a user pays. A run keeps LANES lanes busy: each lane is one
core, where the reference loop of `pace.py` runs beside the table processes
started one after another until `--seconds` have passed. Times are CPU
seconds rescaled to the reference speed, and a run reports medians. With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` traced and untraced tables alternate and it carries the
per-layer metrics. `attempted` counts the Betti numbers compared with a
reference, `failed` the wrong ones. `--record` runs every workload of
BENCHMARK.json both ways on one seed and writes all metrics, with the
machine, to one JSON file.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import golden
import pace

ROOT = golden.ROOT
sys.path.insert(0, str(ROOT / "src"))
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
LANES = 2  # table processes at a time, each on its own core beside the reference loop
SETUP_PROBES = 4  # set-up-only processes per lane
PROBE = ("--probe",)
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    space: str
    n_max: int
    i_max: int
    exact_only: bool = False


WORKLOADS = {
    "surface": Workload("sigma3", 9, 16),
    "projective": Workload("cp6", 5, 115),
    "surface_exact": Workload("sigma3", 9, 16, exact_only=True),
    # a few seconds end to end; the benchmark's own tests run it
    "smoke": Workload("cp2", 4, 12),
}


def _check_layout() -> None:
    missing = [
        path
        for path in (ROOT / "src" / "confbetti" / "cli.py", ROOT / "tests" / "golden")
        if not path.exists()
    ]
    if missing:
        raise SystemExit(
            "perfbench: run from a full checkout; missing "
            + ", ".join(str(path.relative_to(ROOT)) for path in missing)
        )


def _rescale(result: dict | None, pacer: pace.Pacer) -> dict | None:
    """Set-up and table CPU seconds at the reference speed; per-layer times likewise."""
    if result is None:
        return None
    result["setup_s"] = result["setup_cpu_s"] * pacer.scale(*result["setup_window"])
    if "table_cpu_s" in result:
        result["table_s"] = result["table_cpu_s"] * pacer.scale(*result["table_window"])
        per_wall_second = result["table_s"] / result["table_wall_s"]
        for key, value in result.get("layers", {}).items():
            if key.endswith(("_s", ".s")):
                result["layers"][key] = value * per_wall_second
    return result


def _child(workload: Workload, ring_file: Path, deadline: float, *extra: str) -> dict | None:
    """Run table.py once; its JSON result, or None if it failed or timed out."""
    command = [
        sys.executable, str(HERE / "table.py"),
        "--space", workload.space, "--ring-file", str(ring_file),
        "--n-max", str(workload.n_max), "--i-max", str(workload.i_max),
        *(["--exact-only"] if workload.exact_only else []), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: table timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(f"perfbench: table failed:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    """One measured run of one workload: table processes in LANES parallel lanes."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.workload = WORKLOADS[name]
        started = time.monotonic()
        self.deadline = started + seconds
        self.hard_deadline = started + RUN_LIMIT_S
        self.expected = len(
            golden.reference_cells(
                golden.load_reference(self.workload.space), self.workload.n_max, self.workload.i_max
            )
        )
        WORK.mkdir(exist_ok=True)
        self.ring_file = WORK / f"{name}-seed{seed}.json"
        from ringgen import ring_document  # needs src/ on the path; see _check_layout

        self.ring_file.write_text(ring_document(self.workload.space, seed))
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []

    def child(self, *extra: str) -> dict | None:
        return _child(self.workload, self.ring_file, self.hard_deadline, *extra)

    def _lane(self, index: int, cpu: int, probes: int, cycle: list[tuple[str, ...]]) -> list:
        """On one core beside the reference loop: set-up probes, then tables with
        flags from `cycle` in turn until the deadline. Times come back rescaled."""
        os.sched_setaffinity(0, {cpu})  # this thread; the processes it starts inherit it
        out = []
        with pace.Pacer(WORK / f"pace-lane{index}.log") as pacer:
            out += [(PROBE, self.child(*PROBE)) for _ in range(probes)]
            wall = 0.0
            for k in itertools.count():
                if k and time.monotonic() + wall > self.deadline:
                    break  # the next table, as long as the last, would end after it
                started = time.monotonic()
                flags = cycle[k % len(cycle)]
                out.append((flags, self.child(*flags)))
                wall = time.monotonic() - started
        return [(flags, _rescale(result, pacer)) for flags, result in out]

    def collect(self, probes: int, cycles: list[list[tuple[str, ...]]]) -> list[tuple]:
        """One lane per cycle; (flags, result) of every table whose cells all match."""
        self.child(*PROBE)  # compiles bytecode caches; not measured
        cpus = sorted(os.sched_getaffinity(0))
        lanes: list[list[tuple]] = [[] for _ in cycles]
        errors: list[BaseException] = []

        def lane(index: int) -> None:
            try:
                lanes[index] = self._lane(index, cpus[index % len(cpus)], probes, cycles[index])
            except BaseException as error:  # re-raised below, in the main thread
                errors.append(error)

        threads = [threading.Thread(target=lane, args=(i,)) for i in range(len(cycles))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        good = []
        for flags, result in (item for outcomes in lanes for item in outcomes):
            if flags == PROBE:
                if result is not None:
                    self.setups.append(result["setup_s"])
            elif result is None or result["status"] != 0:
                self.attempted += self.expected
                self.failed += self.expected
            else:
                self.attempted += result["checked"]
                self.failed += len(result["wrong"])
                for n, i, got, want in result["wrong"]:
                    print(f"perfbench: b_{i}(n={n}) is {got}, reference {want}", file=sys.stderr)
                self.setups.append(result["setup_s"])
                if not result["wrong"]:
                    good.append((flags, result))
        return good

    def report(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics from untraced tables."""
    run = Run(name, seed, seconds)
    tables = [result for _, result in run.collect(SETUP_PROBES, [[()]] * LANES)]
    metrics = {}
    if tables:
        times = [t["table_s"] for t in tables]
        print(
            f"perfbench: {name} seed {seed}: {len(times)} tables, table_s min "
            f"{min(times):.3f} median {statistics.median(times):.3f} max {max(times):.3f}; "
            f"setup_s min {min(run.setups):.3f} median {statistics.median(run.setups):.3f}",
            file=sys.stderr,
        )
        metrics = {
            "table_s": statistics.median(times),
            "setup_s": statistics.median(run.setups),
            "peak_rss_mib": statistics.median(t["peak_rss_mib"] for t in tables),
            "proven_pct": statistics.median(
                100.0 * (t["rank_tasks"] - t["unproven_cells"]) / t["rank_tasks"] for t in tables
            ),
        }
    return run.report(_with_units(metrics, "end_to_end"))


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: traced and untraced tables alternate in every lane."""
    run = Run(name, seed, seconds)
    cycles = []
    for lane in range(LANES):
        traced = (
            "--trace", str(WORK / f"trace-{name}-seed{seed}-lane{lane}.json"),
            "--workload", name, "--seed", str(seed),
        )
        cycles.append([traced, ()] if lane % 2 == 0 else [(), traced])
    good = run.collect(0, cycles)
    traced = [result["layers"] for flags, result in good if flags]
    plain = [result["table_s"] for flags, result in good if not flags]
    metrics = {}
    if traced and plain:
        for key in traced[0]:  # counts repeat exactly; median_low keeps them whole
            metrics[key] = statistics.median_low(layers[key] for layers in traced)
        metrics["trace.overhead_s"] = metrics["trace.table_s"] - statistics.median(plain)
    return run.report(_with_units(metrics, "per_layer"))


def _with_units(metrics: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if metrics and set(metrics) != {entry["name"] for entry in declared}:
        raise RuntimeError(f"measured {sorted(metrics)}, declared {[e['name'] for e in declared]}")
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
        if metrics
    }


def record(path: Path, seed: int, seconds: float) -> None:
    """Every BENCHMARK.json workload, untraced and traced, on one seed, into one file."""
    import numpy

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    for entry in config["workloads"]:
        name = entry["name"]
        out["workloads"][name] = {
            "end_to_end": measure(name, seed, seconds),
            "per_layer": measure_traced(name, seed, seconds),
        }
        print(f"perfbench: recorded {name}", file=sys.stderr)
    path.write_text(json.dumps(out, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH", help="run every workload; write all metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if (args.workload is None) == (args.record is None):
        parser.error("give exactly one of --workload and --record")
    _check_layout()
    if args.record:
        record(Path(args.record), args.seed, args.seconds)
        return 0
    measure_run = measure_traced if args.trace else measure
    report = measure_run(args.workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
