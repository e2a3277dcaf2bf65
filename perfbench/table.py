"""One Betti table in a fresh interpreter, timed and checked against its reference.

    python3 perfbench/table.py --space sigma3 --ring-file F --n-max 10 --i-max 16 \
        --spawned-at T [--exact-only] [--probe] [--trace OUT --workload W --seed K]

`--spawned-at` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process. Set-up runs from interpreter start to `confbetti`
imported and the ring document loaded; `--probe` stops there. Otherwise the
table runs through `confbetti.cli.main(["compute", ...])` with stdout
captured, is parsed and compared with the reference. One JSON line reports
the CPU seconds of set-up and table with the monotonic intervals they span,
which `run.py` rescales to the reference speed (see `pace.py`).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import golden

sys.path.insert(0, str(golden.ROOT / "src"))

import confbetti.cli  # noqa: E402
import confbetti.differential  # noqa: E402
import confbetti.engine  # noqa: E402
from confbetti.rings import parse_ring  # noqa: E402

import spans  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--space", required=True)
    parser.add_argument("--ring-file", required=True)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--i-max", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--exact-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", metavar="OUT")
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None) -> dict:
    args = _parse_args(argv)
    loaded_at = time.perf_counter()
    ring = parse_ring(Path(args.ring_file).read_text())
    result = {
        "load_s": time.perf_counter() - loaded_at,
        "setup_cpu_s": time.process_time(),
        "setup_window": (args.spawned_at, time.monotonic()),
    }
    if args.probe:
        return result

    reference = golden.load_reference(args.space)
    cli_args = [
        "compute", "--ring-file", args.ring_file,
        "--n", f"1..{args.n_max}", "--i-max", str(args.i_max), "--workers", "1",
    ] + (["--exact-only"] if args.exact_only else [])
    tracer = spans.Tracer()
    tracing = (
        tracer.installed(confbetti.engine, confbetti.differential)
        if args.trace
        else contextlib.nullcontext()
    )
    out = io.StringIO()
    started, cpu_started = time.monotonic(), time.process_time()
    with tracing, tracer.span(spans.TABLE) as root:
        with contextlib.redirect_stdout(out):
            status = confbetti.cli.main(cli_args)
        checked, wrong = golden.compare(
            golden.parse_table(out.getvalue()), reference, args.n_max, args.i_max
        )
    result["table_cpu_s"] = time.process_time() - cpu_started
    result["table_window"] = (started, time.monotonic())
    result["table_wall_s"] = spans.duration(root)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["status"] = status
    result["checked"] = checked
    result["wrong"] = wrong

    engine = confbetti.engine.engine_for(ring, True, args.exact_only)
    tasks = engine.required_ranks(1, args.n_max, args.i_max)
    result["rank_tasks"] = len(tasks)
    result["unproven_cells"] = len(engine.uncertified_cells)
    if args.trace:
        layers = spans.layer_metrics(tracer.spans, args.exact_only)
        layers["rings.load_s"] = result["load_s"]
        layers["engine.rank_tasks"] = len(tasks)
        layers["engine.cells"] = len({(p, q) for p, q, _ in tasks})
        layers["engine.unproven_cells"] = len(engine.uncertified_cells)
        result["layers"] = layers
        tracer.write(Path(args.trace), workload=args.workload, seed=args.seed)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
