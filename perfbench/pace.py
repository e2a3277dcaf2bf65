"""Reference loop that runs beside every table process on the same core.

    python3 perfbench/pace.py LOG

Repeats a fixed chunk of interpreter work (tuple keys, dict updates,
Fraction sums: the operations the engine spends its time on) and appends
"<CLOCK_MONOTONIC> <process CPU seconds>" to LOG after each chunk until
it is terminated. On a shared machine the speed of a core drifts by tens of
percent within minutes. Two processes pinned to one core share it in
time slices of milliseconds, so the CPU time this loop needs per chunk,
taken over the interval a table ran, is the speed of that core during that
table. `run.py` rescales the table's CPU seconds to REFERENCE_CHUNK_S per
chunk.
"""
from __future__ import annotations

import bisect
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# CPU seconds one chunk takes at the reference speed: about the fastest a
# chunk runs on a 2-core Xeon at 2.0 GHz with Python 3.11.
REFERENCE_CHUNK_S = 0.005


def chunk() -> None:
    counts: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    for i in range(10_000):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + i
        if i % 16 == 0:
            total += Fraction(i % 13 + 1, i % 7 + 1)


class Pacer:
    """The loop, started on the cores of the calling thread; rescales CPU time measured beside it."""

    def __init__(self, log: Path):
        self.log = log
        self.stamps: list[tuple[float, float]] = []

    def _read(self) -> list[tuple[float, float]]:
        stamps = []
        for line in self.log.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                stamps.append((float(fields[0]), float(fields[1])))
        return stamps

    def _wait_past(self, moment: float) -> None:
        give_up = time.monotonic() + 10.0
        while time.monotonic() < give_up:
            if self.log.exists() and any(mono > moment for mono, _ in self._read()[-2:]):
                return
            time.sleep(0.01)
        raise RuntimeError("the reference loop wrote no progress")

    def __enter__(self) -> Pacer:
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(self.log)], stdout=subprocess.DEVNULL
        )
        try:
            self._wait_past(time.monotonic())
        except BaseException:
            self._stop()
            raise
        return self

    def _stop(self) -> None:
        self.process.terminate()
        self.process.wait()

    def __exit__(self, kind, error, traceback) -> None:
        try:
            if kind is None:
                self._wait_past(time.monotonic())  # closes the last measured interval
        finally:
            self._stop()
        self.stamps = self._read()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_CHUNK_S over the loop's CPU seconds per chunk during [start, end]."""
        monotonic = [mono for mono, _ in self.stamps]
        first = bisect.bisect_right(monotonic, start) - 1
        last = bisect.bisect_left(monotonic, end)
        if first < 0 or last >= len(monotonic):
            raise RuntimeError("the reference loop did not cover the measured interval")
        per_chunk = (self.stamps[last][1] - self.stamps[first][1]) / (last - first)
        return REFERENCE_CHUNK_S / per_chunk


def main(log_path: str) -> None:
    with open(log_path, "w", buffering=1) as log:
        while True:
            chunk()
            log.write(f"{time.monotonic()} {time.process_time()}\n")


if __name__ == "__main__":
    main(sys.argv[1])
