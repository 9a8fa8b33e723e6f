"""Helpers shared by the benchmark's workloads and its server process."""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from seams import TRACE

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src``; exit 2 if it is absent
    (the benchmark directory copied on its own must not report a result)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def rng_for(seed: int, label: str) -> random.Random:
    """An input generator derived from the workload seed."""
    return random.Random(f"perfbench|{label}|{seed}")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def work_counts() -> tuple[int, int, int]:
    """(group ops tallied by ``repro.crypto.metering``, wire frames, wire
    bytes) so far in this process."""
    from repro.crypto import metering

    ops = sum(t.power + t.commit + t.multiexp for t in (metering.MODP, metering.EC))
    return ops, TRACE.frames, TRACE.bytes


def delta(after, before) -> list[int]:
    return [a - b for a, b in zip(after, before)]


def host_load() -> dict:
    """Diagnostics for a noisy verdict: cores and the 1-minute load."""
    return {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}


now = time.perf_counter

# Host-speed calibration.  On a shared host the same pure-Python loop runs
# up to 1.7x slower from one second to the next, which swamps anything a
# change to the program could do.  So the benchmark runs a fixed chunk of
# work (256-bit modular squaring plus dict traffic, the mix the program's
# pure-Python crypto and protocol code is made of) every ``CAL_EVERY_S``
# in the process doing the measured work (between samples, or from the
# event loop that runs them), takes the time the chunks took back out of
# each sample, and states every end-to-end time in milliseconds of a
# reference host, one that runs the chunk in ``CAL_REF_MS``:
# ``reported = measured * CAL_REF_MS / chunk time during the sample``.  The
# chunk is not the program, so a change to the program moves only the
# measured side.
CAL_ROUNDS = 6000
CAL_REF_MS = 4.0
CAL_EVERY_S = 0.1
CAL_NEIGHBOURS = 2  # chunks on each side of a sample that also set its scale
_CAL_PRIME = 2**256 - 2**32 - 977


def _calibration_chunk() -> int:
    x = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ROUNDS):
        x = x * x % _CAL_PRIME
        table[i & 63] = x >> 200
        acc ^= table.get((i * 7) & 63, i)
    return acc


class HostSpeed:
    """Calibration chunks: when each ended, how long it took, and the wall
    and CPU time they cost (which the workload takes back out of its own
    totals)."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.chunk_ms: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            cpu0, start = time.process_time(), now()
            _calibration_chunk()
            end = now()
            self.cpu_s += time.process_time() - cpu0
            self.wall_s += end - start
            self.ends.append(end)
            self.chunk_ms.append((end - start) * 1000.0)

    def maybe(self) -> None:
        """One chunk, unless one ended less than ``CAL_EVERY_S`` ago."""
        if not self.ends or now() - self.ends[-1] >= CAL_EVERY_S:
            self.sample()

    async def run(self, ready=lambda: True) -> None:
        """From an event loop: one chunk every ``CAL_EVERY_S`` while
        ``ready()`` (the loop's own work waits for it, and
        :meth:`paused_s` gives that wait back)."""
        while True:
            await asyncio.sleep(CAL_EVERY_S)
            if ready():
                self.sample()

    def adopt(self, ends: list[float], chunk_ms: list[float]) -> None:
        """Chunks taken in another process (``perf_counter`` is the
        system's monotonic clock, so their times compare)."""
        self.ends, self.chunk_ms = list(ends), list(chunk_ms)

    def paused_s(self, start: float, end: float) -> float:
        """How long chunks held the process within ``[start, end]``."""
        i = bisect.bisect_left(self.ends, start)
        held = 0.0
        while i < len(self.ends):
            lo = self.ends[i] - self.chunk_ms[i] / 1000.0
            if lo >= end:
                break
            held += max(0.0, min(end, self.ends[i]) - max(start, lo))
            i += 1
        return held

    def scale(self) -> float:
        """Reference over measured, from the median chunk of the run."""
        return CAL_REF_MS / statistics.median(self.chunk_ms)

    def scale_over(self, start: float, end: float) -> float:
        """Reference over measured, from the chunks that ended within
        ``[start, end]`` and ``CAL_NEIGHBOURS`` on each side."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        near = self.chunk_ms[max(0, lo - CAL_NEIGHBOURS) : hi + CAL_NEIGHBOURS]
        return CAL_REF_MS / statistics.median(near)


def emit(document: dict) -> None:
    print(json.dumps(document, sort_keys=True), flush=True)


@dataclass
class Phase:
    """What one measured phase of a workload produced.  Latencies are as
    measured; :meth:`scaled_latencies_ms` states them on the reference host."""

    latencies_ms: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    counts: list[tuple] = field(default_factory=list)  # exact work per sample
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    open_loop: bool = False  # throughput set by the load, not the program
    layers: dict[str, float] = field(default_factory=dict)
    work: dict[str, float] | None = None  # per-sample work, if not from counts
    diag: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def add_sample(self, start: float, end: float) -> None:
        """One sample's latency, less the time calibration held it up."""
        held = self.speed.paused_s(start, end)
        self.latencies_ms.append((end - start - held) * 1000.0)
        self.windows.append((start, end))

    def scaled_latencies_ms(self) -> list[float]:
        return [
            ms * self.speed.scale_over(*window)
            for ms, window in zip(self.latencies_ms, self.windows)
        ]

    def scale(self) -> float:
        """The phase's reference-over-measured ratio, weighted by how long
        each sample ran (for totals such as throughput and CPU time)."""
        return sum(self.scaled_latencies_ms()) / sum(self.latencies_ms)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def work_per_sample(self) -> dict[str, float]:
        if self.work is not None:
            return self.work
        samples = max(len(self.counts), 1)
        names = ("group_ops", "frames", "bytes", "mutations")
        return {
            name: sum(c[i] for c in self.counts if len(c) > i) / samples
            for i, name in enumerate(names)
        }
