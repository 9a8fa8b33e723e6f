"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload keygen --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/provenance.json`` for shapes and reasons):
``keygen`` (closed-loop DKGs over loopback TCP), ``serve`` (an open-loop
SIGN/DPRF_EVAL mix against the threshold service in its own process)
and ``fuzz`` (a closed-loop honest fuzz campaign).

Every end-to-end time is stated on a reference host: calibration chunks
run beside the measured work and scale each sample by how fast the host
ran it (``common.HostSpeed``); the diagnostics line keeps the unscaled
latencies.  Set-up runs three times, twice in fresh processes and once
in this one, and ``setup_s`` is the median.  With ``--trace 0`` the run measures for
``--seconds`` and prints every end-to-end metric; with ``--trace 1`` it
measures half the time untraced and then the same inputs traced, and
prints every per-layer metric, the tracing overhead and the share of
sample time the named seams cover.  Either way it checks the outputs,
prints a diagnostics line and, last, one JSON result line; it exits 1
if any check failed and 2 if it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common
import seams
from common import ROOT, HostSpeed, emit, host_load, now, percentile

SETUP_REPEATS = 3
SETUP_CHUNKS = 10  # calibration chunks on each side of a set-up
DEFAULT_SEED = 1


def _workload(name: str):
    if name == "keygen":
        from keygen import Keygen

        return Keygen
    if name == "serve":
        from serve import Serve

        return Serve
    from fuzz import Fuzz

    return Fuzz


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("keygen", "serve", "fuzz"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up and print it (how set-up is repeated)",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="tamper with one output before checking (the checks must catch it)",
    )
    return parser.parse_args(argv)


def _timed_setup(workload_cls, args):
    """Set up once; the time is scaled to the reference host by
    calibration chunks taken just before and just after."""
    speed = HostSpeed()
    speed.sample(SETUP_CHUNKS)
    started = now()
    seams.install()
    workload = workload_cls(args.seed, corrupt=args.corrupt)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    elapsed = now() - started
    speed.sample(SETUP_CHUNKS)
    return workload, elapsed * speed.scale()


def _probe_setup(args) -> float:
    """One set-up in a fresh process, so cold caches are paid again."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _end_to_end(phase, setup_s: float) -> dict[str, float]:
    """Every time on the reference host (see ``common.HostSpeed``); an
    open loop's throughput is the load's, so it stays as measured."""
    ops = len(phase.latencies_ms)
    latencies = phase.scaled_latencies_ms()
    scale = phase.scale()
    ops_per_s = ops / phase.wall_s
    return {
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p75": percentile(latencies, 75),
        "ops_per_s": ops_per_s if phase.open_loop else ops_per_s / scale,
        "cpu_ms_per_op": phase.cpu_s * 1000.0 / ops * scale,
        "setup_s": setup_s,
    }


def _per_layer(untraced, traced) -> dict[str, float]:
    layers = dict(traced.layers)
    base = percentile(untraced.scaled_latencies_ms(), 50)
    layers["trace.overhead"] = percentile(traced.scaled_latencies_ms(), 50) / base - 1.0
    for name, value in traced.work_per_sample().items():
        layers[f"work.{name}"] = value
    return layers


def _counts_match(untraced, traced) -> bool:
    """Tracing changes no work: the same inputs cost the same counts."""
    common_prefix = min(len(untraced.counts), len(traced.counts))
    return untraced.counts[:common_prefix] == traced.counts[:common_prefix]


def main(argv=None) -> int:
    args = _parse(argv)
    common.use_source_tree()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_cls = _workload(args.workload)
    if args.setup_only:
        workload, setup_s = _timed_setup(workload_cls, args)
        workload.close()
        emit({"setup_s": setup_s})
        return 0

    load_start = host_load()
    setups = [_probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
    workload, setup_s = _timed_setup(workload_cls, args)
    setups.append(setup_s)
    try:
        if args.trace:
            first = workload.phase(args.seconds / 2, traced=False)
            measured = workload.phase(args.seconds / 2, traced=True)
            phases = [first, measured]
        else:
            measured = workload.phase(args.seconds, traced=False)
            phases = [measured]
        setup_errors = workload.checks()
    finally:
        workload.close()

    # The workload's set-up checks count as one more operation.
    attempted = sum(p.attempted for p in phases) + 1
    failed = sum(p.failed for p in phases) + (1 if setup_errors else 0)
    diag = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "load_start": load_start,
        "load_end": host_load(),
        "setup_runs_s": setups,
        "samples": len(measured.latencies_ms),
        "speed_scale": measured.scale(),
        "raw_op_ms_p50": percentile(measured.latencies_ms, 50),
        "raw_op_ms_p75": percentile(measured.latencies_ms, 75),
        "work_total": [sum(col) for col in zip(*measured.counts)],
        "counts_head": measured.counts[:3],
        "errors": setup_errors + [e for p in phases for e in p.errors],
        **measured.diag,
    }
    if args.trace:
        metrics = _per_layer(phases[0], measured)
        diag["counts_match"] = _counts_match(phases[0], measured)
        if seams.TRACE.spans:  # the serve server writes its own
            common.OUT_DIR.mkdir(exist_ok=True)
            seams.TRACE.write(common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        names = spec["per_layer"]
        for m in names:
            metrics.setdefault(m["name"], 0.0)  # a layer this workload never runs
    else:
        metrics = _end_to_end(measured, statistics.median(setups))
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    emit(diag)
    emit(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
            },
        }
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
