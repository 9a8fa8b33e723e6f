"""The benchmark's own tests: a tiny pass of every workload, and the
calibration arithmetic.

    python3 -m pytest perfbench -q

Each run goes through ``run.py`` exactly as the benchmark is driven,
with a short ``--seconds``; set-up still runs three times, so the whole
file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY_SECONDS = "2"


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[dict], str]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return done.returncode, lines, done.stderr


def _tiny(workload: str, *extra: str, seed: str = "7") -> tuple[int, dict, dict]:
    code, lines, stderr = _run(
        "--workload", workload, "--seed", seed, "--seconds", TINY_SECONDS, *extra
    )
    assert lines, stderr
    return code, lines[-2], lines[-1]


def _assert_metrics(result: dict, names: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric_and_repeats_its_counts(workload):
    code, diag, result = _tiny(workload)
    assert code == 0, diag
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert diag["load_start"]["nproc"] >= 1
    # The same seed gives the same inputs, hence the same exact work.
    _code, again, _result = _tiny(workload)
    shared = min(len(diag["counts_head"]), len(again["counts_head"]))
    assert shared >= 1
    assert diag["counts_head"][:shared] == again["counts_head"][:shared]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_changes_no_work(workload):
    code, diag, result = _tiny(workload, "--trace", "1")
    assert code == 0, diag
    _assert_metrics(result, SPEC["per_layer"])
    assert diag["counts_match"], diag
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["runtime.dispatch.calls"] > 0
    if workload in ("keygen", "fuzz"):
        assert metrics["trace.coverage"] >= 0.9
    if workload == "serve":
        assert metrics["runtime.forge.sessions"] > 0
        assert metrics["service.handle.calls"] > 0
    if workload == "fuzz":
        assert metrics["work.mutations"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_output_counts_as_failed(workload):
    code, diag, result = _tiny(workload, "--corrupt")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert diag["errors"]


def test_the_seed_changes_the_generated_inputs():
    sys.path.insert(0, str(HERE))
    import fuzz
    import keygen
    import serve

    for make in (keygen.inputs, fuzz.inputs, lambda s: serve.schedule(s, 10)):
        assert make(1) == make(1)
        assert make(1) != make(2)


def test_without_the_program_it_fails_without_a_result():
    alone = ROOT / ".perfbench_out" / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(HERE, alone / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _stderr = _run(
            "--workload", "keygen", "--seed", "1", "--seconds", "1", cwd=alone
        )
        assert code != 0
        assert not any("metrics" in line for line in lines)
    finally:
        shutil.rmtree(alone, ignore_errors=True)


def test_calibration_takes_its_time_back_and_scales_by_the_chunks_nearby():
    sys.path.insert(0, str(HERE))
    from common import CAL_REF_MS, Phase

    phase = Phase()
    # Chunks of 8 ms ending at 1.0, 1.5 and 2.0 s: the host ran at half
    # the reference speed; the one ending at 1.5 s held up the sample.
    phase.speed.adopt([1.0, 1.5, 2.0], [2 * CAL_REF_MS] * 3)
    phase.add_sample(1.2, 1.8)
    held = 2 * CAL_REF_MS / 1000.0
    assert phase.speed.paused_s(1.2, 1.8) == pytest.approx(held)
    assert phase.latencies_ms == [pytest.approx((0.6 - held) * 1000.0)]
    assert phase.scaled_latencies_ms() == [pytest.approx((0.6 - held) * 500.0)]
