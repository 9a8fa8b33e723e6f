"""``fuzz``: a closed-loop honest campaign of the schedule fuzzer over an
n=4, t=1 simulated DKG capture on the toy modp group.

Set-up generates the base capture and runs the planted-bug self-check
(detect, shrink to the single faulty op, reproduce).  Each sample is one
fuzz seed: plan, apply, re-execute and check invariants.  The fuzz seeds
come from the workload seed.
"""

from __future__ import annotations

import shutil
import time

import seams
from common import OUT_DIR, Phase, delta, now, rng_for, work_counts

N, T, F = 4, 1, 0
MAX_OPS = 6


CAPTURE_SEED = 0  # the base capture the fuzz CI lane uses


def inputs(seed: int) -> int:
    """The first fuzz seed.  The base capture stays fixed: every plan of
    a run mutates one capture, so a capture drawn per run would move the
    whole run's figures with it."""
    return rng_for(seed, "fuzz").randrange(2**30)


class Fuzz:
    def __init__(self, seed: int, corrupt: bool = False):
        self.seed = seed
        self.corrupt = corrupt
        self.self_check: dict = {}

    def setup(self) -> None:
        import os

        from repro.crypto.groups import toy_group
        from repro.fuzz import FuzzRunner, Schedule, generate_capture

        self.first_seed = inputs(self.seed)
        base = Schedule.from_capture(
            generate_capture("dkg", n=N, t=T, f=F, seed=CAPTURE_SEED, group=toy_group())
        )
        reproducers = OUT_DIR / f"fuzz-self-check-{os.getpid()}"
        try:
            checker = FuzzRunner(base.copy(), max_ops=MAX_OPS, reproducer_dir=reproducers)
            self.self_check = checker.run_self_check()
        finally:
            shutil.rmtree(reproducers, ignore_errors=True)
        self.runner = FuzzRunner(base, max_ops=MAX_OPS)
        self.runner.run_seed(self.first_seed - 1)  # warm-up

    def checks(self) -> list[str]:
        """Set-up checks: the planted bug is detected, shrunk to one op
        and reproduced from its emitted capture."""
        check = self.self_check
        ok = check.get("ok") and check.get("minimal") and check.get("reproduced")
        return [] if ok else [f"self-check failed: {check}"]

    def _one(self, seed: int, traced: bool, corrupt: bool):
        runner = self.runner
        before = work_counts()
        seams.TRACE.sample = seed
        seams.TRACE.enabled = traced
        start = now()
        if corrupt:
            plan = runner.plan_for_seed(seed)
            node = min(r["node"] for r in runner.base.spans)
            violations, report = runner.execute_plan(
                plan + [{"op": "corrupt-output", "node": node}]
            )
            planned, applied = len(plan), len(report.applied)
        else:
            result = runner.run_seed(seed)
            violations, planned, applied = result.violations, result.planned, result.applied
        end = now()
        seams.TRACE.enabled = False
        seams.TRACE.sample = None
        counts = tuple(delta(work_counts(), before)) + (applied,)
        return seed, (start, end), violations, counts, planned

    def phase(self, seconds: float, traced: bool) -> Phase:
        """Seeds from the same first seed every phase, for ``seconds``."""
        phase = Phase()
        speed = phase.speed
        results = []
        cpu0, wall0 = time.process_time(), now()
        deadline = wall0 + seconds
        seams.TRACE.reset()
        speed.sample()
        k = 0
        while not results or now() < deadline:
            results.append(
                self._one(self.first_seed + k, traced, self.corrupt and k == 0)
            )
            speed.maybe()
            k += 1
        speed.sample()
        phase.wall_s = now() - wall0 - speed.wall_s
        phase.cpu_s = time.process_time() - cpu0 - speed.cpu_s
        for seed, (start, end), violations, counts, _planned in results:
            phase.attempted += 1
            if violations:
                phase.fail(f"seed {seed}: {[v.kind for v in violations]}")
            phase.add_sample(start, end)
            phase.counts.append(counts)
        planned = sum(r[4] for r in results)
        applied = sum(r[3][-1] for r in results)
        phase.diag["applied_ratio"] = applied / planned if planned else 1.0
        if traced:
            windows = {r[0]: r[1] for r in results}
            phase.layers = seams.layer_metrics(seams.TRACE.spans, windows, len(results))
            phase.layers["fuzz.applied_ratio"] = phase.diag["applied_ratio"]
        return phase

    def close(self) -> None:
        pass
