"""The ``serve`` workload's server: ``ThresholdService`` behind
``ServiceFrontend`` in a process of its own, started by the benchmark so
that a traced run can wrap server-side functions.

    python3 perfbench/server.py --seed 1

It prints one JSON line ``{"port": P}`` when it serves, then obeys one
command per stdin line and answers each with one JSON line:

* ``settle`` waits until the presignature pool is full again;
* ``begin <0|1>`` settles, then starts a phase, traced or not;
* ``end <requests>`` settles, then ends the phase and reports the
  server's CPU time, work counts, lowest pool level, the calibration
  chunks it ran (``common.HostSpeed``) and, if traced, its per-layer
  figures and the handling time of every request;
* ``stop`` (or end of input) shuts the service down.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import common
import seams
from common import emit, now, rng_for

N, T = 4, 1
POOL_TARGET = 4
POOL_SAMPLE_S = 0.02
SETTLE_TIMEOUT_S = 60.0


class Server:
    def __init__(self, seed: int):
        from repro.crypto.groups import group_by_name
        from repro.service import ServiceConfig, ThresholdService

        config = ServiceConfig(
            n=N,
            t=T,
            group=group_by_name("secp256k1"),
            seed=rng_for(seed, "serve-service").randrange(2**32),
            pool_target=POOL_TARGET,
            # Refill after every take, so each phase starts from a full pool.
            pool_low_watermark=POOL_TARGET,
        )
        self.service = ThresholdService(config)
        self.seed = seed
        self.pool_min = POOL_TARGET
        self._watch: asyncio.Task | None = None

    async def _watch_pool(self) -> None:
        while True:
            self.pool_min = min(self.pool_min, self.service.pool.level)
            await asyncio.sleep(POOL_SAMPLE_S)

    async def settle(self) -> dict:
        """Wait until the pool is back at its target."""
        deadline = now() + SETTLE_TIMEOUT_S
        while self.service.pool.level < POOL_TARGET:
            if now() > deadline:
                raise RuntimeError("presignature pool did not refill")
            await asyncio.sleep(POOL_SAMPLE_S)
        return {"pool": self.service.pool.level}

    async def begin(self, traced: bool) -> dict:
        await self.settle()
        seams.TRACE.reset()
        self.pool_min = self.service.pool.level
        self._watch = asyncio.get_running_loop().create_task(self._watch_pool())
        self.started = (now(), time.process_time(), common.work_counts())
        self.speed = common.HostSpeed()
        self.speed.sample()
        # Calibrate only while no presignature is being forged: the forge
        # thread would hold the chunk up, not the host.
        self._calibrate = asyncio.get_running_loop().create_task(
            self.speed.run(lambda: self.service.pool.level >= POOL_TARGET)
        )
        seams.TRACE.enabled = traced
        return {"ok": True}

    async def end(self, requests: int) -> dict:
        await self.settle()
        seams.TRACE.enabled = False
        wall0, cpu0, counts0 = self.started
        wall1 = now()
        for task in (self._watch, self._calibrate):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self.speed.sample()
        report = {
            "cpu_s": time.process_time() - cpu0 - self.speed.cpu_s,
            "chunks": [self.speed.ends, self.speed.chunk_ms],
            "wall_s": wall1 - wall0,
            "work": common.delta(common.work_counts(), counts0),
            "pool_min": self.pool_min,
            "forged": self.service.pool.forged,
        }
        spans = seams.TRACE.spans
        if spans:
            report["layers"] = seams.layer_metrics(spans, {None: (wall0, wall1)}, requests)
            report["handled_ms"] = _handled_ms(spans)
            common.OUT_DIR.mkdir(exist_ok=True)
            seams.TRACE.write(common.OUT_DIR / f"spans-serve-server-seed{self.seed}.jsonl")
        return report


def _handled_ms(spans) -> dict[str, float]:
    """Per request key, the time its innermost ``service.handle`` span took
    (``handle`` when the batch dispatched it singly, else ``handle_batch``)."""
    handled: dict[str, float] = {}
    for name, start, end, _parent, _sample, extra in spans:
        if name != "service.handle" or extra is None:
            continue
        keys = extra if isinstance(extra, tuple) else (extra,)
        for key in keys:
            ms = (end - start) * 1000.0
            if isinstance(extra, str) or key not in handled:
                handled[key] = ms
    return handled


async def serve(seed: int) -> None:
    from repro.service import ServiceFrontend

    server = Server(seed)
    await server.service.start()
    frontend = ServiceFrontend(server.service)
    await frontend.start()
    emit({"port": frontend.port})
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not line or line[0] == "stop":
                break
            if line[0] == "settle":
                emit(await server.settle())
            elif line[0] == "begin":
                emit(await server.begin(line[1] == "1"))
            elif line[0] == "end":
                emit(await server.end(int(line[1])))
            else:
                emit({"error": f"unknown command {line[0]!r}"})
    finally:
        await frontend.stop()
        await server.service.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description="serve workload server")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    common.use_source_tree()
    seams.install()
    asyncio.run(serve(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
