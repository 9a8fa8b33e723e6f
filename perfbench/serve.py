"""``serve``: an open-loop SIGN + DPRF_EVAL mix against an n=4, t=1
secp256k1 threshold service (presignature pool on, small target) that
runs in its own process (:mod:`server`).

One generator with two connections sends on a fixed schedule of blocks
(``BLOCK``): a SIGN, a DPRF_EVAL right behind it, then more DPRF_EVALs
spaced out; the seed draws every message and every (distinct) tag, so
no work is shared.  Each request is timed from its due time; how late
the generator ran is reported.  Every signature is verified on the
client under the STATUS public key.  The server process runs the
calibration chunks (``common.HostSpeed``), since that is where the work
runs.

Each SIGN takes a presignature and so sets off a nonce-DKG forge in the
server that competes with request handling.  The block puts exactly one
DPRF_EVAL inside that forge and the rest well after it, even when the
host runs at half speed: with requests at even intervals, how many of
them met a forge would swing with the host's speed, and the latency
percentiles with it, in a way no rescaling undoes.

Set-up boots the server (bootstrap DKG and pool prefill), connects,
signs once, evaluates one DPRF tag twice (the outputs must be identical)
and waits until the pool is full again.  Every phase starts and ends
with a full pool, so the server's work counts cover whole refills.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

from common import Phase, now, percentile, rng_for

# (due offset in seconds, kind) of one block: 8 requests in 3 s.  A forge
# takes 0.3-0.5 s at this host's usual speed.
BLOCK = ((0.0, "sign"), (0.1, "dprf")) + tuple(
    (1.2 + 0.3 * k, "dprf") for k in range(6)
)
BLOCK_S = 3.0
CONNECTIONS = 2
DRAIN_TIMEOUT_S = 60.0
SERVER = Path(__file__).resolve().parent / "server.py"


def schedule(seed: int, seconds: float) -> list[tuple[float, str, bytes]]:
    """(due offset, kind, payload) for every request of a phase: whole
    blocks, at least one.  The timing is fixed; the seed draws every
    message and tag."""
    rng = rng_for(seed, "serve-schedule")
    blocks = max(1, int(seconds / BLOCK_S))
    return [
        (block * BLOCK_S + offset, kind, rng.randbytes(16))
        for block in range(blocks)
        for offset, kind in BLOCK
    ]


class Serve:
    def __init__(self, seed: int, corrupt: bool = False):
        self.seed = seed
        self.corrupt = corrupt
        self.loop = asyncio.new_event_loop()
        self.process: subprocess.Popen | None = None
        self.clients: list = []
        self.setup_errors: list[str] = []

    # -- the server process ------------------------------------------------------

    def _command(self, line: str) -> dict:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self._reply()

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited (code {self.process.poll()})")
        return json.loads(line)

    def setup(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER), "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self._reply()["port"]
        self.loop.run_until_complete(self._connect(port))
        self.loop.run_until_complete(self._warm_up())
        self._command("settle")

    async def _connect(self, port: int) -> None:
        from repro.crypto.groups import group_by_name
        from repro.service.loadgen import ServiceClient

        first = await ServiceClient.connect("127.0.0.1", port)
        status = await first.status()
        self.group = group_by_name(status.group_name)
        self.public_key = status.public_key
        first.group = self.group
        self.clients = [first] + [
            await ServiceClient.connect("127.0.0.1", port, group=self.group)
            for _ in range(CONNECTIONS - 1)
        ]

    async def _warm_up(self) -> None:
        """One SIGN and one DPRF tag twice, checked; then a full pool."""
        from repro.service import protocol

        rng = rng_for(self.seed, "serve-warm-up")
        message = rng.randbytes(16)
        if not self._signature_ok(message, await self.clients[0].sign(message)):
            self.setup_errors.append("warm-up signature does not verify")
        tag = rng.randbytes(16)
        first = await self.clients[0].dprf_eval(tag)
        again = await self.clients[1].dprf_eval(tag)
        if not (
            isinstance(first, protocol.DprfResponse)
            and isinstance(again, protocol.DprfResponse)
            and first.output == again.output
        ):
            self.setup_errors.append("a repeated DPRF tag gave different outputs")

    def checks(self) -> list[str]:
        return list(self.setup_errors)

    def _signature_ok(self, message: bytes, response) -> bool:
        from repro.crypto import schnorr
        from repro.service import protocol

        if not isinstance(response, protocol.SignResponse):
            return False
        signature = schnorr.Signature(response.challenge, response.response)
        return schnorr.verify(self.group, self.public_key, message, signature)

    # -- the open loop -----------------------------------------------------------

    async def _issue(self, client, kind: str, payload: bytes):
        try:
            if kind == "sign":
                response = await client.sign(payload)
            else:
                response = await client.dprf_eval(payload)
        except Exception as exc:  # counted as a failed request
            response = exc
        return response, now()

    async def _open_loop(self, plan):
        loop = asyncio.get_running_loop()
        start = now() + 0.05
        tasks, lags = [], []
        for index, (offset, kind, payload) in enumerate(plan):
            due = start + offset
            wait = due - now()
            if wait > 0:
                await asyncio.sleep(wait)
            lags.append(max(0.0, now() - due))
            client = self.clients[index % CONNECTIONS]
            tasks.append(loop.create_task(self._issue(client, kind, payload)))
        done = await asyncio.wait_for(asyncio.gather(*tasks), DRAIN_TIMEOUT_S)
        return start, done, lags

    def phase(self, seconds: float, traced: bool) -> Phase:
        from repro.service import protocol

        plan = schedule(self.seed, seconds)
        phase = Phase()
        self._command(f"begin {int(traced)}")
        start, done, lags = self.loop.run_until_complete(self._open_loop(plan))
        server = self._command(f"end {len(plan)}")
        phase.speed.adopt(*server["chunks"])  # the host's speed where the work ran

        # Throughput over the load itself; CPU over the whole phase, which
        # includes refilling the presignatures the signs used.
        phase.wall_s = max(f for _r, f in done) - start
        phase.cpu_s = server["cpu_s"]
        phase.open_loop = True
        gateway, signs, hits = [], 0, 0
        handled = server.get("handled_ms", {})
        for index, ((offset, kind, payload), (response, finished)) in enumerate(zip(plan, done)):
            phase.attempted += 1
            phase.add_sample(start + offset, finished)
            if payload.hex() in handled:
                gateway.append(phase.latencies_ms[-1] - handled[payload.hex()])
            if kind == "sign":
                signs += 1
                if isinstance(response, protocol.SignResponse):
                    hits += bool(response.presig_used)
                    if self.corrupt and signs == 1:
                        response = _flipped(response)
                if not self._signature_ok(payload, response):
                    phase.fail(f"request {index}: sign -> {_describe(response)}")
            elif not isinstance(response, protocol.DprfResponse) or not response.output:
                phase.fail(f"request {index}: dprf -> {_describe(response)}")
        by_kind: dict[str, list[float]] = {"sign": [], "dprf": []}
        for (_offset, kind, _payload), ms in zip(plan, phase.scaled_latencies_ms()):
            by_kind[kind].append(ms)
        group_ops, frames, byte_count = server["work"]
        phase.counts = [(group_ops, frames, byte_count)]
        phase.work = {
            "group_ops": group_ops / len(plan),
            "frames": frames / len(plan),
            "bytes": byte_count / len(plan),
        }
        phase.diag.update(
            {
                "lag_ms_max": max(lags) * 1000.0,
                "sign_ms": [percentile(by_kind["sign"], q) for q in (50, 75)],
                "dprf_ms": [percentile(by_kind["dprf"], q) for q in (50, 90)],
                "signs": signs,
                "pool_hits": hits,
                "pool_min": server["pool_min"],
            }
        )
        if traced:
            phase.layers = dict(server.get("layers", {}))
            phase.layers.update(
                {
                    "service.gateway_ms_p50": percentile(gateway, 50),
                    "service.pool_hit_ratio": hits / signs if signs else 1.0,
                    "service.pool_min": server["pool_min"],
                    "service.sign_ms_p50": percentile(by_kind["sign"], 50),
                    "service.sign_ms_p75": percentile(by_kind["sign"], 75),
                    "service.dprf_ms_p50": percentile(by_kind["dprf"], 50),
                    "service.dprf_ms_p90": percentile(by_kind["dprf"], 90),
                    "loadgen.lag_ms_max": max(lags) * 1000.0,
                }
            )
        return phase

    def close(self) -> None:
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.loop.close()
        if self.process is not None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()


def _flipped(response):
    import dataclasses

    return dataclasses.replace(response, response=response.response ^ 1)


def _describe(response) -> str:
    return getattr(response, "detail", None) or type(response).__name__
