"""``keygen``: a standing n=4, t=1, f=0 secp256k1 committee on loopback TCP
running one DKG session at a time (a closed loop).

Set-up enrolls the long-lived PKI, opens the four endpoints and runs one
warm-up DKG, which builds the fixed-base and verifier tables.  Each
sample is one DKG session with a fresh tau, timed from its start inputs
to the last honest ``dkg.out.completed``; its work counts run on until
the wire is quiet.  Sessions share the endpoints and the PKI.  No delay
is injected, so latency is processor time plus loopback time.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

import seams
from common import Phase, delta, now, rng_for, work_counts

N, T, F = 4, 1, 0
COMPLETED = "dkg.out.completed"
DKG_TIMEOUT_S = 30.0
QUIET_S = 0.002
QUIET_POLLS = 50


def inputs(seed: int) -> tuple[int, int]:
    """(PKI seed, first tau); each node's secret is drawn per tau too."""
    rng = rng_for(seed, "keygen")
    return rng.randrange(2**32), rng.randrange(1, 2**20)


class Keygen:
    def __init__(self, seed: int, corrupt: bool = False):
        self.seed = seed
        self.corrupt = corrupt
        self.loop = asyncio.new_event_loop()
        self.cluster = None

    def setup(self) -> None:
        from repro.crypto.groups import group_by_name
        from repro.dkg.config import DkgConfig
        from repro.dkg.runner import build_dkg_deployment
        from repro.net.cluster import SessionCluster

        pki_seed, self.tau0 = inputs(self.seed)
        self.config = DkgConfig(n=N, t=T, f=F, group=group_by_name("secp256k1"))
        self.ca, nodes = build_dkg_deployment(self.config, seed=pki_seed)
        self.keystores = {i: node.keystore for i, node in nodes.items()}
        self.members = sorted(nodes)
        self.cluster = SessionCluster(
            self.members, seed=pki_seed, group=self.config.group
        )
        self.loop.run_until_complete(self.cluster.start())
        warm = Phase()
        self._check(warm, self.loop.run_until_complete(self._dkg("warm-up", self.tau0 - 1)))
        if warm.failed:
            raise RuntimeError(f"warm-up DKG failed: {warm.errors}")

    def checks(self) -> list[str]:
        return []  # the warm-up DKG is checked in set-up

    def _secret(self, tau: int, node: int) -> int:
        return self.config.group.random_scalar(rng_for(self.seed, f"secret|{tau}|{node}"))

    async def _dkg(self, session: str, tau: int, traced: bool = False):
        from repro.dkg.messages import DkgStartInput
        from repro.dkg.node import DkgNode

        cluster = self.cluster
        machines = {
            i: DkgNode(
                i, self.config, self.keystores[i], self.ca, tau=tau,
                secret=self._secret(tau, i),
            )
            for i in self.members
        }
        before = work_counts()
        seams.TRACE.sample = session
        seams.TRACE.enabled = traced
        start = now()
        cluster.open_session(session, machines)
        cluster.inject_all(session, DkgStartInput(tau))
        outputs = await cluster.wait_session_outputs(
            session, COMPLETED, set(self.members), DKG_TIMEOUT_S
        )
        end = now()
        await self._quiesce()
        seams.TRACE.enabled = False
        seams.TRACE.sample = None
        counts = tuple(delta(work_counts(), before))
        for host in cluster.hosts.values():
            host.close_session(session)
        return session, (start, end), outputs, counts

    async def _quiesce(self) -> None:
        """Wait until no frame crosses the wire for a while: frames still
        in flight for the finished session land before the next one
        starts and count towards the session that sent them."""
        for _ in range(QUIET_POLLS):
            seen = seams.TRACE.frames
            await asyncio.sleep(QUIET_S)
            if seams.TRACE.frames == seen:
                return

    def _check(self, phase: Phase, result) -> None:
        """All honest nodes complete with one key, one Q set and one
        commitment, and every share checks against the commitment."""
        session, _window, outputs, _counts = result
        phase.attempted += 1
        if set(outputs) != set(self.members):
            phase.fail(f"{session}: completed at {sorted(outputs)} only")
            return
        if len({out.public_key for out in outputs.values()}) != 1:
            phase.fail(f"{session}: public keys disagree")
            return
        if len({out.q_set for out in outputs.values()}) != 1:
            phase.fail(f"{session}: Q sets disagree")
            return
        if len({out.commitment for out in outputs.values()}) != 1:
            phase.fail(f"{session}: commitments disagree")
            return
        for i, out in outputs.items():
            if not out.commitment.verify_share(i, out.share):
                phase.fail(f"{session}: share of node {i} fails its commitment")
                return

    def phase(self, seconds: float, traced: bool) -> Phase:
        """Closed loop of DKG sessions for ``seconds``; taus restart at
        the same point every phase, so phases see the same inputs."""
        phase = Phase()
        speed = phase.speed
        results = []
        cpu0, wall0 = time.process_time(), now()
        deadline = wall0 + seconds
        seams.TRACE.reset()
        speed.sample()
        # Untraced, calibration also runs inside the DKGs (and is taken
        # back out of them); traced, only between them, so that the spans
        # cover the samples as they did.
        calibrate = None if traced else self.loop.create_task(speed.run())
        k = 0
        while not results or now() < deadline:
            tau = self.tau0 + k
            results.append(
                self.loop.run_until_complete(
                    self._dkg(f"dkg-{'t' if traced else 'u'}-{tau}", tau, traced)
                )
            )
            if traced:
                speed.maybe()
            k += 1
        if calibrate is not None:
            calibrate.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                self.loop.run_until_complete(calibrate)
        speed.sample()
        phase.wall_s = now() - wall0 - speed.wall_s
        phase.cpu_s = time.process_time() - cpu0 - speed.cpu_s
        if self.corrupt:
            _session, _window, outputs, _counts = results[0]
            first = min(outputs)
            outputs[first] = _tampered(outputs[first], self.config.group.q)
        for result in results:
            self._check(phase, result)
            phase.add_sample(*result[1])
            phase.counts.append(result[3])
        if traced:
            windows = {result[0]: result[1] for result in results}
            phase.layers = seams.layer_metrics(seams.TRACE.spans, windows, len(results))
        return phase

    def close(self) -> None:
        if self.cluster is not None:
            self.loop.run_until_complete(self.cluster.stop())
        self.loop.close()


def _tampered(output, q: int):
    import dataclasses

    return dataclasses.replace(output, share=(output.share + 1) % q)
