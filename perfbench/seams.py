"""Spans and work counters at the program's layer boundaries, installed
from outside: every seam is a public function or method of ``repro``
replaced by a thin wrapper, so nothing under ``src/`` changes.

The wrappers are installed once, before any measured work, and stay in
place for timed and traced runs alike.  They always count frames and
bytes at the wire seam; they record a span only while :data:`TRACE` is
enabled.  A span is ``[layer, start, end, parent, sample, extra]``:
``parent`` is the enclosing span (a context variable, so it follows
threads and asyncio tasks), ``sample`` is the DKG session, request or
fuzz seed it belongs to, and ``extra`` carries what a layer's ratio
needs (the verified triple, a batch outcome, a byte length).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """In-memory span store plus the always-on wire work counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.sample = None
        self.spans: list[list] = []
        self.frames = 0
        self.bytes = 0

    def reset(self) -> None:
        self.spans = []

    def write(self, path) -> None:
        """Write every span as one JSON array per line (parents by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, sample, extra = span
                fh.write(
                    json.dumps(
                        [
                            name,
                            start,
                            end,
                            index.get(id(parent), -1),
                            sample,
                            extra if isinstance(extra, (int, float)) else None,
                        ]
                    )
                    + "\n"
                )


TRACE = Recorder()
_COUNT_LOCK = threading.Lock()


def _parent():
    """The enclosing open span; a task or thread that inherited a span
    which has since ended starts a root span instead."""
    parent = _CURRENT.get()
    return parent if parent is not None and not parent[2] else None


def _sync_wrapper(layer, fn, extra, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACE.enabled:
            result = fn(*args, **kwargs)
            if counts:
                extra(args, result)
            return result
        span = [layer, time.perf_counter(), 0.0, _parent(), TRACE.sample, None]
        TRACE.spans.append(span)
        token = _CURRENT.set(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            span[2] = time.perf_counter()
        if extra is not None:
            span[5] = extra(args, result)
        return result

    return wrapper


def _async_wrapper(layer, fn, extra, counts):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not TRACE.enabled:
            return await fn(*args, **kwargs)
        span = [layer, time.perf_counter(), 0.0, _parent(), TRACE.sample, None]
        TRACE.spans.append(span)
        token = _CURRENT.set(span)
        try:
            result = await fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            span[2] = time.perf_counter()
        if extra is not None:
            span[5] = extra(args, result)
        return result

    return wrapper


# -- extras: what a span keeps beyond its interval ------------------------------


def _count_frame(size: int) -> int:
    # The serve workload's forge thread crosses the wire seam too.
    with _COUNT_LOCK:
        TRACE.frames += 1
        TRACE.bytes += size
    return size


def _encoded(_args, frame):
    return _count_frame(len(frame))


def _decoded(args, _message):
    return _count_frame(len(args[0]))


def _verified_triple(args, _ok):
    _ca, node, message, sig = args[:4]
    return (node, bytes(message), sig)


def _batch_fell_back(_args, result):
    return 1 if result[1] else 0


def _forged_sessions(args, _results):
    return len(args[0])


def _request_keys(args, _responses):
    return tuple(_request_key(r) for r in args[1])


def _request_key(request):
    return (getattr(request, "message", None) or getattr(request, "tag", b"")).hex()


def _handled_key(args, _response):
    return _request_key(args[1])


def _seam_table():
    """(layer, owner, attribute, extra) for every seam the trace names."""
    from repro.apps import dprf, threshold_schnorr
    from repro.crypto import backend, ec, groups, polynomials
    from repro.dkg import proofs
    from repro.fuzz import executor, invariants, mutators
    from repro.net import wire
    from repro.runtime import driver, sessions
    from repro.service import workers
    from repro.sim import pki

    return [
        ("crypto.sig_verify", pki.CertificateAuthority, "verify", _verified_triple),
        ("crypto.batch_verify", backend.BatchedClaimVerifier, "verify", _batch_fell_back),
        ("crypto.multiexp", ec.EcGroup, "multiexp", None),
        ("crypto.multiexp", groups.SchnorrGroup, "multiexp", None),
        ("crypto.element_decode", ec.EcGroup, "element_decode", None),
        ("crypto.element_decode", groups.SchnorrGroup, "element_decode", None),
        ("crypto.interpolate", polynomials, "interpolate_polynomial", None),
        ("crypto.interpolate", polynomials, "lagrange_coefficients", None),
        ("dkg.ready_cert", proofs, "verify_ready_cert", None),
        ("runtime.dispatch", driver.MachineDriver, "dispatch", None),
        ("runtime.forge", sessions, "run_dkg_sessions", _forged_sessions),
        ("net.encode", wire, "encode", _encoded),
        ("net.decode", wire, "decode", _decoded),
        ("service.handle", workers.ThresholdService, "handle", _handled_key),
        ("service.handle", workers.ThresholdService, "handle_batch", _request_keys),
        ("service.combine", threshold_schnorr, "combine", None),
        ("service.combine", dprf, "combine", None),
        ("fuzz.plan", mutators.ScheduleMutator, "plan", None),
        ("fuzz.apply", mutators, "apply_plan", None),
        ("fuzz.execute", executor, "execute_schedule", None),
        ("fuzz.invariants", invariants, "check_invariants", None),
    ]


_installed = False


def install() -> None:
    """Wrap every seam once.  A module-level function is also replaced
    wherever another ``repro`` module imported it by name."""
    global _installed
    if _installed:
        return
    _installed = True
    for layer, owner, attribute, extra in _seam_table():
        original = getattr(owner, attribute)
        make = _async_wrapper if inspect.iscoroutinefunction(original) else _sync_wrapper
        wrapped = make(layer, original, extra, extra in (_encoded, _decoded))
        setattr(owner, attribute, wrapped)
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and module is not None:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)


# -- reading the spans back -----------------------------------------------------


def _union_ms(intervals, lo=None, hi=None) -> float:
    """Milliseconds covered by the union of ``intervals`` (clipped)."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total * 1000.0


def layer_totals(spans) -> dict[str, dict]:
    """Per layer: calls, inclusive ms, self ms (duration minus the part
    of it that child spans cover) and the list of span extras."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    totals: dict[str, dict] = {}
    for span in spans:
        name, start, end = span[0], span[1], span[2]
        entry = totals.setdefault(
            name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "extras": []}
        )
        duration = (end - start) * 1000.0
        entry["calls"] += 1
        entry["ms"] += duration
        entry["self_ms"] += duration - _union_ms(children.get(id(span), ()), start, end)
        if span[5] is not None:
            entry["extras"].append(span[5])
    return totals


def covered_ms(spans, windows: dict) -> float:
    """Milliseconds of the sample windows spent inside some root span;
    ``windows`` maps a sample to its ``(start, end)``."""
    roots: dict = {}
    for span in spans:
        if span[3] is None and span[4] in windows:
            roots.setdefault(span[4], []).append((span[1], span[2]))
    return sum(
        _union_ms(roots.get(sample, ()), lo, hi)
        for sample, (lo, hi) in windows.items()
    )


SPAN_LAYERS = (
    "crypto.sig_verify",
    "crypto.batch_verify",
    "crypto.multiexp",
    "crypto.element_decode",
    "crypto.interpolate",
    "runtime.dispatch",
    "net.encode",
    "net.decode",
    "service.handle",
)


def layer_metrics(spans, windows, samples: int) -> dict[str, float]:
    """Per-sample layer figures from the spans of one traced phase.

    ``windows`` maps each sample to its ``(start, end)`` (a server has
    one window, the whole phase, under sample ``None``); ``samples`` is
    what every count and time is divided by.
    """
    per = 1.0 / max(samples, 1)
    totals = layer_totals(spans)

    def get(layer: str) -> dict:
        return totals.get(layer, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "extras": []})

    out: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = get(layer)["calls"] * per
        out[f"{layer}.self_ms"] = get(layer)["self_ms"] * per
    # Distinct (signer, message, signature) triples within each sample.
    triples: dict = {}
    for span in spans:
        if span[0] == "crypto.sig_verify":
            triples.setdefault(span[4], set()).add(span[5])
    calls = get("crypto.sig_verify")["calls"]
    distinct = sum(len(found) for found in triples.values())
    out["crypto.sig_verify.distinct_ratio"] = distinct / calls if calls else 1.0
    batch = get("crypto.batch_verify")
    out["crypto.batch_verify.fallback_ratio"] = (
        sum(batch["extras"]) / batch["calls"] if batch["calls"] else 0.0
    )
    out["dkg.ready_cert.calls"] = get("dkg.ready_cert")["calls"] * per
    out["dkg.ready_cert.ms"] = get("dkg.ready_cert")["ms"] * per
    forge = get("runtime.forge")
    out["runtime.forge.calls"] = forge["calls"] * per
    out["runtime.forge.sessions"] = sum(forge["extras"]) * per
    out["runtime.forge.ms"] = forge["ms"] * per
    out["net.encode.bytes"] = sum(get("net.encode")["extras"]) * per
    out["net.decode.bytes"] = sum(get("net.decode")["extras"]) * per
    batches = [len(e) for e in get("service.handle")["extras"] if isinstance(e, tuple)]
    out["service.handle.batch_mean"] = sum(batches) / len(batches) if batches else 0.0
    out["service.combine.self_ms"] = get("service.combine")["self_ms"] * per
    out["fuzz.plan.ms"] = get("fuzz.plan")["ms"] * per
    out["fuzz.apply.ms"] = get("fuzz.apply")["ms"] * per
    out["fuzz.execute.self_ms"] = get("fuzz.execute")["self_ms"] * per
    out["fuzz.invariants.ms"] = get("fuzz.invariants")["ms"] * per
    wall = sum(hi - lo for lo, hi in windows.values()) * 1000.0
    covered = covered_ms(spans, windows)
    out["net.loop_ms"] = (wall - covered) * per
    out["trace.coverage"] = covered / wall if wall else 0.0
    return out
