"""Span tracer for the traced benchmark run, applied from outside the program.

``Tracer.install()`` wraps the public functions of each fedshield module
under every name a caller imports them by (``fedshield.fl.serialize_params``
and ``fedshield.orchestrator.serialize_params`` alike), plus the methods that
mark layer boundaries, and restores every original on exit. Each call
becomes one span ``(id, parent, name, thread, round, start_ns, end_ns, size,
ok)`` appended to an in-memory list; nothing is written until the run ends.

Spans nest per thread. A span's self time is its duration minus the
durations of its direct children, which lie inside it on the same thread.
The round index is the coordinator's current round: 0 from the start of
``demo.run_demo`` (set-up), -1 after the session, so client-thread spans land in the round that was live
when they started.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple

import fedshield.attestation as attestation
import fedshield.audit as audit
import fedshield.counters as counters
import fedshield.demo as demo
import fedshield.enclave as enclave
import fedshield.encoding as encoding
import fedshield.fl as fl
import fedshield.orchestrator as orchestrator
import fedshield.outliers as outliers
import fedshield.policy as policy
import fedshield.protocol as protocol
import fedshield.services as services
import fedshield.shield as shield
import fedshield.transport as transport

SETUP, TEARDOWN = 0, -1


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    thread: int
    round: int
    start: int
    end: int
    size: int
    ok: bool


def _result_len(args, result):
    return len(result)


def _arg_len(index):
    return lambda args, result: len(args[index])


def _frame_len(args, result):
    return len(args[1]) + 4  # u32 length prefix, as on the wire


def _audit_line_len(args, result):
    return len(result.to_line())


# Module-level functions: (module, attribute, span name, size of the call).
# Every fedshield module that imported the function under any name gets the
# wrapped version.
FUNCTIONS = [
    (fl, "local_train", "fl.local_train", None),
    (fl, "serialize_params", "fl.serialize_params", _result_len),
    (fl, "deserialize_params", "fl.deserialize_params", None),
    (fl, "params_hash", "fl.params_hash", None),
    (fl, "dataset_to_csv_bytes", "fl.dataset_to_csv_bytes", _result_len),
    (fl, "dataset_from_csv_bytes", "fl.dataset_from_csv_bytes", None),
    (outliers, "clone_aggregate", "outliers.clone_aggregate", _result_len),
    (outliers, "score_clients", "outliers.score_clients", None),
    (protocol, "encode_message", "protocol.encode_message", _result_len),
    (protocol, "decode_message", "protocol.decode_message", None),
    (encoding, "b64", "encoding.b64", _arg_len(0)),
    (encoding, "unb64", "encoding.unb64", None),
    (encoding, "canonical_bytes", "encoding.canonical_bytes", None),
    (attestation, "attested_handshake", "attestation.attested_handshake", None),
    (attestation, "verify_quote", "attestation.verify_quote", None),
    (shield, "shield_encrypt", "shield.shield_encrypt", _arg_len(0)),
    (shield, "shield_decrypt", "shield.shield_decrypt", _result_len),
    (shield, "write_shielded", "shield.write_shielded", None),
    (shield, "read_shielded", "shield.read_shielded", None),
    (enclave, "verify_signature", "enclave.verify_signature", None),
]

# Functions wrapped only where the coordinator calls them, so that the
# guard's own aggregations and evaluations stay inside its span.
COORDINATOR_CALLS = [
    ("aggregate", "orchestrator.aggregate"),
    ("evaluate", "orchestrator.evaluate"),
]

# Methods: (class, attribute, span name, size of the call).
METHODS = [
    (orchestrator.Coordinator, "_broadcast", "orchestrator.send", None),
    (orchestrator.Coordinator, "_collect_updates", "orchestrator.collect_wait", None),
    (orchestrator.Coordinator, "_run_guard", "orchestrator.guard", None),
    (orchestrator.Coordinator, "_write_checkpoint", "orchestrator.checkpoint", None),
    (orchestrator.Coordinator, "handle_join", "orchestrator.handle_join", None),
    (attestation.SecureChannel, "send", "attestation.channel_send", _arg_len(1)),
    (attestation.SecureChannel, "recv", "attestation.channel_recv", None),
    (transport.InProcessTransport, "send_frame", "transport.send_frame", _frame_len),
    (transport.InProcessTransport, "recv_frame", "transport.recv_frame", None),
    (counters.CounterService, "increment_async", "counters.increment_async", None),
    (counters.CounterService, "read_stable", "counters.read_stable", None),
    (counters.CounterService, "create_counter", "counters.create_counter", None),
    (audit.AuditLog, "append", "audit.append", _audit_line_len),
    (policy.PolicyManager, "upload_policy", "policy.upload_policy", None),
    (policy.PolicyManager, "generate_secrets", "policy.generate_secrets", None),
    (policy.PolicyManager, "release_secrets", "policy.release_secrets", None),
    (enclave.Enclave, "generate_quote", "enclave.generate_quote", None),
    (enclave.Enclave, "seal", "enclave.seal", None),
    (enclave.Enclave, "unseal", "enclave.unseal", None),
] + [
    (services.ManagerChannel, name, "services.rpc", None)
    for name in ("upload_policy", "generate_secrets", "request_secrets",
                 "counter_create", "counter_increment", "counter_read")
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, size=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            rnd = tracer.round
            stack.append(sid)
            ok = False
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                n = size(args, result) if size is not None and ok else 0
                tracer.spans.append(Span(sid, parent, name, threading.get_ident(),
                                         rnd, start, end, n, ok))

        return traced

    @contextmanager
    def install(self):
        """Wrap every boundary in FUNCTIONS, COORDINATOR_CALLS and METHODS,
        plus the session and round markers; restore all originals on exit."""
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            modules = [m for n, m in sorted(sys.modules.items())
                       if n == "fedshield" or n.startswith("fedshield.")]
            for module, attr, name, size in FUNCTIONS:
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, size)
                for importer in modules:
                    for binding, value in list(vars(importer).items()):
                        if value is original:
                            patch(importer, binding, wrapped)
            for attr, name in COORDINATOR_CALLS:
                patch(orchestrator, attr, self.wrap(name, getattr(orchestrator, attr)))
            for cls, attr, name, size in METHODS:
                patch(cls, attr, self.wrap(name, getattr(cls, attr), size))
            self._mark_phases(patch)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _mark_phases(self, patch):
        tracer = self
        run_round = self.wrap("orchestrator.run_round",
                              orchestrator.Coordinator.run_round)
        run_session = orchestrator.Coordinator.run_session
        run_demo = demo.run_demo

        def round_marker(coordinator, round_index):
            tracer.round = round_index
            return run_round(coordinator, round_index)

        def session_marker(coordinator):
            try:
                return run_session(coordinator)
            finally:
                tracer.round = TEARDOWN

        def deployment_marker(*args, **kwargs):
            tracer.round = SETUP
            return run_demo(*args, **kwargs)

        patch(orchestrator.Coordinator, "run_round", round_marker)
        patch(orchestrator.Coordinator, "run_session", session_marker)
        patch(demo, "run_demo", deployment_marker)


class Totals:
    """Per (span name, phase) sums: calls, self ns, inclusive ns, size, failures."""

    def __init__(self, spans: list[Span]):
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            child_ns[s.parent] += s.end - s.start
        self._sums: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0] * 5)
        self.round_spans = [s for s in spans if s.name == "orchestrator.run_round"]
        round_ids = {s.sid for s in self.round_spans}
        self.round_coverage = [child_ns[s.sid] / (s.end - s.start)
                               for s in self.round_spans if s.end > s.start]
        self.audit_in_round_ns = sum(s.end - s.start for s in spans
                                     if s.name == "audit.append" and s.parent in round_ids)
        # Frame waits on the coordinator's thread; client and service threads
        # idle in recv between rounds, which is not time the round waited.
        coordinator_threads = {s.thread for s in self.round_spans}
        self.coordinator_recv_wait_ns = sum(
            s.end - s.start for s in spans
            if s.name == "transport.recv_frame" and s.round > 0
            and s.thread in coordinator_threads)
        for s in spans:
            phase = "round" if s.round > 0 else "setup" if s.round == SETUP else "teardown"
            acc = self._sums[(s.name, phase)]
            duration = s.end - s.start
            acc[0] += 1
            acc[1] += duration - child_ns[s.sid]
            acc[2] += duration
            acc[3] += s.size
            acc[4] += 0 if s.ok else 1

    def get(self, name: str, phase: str, field: str) -> int:
        index = ("calls", "self_ns", "incl_ns", "size", "failed").index(field)
        return self._sums[(name, phase)][index]

    def incl_prefix(self, prefixes: tuple[str, ...], phase: str) -> int:
        return sum(acc[2] for (name, ph), acc in self._sums.items()
                   if ph == phase and name.startswith(prefixes))

    def module_self(self, module: str, phase: str) -> int:
        return sum(acc[1] for (name, ph), acc in self._sums.items()
                   if ph == phase and name.startswith(module + ".")
                   and name != "transport.recv_frame")


# Per-layer metric table: (metric, span name, phase, field, unit, better).
# "round" metrics are totals over the rounds phase divided by the round
# count; "setup" metrics are totals over set-up divided by the session
# count. ".ms" is self time, except the orchestrator phases, which are the
# inclusive durations of the coordinator's own steps.
SPAN_METRICS = [
    ("orchestrator.collect_wait_ms", "orchestrator.collect_wait", "round", "incl_ns", "ms", "lower"),
    ("orchestrator.send_ms", "orchestrator.send", "round", "incl_ns", "ms", "lower"),
    ("orchestrator.guard_ms", "orchestrator.guard", "round", "incl_ns", "ms", "lower"),
    ("orchestrator.aggregate_ms", "orchestrator.aggregate", "round", "incl_ns", "ms", "lower"),
    ("orchestrator.evaluate_ms", "orchestrator.evaluate", "round", "incl_ns", "ms", "lower"),
    ("orchestrator.checkpoint_ms", "orchestrator.checkpoint", "round", "incl_ns", "ms", "lower"),
    ("orchestrator.self_ms", "orchestrator.run_round", "round", "self_ns", "ms", "lower"),
    ("orchestrator.handle_join_ms", "orchestrator.handle_join", "setup", "incl_ns", "ms", "lower"),
    ("fl.local_train.calls", "fl.local_train", "round", "calls", "count", "lower"),
    ("fl.local_train.ms", "fl.local_train", "round", "self_ns", "ms", "lower"),
    ("fl.serialize_params.calls", "fl.serialize_params", "round", "calls", "count", "lower"),
    ("fl.serialize_params.bytes", "fl.serialize_params", "round", "size", "B", "lower"),
    ("fl.serialize_params.ms", "fl.serialize_params", "round", "self_ns", "ms", "lower"),
    ("fl.deserialize_params.calls", "fl.deserialize_params", "round", "calls", "count", "lower"),
    ("fl.deserialize_params.ms", "fl.deserialize_params", "round", "self_ns", "ms", "lower"),
    ("fl.params_hash.calls", "fl.params_hash", "round", "calls", "count", "lower"),
    ("fl.params_hash.ms", "fl.params_hash", "round", "self_ns", "ms", "lower"),
    ("fl.dataset_to_csv_bytes.bytes", "fl.dataset_to_csv_bytes", "setup", "size", "B", "lower"),
    ("fl.dataset_to_csv_bytes.ms", "fl.dataset_to_csv_bytes", "setup", "self_ns", "ms", "lower"),
    ("fl.dataset_from_csv_bytes.ms", "fl.dataset_from_csv_bytes", "setup", "self_ns", "ms", "lower"),
    ("outliers.clone_aggregate.calls", "outliers.clone_aggregate", "round", "calls", "count", "lower"),
    ("outliers.clone_aggregate.clones", "outliers.clone_aggregate", "round", "size", "count", "lower"),
    ("outliers.clone_aggregate.ms", "outliers.clone_aggregate", "round", "self_ns", "ms", "lower"),
    ("outliers.score_clients.ms", "outliers.score_clients", "round", "self_ns", "ms", "lower"),
    ("protocol.encode_message.calls", "protocol.encode_message", "round", "calls", "count", "lower"),
    ("protocol.encode_message.bytes", "protocol.encode_message", "round", "size", "B", "lower"),
    ("protocol.encode_message.ms", "protocol.encode_message", "round", "self_ns", "ms", "lower"),
    ("protocol.decode_message.ms", "protocol.decode_message", "round", "self_ns", "ms", "lower"),
    ("encoding.b64.bytes", "encoding.b64", "round", "size", "B", "lower"),
    ("encoding.b64.ms", "encoding.b64", "round", "self_ns", "ms", "lower"),
    ("encoding.unb64.ms", "encoding.unb64", "round", "self_ns", "ms", "lower"),
    ("encoding.canonical_bytes.ms", "encoding.canonical_bytes", "round", "self_ns", "ms", "lower"),
    ("attestation.attested_handshake.calls", "attestation.attested_handshake", "setup", "calls", "count", "lower"),
    ("attestation.attested_handshake.ms", "attestation.attested_handshake", "setup", "self_ns", "ms", "lower"),
    ("attestation.handshake_failures", "attestation.attested_handshake", "setup", "failed", "count", "lower"),
    ("attestation.verify_quote.calls", "attestation.verify_quote", "setup", "calls", "count", "lower"),
    ("attestation.verify_quote.ms", "attestation.verify_quote", "setup", "self_ns", "ms", "lower"),
    ("attestation.channel_send.frames", "attestation.channel_send", "round", "calls", "count", "lower"),
    ("attestation.channel_send.bytes", "attestation.channel_send", "round", "size", "B", "lower"),
    ("attestation.channel_send.ms", "attestation.channel_send", "round", "self_ns", "ms", "lower"),
    ("attestation.channel_recv.frames", "attestation.channel_recv", "round", "calls", "count", "lower"),
    ("attestation.channel_recv.ms", "attestation.channel_recv", "round", "self_ns", "ms", "lower"),
    ("transport.frames", "transport.send_frame", "round", "calls", "count", "lower"),
    ("transport.bytes", "transport.send_frame", "round", "size", "B", "lower"),
    ("services.rpc.calls", "services.rpc", "round", "calls", "count", "lower"),
    ("services.rpc.ms", "services.rpc", "round", "self_ns", "ms", "lower"),
    ("counters.increment_async.calls", "counters.increment_async", "round", "calls", "count", "lower"),
    ("counters.increment_async.ms", "counters.increment_async", "round", "self_ns", "ms", "lower"),
    ("counters.read_stable.calls", "counters.read_stable", "round", "calls", "count", "lower"),
    ("counters.read_stable.ms", "counters.read_stable", "round", "self_ns", "ms", "lower"),
    ("counters.create_counter.calls", "counters.create_counter", "setup", "calls", "count", "lower"),
    ("shield.shield_encrypt.bytes", "shield.shield_encrypt", "round", "size", "B", "lower"),
    ("shield.shield_encrypt.ms", "shield.shield_encrypt", "round", "self_ns", "ms", "lower"),
    ("shield.shield_decrypt.bytes", "shield.shield_decrypt", "setup", "size", "B", "lower"),
    ("shield.shield_decrypt.ms", "shield.shield_decrypt", "setup", "self_ns", "ms", "lower"),
    ("shield.write_shielded.ms", "shield.write_shielded", "round", "self_ns", "ms", "lower"),
    ("shield.read_shielded.ms", "shield.read_shielded", "setup", "self_ns", "ms", "lower"),
    ("audit.append.calls", "audit.append", "round", "calls", "count", "lower"),
    ("audit.append.bytes", "audit.append", "round", "size", "B", "lower"),
    ("audit.append.ms", "audit.append", "round", "self_ns", "ms", "lower"),
    ("policy.upload_policy.ms", "policy.upload_policy", "setup", "self_ns", "ms", "lower"),
    ("policy.generate_secrets.ms", "policy.generate_secrets", "setup", "self_ns", "ms", "lower"),
    ("policy.release_secrets.calls", "policy.release_secrets", "setup", "calls", "count", "lower"),
    ("policy.release_secrets.ms", "policy.release_secrets", "setup", "self_ns", "ms", "lower"),
    ("enclave.generate_quote.calls", "enclave.generate_quote", "setup", "calls", "count", "lower"),
    ("enclave.generate_quote.ms", "enclave.generate_quote", "setup", "self_ns", "ms", "lower"),
    ("enclave.verify_signature.calls", "enclave.verify_signature", "round", "calls", "count", "lower"),
    ("enclave.verify_signature.ms", "enclave.verify_signature", "round", "self_ns", "ms", "lower"),
    ("enclave.seal.calls", "enclave.seal", "setup", "calls", "count", "lower"),
    ("enclave.unseal.calls", "enclave.unseal", "setup", "calls", "count", "lower"),
]

# Metrics derived from more than one span, or from outside the trace;
# computed in ``layer_metrics`` and in run.py.
DERIVED_METRICS = [
    ("orchestrator.audit_ms", "ms", "lower"),
    ("transport.recv_wait_ms", "ms", "lower"),
    ("orchestrator.kept_ratio", "ratio", "higher"),
    ("orchestrator.dropped", "count", "lower"),
    ("services.rpc_wait_ms", "ms", "lower"),
    ("process.cpu_ms_per_round", "ms", "lower"),
    ("process.cpu_util", "ratio", "higher"),
    ("trace.round_coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.round_ms_p50_traced", "ms", "lower"),
    ("trace.round_ms_p50_untraced", "ms", "lower"),
    ("trace.spans_per_round", "count", "lower"),
]

# Self time per round of every span in a module, over the rounds phase.
# transport.recv_frame is left out: its self time is blocking, reported as
# transport.recv_wait_ms.
MODULES = ("orchestrator", "fl", "outliers", "protocol", "encoding", "attestation",
           "transport", "services", "counters", "shield", "audit", "policy", "enclave")
DERIVED_METRICS += [(f"{module}.module_self_ms", "ms", "lower") for module in MODULES]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return ([(m, unit, better) for m, _, _, _, unit, better in SPAN_METRICS]
            + DERIVED_METRICS)


def layer_metrics(spans: list[Span], rounds: int, sessions: int) -> dict[str, float]:
    """Span-derived per-layer metrics: per round, or per session for set-up."""
    totals = Totals(spans)
    out: dict[str, float] = {}
    for metric, name, phase, field, _unit, _better in SPAN_METRICS:
        value = totals.get(name, phase, field)
        if field.endswith("_ns"):
            value /= 1e6
        out[metric] = value / (rounds if phase == "round" else sessions)
    server_ns = totals.incl_prefix(("counters.", "policy."), "round")
    rpc_ns = totals.get("services.rpc", "round", "incl_ns")
    out["services.rpc_wait_ms"] = (rpc_ns - server_ns) / 1e6 / rounds
    out["orchestrator.audit_ms"] = totals.audit_in_round_ns / 1e6 / rounds
    out["transport.recv_wait_ms"] = totals.coordinator_recv_wait_ns / 1e6 / rounds
    out["trace.round_coverage"] = (statistics.median(totals.round_coverage)
                                   if totals.round_coverage else 0.0)
    out["trace.spans_per_round"] = sum(1 for s in spans if s.round > 0) / rounds
    for module in MODULES:
        out[f"{module}.module_self_ms"] = totals.module_self(module, "round") / 1e6 / rounds
    return out
