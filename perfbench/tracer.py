"""Span tracer that wraps choreochannel's public functions from outside.

Each target is replaced at every place it is bound: the module that defines
it, every module that imported it by name, or the class that owns it. Spans
are kept in memory as tuples and turned into per-layer metrics when the
measured window ends; nothing inside the program is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict

from choreochannel.ledger import Rejected
from choreochannel.machine import ConformanceError

PACKAGE = "choreochannel"

# (metric prefix, module, owner class or None, attribute). The first group is
# the layer list the benchmark reports; the last three are traced only so that
# messages, remote handling and ledger transactions can be counted.
TARGETS = (
    ("bpmn.parse_choreography", "bpmn", None, "parse_choreography"),
    ("bpmn.validate_model", "bpmn", None, "validate_model"),
    ("petri.to_interaction_net", "petri", None, "to_interaction_net"),
    ("petri.check_safeness", "petri", None, "check_safeness"),
    ("petri.reduce_net", "petri", None, "reduce_net"),
    ("machine.compile_state_machine", "machine", None, "compile_state_machine"),
    ("machine.step", "machine", None, "step"),
    ("cases.build_machine", "cases", None, "build_machine"),
    ("wire.encode_step", "wire", None, "encode_step"),
    ("wire.sign_step", "wire", None, "sign_step"),
    ("wire.verify_step", "wire", None, "verify_step"),
    ("wire.public_key_of", "wire", None, "public_key_of"),
    ("trigger.TriggerNode.enact", "trigger", "TriggerNode", "enact"),
    ("trigger.TriggerNode.on_propose", "trigger", "TriggerNode", "on_propose"),
    ("trigger.TriggerNode.on_confirm", "trigger", "TriggerNode", "on_confirm"),
    ("trigger.TriggerNode.poll_chain", "trigger", "TriggerNode", "poll_chain"),
    ("trigger.TriggerNode.raise_dispute", "trigger", "TriggerNode", "raise_dispute"),
    ("ledger.Ledger.deploy_channel", "ledger", "Ledger", "deploy_channel"),
    ("ledger.Ledger.submit_state", "ledger", "Ledger", "submit_state"),
    ("ledger.Ledger.on_chain_step", "ledger", "Ledger", "on_chain_step"),
    ("ledger.Ledger.close_channel", "ledger", "Ledger", "close_channel"),
    ("ledger.Ledger.advance_blocks", "ledger", "Ledger", "advance_blocks"),
    ("ledger.Ledger.baseline_task", "ledger", "Ledger", "baseline_task"),
    ("harness.build_network", "harness", None, "build_network"),
    ("harness.replay_trace", "harness", None, "replay_trace"),
    ("httpd.HttpTransport.request", "httpd", "HttpTransport", "request"),
)
HELPERS = (
    ("trigger.InProcessNetwork.request", "trigger", "InProcessNetwork", "request"),
    ("trigger.TriggerNode.handle_message", "trigger", "TriggerNode", "handle_message"),
    ("ledger.Ledger.deploy_baseline", "ledger", "Ledger", "deploy_baseline"),
)
REPORTED = tuple(t[0] for t in TARGETS)

RATIOS = (
    ("petri.reduce_net.place_ratio", "ratio"),
    ("machine.step.reject_ratio", "ratio"),
    ("wire.verify_step.per_enact", "calls/enact"),
    ("wire.sign_step.per_enact", "calls/enact"),
    ("trigger.messages_per_enact", "msgs/enact"),
    ("trigger.message_bytes_per_enact", "bytes/enact"),
    ("httpd.bytes_per_enact", "bytes/enact"),
    ("httpd.connections_per_enact", "conns/enact"),
    ("httpd.transport_ms_per_op", "ms/op"),
    ("httpd.lock_wait_ms_per_op", "ms/op"),
    ("ledger.tx_per_op", "tx/op"),
    ("ledger.rejected_tx_ratio", "ratio"),
    ("tracing.slowdown", "x"),
)

TX_SPANS = (
    "ledger.Ledger.deploy_channel", "ledger.Ledger.deploy_baseline", "ledger.Ledger.submit_state",
    "ledger.Ledger.on_chain_step", "ledger.Ledger.close_channel", "ledger.Ledger.baseline_task",
)
MESSAGE_SPANS = ("trigger.InProcessNetwork.request", "httpd.HttpTransport.request")


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    specs = []
    for name in REPORTED:
        specs.append((f"{name}.calls_per_op", "calls/op"))
        specs.append((f"{name}.self_ms_per_op", "ms/op"))
    return specs + list(RATIOS)


class TimedLock:
    """Stand-in for a NodeServer lock that records how long acquiring took."""

    def __init__(self, lock, waits: list):
        self._lock = lock
        self._waits = waits

    def acquire(self, *args, **kwargs):
        start = time.perf_counter()
        got = self._lock.acquire(*args, **kwargs)
        self._waits.append(time.perf_counter() - start)
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


class Tracer:
    """Install wrappers, record spans, and reduce them to per-layer metrics.

    A span is (id, name, start, end, parent id, op id, thread id, note). The
    span stack is thread-local so HTTP handler threads nest their own spans;
    the op id is shared, which is exact while one client has one op in
    flight.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.lock_waits: list[float] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []
        self.bindings: dict[str, list[str]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, owner, attr in TARGETS + HELPERS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__.get(attr)
                if original is None:
                    continue  # the layer no longer exists: it reports zero
                self._replace(cls, attr, self._wrap(name, original))
                self.bindings[name] = [f"{module}.{owner}"]
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            bound = []
            for mod_name, other in list(sys.modules.items()):
                if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, key, wrapper)
                        bound.append(mod_name.removeprefix(PACKAGE + ".") or PACKAGE)
            self.bindings[name] = sorted(bound)

    def time_locks(self, servers) -> None:
        for server in servers:
            self._replace(server, "lock", TimedLock(server.lock, self.lock_waits))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _replace(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        tracer = self
        clock = time.perf_counter
        note_of = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                note = note_of(args, result, exc) if note_of else None
                spans.append((span_id, name, start, end, parent, tracer.op,
                              threading.get_ident(), note))

        return functools.wraps(fn)(wrapper)

    # -- reduction ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op, thread."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, thread, _ in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent, op, thread]) + "\n")

    def metrics(self, ops: int, main_thread: int) -> dict[str, float]:
        spans = self.spans
        per_op = 1.0 / ops
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            calls[s[1]] += 1
            self_s[s[1]] += (s[3] - s[2]) - child_time.get(s[0], 0.0)
            by_name[s[1]].append(s)

        out: dict[str, float] = {}
        for name in REPORTED:
            out[f"{name}.calls_per_op"] = calls[name] / ops  # exact for equal rounds
            out[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 * per_op

        reduce_notes = [s[7] for s in by_name["petri.reduce_net"] if s[7]]
        places_in = sum(n[0] for n in reduce_notes)
        out["petri.reduce_net.place_ratio"] = (
            sum(n[1] for n in reduce_notes) / places_in if places_in else 0.0)
        steps = by_name["machine.step"]
        out["machine.step.reject_ratio"] = (
            sum(1 for s in steps if s[7]) / len(steps) if steps else 0.0)

        out.update(self._per_enact(by_name, main_thread))

        http = by_name["httpd.HttpTransport.request"]
        remote = [s for s in by_name["trigger.TriggerNode.handle_message"] if s[4] is None]
        transport_s = sum(s[3] - s[2] for s in http) - sum(s[3] - s[2] for s in remote)
        out["httpd.transport_ms_per_op"] = transport_s * 1e3 * per_op if http else 0.0
        out["httpd.lock_wait_ms_per_op"] = sum(self.lock_waits) * 1e3 * per_op

        txs = [s for name in TX_SPANS for s in by_name[name]]
        out["ledger.tx_per_op"] = len(txs) / ops
        out["ledger.rejected_tx_ratio"] = (
            sum(1 for s in txs if s[7]) / len(txs) if txs else 0.0)
        return out

    def _per_enact(self, by_name, main_thread: int) -> dict[str, float]:
        """Counts inside each confirmed off-chain enact, in any thread.

        An enact is off-chain when no on-chain task ran beneath it. Calls are
        attributed to it when they start inside its interval and carry its
        op id; with one client and one op in flight that is exactly the work
        the step caused, including peers' work on HTTP handler threads.
        """
        onchain_parents = {s[4] for s in by_name["ledger.Ledger.on_chain_step"]}
        enacts = [s for s in by_name["trigger.TriggerNode.enact"]
                  if s[7] and s[0] not in onchain_parents and s[4] is None]

        def index(names):
            spans = sorted((s for n in names for s in by_name[n]), key=lambda s: s[2])
            return [s[2] for s in spans], spans

        indexes = {
            "verify": index(["wire.verify_step"]),
            "sign": index(["wire.sign_step"]),
            "message": index(MESSAGE_SPANS),
            "http": index(["httpd.HttpTransport.request"]),
        }

        def inside(key, enact):
            starts, spans = indexes[key]
            lo, hi = bisect_left(starts, enact[2]), bisect_right(starts, enact[3])
            return [s for s in spans[lo:hi] if s[5] == enact[5]]

        totals = defaultdict(float)
        for enact in enacts:
            totals["verify"] += len(inside("verify", enact))
            totals["sign"] += len(inside("sign", enact))
            messages = inside("message", enact)
            totals["message"] += len(messages)
            totals["message_bytes"] += sum(_message_bytes(s[7]) for s in messages)
            http = inside("http", enact)
            if http:
                totals["http_bytes"] += sum(_message_bytes(s[7]) for s in http)
                # The client's /enact arrives on its own connection.
                totals["connections"] += len(http) + (enact[6] != main_thread)
        n = len(enacts) or 1
        return {
            "wire.verify_step.per_enact": totals["verify"] / n,
            "wire.sign_step.per_enact": totals["sign"] / n,
            "trigger.messages_per_enact": totals["message"] / n,
            "trigger.message_bytes_per_enact": totals["message_bytes"] / n,
            "httpd.bytes_per_enact": totals["http_bytes"] / n,
            "httpd.connections_per_enact": totals["connections"] / n,
        }


def _message_bytes(note) -> int:
    """Envelope bytes of a message and its reply, as the HTTP transport sends them."""
    if note is None:
        return 0
    message, reply = note
    return len(message.to_wire()) + (len(reply.to_wire()) if reply is not None else 0)


# Per-span notes, taken after the call returns. They hold only what the
# reduction needs, so the traced call's own work is unchanged.
_NOTES = {
    "petri.reduce_net": lambda a, r, e: None if r is None else (len(a[0].places), len(r.places)),
    "machine.step": lambda a, r, e: isinstance(e, ConformanceError),
    "trigger.TriggerNode.enact": lambda a, r, e: r is not None and r.confirmed,
    "trigger.InProcessNetwork.request": lambda a, r, e: (a[2], r),
    "httpd.HttpTransport.request": lambda a, r, e: (a[2], r),
    "ledger.Ledger.submit_state": lambda a, r, e: isinstance(r, Rejected),
    "ledger.Ledger.on_chain_step": lambda a, r, e: isinstance(r, Rejected),
    "ledger.Ledger.close_channel": lambda a, r, e: isinstance(r, Rejected),
    "ledger.Ledger.baseline_task": lambda a, r, e: isinstance(r, Rejected),
}
