"""The four benchmark workloads and their output checks.

Every workload is a closed loop driven by one client from one process, with
no injected delay. Its inputs come from the seed alone. A run repeats one
seeded round of about a second until the time is up, so every round does
the same work: op i of one round repeats op i of the others, and per-op
counts from the tracer repeat exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from choreochannel import bpmn, cases, harness, randmodel
from choreochannel.harness import ScenarioKind, ScenarioSpec, Trace
from choreochannel.httpd import serve_network
from choreochannel.ledger import Ledger, TxKind

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


class Recorder:
    """Per-op latencies, failures and outputs of one measured pass.

    `failed` counts ops that did not complete: one with a failed check, or
    one that raised an exception that is not a named refusal. A check made
    between ops counts against the op before it. `wrong` counts only the
    failed checks; any of those makes the run incorrect.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.marks: list[float] = []  # when op i began, before a reference piece ran
        self.failed_ops: set[int] = set()
        self.wrong = 0
        self.problems: list[str] = []
        self.units = 0
        self.round_digests: list[str] = []
        self.round_times: list[float] = []
        self.round_ends: list[float] = []
        self.tracer = tracer
        self.attempted_elsewhere = 0
        self.failed_elsewhere = 0
        self._open: float | None = None

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.ops + self.attempted_elsewhere

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + self.failed_elsewhere

    def merge(self, other: "Recorder") -> None:
        """Count another pass's ops and failures in this one's verdict."""
        self.attempted_elsewhere += other.attempted
        self.failed_elsewhere += other.failed
        self.wrong += other.wrong
        self.problems += other.problems

    def start(self) -> None:
        """Begin an op, ending the one still open.

        A reference piece may run between the two; it counts toward no op.
        """
        now = time.perf_counter()
        if self._open is not None:
            self.latencies.append(now - self._open)
        self.marks.append(now)
        self.clock.maybe_sample()
        now = time.perf_counter()
        self._open = now
        self.starts.append(now)
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)

    def stop(self) -> None:
        if self._open is not None:
            self.latencies.append(time.perf_counter() - self._open)
            self._open = None
        if self.tracer is not None:
            self.tracer.op = None

    def check(self, ok: bool, what: str, op: int | None = None) -> None:
        """Record a failed output check against `op`, or the latest op."""
        if not ok:
            self.wrong += 1
            self.error(what, op)

    def error(self, what: str, op: int | None = None) -> None:
        """Record a failed op that produced no wrong output."""
        self.failed_ops.add(max(self.ops - 1, 0) if op is None else op)
        self._note(what)

    def _note(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


@contextmanager
def captured_networks():
    """Collect every ChannelSetup the harness builds, to read its ledger."""
    original = harness.build_network
    setups = []

    def capture(*args, **kwargs):
        setup = original(*args, **kwargs)
        setups.append(setup)
        return setup

    harness.build_network = capture
    try:
        yield setups
    finally:
        harness.build_network = original


def _ledger_units(ledger: Ledger) -> int:
    return sum(tx.cost.cost_units for tx in ledger.log)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class Replay:
    """Criterion 1: mutants and conforming variants through the network.

    The mutants are the first ones criterion 1 draws (mutation seed 42); the
    workload seed sets every channel's keys and the mutants' order. A trace's
    cost depends on where its first reject falls, and the median over a
    seed-drawn set of 100 mutants moved by 0.13 between seeds.
    """

    name = "replay"
    mutants_per_case = 20
    mutation_seed = 42

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.batches = []
        for case in cases.CASES:
            machine = cases.build_machine(case)
            variants = [Trace(tuple(v)) for v in cases.load_variants(case)]
            mutants = harness.mutate_traces(machine, variants, self.mutants_per_case,
                                            seed=self.mutation_seed).traces
            rng.shuffle(mutants)
            self.batches.append((case, variants + mutants, len(variants)))

    def setup(self) -> None:
        for case in cases.CASES:
            machine = cases.build_machine(case)
            harness.build_network(machine, seed=self.seed, prefilter=False, key_salt=case)

    def teardown(self) -> None:
        pass

    def run_round(self, rec: Recorder) -> str:
        parts = []
        for case, traces, n_variants in self.batches:
            first_op = rec.ops
            with captured_networks() as setups:
                report = harness.replay_conformance(case, self._stamped(traces, rec),
                                                    seed=self.seed)
            rec.stop()
            rec.check(len(report.results) == len(traces), f"{case}: result count")
            for r in report.results:
                conforming = r.index < n_variants
                ok = r.agrees_with_oracle and r.stable
                if conforming:
                    ok = ok and r.fully_accepted and r.end_reached
                else:
                    ok = ok and not r.fully_accepted and \
                        r.first_reject == r.oracle_verdicts.index(False)
                rec.check(ok, f"{case} trace {r.index}: {r}", first_op + r.index)
                parts.append(r.network_verdicts)
            for setup in setups:
                rec.units += _ledger_units(setup.ledger)
                parts.append(setup.ledger.export_log())
        return _digest(parts)

    @staticmethod
    def _stamped(traces, rec: Recorder):
        # replay_conformance reads one trace, replays it, then reads the
        # next, so the interval between two reads is one trace's latency.
        for trace in traces:
            rec.start()
            yield trace


class Disputes:
    """Criteria 3, 4 and 6: scenario and unavailability runs, then break-even.

    Scenario runs take their seeds, and so their keys and the WORST
    adversary, from the workload seed. An unavailability run's seed also
    picks the variant and the event at which a signer falls silent, which
    moved the median op cost by a tenth between workload seeds, so those
    runs use the fixed seeds 0-8 of criterion 4. The workload seed orders
    all of them.
    """

    name = "disputes"
    unavailability_per_case = 9

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        for case in cases.CASES:
            for kind in ScenarioKind:
                for variant in range(len(cases.load_variants(case))):
                    spec = ScenarioSpec(case, variant, kind, seed=rng.randrange(1 << 30))
                    self.ops.append(("scenario", spec))
            for run_seed in range(self.unavailability_per_case):
                self.ops.append(("unavailability", (case, run_seed)))
        rng.shuffle(self.ops)

    def setup(self) -> None:
        for case in cases.CASES:
            cases.build_machine(case)
            cases.load_variants(case)

    def teardown(self) -> None:
        pass

    def run_round(self, rec: Recorder) -> str:
        costs = {case: {k.value: [] for k in ScenarioKind} for case in cases.CASES}
        parts = []
        with captured_networks() as setups:
            for kind, arg in self.ops:
                rec.start()
                try:
                    if kind == "scenario":
                        outcome = harness.run_scenario(arg)
                    else:
                        outcome = harness.run_unavailability(*arg)
                except Exception as exc:  # a violated invariant fails the op
                    rec.stop()
                    rec.check(False, f"{kind} {arg}: {type(exc).__name__}: {exc}")
                    continue
                rec.stop()
                if kind == "scenario":
                    rec.check(self._scenario_ok(outcome), f"scenario {arg}")
                    costs[arg.case][arg.kind.value].append(outcome.report)
                    parts.append(outcome.ledger_log)
                else:
                    rec.check(outcome.end_reached and outcome.went_on_chain and outcome.stable,
                              f"unavailability {arg}: {outcome}")
                    parts.append(outcome)
        for setup in setups:
            rec.units += _ledger_units(setup.ledger)
        for case, by_kind in costs.items():
            if all(by_kind.values()):
                report = harness.break_even(case, costs=by_kind)
                rec.check(self._break_even_ok(report), f"break-even ordering for {case}")
                parts.append(report.to_json())
        return _digest(parts)

    @staticmethod
    def _scenario_ok(outcome) -> bool:
        kind = outcome.spec.kind
        records = outcome.report.records
        if not (outcome.end_reached and outcome.stable):
            return False
        if kind is ScenarioKind.BEST:
            return [r["kind"] for r in records] == ["deploy", "close"]
        if kind is ScenarioKind.WORST:
            accepted = [r["payload_seq"] for r in records
                        if r["kind"] == TxKind.SUBMIT_STATE.value and r["accepted"]]
            return outcome.installed_seq_at_expiry == 2 and accepted == [1, 2]
        return True

    @staticmethod
    def _break_even_ok(report) -> bool:
        s = report.savings_by_kind
        mix = {m.mix: m for m in report.mixes}
        be0 = mix[0.0].break_even_runs
        return (s["best"] > mix[0.05].savings_per_run > mix[0.20].savings_per_run
                > s["bad"] > s["worst"]
                and be0 is not None and be0 <= 10
                and mix[0.05].break_even_runs <= mix[0.20].break_even_runs)


class Http:
    """Enactment over loopback HTTP: one channel, one client, cases back to back."""

    name = "http"
    case = "incident_management"
    cases_per_variant = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.variants = cases.load_variants(self.case)
        # Every variant equally often, in seeded order: the case mix, and so
        # the closes per enact, is the same for every seed.
        self.order = list(range(len(self.variants))) * self.cases_per_variant
        random.Random(seed).shuffle(self.order)
        self.setup_state = None
        self.servers = {}

    def setup(self) -> None:
        machine = cases.build_machine(self.case)
        self.setup_state = harness.build_network(machine, seed=self.seed, key_salt="perfbench")
        self.servers = serve_network(self.setup_state.nodes)
        for role in self.servers:
            status, body = self._request(role, "GET", "/status")
            if status != 200 or body["role"] != role:
                raise RuntimeError(f"/status of {role}: HTTP {status} {body}")

    def teardown(self) -> None:
        for server in self.servers.values():
            server.stop()
            server.thread.join(timeout=10)
        self.servers = {}

    def _request(self, role: str, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.servers[role].port, timeout=30)
        try:
            data = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def run_round(self, rec: Recorder) -> str:
        parts = []
        for variant_index in self.order:
            parts.append(variant_index)
            parts.extend(self._run_case(self.variants[variant_index], rec))
        return _digest(parts)

    def _run_case(self, variant, rec: Recorder) -> list:
        """Enact one case, close it unanimously, poll every node, compare /status."""
        setup = self.setup_state
        case_before = setup.nodes[variant[0].requester_role].case_id
        units_before = _ledger_units(setup.ledger)
        parts = []
        for req in variant:
            rec.start()
            status, body = self._request(req.requester_role, "POST", "/enact",
                                         {"task_id": req.task_id,
                                          "choice_data": req.choice_data.hex()})
            rec.stop()
            ok = status == 200 and body["status"] == "confirmed"
            rec.check(ok, f"/enact {req.task_id}: HTTP {status} {body}")
            parts.append((status, body and body["status"], body and body["new_state"]))
        closer = variant[-1].requester_role
        with self.servers[closer].lock:
            closed = setup.nodes[closer].close()
        rec.check(closed.confirmed, f"close by {closer}: {closed}")
        for role, node in setup.nodes.items():
            with self.servers[role].lock:
                node.poll_chain()
        views = set()
        for role in self.servers:
            status, body = self._request(role, "GET", "/status")
            rec.check(status == 200, f"/status of {role}: HTTP {status}")
            views.add((body["case_id"], body["seq"], body["state"], body["phase"])
                      if status == 200 else None)
        rec.check(len(views) == 1 and next(iter(views))[0] == case_before + 1,
                  f"/status after case {case_before}: {views}")
        rec.units += _ledger_units(setup.ledger) - units_before
        parts.extend(sorted(view[1:] for view in views))
        return parts


class Compile:
    """parse_choreography then compile_model over random and fixture BPMN XML.

    The model set is the fixed seed range [0, models_per_size) at both sizes
    plus the fixtures; the workload seed sets their order. Compile time has a
    heavy tail, so a seed-drawn subset would make ops/s depend on which
    heavy models it drew; a fixed set keeps the spread to the machine's.
    """

    name = "compile"
    models_per_size = 100
    sizes = (("default", {}), ("large", {"max_tasks": 12, "max_depth": 4}))

    def __init__(self, seed: int):
        self.items = [
            (size, model_seed, bpmn.serialize_choreography(randmodel.random_model(model_seed, **params)))
            for size, params in self.sizes
            for model_seed in range(self.models_per_size)
        ]
        self.items += [("fixture", case, cases.fixture_bytes(case)) for case in cases.CASES]
        random.Random(seed).shuffle(self.items)
        self.golden = {case: json.loads((GOLDEN / f"{case}.machine.json").read_text())
                       for case in cases.CASES}
        self.machines = None

    def setup(self) -> None:
        for case in cases.CASES:
            cases.build_machine(case)

    def teardown(self) -> None:
        pass

    def run_round(self, rec: Recorder) -> str:
        parts = []
        machines = []
        for kind, key, xml in self.items:
            rec.start()
            machine = failure = None
            try:
                machine = cases.compile_model(bpmn.parse_choreography(xml))
            except ValueError as exc:  # named refusal: a completed verdict
                verdict = f"refused: {type(exc).__name__}: {exc}"
            except Exception as exc:
                failure = verdict = f"failed: {type(exc).__name__}: {exc}"
            rec.stop()
            if failure is not None:
                rec.error(f"{kind} model {key}: {failure}")
            if machine is not None:
                verdict = machine.to_json()
            if kind == "fixture":
                rec.check(machine is not None and machine.to_dict() == self.golden[key],
                          f"fixture {key} differs from its golden machine")
            machines.append(machine)
            parts.append(verdict)
        if self.machines is None:
            self.machines = machines
        return _digest(parts)

    def units_per_op(self) -> float:
        """Deploy cost of each compiled machine's channel contract, per op.

        Computed after the measured window from the first round's machines;
        a refused or failed model deploys nothing.
        """
        total = 0
        for machine in self.machines:
            if machine is None:
                continue
            ledger = Ledger()
            binding = {role: ledger.register_account(hashlib.sha256(role.encode()).digest())
                       for role in machine.role_ids}
            ledger.deploy_channel(machine, binding, dispute_window=10)
            total += ledger.log[-1].cost.cost_units
        return total / len(self.machines)


WORKLOADS = {w.name: w for w in (Replay, Disputes, Http, Compile)}
