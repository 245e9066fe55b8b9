"""Evaluation harness: conformance replay, dispute scenarios, cost analysis.

The harness is the only driver: it issues one event at a time per trace and
pumps chain polling at deterministic points, so identical specs (including
seeds) yield byte-identical ledger logs and cost reports.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from enum import Enum

from .cases import build_machine, load_variants, normalize_case
from .ledger import Accepted, Ledger, Phase, TxKind
from .machine import (
    ConformanceError,
    ProcessStateMachine,
    TaskRequest,
    is_end_state,
    step,
)
from .trigger import InProcessNetwork, TriggerNode
from .wire import generate_signing_key, public_key_of


class ScenarioError(RuntimeError):
    """A scenario violated one of its stated invariants."""


@dataclass(frozen=True)
class Trace:
    events: tuple[TaskRequest, ...]

    def __len__(self) -> int:
        return len(self.events)


class ScenarioKind(Enum):
    BEST = "best"
    BAD = "bad"
    WORST = "worst"


@dataclass(frozen=True)
class ScenarioSpec:
    case: str
    variant: int
    kind: ScenarioKind
    seed: int = 0
    dispute_window: int = 10


# -- pure oracle -------------------------------------------------------------


def replay_trace(machine: ProcessStateMachine, events) -> tuple[list[bool], int, bool]:
    """Pure replay: per-event verdicts, final state, and completion flag.

    Rejected events leave the state unchanged; replay continues so every
    event gets a verdict.
    """
    state = machine.initial_state
    verdicts: list[bool] = []
    for req in events:
        try:
            state = step(machine, state, req)
            verdicts.append(True)
        except ConformanceError:
            verdicts.append(False)
    return verdicts, state, is_end_state(machine, state)


# -- trace mutation ----------------------------------------------------------


@dataclass
class MutationBatch:
    traces: list[Trace]
    discarded_conforming: int
    op_counts: dict[str, int]


def mutate_traces(machine: ProcessStateMachine, conforming: list[Trace], n: int,
                  seed: int) -> MutationBatch:
    """Derive n non-conforming traces, each by one add/remove/swap mutation.

    Mutants that replay without any rejected event are discarded the way
    coincidentally conforming traces are dropped in trace-based conformance
    experiments; their count is reported.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    alphabet = sorted(
        {(t.task_id, t.initiator) for t in machine.transitions if t.task_id is not None}
    )
    out: list[Trace] = []
    discarded = 0
    op_counts = {"add": 0, "remove": 0, "swap": 0}
    attempts = 0
    max_attempts = 100 * n
    while len(out) < n:
        attempts += 1
        if attempts > max_attempts:
            raise ScenarioError(
                f"could not derive {n} non-conforming traces after {max_attempts} attempts"
            )
        base = list(rng.choice(conforming).events)
        op = rng.choice(("add", "remove", "swap"))
        if op == "swap" and len(base) < 2:
            op = rng.choice(("add", "remove"))
        if op == "remove" and len(base) < 1:
            op = "add"
        if op == "add":
            task_id, initiator = rng.choice(alphabet)
            base.insert(rng.randint(0, len(base)), TaskRequest(task_id, initiator))
        elif op == "remove":
            base.pop(rng.randrange(len(base)))
        else:
            i, j = rng.sample(range(len(base)), 2)
            base[i], base[j] = base[j], base[i]
        verdicts, _, _ = replay_trace(machine, base)
        if all(verdicts):
            # No event-level signal: either coincidentally conforming or a
            # bare prefix of a variant. Not usable for classification.
            discarded += 1
            continue
        op_counts[op] += 1
        out.append(Trace(tuple(base)))
    return MutationBatch(out, discarded, op_counts)


# -- channel network construction ---------------------------------------------


@dataclass
class ChannelSetup:
    """A deployed channel. Each node holds its role's signing key and
    address; the network holds the nodes."""

    ledger: Ledger
    network: InProcessNetwork
    contract_id: bytes

    @property
    def nodes(self) -> dict[str, TriggerNode]:
        return self.network.nodes


def build_network(machine: ProcessStateMachine, *, seed: int = 0, dispute_window: int = 10,
                  prefilter: bool = True, key_salt: str = "",
                  archive_dir: str | None = None) -> ChannelSetup:
    """Deploy a channel and one trigger node per role on a fresh ledger."""
    ledger = Ledger()
    keys = {
        role: generate_signing_key(f"key|{key_salt}|{seed}|{role}".encode())
        for role in machine.role_ids
    }
    addresses = {role: ledger.register_account(public_key_of(k)) for role, k in keys.items()}
    contract_id = ledger.deploy_channel(machine, addresses, dispute_window,
                                        sender=addresses[machine.role_ids[0]])
    network = InProcessNetwork()
    for role, key in keys.items():
        network.register(TriggerNode(
            role, key, ledger, contract_id, prefilter=prefilter,
            archive_path=f"{archive_dir}/{role}.hex" if archive_dir else None))
    return ChannelSetup(ledger, network, contract_id)


# -- conformance replay --------------------------------------------------------


@dataclass(frozen=True)
class TraceResult:
    index: int
    network_verdicts: tuple[bool, ...]
    oracle_verdicts: tuple[bool, ...]
    stable: bool
    end_reached: bool

    @property
    def first_reject(self) -> int | None:
        """Index of the first event the network refused, or None."""
        verdicts = self.network_verdicts
        return verdicts.index(False) if False in verdicts else None

    @property
    def agrees_with_oracle(self) -> bool:
        return self.network_verdicts == self.oracle_verdicts

    @property
    def fully_accepted(self) -> bool:
        return all(self.network_verdicts)


@dataclass
class ClassificationReport:
    case: str
    results: list[TraceResult]

    @property
    def all_agree(self) -> bool:
        return all(r.agrees_with_oracle for r in self.results)

    @property
    def all_stable(self) -> bool:
        return all(r.stable for r in self.results)

    @property
    def fully_accepted(self) -> int:
        return sum(1 for r in self.results if r.fully_accepted)

    def to_wire(self) -> dict:
        return {
            "case": self.case,
            "traces": len(self.results),
            "all_agree_with_oracle": self.all_agree,
            "all_stable": self.all_stable,
            "fully_accepted": self.fully_accepted,
            "results": [
                {
                    "index": r.index,
                    "network": list(r.network_verdicts),
                    "first_reject": r.first_reject,
                    "stable": r.stable,
                    "end_reached": r.end_reached,
                }
                for r in self.results
            ],
        }


def replay_conformance(case: str, traces: list[Trace], *, seed: int = 0) -> ClassificationReport:
    """Replay traces against a fresh channel per trace, with the local
    conformance pre-check disabled so a faulty component is simulated and the
    network itself performs every rejection."""
    case = normalize_case(case)
    machine = build_machine(case)
    results: list[TraceResult] = []
    for index, trace in enumerate(traces):
        setup = build_network(machine, seed=seed, prefilter=False, key_salt=case)
        verdicts: list[bool] = []
        for req in trace.events:
            node = setup.nodes.get(req.requester_role)
            if node is None:
                verdicts.append(False)
                continue
            verdicts.append(node.enact(req).confirmed)
        oracle, _, _ = replay_trace(machine, trace.events)
        end_reached = all(
            is_end_state(machine, n.state) for n in setup.nodes.values()
        ) if verdicts and all(verdicts) else False
        results.append(
            TraceResult(
                index=index,
                network_verdicts=tuple(verdicts),
                oracle_verdicts=tuple(oracle),
                stable=setup.network.stable(),
                end_reached=end_reached,
            )
        )
    return ClassificationReport(case=case, results=results)


# -- cost scenarios -------------------------------------------------------------


@dataclass
class CostReport:
    case: str
    variant: int
    kind: str
    seed: int
    records: list[dict]
    totals_by_kind: dict[str, int]
    channel_deploy: int
    channel_exec: int
    baseline_deploy: int
    baseline_exec: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class ScenarioOutcome:
    spec: ScenarioSpec
    report: CostReport
    end_reached: bool
    stable: bool
    on_chain_tasks: int
    installed_seq_at_expiry: int | None
    ledger_log: str


def _cost_report(spec: ScenarioSpec, channel: Ledger, baseline: Ledger) -> CostReport:
    records = [tx.to_wire() for tx in channel.log]
    totals: dict[str, int] = {}
    for tx in channel.log:
        totals[tx.kind.value] = totals.get(tx.kind.value, 0) + tx.cost.cost_units
    channel_deploy = sum(t.cost.cost_units for t in channel.log if t.kind is TxKind.DEPLOY)
    channel_exec = sum(t.cost.cost_units for t in channel.log if t.kind is not TxKind.DEPLOY)
    baseline_deploy = sum(t.cost.cost_units for t in baseline.log if t.kind is TxKind.DEPLOY)
    baseline_exec = sum(t.cost.cost_units for t in baseline.log if t.kind is not TxKind.DEPLOY)
    return CostReport(
        case=spec.case,
        variant=spec.variant,
        kind=spec.kind.value,
        seed=spec.seed,
        records=records,
        totals_by_kind=totals,
        channel_deploy=channel_deploy,
        channel_exec=channel_exec,
        baseline_deploy=baseline_deploy,
        baseline_exec=baseline_exec,
    )


def _run_baseline(machine: ProcessStateMachine, trace: Trace,
                  nodes: dict[str, TriggerNode]) -> Ledger:
    """The comparator: the same machine enacted fully on-chain, one ledger
    transaction per task, by the channel nodes' keys."""
    ledger = Ledger()
    addresses = {
        role: ledger.register_account(public_key_of(node.signing_key))
        for role, node in nodes.items()
    }
    baseline_id = ledger.deploy_baseline(machine, addresses,
                                         sender=addresses[machine.role_ids[0]])
    for req in trace.events:
        result = ledger.on_chain_step(baseline_id, req, addresses[req.requester_role])
        if not isinstance(result, Accepted):
            raise ScenarioError(f"baseline rejected conforming event {req.task_id}: {result}")
    return ledger


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Drive one case run: best (off-chain + unanimous close), bad (dispute at
    half), or worst (immediate stale-state dispute, countered)."""
    case = normalize_case(spec.case)
    machine = build_machine(case)
    variants = load_variants(case)
    if not 0 <= spec.variant < len(variants):
        raise ScenarioError(f"variant {spec.variant} out of range for {case}")
    trace = Trace(tuple(variants[spec.variant]))
    rng = random.Random(spec.seed)

    setup = build_network(machine, seed=spec.seed, dispute_window=spec.dispute_window,
                          key_salt=case)
    baseline = _run_baseline(machine, trace, setup.nodes)
    installed_seq: int | None = None

    if spec.kind is ScenarioKind.BEST:
        _enact_events(setup, trace.events)
        closer = setup.nodes[trace.events[-1].requester_role]
        result = closer.close()
        if not result.confirmed:
            raise ScenarioError(f"unanimous close failed: {result.error}")
        setup.network.poll_all()
    elif spec.kind is ScenarioKind.BAD:
        half = math.ceil(len(trace) / 2)
        if half >= len(trace):
            raise ScenarioError("bad case needs at least two events")
        _enact_events(setup, trace.events[:half])
        disputer = setup.nodes[trace.events[half].requester_role]
        if not disputer.raise_dispute():
            raise ScenarioError("dispute submission was rejected")
        _expire_window(setup)
        _enact_events(setup, trace.events[half:])
        setup.network.poll_all()
    else:  # WORST
        off_chain = min(2, len(trace))
        if off_chain < 2:
            raise ScenarioError("worst case needs at least two events to have stale state")
        _enact_events(setup, trace.events[:off_chain])
        adversary = setup.nodes[rng.choice(machine.role_ids)]
        stale = adversary.archive.by_seq(1)
        result = setup.ledger.submit_state(setup.contract_id, stale, adversary.address)
        if not isinstance(result, Accepted):
            raise ScenarioError(f"stale submission rejected outright: {result}")
        setup.network.poll_all(exclude={adversary.role})
        view = setup.ledger.get_contract(setup.contract_id)
        installed_seq = view.seq
        _expire_window(setup)
        _enact_events(setup, trace.events[off_chain:])
        setup.network.poll_all()

    final = setup.ledger.get_contract(setup.contract_id)
    end_reached = final.case_id >= 1  # each scenario runs exactly one case
    on_chain_tasks = sum(
        1 for t in setup.ledger.log if t.kind is TxKind.ON_CHAIN_TASK and t.accepted
    )
    outcome = ScenarioOutcome(
        spec=spec,
        report=_cost_report(spec, setup.ledger, baseline),
        end_reached=end_reached,
        stable=setup.network.stable(),
        on_chain_tasks=on_chain_tasks,
        installed_seq_at_expiry=installed_seq,
        ledger_log=setup.ledger.export_log(),
    )
    if not outcome.end_reached:
        raise ScenarioError(f"{spec.kind.value} run did not reach an end state")
    return outcome


def _enact_events(setup: ChannelSetup, events) -> None:
    for req in events:
        node = setup.nodes[req.requester_role]
        result = node.enact(req)
        if not result.confirmed:
            raise ScenarioError(
                f"conforming event {req.task_id} was not confirmed: {result.error}"
            )


def _expire_window(setup: ChannelSetup) -> None:
    setup.ledger.advance_blocks(setup.ledger.contracts[setup.contract_id].dispute_window)
    setup.network.poll_all()


# -- unavailability (liveness) ---------------------------------------------------


@dataclass
class UnavailabilityOutcome:
    silenced_role: str
    silenced_at_event: int
    end_reached: bool
    went_on_chain: bool
    stable: bool


def run_unavailability(case: str, seed: int) -> UnavailabilityOutcome:
    """Silence one signer at a seeded event of a seeded variant; the run must
    still complete via on-chain continuation after the initiator's dispute."""
    case = normalize_case(case)
    machine = build_machine(case)
    variants = load_variants(case)
    rng = random.Random(seed)
    trace = Trace(tuple(variants[rng.randrange(len(variants))]))
    # The failing event needs a predecessor so dispute evidence exists.
    fail_at = rng.randint(2, len(trace))  # 1-based event index
    initiator = trace.events[fail_at - 1].requester_role
    silenced = rng.choice([r for r in machine.role_ids if r != initiator])

    setup = build_network(machine, seed=seed, key_salt=case)
    _enact_events(setup, trace.events[: fail_at - 1])
    setup.network.silence(silenced)
    result = setup.nodes[initiator].enact(trace.events[fail_at - 1])
    if result.status != "dispute_raised":
        raise ScenarioError(f"expected a dispute, got {result.status}")
    view = setup.ledger.get_contract(setup.contract_id)
    if view.phase is not Phase.DISPUTE:
        raise ScenarioError(f"contract not in dispute phase: {view.phase}")
    _expire_window(setup)
    went_on_chain = setup.nodes[initiator].observed_phase is Phase.ON_CHAIN
    _enact_events(setup, trace.events[fail_at - 1:])
    setup.network.poll_all()
    final = setup.ledger.get_contract(setup.contract_id)
    return UnavailabilityOutcome(
        silenced_role=silenced,
        silenced_at_event=fail_at,
        end_reached=final.case_id >= 1,
        went_on_chain=went_on_chain,
        stable=setup.network.stable(),
    )


# -- amortisation ------------------------------------------------------------------

# Dispute rates compared by default: none, occasional, frequent, always.
DEFAULT_MIXES = (0.0, 0.05, 0.20, 1.0)


@dataclass
class MixEntry:
    mix: float
    exec_per_run: float
    savings_per_run: float
    break_even_runs: int | None
    cumulative_savings: list[float]


@dataclass
class BreakEvenReport:
    case: str
    channel_deploy: float
    baseline_deploy: float
    baseline_exec_avg: float
    exec_by_kind: dict[str, float]
    savings_by_kind: dict[str, float]
    mixes: list[MixEntry]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def measure_case_costs(case: str) -> dict[str, list[CostReport]]:
    """Scenario costs for every (variant, kind) pair of a case, at the default
    seed and dispute window: costs depend on neither."""
    case = normalize_case(case)
    variants = load_variants(case)
    out: dict[str, list[CostReport]] = {k.value: [] for k in ScenarioKind}
    for kind in ScenarioKind:
        for v in range(len(variants)):
            spec = ScenarioSpec(case, v, kind)
            out[kind.value].append(run_scenario(spec).report)
    return out


def break_even(case: str, mixes=DEFAULT_MIXES, horizon: int = 20, *,
               costs: dict[str, list[CostReport]] | None = None) -> BreakEvenReport:
    """Cumulative channel-vs-baseline comparison for dispute-rate mixes.

    A mix r spends (1 - r) of runs on best case and r split equally between
    bad and worst case, and the channel deployment is reused across runs.
    """
    if not all(0 <= mix <= 1 for mix in mixes):
        raise ValueError(f"a dispute mix must lie in [0, 1], got {list(mixes)}")
    if horizon < 1:
        raise ValueError(f"the horizon must be at least one run, got {horizon}")
    case = normalize_case(case)
    if costs is None:
        costs = measure_case_costs(case)
    exec_by_kind = {
        kind: sum(r.channel_exec for r in reports) / len(reports)
        for kind, reports in costs.items()
    }
    all_reports = [r for reports in costs.values() for r in reports]
    baseline_exec_avg = sum(r.baseline_exec for r in all_reports) / len(all_reports)
    channel_deploy = all_reports[0].channel_deploy
    baseline_deploy = all_reports[0].baseline_deploy
    savings_by_kind = {k: baseline_exec_avg - v for k, v in exec_by_kind.items()}

    entries: list[MixEntry] = []
    for mix in mixes:
        exec_mix = (
            (1 - mix) * exec_by_kind["best"]
            + (mix / 2) * exec_by_kind["bad"]
            + (mix / 2) * exec_by_kind["worst"]
        )
        savings = baseline_exec_avg - exec_mix
        deploy_gap = channel_deploy - baseline_deploy
        if savings > 0:
            runs = max(1, math.ceil(deploy_gap / savings))
        else:
            runs = None
        series = [
            (baseline_deploy + k * baseline_exec_avg) - (channel_deploy + k * exec_mix)
            for k in range(1, horizon + 1)
        ]
        entries.append(MixEntry(mix, exec_mix, savings, runs, series))
    return BreakEvenReport(
        case=case,
        channel_deploy=channel_deploy,
        baseline_deploy=baseline_deploy,
        baseline_exec_avg=baseline_exec_avg,
        exec_by_kind=exec_by_kind,
        savings_by_kind=savings_by_kind,
        mixes=entries,
    )
