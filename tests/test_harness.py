import hashlib
import sys

import pytest

from choreochannel import harness
from choreochannel.cases import CASES, build_machine, compile_model, load_variants
from choreochannel.harness import (
    ScenarioError,
    ScenarioKind,
    ScenarioSpec,
    Trace,
    break_even,
    measure_case_costs,
    mutate_traces,
    replay_conformance,
    replay_trace,
    run_scenario,
    run_unavailability,
)
from choreochannel.ledger import Ledger
from choreochannel.machine import TaskRequest, is_end_state
from choreochannel.trigger import TriggerNode
from util import optional_task_model


@pytest.fixture(scope="module")
def supply():
    machine = build_machine("supply_chain")
    variants = [Trace(tuple(v)) for v in load_variants("supply_chain")]
    return machine, variants


def test_replay_trace_oracle(supply):
    machine, variants = supply
    verdicts, _, completed = replay_trace(machine, variants[0].events)
    assert all(verdicts) and completed
    verdicts, _, completed = replay_trace(machine, variants[0].events[:-1])
    assert all(verdicts) and not completed


def test_mutate_traces_deterministic(supply):
    machine, variants = supply
    a = mutate_traces(machine, variants, 30, seed=7)
    b = mutate_traces(machine, variants, 30, seed=7)
    assert a.traces == b.traces
    assert a.op_counts == b.op_counts
    c = mutate_traces(machine, variants, 30, seed=8)
    assert c.traces != a.traces


def test_mutants_are_never_conforming(supply):
    machine, variants = supply
    batch = mutate_traces(machine, variants, 80, seed=3)
    assert len(batch.traces) == 80
    for trace in batch.traces:
        verdicts, _, _ = replay_trace(machine, trace.events)
        assert not all(verdicts)


def test_mutation_falls_back_on_single_event_trace():
    machine = build_machine("incident_management")
    # A one-event base trace cannot be swapped; generator must fall back.
    base = [Trace((TaskRequest("report_problem", "customer"),))]
    batch = mutate_traces(machine, base, 10, seed=1)
    assert len(batch.traces) == 10
    assert batch.op_counts["swap"] == 0


def test_mutation_of_an_empty_trace_is_an_add():
    # The initial state is already the end state (the silent skip has fired),
    # so the empty trace conforms and neither remove nor swap applies.
    machine = compile_model(optional_task_model())
    assert is_end_state(machine, machine.initial_state)
    batch = mutate_traces(machine, [Trace(())], 5, seed=0)
    assert batch.op_counts == {"add": 5, "remove": 0, "swap": 0}
    assert batch.discarded_conforming == 0
    assert all(t.events == (TaskRequest("t", "a"),) for t in batch.traces)


def test_remove_mutation_rejected_at_missing_dependency(supply):
    machine, variants = supply
    events = list(variants[0].events)
    del events[2]  # forward_order never happens
    verdicts, _, _ = replay_trace(machine, events)
    # request_details (index 3 after removal) needs both procurement branches.
    assert verdicts[:3] == [True, True, True]
    assert verdicts[3] is False


def test_replay_conformance_accepts_variants():
    variants = [Trace(tuple(v)) for v in load_variants("incident_management")]
    report = replay_conformance("incident_management", variants)
    assert report.all_agree and report.all_stable
    assert report.fully_accepted == len(variants)
    assert all(r.end_reached for r in report.results)


def test_replay_conformance_refuses_a_requester_with_no_node(supply):
    machine, variants = supply
    first = variants[0].events[0]
    trace = Trace((TaskRequest(first.task_id, "nobody"),))
    report = replay_conformance("supply_chain", [trace])
    (result,) = report.results
    assert result.network_verdicts == (False,)
    assert report.all_agree and report.all_stable


def test_replay_conformance_rejects_mutants_at_first_bad_event(supply):
    machine, variants = supply
    batch = mutate_traces(machine, variants, 25, seed=11)
    report = replay_conformance("supply_chain", batch.traces)
    assert report.all_agree and report.all_stable
    assert report.fully_accepted == 0
    for result in report.results:
        oracle_first = result.oracle_verdicts.index(False)
        assert result.first_reject == oracle_first


def replay_digest(monkeypatch) -> str:
    """Digest of replay_conformance's verdicts and of every fresh channel's
    ledger log, per case over its variants plus the first 20 mutants that
    criterion 1 draws (mutation seed 42), at key seed 0."""
    setups = []
    build = harness.build_network

    def capture(*args, **kwargs):
        setups.append(build(*args, **kwargs))
        return setups[-1]

    monkeypatch.setattr(harness, "build_network", capture)
    digest = hashlib.sha256()
    for case in CASES:
        machine = build_machine(case)
        variants = [Trace(tuple(v)) for v in load_variants(case)]
        traces = variants + mutate_traces(machine, variants, 20, seed=42).traces
        setups.clear()
        report = replay_conformance(case, traces, seed=0)
        assert len(setups) == len(report.results) == len(traces)
        for result, setup in zip(report.results, setups):
            digest.update(f"{case} {result.index} {result.network_verdicts} "
                          f"{result.oracle_verdicts}\n{setup.ledger.export_log()}\n".encode())
    return digest.hexdigest()


def test_replay_outputs_pinned(monkeypatch):
    # Verdicts and ledger logs of a replay round: which proposals a node
    # refuses, disputes or signs must not depend on when it verifies them.
    assert replay_digest(monkeypatch) == "9e1306b3f81a6a59b9c630ad6bb8032c75537cd215d5d83e3d59b4202b3c54c5"


def test_best_case_scenario_ledger_shape():
    for case in CASES:
        outcome = run_scenario(ScenarioSpec(case, 0, ScenarioKind.BEST, seed=2))
        kinds = [r["kind"] for r in outcome.report.records]
        assert kinds == ["deploy", "close"]
        assert outcome.end_reached and outcome.stable
        assert outcome.on_chain_tasks == 0


def test_best_case_close_cost_equal_across_fixtures_and_variants():
    costs = set()
    for case in CASES:
        for variant in range(len(load_variants(case))):
            outcome = run_scenario(ScenarioSpec(case, variant, ScenarioKind.BEST))
            close = [r for r in outcome.report.records if r["kind"] == "close"]
            assert len(close) == 1
            costs.add(close[0]["cost"]["cost_units"])
    assert len(costs) == 1  # five participants everywhere, nothing else matters


def test_bad_case_puts_half_on_chain():
    outcome = run_scenario(ScenarioSpec("supply_chain", 0, ScenarioKind.BAD, seed=3))
    assert outcome.on_chain_tasks == 5
    assert outcome.end_reached
    submits = [r for r in outcome.report.records if r["kind"] == "submitState"]
    assert len(submits) == 1 and submits[0]["accepted"]


def test_worst_case_counters_stale_state():
    outcome = run_scenario(ScenarioSpec("supply_chain", 1, ScenarioKind.WORST, seed=4))
    assert outcome.installed_seq_at_expiry == 2
    assert outcome.on_chain_tasks == len(load_variants("supply_chain")[1]) - 2
    submits = [r for r in outcome.report.records if r["kind"] == "submitState" and r["accepted"]]
    assert [s["payload_seq"] for s in submits] == [1, 2]


def test_scenario_deterministic():
    spec = ScenarioSpec("incident_management", 3, ScenarioKind.WORST, seed=9)
    a, b = run_scenario(spec), run_scenario(spec)
    assert a.ledger_log == b.ledger_log
    assert a.report.to_json() == b.report.to_json()


def test_cost_report_totals_match_records():
    outcome = run_scenario(ScenarioSpec("supply_chain", 0, ScenarioKind.BAD, seed=1))
    report = outcome.report
    by_kind = {}
    for record in report.records:
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + record["cost"]["cost_units"]
    assert by_kind == report.totals_by_kind
    assert report.channel_deploy + report.channel_exec == sum(by_kind.values())


def test_unavailability_completes_on_chain():
    outcome = run_unavailability("supply_chain", seed=13)
    assert outcome.end_reached and outcome.went_on_chain and outcome.stable


def test_unavailability_varies_with_seed():
    picks = {
        (run_unavailability("incident_management", seed=s).silenced_role,
         run_unavailability("incident_management", seed=s).silenced_at_event)
        for s in range(6)
    }
    assert len(picks) > 1


@pytest.mark.parametrize("case", CASES)
def test_break_even_orderings(case):
    report = break_even(case)
    s = report.savings_by_kind
    e = {m.mix: m for m in report.mixes}
    assert s["best"] > e[0.05].savings_per_run > e[0.20].savings_per_run > s["bad"] > s["worst"]
    assert e[0.0].break_even_runs is not None and e[0.0].break_even_runs <= 10
    assert e[0.05].break_even_runs <= e[0.20].break_even_runs
    assert e[1.0].savings_per_run < 0 and e[1.0].break_even_runs is None


def test_break_even_series_shape():
    report = break_even("incident_management", mixes=(0.0,), horizon=6)
    (entry,) = report.mixes
    assert len(entry.cumulative_savings) == 6
    diffs = [entry.cumulative_savings[0]] + [
        entry.cumulative_savings[i + 1] - entry.cumulative_savings[i] for i in range(5)
    ]
    for d in diffs[1:]:
        assert d == pytest.approx(entry.savings_per_run)
    k = entry.break_even_runs
    assert entry.cumulative_savings[k - 1] >= 0
    if k > 1:
        assert entry.cumulative_savings[k - 2] < 0


def test_measure_case_costs_structure():
    costs = measure_case_costs("incident_management")
    assert set(costs) == {"best", "bad", "worst"}
    assert all(len(v) == 4 for v in costs.values())


def test_scenario_rejects_bad_variant_index():
    with pytest.raises(ScenarioError):
        run_scenario(ScenarioSpec("supply_chain", 9, ScenarioKind.BEST))


def test_every_node_submission_goes_through_raise_dispute(monkeypatch):
    """`TriggerNode.raise_dispute` is a node's only path to
    `Ledger.submit_state`, so its span sees every dispute decision. The one
    submission made outside it is the WORST scenario's adversary, which
    `run_scenario` sends straight to the ledger."""
    depth = 0
    inside: list[str] = []
    outside: list[str] = []
    raise_dispute, submit_state = TriggerNode.raise_dispute, Ledger.submit_state

    def tracked_raise(self, *args):
        nonlocal depth
        depth += 1
        try:
            return raise_dispute(self, *args)
        finally:
            depth -= 1

    def tracked_submit(self, *args):
        (inside if depth else outside).append(sys._getframe(1).f_code.co_name)
        return submit_state(self, *args)

    monkeypatch.setattr(TriggerNode, "raise_dispute", tracked_raise)
    monkeypatch.setattr(Ledger, "submit_state", tracked_submit)

    def submissions(run) -> tuple[int, list[str]]:
        inside.clear()
        outside.clear()
        run()
        assert set(inside) <= {"raise_dispute"}
        return len(inside), list(outside)

    for case in CASES:
        machine = build_machine(case)
        variants = [Trace(tuple(v)) for v in load_variants(case)]
        mutants = mutate_traces(machine, variants, 20, seed=42).traces
        sent, direct = submissions(lambda: replay_conformance(case, mutants, seed=0))
        assert sent > 0 and direct == [], case
    for kind in (ScenarioKind.BAD, ScenarioKind.WORST):
        sent, direct = submissions(
            lambda: run_scenario(ScenarioSpec("supply_chain", 0, kind, seed=1)))
        assert sent > 0, kind
        assert direct == (["run_scenario"] if kind is ScenarioKind.WORST else []), kind
    sent, direct = submissions(lambda: run_unavailability("incident_management", 0))
    assert sent > 0 and direct == []
