"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

from choreochannel.bpmn import validate_model
from choreochannel.cases import CASES, build_machine, build_nets, load_variants
from choreochannel.harness import (
    ScenarioKind,
    ScenarioSpec,
    Trace,
    break_even,
    build_network,
    mutate_traces,
    replay_conformance,
    run_scenario,
    run_unavailability,
)
from choreochannel.ledger import Rejected
from choreochannel.petri import SafeOk, check_safeness, reduce_net, to_interaction_net, traces_equivalent
from choreochannel.randmodel import random_model

VARIANT_COUNTS = {"supply_chain": 2, "incident_management": 4}


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_conformance_reproduction():
    """All conforming variants accepted; 2000 mutated traces per case each
    rejected at the first non-conforming event; zero misclassifications."""
    started = time.monotonic()
    totals = {}
    for case in CASES:
        machine = build_machine(case)
        variants = [Trace(tuple(v)) for v in load_variants(case)]
        assert len(variants) == VARIANT_COUNTS[case]

        conforming = replay_conformance(case, variants, seed=0)
        assert conforming.all_agree and conforming.all_stable
        assert conforming.fully_accepted == len(variants)
        assert all(r.end_reached for r in conforming.results)

        batch = mutate_traces(machine, variants, 2000, seed=42)
        assert len(batch.traces) == 2000
        mutated = replay_conformance(case, batch.traces, seed=0)
        assert mutated.all_agree, "network verdicts diverged from the pure oracle"
        assert mutated.all_stable
        assert mutated.fully_accepted == 0, "a non-conforming trace was fully accepted"
        for result in mutated.results:
            assert result.first_reject == result.oracle_verdicts.index(False)
        totals[case] = {"mutants": len(batch.traces),
                        "discarded_conforming": batch.discarded_conforming}
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"conformance run took {elapsed:.0f}s, budget is 5 minutes"
    _report(1, f"0 misclassifications over {totals} in {elapsed:.0f}s")


def test_criterion_2_best_case_footprint():
    """Best case touches the chain exactly twice, and the close cost depends
    on nothing but the (identical) participant count."""
    close_costs = set()
    for case in CASES:
        for variant in range(VARIANT_COUNTS[case]):
            outcome = run_scenario(ScenarioSpec(case, variant, ScenarioKind.BEST, seed=0))
            kinds = [r["kind"] for r in outcome.report.records]
            assert kinds == ["deploy", "close"], kinds
            close_costs.add(outcome.report.records[1]["cost"]["cost_units"])
    assert len(close_costs) == 1, f"close cost varies: {close_costs}"
    _report(2, f"deploy+close only; close cost {close_costs.pop()} units for all "
               f"6 variant runs across both fixtures")


def test_criterion_3_stale_state_safety():
    """Across 100 seeded worst-case runs the state at window expiry is the
    honest maximum, never the adversary's stale submission."""
    for seed in range(100):
        case = CASES[seed % 2]
        variant = (seed // 2) % VARIANT_COUNTS[case]
        outcome = run_scenario(ScenarioSpec(case, variant, ScenarioKind.WORST, seed=seed))
        assert outcome.installed_seq_at_expiry == 2, (seed, outcome.installed_seq_at_expiry)
        accepted = [r["payload_seq"] for r in outcome.report.records
                    if r["kind"] == "submitState" and r["accepted"]]
        assert accepted == [1, 2], (seed, accepted)
        assert outcome.end_reached
    _report(3, "100/100 worst-case runs installed the honest seq 2 over the stale seq 1")


def test_criterion_4_liveness_under_unavailability():
    """One signer silenced at a seeded event: every run still completes via
    on-chain continuation."""
    for seed in range(100):
        case = CASES[seed % 2]
        outcome = run_unavailability(case, seed=seed)
        assert outcome.end_reached, (case, seed)
        assert outcome.went_on_chain, (case, seed)
        assert outcome.stable, (case, seed)
    _report(4, "100/100 silenced runs reached the end state via ON_CHAIN")


def test_criterion_5_reduction_oracle():
    """Fixtures plus 200 random bounded models: reduction preserves the
    observable language at length 12 and is idempotent."""
    started = time.monotonic()
    for case in CASES:
        net, reduced = build_nets(case)
        assert traces_equivalent(net, reduced, 12)
        assert reduce_net(reduced) == reduced
    for seed in range(200):
        model = random_model(seed)
        assert validate_model(model) == []
        net = to_interaction_net(model)
        assert isinstance(check_safeness(net), SafeOk), seed
        reduced = reduce_net(net)
        assert traces_equivalent(net, reduced, 12), seed
        assert reduce_net(reduced) == reduced, seed
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"oracle run took {elapsed:.0f}s, budget is 2 minutes"
    _report(5, f"fixtures + 200 random models equivalent and idempotent in {elapsed:.0f}s")


def test_criterion_6_amortisation_shape():
    """Savings ordering best > 5% > 20% > bad > worst; finite break-even of at
    most 10 dispute-free runs; monotone in the dispute rate."""
    summary = {}
    for case in CASES:
        report = break_even(case)
        s = report.savings_by_kind
        mix = {m.mix: m for m in report.mixes}
        assert s["best"] > mix[0.05].savings_per_run > mix[0.20].savings_per_run \
            > s["bad"] > s["worst"], (case, s)
        be0 = mix[0.0].break_even_runs
        assert be0 is not None and be0 <= 10, (case, be0)
        assert mix[0.05].break_even_runs <= mix[0.20].break_even_runs, case
        summary[case] = {"break_even_0%": be0,
                         "break_even_5%": mix[0.05].break_even_runs,
                         "break_even_20%": mix[0.20].break_even_runs}
    _report(6, f"orderings hold; {summary}")


def test_criterion_7_replay_protection():
    """A complete step from case k dies on case k+1; a step signed for one
    contract dies on another."""
    machine = build_machine("incident_management")
    variant = load_variants("incident_management")[0]
    setup = build_network(machine, seed=0, key_salt="replay-protection")
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    closer = setup.nodes[variant[-1].requester_role]
    final = closer.archive.latest()
    assert closer.close().confirmed
    # Case 0 evidence against case 1: rejected both as submission and closure.
    sender = setup.addresses[closer.role]
    assert setup.ledger.submit_state(setup.contract_id, final, sender) == Rejected("wrong-case")
    assert setup.ledger.close_channel(setup.contract_id, final, sender) == Rejected("wrong-case")
    # Same machine, second contract: evidence does not transfer.
    other_contract = setup.ledger.deploy_channel(machine, setup.addresses, 10)
    assert setup.ledger.submit_state(other_contract, final, sender) == Rejected("wrong-contract")
    _report(7, "cross-case and cross-contract replays rejected")


def test_criterion_8_determinism():
    """Identical specs with identical seeds produce byte-identical ledger logs
    and cost reports on the in-process transport."""
    for case in CASES:
        for kind in ScenarioKind:
            spec = ScenarioSpec(case, VARIANT_COUNTS[case] - 1, kind, seed=1234)
            first, second = run_scenario(spec), run_scenario(spec)
            assert first.ledger_log == second.ledger_log, (case, kind)
            assert first.report.to_json() == second.report.to_json(), (case, kind)
    _report(8, "byte-identical ledger logs and cost reports for all 6 case/kind pairs")
