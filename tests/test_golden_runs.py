"""Byte-for-byte goldens of every shipped scenario run at seed 0.

For each (case, variant, kind) the golden file holds the channel ledger's
`export_log()`, the `CostReport.to_json()` and the on-chain baseline
ledger's `export_log()`. A refactor of the ledger, the trigger nodes or the
harness must leave all three unchanged.
"""

import json
from pathlib import Path

import pytest

from choreochannel.cases import CASES, build_machine, load_variants
from choreochannel.harness import (
    ScenarioKind,
    ScenarioSpec,
    Trace,
    _run_baseline,
    build_network,
    run_scenario,
)

RUNS = Path(__file__).parent / "golden" / "runs"


def golden_path(case: str, variant: int, kind: ScenarioKind) -> Path:
    return RUNS / f"{case}.v{variant}.{kind.value}.json"


def render_run(case: str, variant: int, kind: ScenarioKind) -> dict[str, str]:
    """The three artifacts of one seed-0 run, as the goldens store them."""
    outcome = run_scenario(ScenarioSpec(case, variant, kind, seed=0))
    machine = build_machine(case)
    keys = build_network(machine, seed=0, key_salt=case).keys
    trace = Trace(tuple(load_variants(case)[variant]))
    return {
        "channel_log": outcome.ledger_log,
        "cost_report": outcome.report.to_json(),
        "baseline_log": _run_baseline(machine, trace, keys).export_log(),
    }


RUN_IDS = [
    (case, variant, kind)
    for case in CASES
    for variant in range(len(load_variants(case)))
    for kind in ScenarioKind
]


def test_every_run_has_a_golden():
    expected = {golden_path(*run).name for run in RUN_IDS}
    assert {p.name for p in RUNS.glob("*.json")} == expected


@pytest.mark.parametrize("case,variant,kind", RUN_IDS,
                         ids=[f"{c}-v{v}-{k.value}" for c, v, k in RUN_IDS])
def test_run_matches_golden(case, variant, kind):
    golden = json.loads(golden_path(case, variant, kind).read_text(encoding="utf-8"))
    actual = render_run(case, variant, kind)
    for artifact in ("channel_log", "cost_report", "baseline_log"):
        assert actual[artifact] == golden[artifact], artifact
