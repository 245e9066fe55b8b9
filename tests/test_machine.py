import hashlib
import json
from pathlib import Path

import pytest

from choreochannel.cases import CASES, build_machine, build_nets, compile_model, load_variants
from choreochannel.machine import (
    MAX_PLACES,
    CompileError,
    CompiledTransition,
    NotEnabledError,
    ProcessStateMachine,
    TaskRequest,
    UnknownTaskError,
    WrongRoleError,
    compile_state_machine,
    enabled_tasks,
    is_end_state,
    step,
)
from choreochannel.petri import reduce_net, to_interaction_net, traces_equivalent
from choreochannel.randmodel import random_model
from util import autonomous_leftover_model, chain_net, minimal_model

GOLDEN = Path(__file__).parent / "golden"


def machine_for(model):
    return compile_state_machine(reduce_net(to_interaction_net(model)))


def test_one_task_machine():
    machine = machine_for(minimal_model())
    assert machine.place_count == 2
    (t,) = machine.transitions
    assert t.task_id == "greet"
    assert t.consume_mask == machine.initial_state
    assert t.produce_mask == machine.final_mask
    assert machine.role_ids == ("a", "b")


@pytest.mark.parametrize("case", CASES)
def test_fixture_machines_match_golden(case):
    machine = build_machine(case)
    assert machine.place_count <= 16
    text = (GOLDEN / f"{case}.machine.json").read_text()
    golden = json.loads(text)
    assert machine.to_dict() == golden
    assert machine.to_json() == text
    assert ProcessStateMachine.from_dict(golden) == machine


ODD_IDS = ("caf\u00e9", "\u65e5\u672c", "\U0001f600", 'say "hi"', "back\\slash", "tab\there",
           "nl\nnul\x00bell\x07", "del\x7f", "")


@pytest.mark.parametrize("machine", [
    ProcessStateMachine(places=(), transitions=(), initial_state=0, final_mask=0, role_ids=()),
    ProcessStateMachine(
        places=ODD_IDS,
        transitions=(
            CompiledTransition(0, 0x1, 0x6, ODD_IDS[0], ODD_IDS[3]),
            CompiledTransition(1, 0x6, 0x1 << 255),
            CompiledTransition(2, 0x8, 0x10, ODD_IDS[6], ODD_IDS[4]),
            CompiledTransition(3, 0x10, 0x20, initiator=ODD_IDS[2]),
        ),
        initial_state=0x1,
        final_mask=(1 << 256) - 1,
        role_ids=ODD_IDS[:3] + ODD_IDS[5:],
    ),
    ProcessStateMachine(
        places=("start", "end"),
        transitions=(CompiledTransition(0, 0x1, 0x2),),
        initial_state=0x1,
        final_mask=0x2,
        role_ids=(),
    ),
], ids=["empty", "odd-ids", "autonomous-only"])
def test_to_json_is_json_dumps_of_to_dict(machine):
    assert machine.to_json() == json.dumps(machine.to_dict(), indent=2, sort_keys=True)


def test_compile_width_limit():
    assert compile_state_machine(chain_net(MAX_PLACES)).place_count == MAX_PLACES
    with pytest.raises(CompileError, match=f"limit is {MAX_PLACES}"):
        compile_state_machine(chain_net(MAX_PLACES + 1))


def test_autonomous_transition_compiled():
    machine = machine_for(autonomous_leftover_model())
    autonomous = [t for t in machine.transitions if t.task_id is None]
    assert len(autonomous) == 1
    assert autonomous[0].initiator is None and autonomous[0].task_id is None
    state = step(machine, machine.initial_state, TaskRequest("prepare", "a"))
    state = step(machine, state, TaskRequest("left", "a"))
    state = step(machine, state, TaskRequest("right", "b"))
    # The parallel join fires autonomously after the second branch.
    assert is_end_state(machine, state)


def test_step_happy_path():
    machine = machine_for(minimal_model())
    new = step(machine, machine.initial_state, TaskRequest("greet", "a"))
    assert new == machine.final_mask
    assert is_end_state(machine, new)


def test_step_wrong_role():
    machine = machine_for(minimal_model())
    with pytest.raises(WrongRoleError):
        step(machine, machine.initial_state, TaskRequest("greet", "b"))


def test_step_unknown_task():
    machine = machine_for(minimal_model())
    with pytest.raises(UnknownTaskError):
        step(machine, machine.initial_state, TaskRequest("nope", "a"))
    # A missing task id never matches an autonomous transition.
    assert machine_for(autonomous_leftover_model()).manual_transitions(None) == []


def test_build_machine_compiles_each_case_once():
    machine = build_machine("supply-chain")
    assert build_machine("supply_chain") is machine
    with pytest.raises(ValueError, match="unknown case"):
        build_machine("no_such_case")


def test_load_variants_parses_once_and_returns_fresh_lists():
    first = load_variants("supply-chain")
    expected = [list(v) for v in first]
    first[0].clear()
    first.clear()
    again = load_variants("supply_chain")
    assert again == expected
    assert again[0][0] is load_variants("supply_chain")[0][0]


def test_step_not_enabled():
    machine = build_machine("supply_chain")
    with pytest.raises(NotEnabledError):
        step(machine, machine.initial_state, TaskRequest("deliver_goods", "manufacturer"))


def test_step_is_pure():
    machine = build_machine("incident_management")
    req = TaskRequest("report_problem", "customer")
    assert step(machine, machine.initial_state, req) == step(machine, machine.initial_state, req)


@pytest.mark.parametrize("case", CASES)
def test_variants_reach_end_state(case):
    machine = build_machine(case)
    for variant in load_variants(case):
        state = machine.initial_state
        for req in variant:
            state = step(machine, state, req)
        assert is_end_state(machine, state)


def test_enabled_tasks_minimal():
    machine = machine_for(minimal_model())
    assert enabled_tasks(machine, machine.initial_state) == {("greet", "a")}
    assert enabled_tasks(machine, machine.final_mask) == set()


def test_enabled_tasks_parallel_branches():
    machine = build_machine("supply_chain")
    state = machine.initial_state
    state = step(machine, state, TaskRequest("place_order", "bulk_buyer"))
    state = step(machine, state, TaskRequest("place_intermediate_order", "manufacturer"))
    assert enabled_tasks(machine, state) == {
        ("forward_order", "middleman"),
        ("arrange_transport", "middleman"),
    }


def test_is_end_state_rejects_leftover_tokens():
    machine = build_machine("supply_chain")
    assert is_end_state(machine, machine.final_mask)
    assert not is_end_state(machine, machine.initial_state)
    assert not is_end_state(machine, machine.final_mask | machine.initial_state)
    assert not is_end_state(machine, 0)


def test_autonomous_self_loop_does_not_hang():
    machine = ProcessStateMachine(
        places=("p0", "p1"),
        transitions=(
            CompiledTransition(0, 0b01, 0b01),
            CompiledTransition(1, 0b01, 0b10, "a", "go"),
        ),
        initial_state=0b01,
        final_mask=0b10,
        role_ids=("a",),
    )
    assert step(machine, machine.initial_state, TaskRequest("go", "a")) == 0b10


@pytest.mark.parametrize("case", CASES)
def test_machine_agrees_with_net_language(case):
    net, reduced = build_nets(case)
    machine = compile_state_machine(reduced)
    assert traces_equivalent(net, machine, 12)


@pytest.mark.parametrize("case", CASES)
def test_conformance_completeness(case):
    """A request is accepted by step exactly when enabled_tasks lists it,
    for every reachable state and every (task, role) combination."""
    machine = build_machine(case)
    tasks = sorted({t.task_id for t in machine.transitions if t.task_id})
    seen = {machine.initial_state}
    stack = [machine.initial_state]
    while stack:
        state = stack.pop()
        enabled = enabled_tasks(machine, state)
        for task_id in tasks:
            for role in machine.role_ids:
                try:
                    nxt = step(machine, state, TaskRequest(task_id, role))
                    accepted = True
                except Exception:
                    accepted = False
                assert accepted == ((task_id, role) in enabled)
                if accepted and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)


def compile_digest() -> str:
    """Digest of each random model's compiled machine JSON, or of the
    exception compile_model raises, for seeds 0-299 at both sizes."""
    digest = hashlib.sha256()
    for size in ({}, {"max_tasks": 12, "max_depth": 4}):
        for seed in range(300):
            try:
                line = compile_model(random_model(seed, **size)).to_json()
            except (ValueError, RuntimeError) as exc:
                line = f"{type(exc).__name__}: {exc}"
            digest.update(f"{seed} {size} {line}\n".encode())
    return digest.hexdigest()


def test_compile_outputs_pinned_over_random_models():
    # The hash includes the models that still raise RuntimeError at compile
    # time (ROADMAP item 1, e.g. seed 54); fixing them re-pins it on purpose.
    assert compile_digest() == "5a76d1354eef2a8ce0c1967d36015853e6f215f8a46d3d6ae30ca20def55aef7"
