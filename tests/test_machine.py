import json
from pathlib import Path

import pytest

from choreochannel.cases import CASES, build_machine, build_nets, load_variants
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
from choreochannel.petri import (
    InteractionNet,
    NetTransition,
    TaskLabel,
    reduce_net,
    to_interaction_net,
    traces_equivalent,
)
from util import autonomous_leftover_model, minimal_model

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
    golden = json.loads((GOLDEN / f"{case}.machine.json").read_text())
    assert machine.to_dict() == golden
    assert ProcessStateMachine.from_dict(golden) == machine


def chain_net(place_count):
    places = tuple(f"p{i}" for i in range(place_count))
    return InteractionNet(
        places=places,
        transitions=tuple(
            NetTransition(f"t{i}", frozenset({a}), frozenset({b}), TaskLabel(f"t{i}", "a", "b"))
            for i, (a, b) in enumerate(zip(places, places[1:]))
        ),
        initial_place=places[0],
        final_places=frozenset({places[-1]}),
    )


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
