"""Shared model builders, call counters and hand-built wire bytes for the test suite."""

from __future__ import annotations

import struct

from hypothesis import strategies as st

from choreochannel import trigger, wire
from choreochannel.bpmn import (
    ChoreographyModel,
    ChoreographyTask,
    Gateway,
    GatewayKind,
    Role,
)
from choreochannel.petri import InteractionNet, NetTransition, TaskLabel

ROLES_AB = (Role("a", "A"), Role("b", "B"))


def chain_net(place_count: int) -> InteractionNet:
    """A net of `place_count - 1` tasks in sequence, one per pair of places."""
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


def counting_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to the `wire` function `name`
    (`verify_step`, `sign_step`) made by trigger nodes or by the shared
    signer check `wire.signature_fault`, then make the call. That check is
    the contract's too, so a ledger transaction in between adds its calls."""
    calls = []
    original = getattr(wire, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trigger, name, counting)
    monkeypatch.setattr(wire, name, counting)
    return calls


def counting_verifies(monkeypatch) -> list[tuple]:
    """Record every verify_step call made by a trigger node (see counting_calls)."""
    return counting_calls(monkeypatch, "verify_step")


def signing_keys(setup) -> dict:
    """Each role's signing key, as its node in `setup` holds it."""
    return {role: node.signing_key for role, node in setup.nodes.items()}


def minimal_model() -> ChoreographyModel:
    """start -> one task (a to b) -> end."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=(ChoreographyTask("greet", "Greet", "a", "b"),),
        gateways=(),
        start_event="start",
        end_events=("end",),
        flows=(("start", "greet"), ("greet", "end")),
    )


def parallel_model() -> ChoreographyModel:
    """start -> split -> (left, right) -> join -> end."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=(
            ChoreographyTask("left", "Left", "a", "b"),
            ChoreographyTask("right", "Right", "b", "a"),
        ),
        gateways=(
            Gateway("split", GatewayKind.PARALLEL),
            Gateway("join", GatewayKind.PARALLEL),
        ),
        start_event="start",
        end_events=("end",),
        flows=(
            ("start", "split"),
            ("split", "left"),
            ("split", "right"),
            ("left", "join"),
            ("right", "join"),
            ("join", "end"),
        ),
    )


def exclusive_model() -> ChoreographyModel:
    """start -> xor split -> (yes | no) -> xor join -> end."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=(
            ChoreographyTask("yes", "Yes", "a", "b"),
            ChoreographyTask("no", "No", "a", "b"),
        ),
        gateways=(
            Gateway("choice", GatewayKind.EXCLUSIVE),
            Gateway("merge", GatewayKind.EXCLUSIVE),
        ),
        start_event="start",
        end_events=("end",),
        flows=(
            ("start", "choice"),
            ("choice", "yes"),
            ("choice", "no"),
            ("yes", "merge"),
            ("no", "merge"),
            ("merge", "end"),
        ),
    )


def autonomous_leftover_model() -> ChoreographyModel:
    """Parallel join straight into the end event; the join transition cannot
    be reduced away and stays autonomous."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=(
            ChoreographyTask("prepare", "Prepare", "a", "b"),
            ChoreographyTask("left", "Left", "a", "b"),
            ChoreographyTask("right", "Right", "b", "a"),
        ),
        gateways=(
            Gateway("split", GatewayKind.PARALLEL),
            Gateway("join", GatewayKind.PARALLEL),
        ),
        start_event="start",
        end_events=("end",),
        flows=(
            ("start", "prepare"),
            ("prepare", "split"),
            ("split", "left"),
            ("split", "right"),
            ("left", "join"),
            ("right", "join"),
            ("join", "end"),
        ),
    )


def loop_model() -> ChoreographyModel:
    """start -> entry -> work -> exit -> (back to entry | done -> end)."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=(
            ChoreographyTask("work", "Work", "a", "b"),
            ChoreographyTask("done", "Done", "a", "b"),
        ),
        gateways=(
            Gateway("entry", GatewayKind.EXCLUSIVE),
            Gateway("exit", GatewayKind.EXCLUSIVE),
        ),
        start_event="start",
        end_events=("end",),
        flows=(
            ("start", "entry"),
            ("entry", "work"),
            ("work", "exit"),
            ("exit", "entry"),
            ("exit", "done"),
            ("done", "end"),
        ),
    )



def _tasks(*ids: str) -> tuple[ChoreographyTask, ...]:
    return tuple(ChoreographyTask(tid, tid, "a", "b") for tid in ids)


def place_named_like_flow_model() -> ChoreographyModel:
    """ask -> tell -> xor "p_ask__tell" -> (yes -> end_yes | no -> end_no):
    the gateway's place has the name of the place between ask and tell."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks("ask", "tell", "yes", "no"),
        gateways=(Gateway("p_ask__tell", GatewayKind.EXCLUSIVE),),
        start_event="start",
        end_events=("end_yes", "end_no"),
        flows=(
            ("start", "ask"),
            ("ask", "tell"),
            ("tell", "p_ask__tell"),
            ("p_ask__tell", "yes"),
            ("p_ask__tell", "no"),
            ("yes", "end_yes"),
            ("no", "end_no"),
        ),
    )


def flows_named_alike_model() -> ChoreographyModel:
    """Parallel branches ask__tell -> go and ask -> tell__go, whose flows
    both name their place p_ask__tell__go; the model is safe."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks("ask__tell", "go", "ask", "tell__go"),
        gateways=(
            Gateway("split", GatewayKind.PARALLEL),
            Gateway("join", GatewayKind.PARALLEL),
        ),
        start_event="start",
        end_events=("end",),
        flows=(
            ("start", "split"),
            ("split", "ask__tell"),
            ("split", "ask"),
            ("ask__tell", "go"),
            ("ask", "tell__go"),
            ("go", "join"),
            ("tell__go", "join"),
            ("join", "end"),
        ),
    )


def optional_task_model() -> ChoreographyModel:
    """start -> xor x -> (t -> j | j) -> xor j -> end: the one task may be
    skipped, so the initial state is already an end state."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks("t"),
        gateways=(Gateway("x", GatewayKind.EXCLUSIVE), Gateway("j", GatewayKind.EXCLUSIVE)),
        start_event="start",
        end_events=("end",),
        flows=(("start", "x"), ("x", "t"), ("x", "j"), ("t", "j"), ("j", "end")),
    )


def task_named_like_silent_model() -> ChoreographyModel:
    """xor choice -> (merge | yes -> merge) -> task "tau_choice__merge" -> end:
    the task has the name of the silent transition for choice -> merge."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks("yes", "tau_choice__merge"),
        gateways=(
            Gateway("choice", GatewayKind.EXCLUSIVE),
            Gateway("merge", GatewayKind.EXCLUSIVE),
        ),
        start_event="start",
        end_events=("end",),
        flows=(
            ("start", "choice"),
            ("choice", "merge"),
            ("choice", "yes"),
            ("yes", "merge"),
            ("merge", "tau_choice__merge"),
            ("tau_choice__merge", "end"),
        ),
    )


# Envelope kind bytes, as the wire format documents them.
PROPOSE, SIGN, CONFIRM = 1, 2, 3


def step_bytes(chain_id=1, contract_id=bytes(32), case_id=0, seq=1, task_id=b"t",
               choice_data=b"", new_state=b"\x00") -> bytes:
    """A step encoding built by hand from the documented layout: three u64s
    around the 32-byte contract id, then three u32-length-prefixed fields."""
    fields = (task_id, choice_data, new_state)
    return (struct.pack(">Q", chain_id) + contract_id + struct.pack(">QQ", case_id, seq)
            + b"".join(struct.pack(">I", len(f)) + f for f in fields))


def envelope(kind: int, payload: bytes, signers) -> bytes:
    """A byte envelope built by hand: the kind byte, the u32-length-prefixed
    payload, a u8 signer count, then each (role, signature) in the order
    given, the role u8-length-prefixed."""
    out = struct.pack(">BI", kind, len(payload)) + payload + bytes([len(signers)])
    for role, sig in signers:
        out += bytes([len(role)]) + role + sig
    return out


def flipped(base: bytes):
    """Strategy: `base` with one byte changed to any other value."""
    return st.tuples(st.integers(0, len(base) - 1), st.integers(1, 255)).map(
        lambda t: base[:t[0]] + bytes([base[t[0]] ^ t[1]]) + base[t[0] + 1:])
