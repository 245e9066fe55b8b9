"""Shared model builders, call counters and hand-built wire bytes for the test suite."""

from __future__ import annotations

import struct

from hypothesis import strategies as st

from choreochannel import trigger
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
    """Record the arguments of every call trigger nodes make to the `trigger`
    module's `name` (`verify_step`, `sign_step`), then make the call."""
    calls = []
    original = getattr(trigger, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trigger, name, counting)
    return calls


def counting_verifies(monkeypatch) -> list[tuple]:
    """Record every verify_step call made by a trigger node."""
    return counting_calls(monkeypatch, "verify_step")


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
