"""Shared model builders for the test suite."""

from __future__ import annotations

from choreochannel.bpmn import (
    ChoreographyModel,
    ChoreographyTask,
    Gateway,
    GatewayKind,
    Role,
)

ROLES_AB = (Role("a", "A"), Role("b", "B"))


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
