"""Shipped evaluation cases and the end-to-end compile pipeline."""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

from .bpmn import ChoreographyModel, parse_choreography
from .machine import ProcessStateMachine, TaskRequest, compile_state_machine
from .petri import NetRows, reduce_net, to_interaction_net

CASES = ("supply_chain", "incident_management")


def normalize_case(name: str) -> str:
    key = name.replace("-", "_")
    if key not in CASES:
        raise ValueError(f"unknown case {name!r}; expected one of {', '.join(CASES)}")
    return key


def fixture_bytes(case: str) -> bytes:
    case = normalize_case(case)
    return resources.files("choreochannel.fixtures").joinpath(f"{case}.bpmn").read_bytes()


def load_model(case: str) -> ChoreographyModel:
    return parse_choreography(fixture_bytes(case))


def load_variants(case: str) -> list[list[TaskRequest]]:
    """Conforming variant traces shipped with the case, as fresh lists; the
    fixture file is read and parsed once per process."""
    return [list(variant) for variant in _parsed_variants(normalize_case(case))]


@cache
def _parsed_variants(case: str) -> tuple[tuple[TaskRequest, ...], ...]:
    raw = resources.files("choreochannel.fixtures").joinpath(f"{case}.variants.json").read_text()
    return tuple(
        tuple(TaskRequest(e["task_id"], e["initiator"], bytes.fromhex(e.get("choice", "")))
              for e in variant)
        for variant in json.loads(raw)["variants"]
    )


def compile_model(model: ChoreographyModel) -> ProcessStateMachine:
    """The whole compile pipeline: validate the model and build its net
    (`to_interaction_net`), reduce the net (`reduce_net`: fuse, decide
    1-safeness on the series net, the fused net's label-blind contraction
    by fuse-pre, finish the reduction) and compile it onto a machine
    (`compile_state_machine`). It refuses an invalid or unsafe model with a
    ValueError that names every diagnostic or the original net's safeness
    verdict."""
    return compile_state_machine(reduce_net(to_interaction_net(model)))


def build_nets(case: str) -> tuple[NetRows, NetRows]:
    """(original, reduced) nets of a shipped case; used by oracle tests."""
    net = to_interaction_net(load_model(case))
    return net, reduce_net(net)


def build_machine(case: str) -> ProcessStateMachine:
    """The compiled machine of a shipped case, compiled once per process: the
    machine is frozen and holds only tuples, so every caller can share it."""
    return _compiled_case(normalize_case(case))


@cache
def _compiled_case(case: str) -> ProcessStateMachine:
    return compile_model(load_model(case))
