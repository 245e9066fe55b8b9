"""Bit-array state machine lowered from a reduced interaction net's rows.

The same machine drives the off-chain trigger nodes and the simulated channel
contract, which is what makes off-chain replication sound: `step` is a pure
function of (state, request).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple


class CompileError(ValueError):
    pass


class ConformanceError(Exception):
    """A task request that the machine refuses in the current state."""

    reason = "conformance"

    def __init__(self, task_id: str, detail: str = ""):
        super().__init__(f"{self.reason}: {task_id}" + (f" ({detail})" if detail else ""))
        self.task_id = task_id


class UnknownTaskError(ConformanceError):
    reason = "unknown-task"


class WrongRoleError(ConformanceError):
    reason = "wrong-role"


class NotEnabledError(ConformanceError):
    reason = "not-enabled"


class CompiledTransition(NamedTuple):
    """Masks plus, for a manual transition, its task; without a task the
    transition is autonomous."""

    id: int
    consume_mask: int
    produce_mask: int
    initiator: str | None = None
    task_id: str | None = None


@dataclass(frozen=True)
class TaskRequest:
    task_id: str
    requester_role: str
    choice_data: bytes = b""


@dataclass(frozen=True)
class ProcessStateMachine:
    places: tuple[str, ...]
    transitions: tuple[CompiledTransition, ...]
    initial_state: int
    final_mask: int
    role_ids: tuple[str, ...]

    @property
    def place_count(self) -> int:
        return len(self.places)

    @property
    def state_byte_width(self) -> int:
        return (self.place_count + 7) // 8

    def state_to_bytes(self, state: int) -> bytes:
        return state.to_bytes(self.state_byte_width, "big")

    def state_from_bytes(self, raw: bytes) -> int:
        if len(raw) != self.state_byte_width:
            raise ValueError(f"state must be {self.state_byte_width} bytes, got {len(raw)}")
        return int.from_bytes(raw, "big")

    def manual_transitions(self, task_id: str | None) -> list[CompiledTransition]:
        if task_id is None:
            return []
        return [t for t in self.transitions if t.task_id == task_id]

    def to_dict(self) -> dict:
        """Golden-file form: place map plus hex masks, stable across runs."""
        return {
            "place_count": self.place_count,
            "places": list(self.places),
            "initial_state": hex(self.initial_state),
            "final_mask": hex(self.final_mask),
            "roles": list(self.role_ids),
            "transitions": [
                {
                    "id": t.id,
                    "kind": "autonomous" if t.task_id is None else "manual",
                    "task_id": t.task_id,
                    "initiator": t.initiator,
                    "consume": hex(t.consume_mask),
                    "produce": hex(t.produce_mask),
                }
                for t in self.transitions
            ],
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2, sort_keys=True)`, byte for
        byte, written directly: with an indent set, `json.dumps` runs its
        pure-Python encoder. Ids are escaped by the function `json.dumps`
        itself uses for ASCII output."""
        return _MACHINE_JSON % (
            hex(self.final_mask),
            hex(self.initial_state),
            self.place_count,
            _json_list([_quote(p) for p in self.places]),
            _json_list([_quote(r) for r in self.role_ids]),
            _json_list([
                _TRANSITION_JSON % (
                    hex(t.consume_mask),
                    t.id,
                    "null" if t.initiator is None else _quote(t.initiator),
                    "autonomous" if t.task_id is None else "manual",
                    hex(t.produce_mask),
                    "null" if t.task_id is None else _quote(t.task_id),
                )
                for t in self.transitions
            ]),
        )


_MACHINE_JSON = """{
  "final_mask": "%s",
  "initial_state": "%s",
  "place_count": %d,
  "places": %s,
  "roles": %s,
  "transitions": %s
}"""

_TRANSITION_JSON = """{
      "consume": "%s",
      "id": %d,
      "initiator": %s,
      "kind": "%s",
      "produce": "%s",
      "task_id": %s
    }"""


def _json_list(items: list[str]) -> str:
    """Encoded items as the value of a top-level key, at the dump's indent."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


MAX_PLACES = 256


def compile_state_machine(net) -> ProcessStateMachine:
    """Lower a reduced, safe interaction net onto bitmask transitions:
    `lower` on the net's rows (`InteractionNet.as_rows`)."""
    return lower(net.as_rows())


def lower(form) -> ProcessStateMachine:
    """Lower a reduced, safe net in the row form (`petri.NetRows`) onto
    bitmask transitions.

    Place bits are the form's bits; transitions keep row order so the
    compiled layout is identical across runs. The initial state is the start
    place with any start-enabled autonomous transitions already applied.
    """
    if len(form.places) > MAX_PLACES:
        raise CompileError(f"net has {len(form.places)} places, limit is {MAX_PLACES}")

    transitions: list[CompiledTransition] = []
    roles: list[str] = []
    for i, (_, consume, produce, label) in enumerate(form.rows):
        if label is None:
            transitions.append(CompiledTransition(i, consume, produce))
        else:
            transitions.append(
                CompiledTransition(i, consume, produce, label.initiator, label.task_id)
            )
            for role in (label.initiator, label.respondent):
                if role not in roles:
                    roles.append(role)

    return ProcessStateMachine(
        places=tuple(form.places),
        transitions=tuple(transitions),
        initial_state=_autonomous_fixpoint(transitions, len(form.places), form.initial),
        final_mask=form.final,
        role_ids=tuple(roles),
    )


def _autonomous_fixpoint(
    transitions: Sequence[CompiledTransition], place_count: int, state: int
) -> int:
    """Fire enabled autonomous transitions, lowest id first, until none apply.

    A firing that does not change the state (a silent self-loop) is skipped.
    The firing budget guards against a reduction bug ever producing an
    autonomous cycle; hitting it is a loud failure, not a recoverable one.
    """
    budget = place_count * max(1, len(transitions))
    auto = [(t.consume_mask, t.produce_mask) for t in transitions if t.task_id is None]
    fired = 0
    progress = True
    while progress:
        progress = False
        for consume, produce in auto:
            if state & consume != consume:
                continue
            new_state = (state & ~consume) | produce
            if new_state == state:
                continue
            fired += 1
            if fired > budget:
                raise RuntimeError(
                    f"autonomous firing exceeded budget of {budget}; net reduction is unsound"
                )
            state = new_state
            progress = True
            break
    return state


def step(machine: ProcessStateMachine, state: int, req: TaskRequest) -> int:
    """Fire the requested manual transition, then run autonomous transitions
    to fixpoint. Raises UnknownTaskError / WrongRoleError / NotEnabledError."""
    candidates = machine.manual_transitions(req.task_id)
    if not candidates:
        raise UnknownTaskError(req.task_id)
    initiator = candidates[0].initiator
    if req.requester_role != initiator:
        raise WrongRoleError(req.task_id, f"initiator is {initiator}, not {req.requester_role}")
    enabled = [t for t in candidates if state & t.consume_mask == t.consume_mask]
    if not enabled:
        raise NotEnabledError(req.task_id)
    t = enabled[0]
    new_state = (state & ~t.consume_mask) | t.produce_mask
    return _autonomous_fixpoint(machine.transitions, machine.place_count, new_state)


def enabled_tasks(machine: ProcessStateMachine, state: int) -> set[tuple[str, str]]:
    """The (task id, initiator) pairs whose consume mask is satisfied."""
    return {
        (t.task_id, t.initiator)
        for t in machine.transitions
        if t.task_id is not None and state & t.consume_mask == t.consume_mask
    }


def is_end_state(machine: ProcessStateMachine, state: int) -> bool:
    """True iff some final place is marked and no token sits anywhere else."""
    return state & machine.final_mask != 0 and state & ~machine.final_mask == 0
