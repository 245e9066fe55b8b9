"""Seeded generator of random well-formed choreography models.

Models are block structured (sequence, exclusive block, parallel block, loop),
which guarantees validity and 1-safeness by construction while still
exercising empty exclusive branches, nesting, and loops.
"""

from __future__ import annotations

import random

from .bpmn import (
    ChoreographyModel,
    ChoreographyTask,
    Gateway,
    GatewayKind,
    Role,
)


class _Builder:
    def __init__(self, rng: random.Random, role_count: int, max_tasks: int):
        self.rng = rng
        self.roles = [Role(f"role_{i}", f"Role {i}") for i in range(role_count)]
        self.max_tasks = max_tasks
        self.tasks: list[ChoreographyTask] = []
        self.gateways: list[Gateway] = []
        self.flows: list[tuple[str, str]] = []
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}_{self.counter}"

    def add_task(self) -> str:
        initiator, respondent = self.rng.sample(self.roles, 2)
        tid = self.fresh("task")
        self.tasks.append(ChoreographyTask(tid, tid, initiator.id, respondent.id))
        return tid

    def add_gateway(self, kind: GatewayKind) -> str:
        gid = self.fresh("gw")
        self.gateways.append(Gateway(gid, kind))
        return gid

    def budget_left(self) -> int:
        return self.max_tasks - len(self.tasks)

    # Every block method wires a fragment between two fresh endpoints and
    # returns (entry_node, exit_node).

    def block(self, depth: int) -> tuple[str, str]:
        choices = ["task"]
        if depth > 0 and self.budget_left() >= 2:
            choices += ["seq", "xor", "par", "loop"]
        kind = self.rng.choice(choices)
        if kind == "task":
            tid = self.add_task()
            return tid, tid
        if kind == "seq":
            first = self.block(depth - 1)
            second = self.block(depth - 1)
            self.flows.append((first[1], second[0]))
            return first[0], second[1]
        if kind == "xor":
            return self.branch_block(GatewayKind.EXCLUSIVE, depth)
        if kind == "par":
            return self.branch_block(GatewayKind.PARALLEL, depth)
        return self.loop_block(depth)

    def branch_block(self, kind: GatewayKind, depth: int) -> tuple[str, str]:
        split = self.add_gateway(kind)
        join = self.add_gateway(kind)
        branches = self.rng.randint(2, 3)
        allow_empty = kind is GatewayKind.EXCLUSIVE
        used_empty = False
        for _ in range(branches):
            if allow_empty and not used_empty and self.rng.random() < 0.3:
                self.flows.append((split, join))
                used_empty = True
                continue
            entry, exit_ = self.block(depth - 1)
            self.flows.append((split, entry))
            self.flows.append((exit_, join))
        return split, join

    def loop_block(self, depth: int) -> tuple[str, str]:
        entry = self.add_gateway(GatewayKind.EXCLUSIVE)
        exit_ = self.add_gateway(GatewayKind.EXCLUSIVE)
        body_entry, body_exit = self.block(depth - 1)
        self.flows.append((entry, body_entry))
        self.flows.append((body_exit, exit_))
        self.flows.append((exit_, entry))
        return entry, exit_


def random_model(seed: int, max_tasks: int = 8, max_depth: int = 3) -> ChoreographyModel:
    """A valid, 1-safe choreography model; identical per seed."""
    rng = random.Random(seed)
    b = _Builder(rng, rng.randint(3, 5), max_tasks)
    entry, exit_ = b.block(max_depth)
    # Pad with a sequence so the model does not collapse to a single task too
    # often; keeps the reduction rules busy.
    while b.budget_left() > 0 and rng.random() < 0.5:
        nxt_entry, nxt_exit = b.block(max_depth - 1)
        b.flows.append((exit_, nxt_entry))
        exit_ = nxt_exit
    b.flows.insert(0, ("start", entry))
    b.flows.append((exit_, "end"))
    return ChoreographyModel(
        roles=tuple(b.roles),
        tasks=tuple(b.tasks),
        gateways=tuple(b.gateways),
        start_event="start",
        end_events=("end",),
        flows=tuple(b.flows),
    )
