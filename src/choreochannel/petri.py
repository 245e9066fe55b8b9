"""Interaction Petri nets: construction from choreographies, reduction, analysis.

The net is the middle layer between the parsed choreography and the compiled
state machine. Labelled transitions carry initiator/respondent roles; silent
transitions come from gateways and empty exclusive branches. Reduction removes
silent transitions only where the observable trace language provably stays
the same. Every explorer, the reducer and the compiler work on one
int-marking view of a net (`InteractionNet.ints`): the reducer rewrites its
consume/produce masks and names places again only for the reduced net.
`traces_equivalent` is the one language oracle: it compares a net or a
compiled machine with another, so it backs both the reduction rules and
compilation.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .bpmn import ChoreographyModel, GatewayKind, validate_model
from .machine import ProcessStateMachine, TaskRequest, enabled_tasks, is_end_state, step


@dataclass(frozen=True)
class TaskLabel:
    task_id: str
    initiator: str
    respondent: str


@dataclass(frozen=True)
class NetTransition:
    id: str
    inputs: frozenset[str]
    outputs: frozenset[str]
    label: TaskLabel | None

    @property
    def silent(self) -> bool:
        return self.label is None


@dataclass(frozen=True)
class IntMarkings:
    """A net's markings as ints: bit i is the net's i-th place."""

    initial: int
    final: int
    masks: tuple[tuple[int, int], ...]  # (consume, produce), in transition order


@dataclass(frozen=True)
class InteractionNet:
    """1-safe labelled net; place and transition order is document order."""

    places: tuple[str, ...]
    transitions: tuple[NetTransition, ...]
    initial_place: str
    final_places: frozenset[str]

    @cached_property
    def ints(self) -> IntMarkings:
        """The int-marking view every explorer and the compiler share."""
        bit = {p: 1 << i for i, p in enumerate(self.places)}

        def mask(ps: frozenset[str]) -> int:
            m = 0
            for p in ps:
                m |= bit[p]
            return m

        return IntMarkings(
            initial=bit[self.initial_place],
            final=mask(self.final_places),
            masks=tuple((mask(t.inputs), mask(t.outputs)) for t in self.transitions),
        )

    def silent_count(self) -> int:
        return sum(1 for t in self.transitions if t.silent)


class StateSpaceError(RuntimeError):
    """Exploration exceeded the configured node budget."""


@dataclass(frozen=True)
class SafeOk:
    explored: int


@dataclass(frozen=True)
class UnsafeWitness:
    firing_sequence: tuple[str, ...]
    place: str


@dataclass(frozen=True)
class BoundExceeded:
    explored: int


SafenessResult = SafeOk | UnsafeWitness | BoundExceeded


def to_interaction_net(model: ChoreographyModel) -> InteractionNet:
    """Map a choreography onto an interaction Petri net, refusing an invalid
    one with a ValueError that lists every diagnostic.

    Tasks become labelled transitions, parallel gateways silent transitions,
    exclusive gateways and events places. A flow between two place-like nodes
    merges them when one side has no alternative flows; otherwise a silent
    transition keeps the exclusive choice intact.
    """
    diags = validate_model(model)
    if diags:
        raise ValueError("invalid model:" + "".join(
            f"\n  {d.rule} at {d.node_id}: {d.message}" for d in diags))

    is_place_node: dict[str, bool] = {model.start_event: True}
    for eid in model.end_events:
        is_place_node[eid] = True
    for gw in model.gateways:
        is_place_node[gw.id] = gw.kind is GatewayKind.EXCLUSIVE
    for task in model.tasks:
        is_place_node[task.id] = False

    # Union-find over place-mapped nodes, with live degree bookkeeping so each
    # merge decision sees the degrees of the *current* net, not the original.
    succ, pred = model.flow_graph
    parent: dict[str, str] = {}
    order: dict[str, int] = {}
    in_deg: dict[str, int] = {}
    out_deg: dict[str, int] = {}
    for nid, placey in is_place_node.items():
        if placey:
            parent[nid] = nid
            order[nid] = len(order)
            in_deg[nid] = len(pred.get(nid, ()))
            out_deg[nid] = len(succ.get(nid, ()))

    def find(pid: str) -> str:
        while parent[pid] != pid:
            parent[pid] = parent[parent[pid]]
            pid = parent[pid]
        return pid

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        keep, gone = (ra, rb) if order[ra] <= order[rb] else (rb, ra)
        parent[gone] = keep
        in_deg[keep] = in_deg[ra] + in_deg[rb] - 1
        out_deg[keep] = out_deg[ra] + out_deg[rb] - 1

    silent_flow_taus: list[tuple[str, str, str]] = []
    for src, tgt in model.flows:
        if is_place_node.get(src) and is_place_node.get(tgt):
            rs, rt = find(src), find(tgt)
            if rs == rt:
                # Parallel or looped silent edge onto one place: a no-op.
                in_deg[rs] -= 1
                out_deg[rs] -= 1
                continue
            # Merging is sound when the token must flow on (src has no other
            # exit) or when every token in tgt originates from src; the start
            # place carries the initial token, an extra source no flow shows.
            if out_deg[rs] == 1 or (in_deg[rt] == 1 and rt != find(model.start_event)):
                union(rs, rt)
            else:
                silent_flow_taus.append((f"tau_{src}__{tgt}", src, tgt))

    # Transitions in document order: tasks, parallel gateways, then the silent
    # transitions inserted for unmergeable place-to-place flows.
    trans_inputs: dict[str, set[str]] = {}
    trans_outputs: dict[str, set[str]] = {}
    trans_order: list[str] = []
    labels: dict[str, TaskLabel | None] = {}

    for task in model.tasks:
        trans_order.append(task.id)
        trans_inputs[task.id] = set()
        trans_outputs[task.id] = set()
        labels[task.id] = TaskLabel(task.id, task.initiator, task.respondent)
    for gw in model.gateways:
        if gw.kind is GatewayKind.PARALLEL:
            trans_order.append(gw.id)
            trans_inputs[gw.id] = set()
            trans_outputs[gw.id] = set()
            labels[gw.id] = None
    for tau_id, src, tgt in silent_flow_taus:
        trans_order.append(tau_id)
        trans_inputs[tau_id] = {find(src)}
        trans_outputs[tau_id] = {find(tgt)}
        labels[tau_id] = None

    extra_places: list[str] = []
    for src, tgt in model.flows:
        src_place = is_place_node.get(src, False)
        tgt_place = is_place_node.get(tgt, False)
        if src_place and tgt_place:
            continue
        if src_place:
            trans_inputs[tgt].add(find(src))
        elif tgt_place:
            trans_outputs[src].add(find(tgt))
        else:
            mid = f"p_{src}__{tgt}"
            extra_places.append(mid)
            trans_outputs[src].add(mid)
            trans_inputs[tgt].add(mid)

    merged_places = [pid for pid in order if find(pid) == pid]
    places = tuple(merged_places + extra_places)
    transitions = tuple(
        NetTransition(
            id=tid,
            inputs=frozenset(trans_inputs[tid]),
            outputs=frozenset(trans_outputs[tid]),
            label=labels[tid],
        )
        for tid in trans_order
    )
    return InteractionNet(
        places=places,
        transitions=transitions,
        initial_place=find(model.start_event),
        final_places=frozenset(find(e) for e in model.end_events),
    )


def reduce_net(net: InteractionNet) -> InteractionNet:
    """Remove silent transitions while preserving the observable trace language.

    Applied rules (each skipped whenever a guard cannot be discharged):
      * drop no-op silents whose pre- and post-set coincide;
      * fuse a silent into the producers of its sole, conflict-free pre-place;
      * fuse a silent into the consumers of its sole, privately-fed post-place;
      * bypass a remaining place-to-place silent by duplicating the labelled
        consumers of its post-place onto its pre-place.
    Guards keep initial/final places intact and never touch a rule application
    that would need arc weights or would drop completion information, so some
    silent transitions can legitimately survive.

    The rules rewrite rows [id, consume mask, produce mask, label] taken from
    `net.ints`; the reduced net is built from the rows once, at the end.
    """
    pairs = tuple(zip(net.transitions, net.ints.masks))
    rows = [[t.id, consume, produce, t.label] for t, (consume, produce) in pairs]
    gone = 0
    while (deleted := _rewrite_once(rows, net)) is not None:
        gone |= deleted

    # Masks no rule rewrote map back to the input's own frozensets.
    sets = {consume: t.inputs for t, (consume, _) in pairs}
    sets.update({produce: t.outputs for t, (_, produce) in pairs})

    def named(mask: int) -> frozenset[str]:
        if mask not in sets:
            names, rest = [], mask
            while rest:
                low = rest & -rest
                names.append(_place(net, low))
                rest ^= low
            sets[mask] = frozenset(names)
        return sets[mask]

    return InteractionNet(
        places=tuple(p for i, p in enumerate(net.places) if not gone >> i & 1),
        transitions=tuple(NetTransition(tid, named(consume), named(produce), label)
                          for tid, consume, produce, label in rows),
        initial_place=net.initial_place,
        final_places=net.final_places,
    )


def _place(net: InteractionNet, bit: int) -> str:
    """The name of the place at the one set bit of `bit`."""
    return net.places[bit.bit_length() - 1]


def _single(mask: int) -> bool:
    """The mask holds exactly one place."""
    return mask != 0 and mask & (mask - 1) == 0


# Each rule takes the silent row at index i and either rewrites `rows` and
# returns the mask of the places it deleted, or leaves `rows` as they are
# and returns None.

def _rule_noop(i, rows, net) -> int | None:
    _, consume, produce, _ = rows[i]
    if consume != produce:
        return None
    del rows[i]
    return 0


def _rule_fuse_pre(i, rows, net) -> int | None:
    _, p, produce, _ = t = rows[i]
    if not _single(p) or p & (net.ints.initial | net.ints.final | produce):
        return None
    if any(r[1] & p and r is not t for r in rows):
        return None
    prods = [u for u in rows if u[2] & p]
    if any(u[2] & ~p & produce for u in prods):
        return None
    for u in prods:
        u[2] = u[2] & ~p | produce
    del rows[i]
    return p


def _rule_fuse_post(i, rows, net) -> int | None:
    _, consume, q, _ = t = rows[i]
    if not _single(q) or q & (net.ints.initial | net.ints.final | consume):
        return None
    if any(r[2] & q and r is not t for r in rows):
        return None
    cons = [v for v in rows if v[1] & q]
    if not cons or any(v[1] & ~q & consume for v in cons):
        return None
    for v in cons:
        v[1] = v[1] & ~q | consume
    del rows[i]
    return q


def _rule_bypass(i, rows, net) -> int | None:
    _, p, q, _ = rows[i]
    if not (_single(p) and _single(q)) or p == q or q & net.ints.final:
        return None
    cons = [c for c in rows if c[1] & q]
    if not cons or any(c[3] is None or c[1] & p for c in cons):
        return None
    for cid, consume, produce, label in cons:
        dup = consume & ~q | p
        if not any(x[1] == dup and x[2] == produce and x[3] == label for x in rows):
            rows.append([f"{cid}__via_{_place(net, p)}", dup, produce, label])
    del rows[i]
    return 0


_RULES = (_rule_noop, _rule_fuse_pre, _rule_fuse_post, _rule_bypass)


def _rewrite_once(rows, net) -> int | None:
    """Apply the first rule, in _RULES order, that fires on the first silent
    row any rule fires on, and return the mask of the places it deleted;
    None when no rule fires. Each rewrite restarts the scan from the first
    row; the compiled layout depends on this order."""
    for i, row in enumerate(rows):
        if row[3] is None:
            for rule in _RULES:
                if (deleted := rule(i, rows, net)) is not None:
                    return deleted
    return None


def check_safeness(net: InteractionNet, state_bound: int = 20000) -> SafenessResult:
    """Exhaustively explore reachable markings breadth first, one level at a
    time, trying each marking's transitions in net order.

    Returns a witness firing sequence as soon as a firing would put a second
    token on a place, naming the first such place in `net.places` order;
    returns BoundExceeded when more than `state_bound` markings exist. The
    walk keeps only each marking's parent marking; the rare witness is
    rebuilt from those afterwards.
    """
    ints = net.ints
    masks = ints.masks
    parents: dict[int, int] = {ints.initial: ints.initial}
    level = [ints.initial]
    while level:
        frontier, level = level, []
        for marking in frontier:
            for consume, produce in masks:
                if marking & consume != consume:
                    continue
                rest = marking ^ consume
                if double := rest & produce:
                    return UnsafeWitness(
                        firing_sequence=_witness(net, parents, marking, (consume, produce)),
                        place=_place(net, double & -double),
                    )
                nxt = rest | produce
                if nxt in parents:
                    continue
                if len(parents) >= state_bound:
                    return BoundExceeded(explored=len(parents))
                parents[nxt] = marking
                level.append(nxt)
    return SafeOk(explored=len(parents))


def _witness(
    net: InteractionNet, parents: dict[int, int], marking: int, last: tuple[int, int]
) -> tuple[str, ...]:
    """The firing sequence check_safeness took to `marking`, then the unsafe
    firing of the transition with masks `last`.

    The walk recorded each parent -> child edge at the first transition in
    net order that fires it, so that is the one named here. An earlier
    transition with masks `last` would have been unsafe first, so the first
    one with those masks is the one the walk was at.
    """
    ints = net.ints
    path = [marking]
    while path[-1] != ints.initial:
        path.append(parents[path[-1]])
    path.reverse()
    pairs = tuple(zip(net.transitions, ints.masks))
    seq = [
        next(t.id for t, (consume, produce) in pairs
             if src & consume == consume and src ^ consume | produce == dst)
        for src, dst in zip(path, path[1:])
    ]
    seq.append(net.transitions[ints.masks.index(last)].id)
    return tuple(seq)


def _language_view(x: InteractionNet | ProcessStateMachine):
    """(start, completed, moves) of x's observable behaviour as a
    deterministic automaton; `moves(state)` maps each enabled task to the
    successor state.

    A machine state is its int state. A net state is the frozenset of int
    markings reachable by one observable prefix, silent moves closed away.
    """
    if isinstance(x, ProcessStateMachine):
        def machine_moves(state: int) -> dict[str, int]:
            return {task: step(x, state, TaskRequest(task, role))
                    for task, role in enabled_tasks(x, state)}
        return x.initial_state, lambda state: is_end_state(x, state), machine_moves

    ints = x.ints
    silent = [m for t, m in zip(x.transitions, ints.masks) if t.silent]
    labelled = [(t.label.task_id, *m) for t, m in zip(x.transitions, ints.masks) if not t.silent]

    def close(markings) -> frozenset[int]:
        seen = set(markings)
        stack = list(seen)
        while stack:
            m = stack.pop()
            for consume, produce in silent:
                if m & consume == consume and (nxt := m & ~consume | produce) not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def completed(det: frozenset[int]) -> bool:
        return any(m & ints.final and not m & ~ints.final for m in det)

    def net_moves(det: frozenset[int]) -> dict[str, frozenset[int]]:
        fired: dict[str, list[int]] = {}
        for task, consume, produce in labelled:
            for m in det:
                if m & consume == consume:
                    fired.setdefault(task, []).append(m & ~consume | produce)
        return {task: close(ms) for task, ms in fired.items()}

    return close([ints.initial]), completed, net_moves


def traces_equivalent(
    a: InteractionNet | ProcessStateMachine,
    b: InteractionNet | ProcessStateMachine,
    max_len: int | None,
    node_budget: int = 200_000,
) -> bool:
    """The language oracle for reduction and compilation: equal observable
    trace sets and equal completed-trace sets up to max_len, or of any
    length when max_len is None.

    Either side is a net or a compiled machine. Both are walked in lockstep
    as deterministic automata, so the comparison is exact for the bounded
    language without materializing it. Both automata are finite (safe nets,
    bitmask machines), so the walk with no depth bound ends once every
    reachable pair is seen, and then it has decided equality of the full
    languages.
    """
    start_a, done_a, moves_a = _language_view(a)
    start_b, done_b, moves_b = _language_view(b)
    seen = {(start_a, start_b)}
    queue: deque = deque([(start_a, start_b, 0)])
    while queue:
        da, db, depth = queue.popleft()
        if done_a(da) != done_b(db):
            return False
        if max_len is not None and depth >= max_len:
            continue
        next_a, next_b = moves_a(da), moves_b(db)
        if next_a.keys() != next_b.keys():
            return False
        for task_id in sorted(next_a):
            pair = (next_a[task_id], next_b[task_id])
            if pair not in seen:
                if len(seen) >= node_budget:
                    raise StateSpaceError(
                        f"equivalence exploration exceeded {node_budget} nodes; lower max_len"
                    )
                seen.add(pair)
                queue.append((*pair, depth + 1))
    return True


def to_pnml(net: InteractionNet) -> bytes:
    """Dump the net in PNML for inspection with standard Petri-net tooling."""
    pnml = ET.Element("pnml")
    page = ET.SubElement(
        ET.SubElement(pnml, "net", {"id": "net0", "type": "http://www.pnml.org/version-2009/grammar/ptnet"}),
        "page",
        {"id": "page0"},
    )
    for pid in net.places:
        place = ET.SubElement(page, "place", {"id": pid})
        if pid == net.initial_place:
            ET.SubElement(ET.SubElement(place, "initialMarking"), "text").text = "1"
    for t in net.transitions:
        trans = ET.SubElement(page, "transition", {"id": t.id})
        if t.label is not None:
            ET.SubElement(ET.SubElement(trans, "name"), "text").text = t.label.task_id
    arc_n = 0
    for t in net.transitions:
        for p in sorted(t.inputs):
            ET.SubElement(page, "arc", {"id": f"a{arc_n}", "source": p, "target": t.id})
            arc_n += 1
        for p in sorted(t.outputs):
            ET.SubElement(page, "arc", {"id": f"a{arc_n}", "source": t.id, "target": p})
            arc_n += 1
    return ET.tostring(pnml, encoding="utf-8", xml_declaration=True)
