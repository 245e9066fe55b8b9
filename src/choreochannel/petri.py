"""Interaction Petri nets: construction from choreographies, reduction, analysis.

The net is the middle layer between the parsed choreography and the compiled
state machine. Labelled transitions carry initiator/respondent roles; silent
transitions come from gateways and empty exclusive branches. Reduction removes
silent transitions only where the observable trace language provably stays
the same. A net has one form, `NetRows`: the places, the initial bit, the
final mask and one row (id, consume mask, produce mask, label) per
transition. `to_interaction_net` builds it from a model, `reduce_net`
rewrites it and `machine.compile_state_machine` compiles it. Every explorer
works on its masks; a place gets its name back from its bit only where a
refusal's witness or PNML names it. `traces_equivalent` is the one language
oracle: it compares a net or a compiled machine with another, so it backs
both the reduction rules and compilation.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .bpmn import ChoreographyModel, GatewayKind, validate_model
from .machine import ProcessStateMachine, TaskRequest, enabled_tasks, is_end_state, step


class TaskLabel(NamedTuple):
    task_id: str
    initiator: str
    respondent: str


class NetRows(NamedTuple):
    """A labelled net: bit i of a mask is `places[i]`, and each row is
    (id, consume mask, produce mask, label) in net order, with label None
    for a silent transition. Every stage reads and writes this form, always
    with tuple rows, so two nets compare by value whichever stage built
    them."""

    places: tuple[str, ...]
    initial: int
    final: int
    rows: tuple[tuple[str, int, int, TaskLabel | None], ...]


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

# The most markings a safeness walk visits before it gives up: markings of
# the net in check_safeness, of the series net (see reduce_net) in reduce_net.
STATE_BOUND = 20000


def to_interaction_net(model: ChoreographyModel) -> NetRows:
    """Map a choreography onto an interaction Petri net, refusing an invalid
    one with a ValueError that lists every diagnostic, and one whose net
    would hold two places or two transitions with one name with a ValueError
    that names it.

    Tasks become labelled transitions, parallel gateways silent transitions,
    exclusive gateways and events places. A flow between two place-like nodes
    merges them when one side has no alternative flows; otherwise a silent
    transition keeps the exclusive choice intact. Places are the merged
    places in node order, then one place per flow between two transitions.
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

    merged_places = [pid for pid in order if find(pid) == pid]
    bit = {pid: 1 << i for i, pid in enumerate(merged_places)}

    # Transitions in document order: tasks, parallel gateways, then the silent
    # transitions inserted for unmergeable place-to-place flows.
    consume: dict[str, int] = {}
    produce: dict[str, int] = {}
    trans_order: list[str] = []
    labels: dict[str, TaskLabel | None] = {}

    for task in model.tasks:
        trans_order.append(task.id)
        consume[task.id] = produce[task.id] = 0
        labels[task.id] = TaskLabel(task.id, task.initiator, task.respondent)
    for gw in model.gateways:
        if gw.kind is GatewayKind.PARALLEL:
            trans_order.append(gw.id)
            consume[gw.id] = produce[gw.id] = 0
            labels[gw.id] = None
    for tau_id, src, tgt in silent_flow_taus:
        trans_order.append(tau_id)
        consume[tau_id] = bit[find(src)]
        produce[tau_id] = bit[find(tgt)]
        labels[tau_id] = None

    extra_places: list[str] = []
    for src, tgt in model.flows:
        src_place = is_place_node.get(src, False)
        tgt_place = is_place_node.get(tgt, False)
        if src_place and tgt_place:
            continue
        if src_place:
            consume[tgt] |= bit[find(src)]
        elif tgt_place:
            produce[src] |= bit[find(tgt)]
        else:
            mid = 1 << len(merged_places) + len(extra_places)
            extra_places.append(f"p_{src}__{tgt}")
            produce[src] |= mid
            consume[tgt] |= mid

    places = tuple(merged_places + extra_places)
    # A generated name can repeat a node id or another generated name; two
    # places or transitions with one name would silently become one.
    for kind, names in (("place", places), ("transition", trans_order)):
        if len(set(names)) < len(names):
            name = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"model is not compilable: two net {kind}s are named {name!r}")
    final = 0
    for e in model.end_events:
        final |= bit[find(e)]
    return NetRows(places, bit[find(model.start_event)], final, tuple(
        (tid, consume[tid], produce[tid], labels[tid]) for tid in trans_order))


def reduce_net(net: NetRows) -> NetRows:
    """Remove silent transitions from a 1-safe net while preserving its
    observable trace language; refuse any other net with a ValueError that
    names the verdict of `check_safeness` on it.

    Applied rules (each skipped whenever a guard cannot be discharged):
      * noop: drop a silent whose pre- and post-set coincide;
      * fuse-pre: fuse a silent into the producers of its sole, conflict-free
        pre-place;
      * fuse-post: fuse a silent into the consumers of its sole, privately-fed
        post-place;
      * bypass: replace a remaining place-to-place silent p -> q by a copy of
        each labelled consumer of q that takes p in place of q.
    Guards keep initial/final places intact and never touch a rule application
    that would need arc weights or would drop completion information, so some
    silent transitions can legitimately survive. The first three rules run to
    a fixpoint first, giving the fused net; then all four run to a fixpoint.
    Between the two phases safeness is decided on the series net: a copy of
    the fused rows with every label dropped, rewritten by fuse-pre alone to
    a fixpoint. The bypass phase goes on from the fused rows, not the copy.

    1-safeness. A net is unsafe when some marking reached by safe firings
    enables a transition whose firing puts a second token on a place; that is
    what `check_safeness` finds. In a net built from a validated model every
    mask is non-empty, and a rule only replaces a place by a non-empty mask.
    Write N for the net before one rewrite and N' for the net after it.
      * noop preserves and reflects it: the silent never changes a marking
        and never double-marks, since what it produces it has just consumed.
      * fuse-pre (silent t, pre-place p) preserves and reflects it. p is not
        initial and t is its only consumer, so a firing of a producer u of p
        in N' is u then t in N, and it is safe iff both are: the guard makes
        u's other outputs disjoint from t's. Conversely, take a run of N that
        ends in an unsafe firing and fire each t right after the producer
        that marked p. Only t consumes p, so every later firing stays
        enabled; the run either reaches the same end or double-marks one of
        t's outputs sooner, and a second producer of p that fires while p is
        still marked double-marks t's outputs in N'.
      * fuse-post (silent t, post-place q) preserves and reflects it, by the
        mirror argument: t is the only producer of q, and a consumer v of q
        in N' is t then v in N. Delaying each t of an unsafe run of N until
        the firing that consumes its token on q keeps t's inputs marked
        longer, so the run either reaches the same end or double-marks one
        of t's inputs sooner. This is Murata's fusion of series places and
        transitions (Proc. IEEE, 1989), with a silent transition in the
        series.
      * bypass (silent t: p -> q, copies c_p of the consumers c of q)
        preserves it: a firing of c_p in N' is t then c in N, so N' reaches
        no marking N does not. It does not reflect it. In N, p and q may be
        marked together, and then t double-marks q; N' has no t, and when a
        consumer c of q takes a second place r as well, c and c_p compete
        for the token on r, so N' need never double-mark anything.
        Validated models give every labelled transition one input
        (`validate_model` refuses implicit joins), but fuse-post hands a
        labelled transition the inputs of the parallel join fused into it:
        a parallel split P to A, B and E, with A -> xor X1 -> (xor X2 | C),
        B -> X2, and X2 and E -> parallel join J -> D, is unsafe (P, A, B,
        tau_X1__X2), while its reduced net, where D takes X2 and D__via_X1
        takes X1, each with the token from E, is safe.
    So the fused net is 1-safe iff the input net is, and a 1-safe net reduces
    to a 1-safe net. Fuse-pre's argument never reads the label of t, so it
    holds for every row of the label-blind copy: the series net is 1-safe iff
    the fused net is. Fuse-pre folds each chain of tasks into the firing that
    starts it, so the series net does not interleave the chains of parallel
    branches, which is where most of the fused net's markings come from.
    STATE_BOUND here counts the series net's markings. A firing of the series
    net is a run of the fused net, so each marking it reaches is one the
    fused net reaches with the folded places empty. When the input net is
    safe, every marking the fused net reaches is one it reaches, so the
    series net passes STATE_BOUND only where the input net does too: the
    verdict a refusal names is never SafeOk.

    The rules rewrite list copies of the rows of `net`, which stays as it
    was: `check_safeness` walks it to name the verdict of a refusal, and
    only then. The reduced places are the input places without the deleted
    ones, in order, and the reduced masks are compacted to them once, at the
    end, into tuple rows.
    """
    rows = [list(row) for row in net.rows]
    gone = _rewrite(rows, net, _FUSIONS)
    series = [[None, consume, produce, None] for _, consume, produce, _ in rows]
    _rewrite(series, net, (_rule_fuse_pre,))
    verdict = _explore({net.initial: net.initial}, [(r[1], r[2]) for r in series], STATE_BOUND)
    if not isinstance(verdict, SafeOk):
        raise ValueError(f"model is not compilable: {check_safeness(net)}")
    gone |= _rewrite(rows, net, _RULES)

    # Each kept place's bit moves down past the deleted places below it.
    kept = [i for i in range(len(net.places)) if not gone >> i & 1]
    moved = {1 << i: 1 << j for j, i in enumerate(kept)}

    def compact(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= moved[low]
            mask ^= low
        return out

    return NetRows(tuple(net.places[i] for i in kept), compact(net.initial), compact(net.final),
                   tuple((tid, compact(consume), compact(produce), label)
                         for tid, consume, produce, label in rows))


def _place(net: NetRows, bit: int) -> str:
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
    if not _single(p) or p & (net.initial | net.final | produce):
        return None
    # One pass: t must be p's only consumer, and since p is not in
    # `produce`, a producer's outputs besides p meet t's iff r[2] & produce.
    prods = []
    for r in rows:
        if r[1] & p and r is not t:
            return None
        if r[2] & p:
            if r[2] & produce:
                return None
            prods.append(r)
    for u in prods:
        u[2] = u[2] & ~p | produce
    del rows[i]
    return p


def _rule_fuse_post(i, rows, net) -> int | None:
    _, consume, q, _ = t = rows[i]
    if not _single(q) or q & (net.initial | net.final | consume):
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
    if not (_single(p) and _single(q)) or p == q or q & net.final:
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


_FUSIONS = (_rule_noop, _rule_fuse_pre, _rule_fuse_post)
_RULES = (*_FUSIONS, _rule_bypass)


def _rewrite(rows, net, rules) -> int:
    """Apply `rules` to a fixpoint; the mask of every place they deleted."""
    gone = 0
    while (deleted := _rewrite_once(rows, net, rules)) is not None:
        gone |= deleted
    return gone


def _rewrite_once(rows, net, rules) -> int | None:
    """Apply the first of `rules`, in order, that fires on the first silent
    row any of them fires on, and return the mask of the places it deleted;
    None when none fires. Each rewrite restarts the scan from the first
    row; the compiled layout depends on this order."""
    for i, row in enumerate(rows):
        if row[3] is None:
            for rule in rules:
                if (deleted := rule(i, rows, net)) is not None:
                    return deleted
    return None


def check_safeness(net: NetRows, state_bound: int = STATE_BOUND) -> SafenessResult:
    """Exhaustively explore reachable markings breadth first, one level at a
    time, trying each marking's transitions in net order.

    Returns a witness firing sequence as soon as a firing would put a second
    token on a place, naming the first such place in `net.places` order;
    returns BoundExceeded when more than `state_bound` markings exist. The
    walk keeps only each marking's parent marking; the rare witness is
    rebuilt from those afterwards.
    """
    parents: dict[int, int] = {net.initial: net.initial}
    verdict = _explore(parents, [(consume, produce) for _, consume, produce, _ in net.rows],
                       state_bound)
    if not isinstance(verdict, tuple):
        return verdict
    marking, (consume, produce) = verdict
    double = marking & ~consume & produce
    return UnsafeWitness(
        firing_sequence=_witness(net, parents, marking, (consume, produce)),
        place=_place(net, double & -double),
    )


def _explore(parents: dict[int, int], masks, state_bound: int):
    """check_safeness's walk over (consume, produce) masks from the one
    marking in `parents`, recording each new marking's parent there: SafeOk,
    BoundExceeded, or the (marking, masks) of the first unsafe firing."""
    level = list(parents)
    while level:
        frontier, level = level, []
        for marking in frontier:
            for consume, produce in masks:
                if marking & consume != consume:
                    continue
                rest = marking ^ consume
                if rest & produce:
                    return marking, (consume, produce)
                nxt = rest | produce
                if nxt in parents:
                    continue
                if len(parents) >= state_bound:
                    return BoundExceeded(explored=len(parents))
                parents[nxt] = marking
                level.append(nxt)
    return SafeOk(explored=len(parents))


def _witness(
    net: NetRows, parents: dict[int, int], marking: int, last: tuple[int, int]
) -> tuple[str, ...]:
    """The firing sequence check_safeness took to `marking`, then the unsafe
    firing of the transition with masks `last`, each named by its row id.

    The walk recorded each parent -> child edge at the first transition in
    net order that fires it, so that is the one named here. An earlier
    transition with masks `last` would have been unsafe first, so the first
    one with those masks is the one the walk was at.
    """
    path = [marking]
    while path[-1] != net.initial:
        path.append(parents[path[-1]])
    path.reverse()
    seq = [
        next(tid for tid, consume, produce, _ in net.rows
             if src & consume == consume and src ^ consume | produce == dst)
        for src, dst in zip(path, path[1:])
    ]
    seq.append(next(tid for tid, consume, produce, _ in net.rows if (consume, produce) == last))
    return tuple(seq)


def _language_view(x: NetRows | ProcessStateMachine):
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

    silent = [(consume, produce) for _, consume, produce, label in x.rows if label is None]
    labelled = [(label.task_id, consume, produce)
                for _, consume, produce, label in x.rows if label is not None]

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
        return any(m & x.final and not m & ~x.final for m in det)

    def net_moves(det: frozenset[int]) -> dict[str, frozenset[int]]:
        fired: dict[str, list[int]] = {}
        for task, consume, produce in labelled:
            for m in det:
                if m & consume == consume:
                    fired.setdefault(task, []).append(m & ~consume | produce)
        return {task: close(ms) for task, ms in fired.items()}

    return close([x.initial]), completed, net_moves


def traces_equivalent(
    a: NetRows | ProcessStateMachine,
    b: NetRows | ProcessStateMachine,
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


def to_pnml(net: NetRows) -> bytes:
    """Dump the net in PNML for inspection with standard Petri-net tooling."""
    pnml = ET.Element("pnml")
    page = ET.SubElement(
        ET.SubElement(pnml, "net", {"id": "net0", "type": "http://www.pnml.org/version-2009/grammar/ptnet"}),
        "page",
        {"id": "page0"},
    )
    initial = _place(net, net.initial)
    for pid in net.places:
        place = ET.SubElement(page, "place", {"id": pid})
        if pid == initial:
            ET.SubElement(ET.SubElement(place, "initialMarking"), "text").text = "1"
    for tid, _, _, label in net.rows:
        trans = ET.SubElement(page, "transition", {"id": tid})
        if label is not None:
            ET.SubElement(ET.SubElement(trans, "name"), "text").text = label.task_id
    arc_n = 0
    for tid, consume, produce, _ in net.rows:
        for p in _sorted_names(net, consume):
            ET.SubElement(page, "arc", {"id": f"a{arc_n}", "source": p, "target": tid})
            arc_n += 1
        for p in _sorted_names(net, produce):
            ET.SubElement(page, "arc", {"id": f"a{arc_n}", "source": tid, "target": p})
            arc_n += 1
    return ET.tostring(pnml, encoding="utf-8", xml_declaration=True)


def _sorted_names(net: NetRows, mask: int) -> list[str]:
    """The names of the places in `mask`, found by walking its bits, sorted."""
    names = []
    while mask:
        low = mask & -mask
        names.append(_place(net, low))
        mask ^= low
    return sorted(names)
