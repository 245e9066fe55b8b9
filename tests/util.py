"""Shared model builders, call counters, hand-built wire bytes and handler-thread
checks for the test suite."""

from __future__ import annotations

import random
import struct
import threading
import time

from hypothesis import strategies as st

from choreochannel import trigger, wire
from choreochannel.bpmn import (
    ChoreographyModel,
    ChoreographyTask,
    Gateway,
    GatewayKind,
    Role,
    validate_model,
)
from choreochannel.cases import CASES, load_model
from choreochannel.httpd import HANDLER_THREAD
from choreochannel.petri import NetRows, TaskLabel
from choreochannel.randmodel import random_model

ROLES_AB = (Role("a", "A"), Role("b", "B"))


def named_net(places, transitions, initial: str, final) -> NetRows:
    """A net built from place names: `transitions` holds (id, input places,
    output places, label) in net order, and bit i is the i-th place."""
    bit = {p: 1 << i for i, p in enumerate(places)}

    def mask(names) -> int:
        m = 0
        for p in names:
            m |= bit[p]
        return m

    return NetRows(tuple(places), bit[initial], mask(final), tuple(
        (tid, mask(inputs), mask(outputs), label) for tid, inputs, outputs, label in transitions))


def place_names(net: NetRows, mask: int) -> frozenset[str]:
    """The names of the places in `mask`."""
    return frozenset(p for i, p in enumerate(net.places) if mask >> i & 1)


def chain_net(place_count: int) -> NetRows:
    """A net of `place_count - 1` tasks in sequence, one per pair of places."""
    places = [f"p{i}" for i in range(place_count)]
    return named_net(places, [(f"t{i}", {a}, {b}, TaskLabel(f"t{i}", "a", "b"))
                              for i, (a, b) in enumerate(zip(places, places[1:]))],
                     places[0], {places[-1]})


def pipeline_models() -> list[tuple[str, ChoreographyModel]]:
    """Models that take every path through the compile pipeline: random
    models 0-149 at default size and at max_tasks=12, max_depth=4 (two of
    them run past the autonomous firing budget), the unstructured draws of
    seeds 0-5999 (112 are unsafe), models whose net would repeat a name or
    is unsafe, and both fixtures."""
    models = [(f"random {seed} {size}", random_model(seed, **size))
              for size in ({}, {"max_tasks": 12, "max_depth": 4}) for seed in range(150)]
    models += [(f"unstructured {seed}", m) for seed in range(6000) if (m := unstructured_model(seed))]
    models += [(build.__name__, build()) for build in (
        merge_into_join_model, place_named_like_flow_model, task_named_like_silent_model)]
    return models + [(case, load_model(case)) for case in CASES]


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


def xor_into_task_model() -> ChoreographyModel:
    """start -> xor x -> (A | B) -> C -> end: task C has two incoming flows,
    an implicit join, which validate_model refuses."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks("A", "B", "C"),
        gateways=(Gateway("x", GatewayKind.EXCLUSIVE),),
        start_event="start",
        end_events=("end",),
        flows=(("start", "x"), ("x", "A"), ("x", "B"), ("A", "C"), ("B", "C"), ("C", "end")),
    )


def task_split_model() -> ChoreographyModel:
    """start -> fork -> (left, right) -> parallel join -> end: task fork has
    two outgoing flows, BPMN's implicit parallel split."""
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks("fork", "left", "right"),
        gateways=(Gateway("join", GatewayKind.PARALLEL),),
        start_event="start",
        end_events=("end",),
        flows=(("start", "fork"), ("fork", "left"), ("fork", "right"),
               ("left", "join"), ("right", "join"), ("join", "end")),
    )


def _split_and_merge_model(join_gateway: bool) -> ChoreographyModel:
    """Parallel split P to A, B and E; A -> xor X1 -> (xor X2 | C -> end1);
    B -> X2; X2 and E both flow into D -> end2, through a parallel join J
    when `join_gateway`, else straight into D. The net is unsafe: after P, A
    and B, the silent X1 -> X2 puts a second token on X2."""
    gateways = (Gateway("P", GatewayKind.PARALLEL), Gateway("X1", GatewayKind.EXCLUSIVE),
                Gateway("X2", GatewayKind.EXCLUSIVE))
    flows = (("start", "P"), ("P", "A"), ("P", "B"), ("P", "E"), ("A", "X1"), ("X1", "X2"),
             ("X1", "C"), ("C", "end1"), ("B", "X2"), ("D", "end2"))
    if join_gateway:
        gateways += (Gateway("J", GatewayKind.PARALLEL),)
        flows += (("X2", "J"), ("E", "J"), ("J", "D"))
    else:
        flows += (("X2", "D"), ("E", "D"))
    return ChoreographyModel(roles=ROLES_AB, tasks=_tasks("A", "B", "C", "D", "E"),
                             gateways=gateways, start_event="start",
                             end_events=("end1", "end2"), flows=flows)


def merge_into_task_model() -> ChoreographyModel:
    """The unsafe split-and-merge model with X2 and E flowing straight into
    task D, an implicit join."""
    return _split_and_merge_model(join_gateway=False)


def merge_into_join_model() -> ChoreographyModel:
    """The unsafe split-and-merge model with X2 and E joined by a parallel
    gateway in front of D; valid, and its fully reduced net is safe."""
    return _split_and_merge_model(join_gateway=True)


def wide_parallel_model(branches: int, length: int) -> ChoreographyModel:
    """start -> parallel split -> `branches` chains of `length` tasks
    (b<i>_<j>, a to b) -> parallel join -> end. Its net reaches
    (length + 1) ** branches + 2 markings, one per interleaving state of
    the chains, plus the start and the end."""
    chains = [[f"b{i}_{j}" for j in range(length)] for i in range(branches)]
    flows = [("start", "split"), ("join", "end")]
    for chain in chains:
        flows += [("split", chain[0]), *zip(chain, chain[1:]), (chain[-1], "join")]
    return ChoreographyModel(
        roles=ROLES_AB,
        tasks=_tasks(*(tid for chain in chains for tid in chain)),
        gateways=(Gateway("split", GatewayKind.PARALLEL), Gateway("join", GatewayKind.PARALLEL)),
        start_event="start",
        end_events=("end",),
        flows=tuple(flows),
    )


def unstructured_model(seed: int) -> ChoreographyModel | None:
    """A random unstructured model, deterministic per seed, or None when the
    draw repeats a flow or validate_model refuses it.

    2-6 tasks take one flow in and one or two out (two is an implicit
    parallel split); 1-3 split gateways take one in and two or three out,
    and up to as many join gateways two in and one out, each of random
    kind; as many end events as are needed take the flows left over. Out-
    and in-stubs are matched at random, so a draw can hold cycles, unsafe
    splits and dead ends."""
    rng = random.Random(seed)
    kinds = tuple(GatewayKind)
    tasks = tuple(ChoreographyTask(f"t{i}", f"t{i}", *("ab" if i % 2 else "ba"))
                  for i in range(rng.randint(2, 6)))
    splits = tuple(Gateway(f"s{i}", rng.choice(kinds)) for i in range(rng.randint(1, 3)))
    joins = tuple(Gateway(f"j{i}", rng.choice(kinds)) for i in range(rng.randint(0, len(splits))))
    outs = ["start", *(t.id for t in tasks for _ in range(rng.choice((1, 1, 1, 2))))]
    outs += [g.id for g in splits for _ in range(rng.randint(2, 3))] + [g.id for g in joins]
    ins = [t.id for t in tasks] + [g.id for g in splits] + [g.id for g in joins for _ in range(2)]
    ends = tuple(f"end{i}" for i in range(len(outs) - len(ins)))
    ins += ends
    rng.shuffle(ins)
    flows = tuple(zip(outs, ins))
    model = ChoreographyModel(roles=ROLES_AB, tasks=tasks, gateways=splits + joins,
                              start_event="start", end_events=ends, flows=flows)
    if len(set(flows)) < len(flows) or validate_model(model):
        return None
    return model


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


def handler_threads() -> list[threading.Thread]:
    """Every live connection-handler thread of every served node, busy or idle."""
    return [t for t in threading.enumerate() if t.name == HANDLER_THREAD]


def assert_handler_threads_end() -> None:
    """Wait until no handler thread is alive; fail after 10 s."""
    deadline = time.monotonic() + 10
    while alive := handler_threads():
        assert time.monotonic() < deadline, alive
        time.sleep(0.01)
