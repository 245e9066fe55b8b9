import hashlib

import pytest

from choreochannel.bpmn import validate_model
from choreochannel.cases import CASES, build_nets
from choreochannel.machine import TaskRequest, compile_state_machine, enabled_tasks, is_end_state, step
from choreochannel.petri import (
    BoundExceeded,
    InteractionNet,
    NetTransition,
    SafeOk,
    StateSpaceError,
    TaskLabel,
    UnsafeWitness,
    check_safeness,
    reduce_net,
    to_interaction_net,
    to_pnml,
    traces_equivalent,
)
from choreochannel.randmodel import random_model
from util import (
    autonomous_leftover_model,
    chain_net,
    exclusive_model,
    loop_model,
    minimal_model,
    parallel_model,
)


def test_one_task_net_shape():
    net = to_interaction_net(minimal_model())
    assert set(net.places) == {"start", "end"}
    (t,) = net.transitions
    assert t.label == TaskLabel("greet", "a", "b")
    assert t.inputs == frozenset({"start"})
    assert t.outputs == frozenset({"end"})
    assert net.initial_place == "start"
    assert net.final_places == frozenset({"end"})


def test_parallel_net_pre_reduction():
    net = to_interaction_net(parallel_model())
    silents = [t for t in net.transitions if t.silent]
    labelled = [t for t in net.transitions if not t.silent]
    assert len(silents) == 2  # one split, one join
    assert len(labelled) == 2
    split = next(t for t in silents if len(t.outputs) == 2)
    join = next(t for t in silents if len(t.inputs) == 2)
    assert split is not join


def test_exclusive_net_shares_place_without_silents():
    net = to_interaction_net(exclusive_model())
    assert net.silent_count() == 0
    yes = next(t for t in net.transitions if t.label.task_id == "yes")
    no = next(t for t in net.transitions if t.label.task_id == "no")
    assert yes.inputs == no.inputs and len(yes.inputs) == 1
    assert yes.outputs == no.outputs


def test_single_initial_token_invariant():
    for model in (minimal_model(), parallel_model(), exclusive_model(), loop_model()):
        net = to_interaction_net(model)
        assert net.initial_place in net.places


def test_rejects_invalid_model():
    model = minimal_model()
    broken = model.__class__(
        roles=model.roles, tasks=model.tasks, gateways=(),
        start_event="start", end_events=(), flows=model.flows,
    )
    assert validate_model(broken) != []
    with pytest.raises(ValueError):
        to_interaction_net(broken)


def test_reduce_fuses_sequential_silent():
    # Hand-built: start -> a -> p1 -> tau -> p2 -> b -> end
    net = InteractionNet(
        places=("start", "p1", "p2", "end"),
        transitions=(
            NetTransition("a", frozenset({"start"}), frozenset({"p1"}), TaskLabel("a", "x", "y")),
            NetTransition("tau", frozenset({"p1"}), frozenset({"p2"}), None),
            NetTransition("b", frozenset({"p2"}), frozenset({"end"}), TaskLabel("b", "y", "x")),
        ),
        initial_place="start",
        final_places=frozenset({"end"}),
    )
    reduced = reduce_net(net)
    assert reduced.silent_count() == 0
    assert len(reduced.places) == 3
    assert traces_equivalent(net, reduced, 6)


def test_reduce_drops_noop_silent():
    net = InteractionNet(
        places=("start", "end"),
        transitions=(
            NetTransition("loop", frozenset({"start"}), frozenset({"start"}), None),
            NetTransition("a", frozenset({"start"}), frozenset({"end"}), TaskLabel("a", "x", "y")),
        ),
        initial_place="start",
        final_places=frozenset({"end"}),
    )
    reduced = reduce_net(net)
    assert reduced.silent_count() == 0
    assert traces_equivalent(net, reduced, 4)


@pytest.mark.parametrize("case", CASES)
def test_reduce_idempotent_on_fixtures(case):
    _, reduced = build_nets(case)
    assert reduce_net(reduced) == reduced


@pytest.mark.parametrize("case", CASES)
def test_reduce_preserves_traces_on_fixtures(case):
    net, reduced = build_nets(case)
    assert reduced.silent_count() <= net.silent_count()
    assert traces_equivalent(net, reduced, 12)


def test_reduce_never_removes_labelled():
    for model in (minimal_model(), parallel_model(), exclusive_model(), loop_model()):
        net = to_interaction_net(model)
        reduced = reduce_net(net)
        original_labels = sorted(t.label.task_id for t in net.transitions if not t.silent)
        surviving = {t.label.task_id for t in reduced.transitions if not t.silent}
        assert set(original_labels) <= surviving


def test_loop_reduction_keeps_language():
    net = to_interaction_net(loop_model())
    reduced = reduce_net(net)
    assert traces_equivalent(net, reduced, 9)
    machine = compile_state_machine(reduced)
    # The loop body runs at least once.
    assert ("done", "a") not in enabled_tasks(machine, machine.initial_state)
    for trace in (("work", "done"), ("work", "work", "work", "done")):
        state = machine.initial_state
        for task_id in trace:
            state = step(machine, state, TaskRequest(task_id, "a"))
        assert is_end_state(machine, state)


def test_net_equivalent_to_itself():
    net, _ = build_nets("supply_chain")
    assert traces_equivalent(net, net, 12)


def test_deleted_transition_breaks_equivalence():
    _, reduced = build_nets("incident_management")
    broken = InteractionNet(
        places=reduced.places,
        transitions=tuple(t for t in reduced.transitions if t.id != "explain_solution"),
        initial_place=reduced.initial_place,
        final_places=reduced.final_places,
    )
    assert not traces_equivalent(reduced, broken, 12)


def test_leftover_token_breaks_equivalence():
    # Same traces, but a token left on "junk" means the case never completes.
    def net(outputs):
        return InteractionNet(
            places=("start", "end", "junk"),
            transitions=(NetTransition("a", frozenset({"start"}), outputs, TaskLabel("a", "x", "y")),),
            initial_place="start",
            final_places=frozenset({"end"}),
        )

    clean, leftover = net(frozenset({"end"})), net(frozenset({"end", "junk"}))
    assert traces_equivalent(clean, compile_state_machine(clean), 2)
    assert not traces_equivalent(clean, leftover, 2)
    assert not traces_equivalent(clean, compile_state_machine(leftover), 2)


def test_safeness_minimal_ok():
    verdict = check_safeness(to_interaction_net(minimal_model()))
    assert isinstance(verdict, SafeOk)


def test_safeness_unmatched_split_witness():
    # Parallel split without a join, looped: the second lap double-marks p2.
    net = InteractionNet(
        places=("p0", "p1", "p2"),
        transitions=(
            NetTransition("split", frozenset({"p0"}), frozenset({"p1", "p2"}), None),
            NetTransition("back", frozenset({"p1"}), frozenset({"p0"}), TaskLabel("back", "a", "b")),
        ),
        initial_place="p0",
        final_places=frozenset({"p2"}),
    )
    verdict = check_safeness(net)
    assert isinstance(verdict, UnsafeWitness)
    assert verdict.place == "p2"
    assert verdict.firing_sequence == ("split", "back", "split")


def test_safeness_witness_names_first_double_marked_place():
    # The second split double-marks p2 and p3 at once; p2 comes first.
    net = InteractionNet(
        places=("p0", "p1", "p2", "p3"),
        transitions=(
            NetTransition("split", frozenset({"p0"}), frozenset({"p1", "p2", "p3"}), None),
            NetTransition("back", frozenset({"p1"}), frozenset({"p0"}), TaskLabel("back", "a", "b")),
        ),
        initial_place="p0",
        final_places=frozenset({"p2"}),
    )
    verdict = check_safeness(net)
    assert verdict == UnsafeWitness(firing_sequence=("split", "back", "split"), place="p2")


@pytest.mark.parametrize("case", CASES)
def test_safeness_fixtures(case):
    net, reduced = build_nets(case)
    assert isinstance(check_safeness(net), SafeOk)
    assert isinstance(check_safeness(reduced), SafeOk)


def test_safeness_bound_exceeded():
    net, _ = build_nets("supply_chain")
    verdict = check_safeness(net, state_bound=3)
    assert isinstance(verdict, BoundExceeded)
    assert verdict.explored == 3


def test_safeness_bound_equal_to_reachable_count():
    net, _ = build_nets("supply_chain")
    n = check_safeness(net).explored
    assert check_safeness(net, state_bound=n) == SafeOk(explored=n)
    assert check_safeness(net, state_bound=n - 1) == BoundExceeded(explored=n - 1)


def test_safeness_witness_through_marking_with_two_parents():
    # {p3} is reached from {p1} (by c) and from {p2} (by d); the breadth-first
    # walk reaches it from {p1} first, so the witness goes a, c. The join
    # before c would also turn {p1} into {p3}, but it is never enabled.
    def t(tid, ins, outs):
        return NetTransition(tid, frozenset(ins), frozenset(outs), TaskLabel(tid, "x", "y"))

    net = InteractionNet(
        places=("p0", "p1", "p2", "p3", "p4", "p5"),
        transitions=(
            t("a", {"p0"}, {"p1"}),
            t("b", {"p0"}, {"p2"}),
            t("d", {"p2"}, {"p3"}),
            t("join", {"p1", "p2"}, {"p3"}),
            t("c", {"p1"}, {"p3"}),
            t("e", {"p3"}, {"p4", "p5"}),
            t("f", {"p4"}, {"p3"}),
        ),
        initial_place="p0",
        final_places=frozenset({"p5"}),
    )
    assert check_safeness(net) == UnsafeWitness(firing_sequence=("a", "c", "e", "f", "e"), place="p5")


def test_safeness_witness_names_first_of_equal_transitions():
    # Each twin has the same masks as the transition before it; the witness
    # names the one that comes first in net order at every step.
    net = InteractionNet(
        places=("p0", "p1", "p2"),
        transitions=(
            NetTransition("split", frozenset({"p0"}), frozenset({"p1", "p2"}), None),
            NetTransition("split_twin", frozenset({"p0"}), frozenset({"p1", "p2"}), None),
            NetTransition("back", frozenset({"p1"}), frozenset({"p0"}), TaskLabel("back", "a", "b")),
            NetTransition("back_twin", frozenset({"p1"}), frozenset({"p0"}), TaskLabel("back", "a", "b")),
        ),
        initial_place="p0",
        final_places=frozenset({"p2"}),
    )
    assert check_safeness(net) == UnsafeWitness(firing_sequence=("split", "back", "split"), place="p2")


def test_exact_oracle_sees_past_any_depth_bound():
    # The two chains first differ at depth 13: one completes there, the
    # other still offers a task.
    short, longer = chain_net(14), chain_net(15)
    assert traces_equivalent(short, longer, 12)
    assert not traces_equivalent(short, longer, None)
    assert not traces_equivalent(compile_state_machine(short), longer, None)
    assert traces_equivalent(short, compile_state_machine(short), None)


def test_exact_oracle_ends_on_cyclic_nets():
    net = to_interaction_net(loop_model())
    assert traces_equivalent(net, reduce_net(net), None)
    assert traces_equivalent(net, compile_state_machine(reduce_net(net)), None)


def test_reduction_exactly_preserves_language_over_random_models():
    # No depth bound: reduction keeps the full trace and completed-trace
    # languages of every safe model, default size seeds 0-999 and the
    # larger size seeds 0-299.
    for size, seeds in (({}, range(1000)), ({"max_tasks": 12, "max_depth": 4}, range(300))):
        for seed in seeds:
            net = to_interaction_net(random_model(seed, **size))
            assert isinstance(check_safeness(net), SafeOk), (seed, size)
            assert traces_equivalent(net, reduce_net(net), None), (seed, size)


def test_equivalence_node_budget():
    net, _ = build_nets("supply_chain")
    with pytest.raises(StateSpaceError):
        traces_equivalent(net, net, 12, node_budget=5)


def test_autonomous_leftover_net():
    net = to_interaction_net(autonomous_leftover_model())
    reduced = reduce_net(net)
    assert reduced.silent_count() == 1  # the join before the end event
    assert traces_equivalent(net, reduced, 8)


def test_pnml_dump():
    _, reduced = build_nets("incident_management")
    blob = to_pnml(reduced)
    assert blob.startswith(b"<?xml")
    assert b"<pnml>" in blob and b"transition" in blob


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_random_pipeline_property(seed):
    model = random_model(seed)
    assert validate_model(model) == []
    net = to_interaction_net(model)
    assert isinstance(check_safeness(net), SafeOk)
    reduced = reduce_net(net)
    assert reduce_net(reduced) == reduced
    assert traces_equivalent(net, reduced, 10)


# The five models at the larger size whose state space exceeds the bound.
PINNED_MODELS = [(seed, {}) for seed in range(300)] + [
    (seed, {"max_tasks": 12, "max_depth": 4})
    for seed in (*range(300), 1133, 1264, 1510, 2324, 2583)
]


def net_shape(net: InteractionNet) -> str:
    """A net's places, transition ids, sorted arcs, labels and final places."""
    arcs = sorted([(p, t.id) for t in net.transitions for p in t.inputs]
                  + [(t.id, p) for t in net.transitions for p in t.outputs])
    return repr((net.places, [t.id for t in net.transitions], arcs,
                 [t.label for t in net.transitions], sorted(net.final_places)))


def explorer_digest() -> str:
    """Digest of every safeness verdict, and for each safe net of the reduced
    net and the reduction's equivalence verdict, over PINNED_MODELS."""
    digest = hashlib.sha256()
    for seed, size in PINNED_MODELS:
        net = to_interaction_net(random_model(seed, **size))
        verdict = check_safeness(net)
        line = f"{seed} {size} {verdict!r}"
        if isinstance(verdict, SafeOk):
            reduced = reduce_net(net)
            line += f" {traces_equivalent(net, reduced, 10)} {net_shape(reduced)}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_explorers_pinned_over_random_models():
    assert explorer_digest() == "ac7180f62546b19d9adfd8882c1984bfdb34e4e242aab074d7fd5d39b116178a"
