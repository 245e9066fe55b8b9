import hashlib
import re

import pytest

from choreochannel import petri
from choreochannel.bpmn import validate_model
from choreochannel.cases import CASES, build_nets, load_model
from choreochannel.machine import TaskRequest, compile_state_machine, enabled_tasks, is_end_state, step
from choreochannel.petri import (
    BoundExceeded,
    NetRows,
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
    merge_into_join_model,
    merge_into_task_model,
    minimal_model,
    named_net,
    parallel_model,
    place_names,
    unstructured_model,
)


def silent_rows(net: NetRows) -> int:
    return sum(1 for *_, label in net.rows if label is None)


def test_one_task_net_shape():
    net = to_interaction_net(minimal_model())
    assert set(net.places) == {"start", "end"}
    ((_, consume, produce, label),) = net.rows
    assert label == TaskLabel("greet", "a", "b")
    assert place_names(net, consume) == {"start"}
    assert place_names(net, produce) == {"end"}
    assert place_names(net, net.initial) == {"start"}
    assert place_names(net, net.final) == {"end"}


def test_parallel_net_pre_reduction():
    net = to_interaction_net(parallel_model())
    silents = [row for row in net.rows if row[3] is None]
    labelled = [row for row in net.rows if row[3] is not None]
    assert len(silents) == 2  # one split, one join
    assert len(labelled) == 2
    split = next(row for row in silents if len(place_names(net, row[2])) == 2)
    join = next(row for row in silents if len(place_names(net, row[1])) == 2)
    assert split is not join


def test_exclusive_net_shares_place_without_silents():
    net = to_interaction_net(exclusive_model())
    assert silent_rows(net) == 0
    _, yes_in, yes_out, _ = next(row for row in net.rows if row[3].task_id == "yes")
    _, no_in, no_out, _ = next(row for row in net.rows if row[3].task_id == "no")
    assert yes_in == no_in and len(place_names(net, yes_in)) == 1
    assert yes_out == no_out


def test_single_initial_token_invariant():
    for model in (minimal_model(), parallel_model(), exclusive_model(), loop_model()):
        net = to_interaction_net(model)
        assert len(place_names(net, net.initial)) == net.initial.bit_count() == 1


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
    net = named_net(("start", "p1", "p2", "end"), [
        ("a", {"start"}, {"p1"}, TaskLabel("a", "x", "y")),
        ("tau", {"p1"}, {"p2"}, None),
        ("b", {"p2"}, {"end"}, TaskLabel("b", "y", "x")),
    ], "start", {"end"})
    reduced = reduce_net(net)
    assert silent_rows(reduced) == 0
    assert len(reduced.places) == 3
    assert traces_equivalent(net, reduced, 6)


def test_reduce_drops_noop_silent():
    net = named_net(("start", "end"), [
        ("loop", {"start"}, {"start"}, None),
        ("a", {"start"}, {"end"}, TaskLabel("a", "x", "y")),
    ], "start", {"end"})
    reduced = reduce_net(net)
    assert silent_rows(reduced) == 0
    assert traces_equivalent(net, reduced, 4)


@pytest.mark.parametrize("case", CASES)
def test_reduce_idempotent_on_fixtures(case):
    _, reduced = build_nets(case)
    assert reduce_net(reduced) == reduced


@pytest.mark.parametrize("case", CASES)
def test_reduce_preserves_traces_on_fixtures(case):
    net, reduced = build_nets(case)
    assert silent_rows(reduced) <= silent_rows(net)
    assert traces_equivalent(net, reduced, 12)


def test_reduce_never_removes_labelled():
    for model in (minimal_model(), parallel_model(), exclusive_model(), loop_model()):
        net = to_interaction_net(model)
        reduced = reduce_net(net)
        original_labels = sorted(label.task_id for *_, label in net.rows if label is not None)
        surviving = {label.task_id for *_, label in reduced.rows if label is not None}
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
    broken = reduced._replace(rows=tuple(row for row in reduced.rows if row[0] != "explain_solution"))
    assert not traces_equivalent(reduced, broken, 12)


def test_leftover_token_breaks_equivalence():
    # Same traces, but a token left on "junk" means the case never completes.
    def net(outputs):
        return named_net(("start", "end", "junk"), [("a", {"start"}, outputs, TaskLabel("a", "x", "y"))],
                         "start", {"end"})

    clean, leftover = net({"end"}), net({"end", "junk"})
    assert traces_equivalent(clean, compile_state_machine(clean), 2)
    assert not traces_equivalent(clean, leftover, 2)
    assert not traces_equivalent(clean, compile_state_machine(leftover), 2)


def test_safeness_minimal_ok():
    verdict = check_safeness(to_interaction_net(minimal_model()))
    assert isinstance(verdict, SafeOk)


def test_safeness_unmatched_split_witness():
    # Parallel split without a join, looped: the second lap double-marks p2.
    net = named_net(("p0", "p1", "p2"), [
        ("split", {"p0"}, {"p1", "p2"}, None),
        ("back", {"p1"}, {"p0"}, TaskLabel("back", "a", "b")),
    ], "p0", {"p2"})
    verdict = check_safeness(net)
    assert isinstance(verdict, UnsafeWitness)
    assert verdict.place == "p2"
    assert verdict.firing_sequence == ("split", "back", "split")


def test_safeness_witness_names_first_double_marked_place():
    # The second split double-marks p2 and p3 at once; p2 comes first.
    net = named_net(("p0", "p1", "p2", "p3"), [
        ("split", {"p0"}, {"p1", "p2", "p3"}, None),
        ("back", {"p1"}, {"p0"}, TaskLabel("back", "a", "b")),
    ], "p0", {"p2"})
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
        return tid, ins, outs, TaskLabel(tid, "x", "y")

    net = named_net(("p0", "p1", "p2", "p3", "p4", "p5"), [
        t("a", {"p0"}, {"p1"}),
        t("b", {"p0"}, {"p2"}),
        t("d", {"p2"}, {"p3"}),
        t("join", {"p1", "p2"}, {"p3"}),
        t("c", {"p1"}, {"p3"}),
        t("e", {"p3"}, {"p4", "p5"}),
        t("f", {"p4"}, {"p3"}),
    ], "p0", {"p5"})
    assert check_safeness(net) == UnsafeWitness(firing_sequence=("a", "c", "e", "f", "e"), place="p5")


def test_safeness_witness_names_first_of_equal_transitions():
    # Each twin has the same masks as the transition before it; the witness
    # names the one that comes first in net order at every step.
    net = named_net(("p0", "p1", "p2"), [
        ("split", {"p0"}, {"p1", "p2"}, None),
        ("split_twin", {"p0"}, {"p1", "p2"}, None),
        ("back", {"p1"}, {"p0"}, TaskLabel("back", "a", "b")),
        ("back_twin", {"p1"}, {"p0"}, TaskLabel("back", "a", "b")),
    ], "p0", {"p2"})
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


@pytest.mark.slow
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
    assert silent_rows(reduced) == 1  # the join before the end event
    assert traces_equivalent(net, reduced, 8)


def test_pnml_dump():
    _, reduced = build_nets("incident_management")
    blob = to_pnml(reduced)
    assert blob.startswith(b"<?xml")
    assert b"<pnml>" in blob and b"transition" in blob


def test_pnml_bytes_pinned_over_fixtures_and_random_models():
    # The original and the reduced net of each model; the random ones have
    # bypass copies (`__via_`) and transitions with several input or output
    # places, whose arcs PNML lists in sorted place-name order.
    models = [load_model(case) for case in CASES]
    models += [random_model(seed, **size)
               for size in ({}, {"max_tasks": 12, "max_depth": 4}) for seed in range(50)]
    digest = hashlib.sha256()
    for model in models:
        net = to_interaction_net(model)
        digest.update(to_pnml(net))
        digest.update(to_pnml(reduce_net(net)))
    assert digest.hexdigest() == "469093414d08e8b54756b6e67bef3c8739a7b15ee7e4d1b955faa5e45b58031a"


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_random_pipeline_property(seed):
    model = random_model(seed)
    assert validate_model(model) == []
    net = to_interaction_net(model)
    assert isinstance(check_safeness(net), SafeOk)
    reduced = reduce_net(net)
    assert reduce_net(reduced) == reduced
    assert traces_equivalent(net, reduced, 10)


def test_reduce_net_refuses_exactly_the_unsafe_nets_over_random_models():
    # reduce_net decides 1-safeness on its fused net (see its docstring); it
    # must accept exactly the nets check_safeness finds SafeOk, and name the
    # original net's verdict when it refuses. Structured models at default
    # size (seeds 0-999) and at the larger size (0-299), and the unstructured
    # draws of seeds 0-5999 that validate.
    models = [(("default", seed), random_model(seed)) for seed in range(1000)]
    models += [(("large", seed), random_model(seed, max_tasks=12, max_depth=4))
               for seed in range(300)]
    models += [(("unstructured", seed), m) for seed in range(6000) if (m := unstructured_model(seed))]
    verdicts = set()
    for key, model in models:
        net = to_interaction_net(model)
        verdict = check_safeness(net)
        if isinstance(verdict, SafeOk):
            reduce_net(net)
        else:
            with pytest.raises(ValueError) as refused:
                reduce_net(net)
            assert str(refused.value) == f"model is not compilable: {verdict}", key
        verdicts.add((key[0], type(verdict)))
    assert verdicts == {("default", SafeOk), ("large", SafeOk),
                        ("unstructured", SafeOk), ("unstructured", UnsafeWitness)}


def test_implicit_join_probe_is_refused():
    # Task D with two incoming flows would let the bypass rule hide this
    # model's unsafeness; validate_model refuses it by name.
    with pytest.raises(ValueError, match="ImplicitJoin at D: task has 2 incoming flows"):
        to_interaction_net(merge_into_task_model())


@pytest.mark.parametrize("model", [merge_into_join_model, lambda: unstructured_model(5712)],
                         ids=["merge-into-join", "unstructured-5712"])
def test_deciding_safeness_after_bypass_would_accept_unsafe_nets(model, monkeypatch):
    # Valid models without implicit joins: fuse-post gives a task the inputs
    # of a parallel join, and bypass then hides the unsafe firing.
    net = to_interaction_net(model())
    verdict = check_safeness(net)
    assert isinstance(verdict, UnsafeWitness)
    with pytest.raises(ValueError, match=re.escape(f"model is not compilable: {verdict}")):
        reduce_net(net)
    monkeypatch.setattr(petri, "_FUSIONS", petri._RULES)
    assert isinstance(check_safeness(reduce_net(net)), SafeOk)


# The five models at the larger size whose state space exceeds the bound.
PINNED_MODELS = [(seed, {}) for seed in range(300)] + [
    (seed, {"max_tasks": 12, "max_depth": 4})
    for seed in (*range(300), 1133, 1264, 1510, 2324, 2583)
]


def net_shape(net: NetRows) -> str:
    """A net's places, transition ids, sorted arcs, labels and final places."""
    arcs = sorted([(p, tid) for tid, consume, _, _ in net.rows for p in place_names(net, consume)]
                  + [(tid, p) for tid, _, produce, _ in net.rows for p in place_names(net, produce)])
    return repr((net.places, [row[0] for row in net.rows], arcs, [row[3] for row in net.rows],
                 sorted(place_names(net, net.final))))


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


@pytest.mark.slow
def test_explorers_pinned_over_random_models():
    assert explorer_digest() == "ac7180f62546b19d9adfd8882c1984bfdb34e4e242aab074d7fd5d39b116178a"
