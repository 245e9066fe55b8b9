from dataclasses import replace

import pytest

from choreochannel.bpmn import (
    ChoreographyModel,
    ChoreographyTask,
    Diagnostic,
    Gateway,
    GatewayKind,
    ParseError,
    parse_choreography,
    serialize_choreography,
    validate_model,
)
from choreochannel.cases import CASES, fixture_bytes, load_model
from util import exclusive_model, minimal_model

MINIMAL_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<bpmn2:definitions xmlns:bpmn2="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">
  <bpmn2:choreography id="c">
    <bpmn2:participant id="a" name="A"/>
    <bpmn2:participant id="b" name="B"/>
    <bpmn2:startEvent id="start"/>
    <bpmn2:choreographyTask id="greet" name="Greet" initiatingParticipantRef="a">
      <bpmn2:participantRef>a</bpmn2:participantRef>
      <bpmn2:participantRef>b</bpmn2:participantRef>
    </bpmn2:choreographyTask>
    <bpmn2:endEvent id="end"/>
    <bpmn2:sequenceFlow id="f1" sourceRef="start" targetRef="greet"/>
    <bpmn2:sequenceFlow id="f2" sourceRef="greet" targetRef="end"/>
  </bpmn2:choreography>
</bpmn2:definitions>
"""


def test_parse_minimal():
    model = parse_choreography(MINIMAL_XML)
    assert len(model.roles) == 2
    assert len(model.tasks) == 1
    assert model.gateways == ()
    task = model.tasks[0]
    assert (task.id, task.initiator, task.respondent) == ("greet", "a", "b")
    assert model.start_event == "start"
    assert model.end_events == ("end",)


@pytest.mark.parametrize("case", CASES)
def test_parse_fixture(case):
    model = load_model(case)
    assert len(model.roles) == 5
    assert validate_model(model) == []


def test_supply_chain_shape():
    model = load_model("supply_chain")
    assert len(model.tasks) == 11
    kinds = [g.kind for g in model.gateways]
    assert kinds.count(GatewayKind.PARALLEL) == 2
    assert kinds.count(GatewayKind.EXCLUSIVE) == 4


def test_process_model_rejected():
    xml = b"""<?xml version="1.0"?>
    <definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">
      <process id="proc1"/>
    </definitions>"""
    with pytest.raises(ParseError) as err:
        parse_choreography(xml)
    assert "process" in str(err.value)
    assert err.value.element_id == "proc1"


def test_unsupported_element_named():
    xml = MINIMAL_XML.replace(
        b"<bpmn2:endEvent id=\"end\"/>",
        b"<bpmn2:endEvent id=\"end\"/><bpmn2:intermediateCatchEvent id=\"timer1\"/>",
    )
    with pytest.raises(ParseError) as err:
        parse_choreography(xml)
    assert err.value.element_id == "timer1"


def test_missing_initiator():
    xml = MINIMAL_XML.replace(b' initiatingParticipantRef="a"', b"")
    with pytest.raises(ParseError) as err:
        parse_choreography(xml)
    assert err.value.element_id == "greet"


def test_two_way_task_rejected():
    xml = MINIMAL_XML.replace(
        b"</bpmn2:choreographyTask>",
        b"<bpmn2:messageFlowRef>m1</bpmn2:messageFlowRef>"
        b"<bpmn2:messageFlowRef>m2</bpmn2:messageFlowRef></bpmn2:choreographyTask>",
    )
    with pytest.raises(ParseError):
        parse_choreography(xml)


def test_malformed_xml():
    with pytest.raises(ParseError):
        parse_choreography(b"<definitions><unclosed>")


def test_validate_minimal_ok():
    assert validate_model(minimal_model()) == []


def test_two_start_events_flagged():
    xml = MINIMAL_XML.replace(
        b'<bpmn2:startEvent id="start"/>',
        b'<bpmn2:startEvent id="start"/><bpmn2:startEvent id="start2"/>',
    )
    model = parse_choreography(xml)
    rules = [d.rule for d in validate_model(model)]
    assert "MultipleStartEvents" in rules


def test_unreachable_node_flagged():
    xml = MINIMAL_XML.replace(
        b"<bpmn2:endEvent",
        b"""<bpmn2:choreographyTask id="island" name="Island" initiatingParticipantRef="a">
          <bpmn2:participantRef>a</bpmn2:participantRef>
          <bpmn2:participantRef>b</bpmn2:participantRef>
        </bpmn2:choreographyTask>
        <bpmn2:endEvent""",
    )
    model = parse_choreography(xml)
    diags = validate_model(model)
    assert Diagnostic("UnreachableNode", "island", "not reachable from the start event") in diags


def test_mixed_gateway_flagged():
    base = exclusive_model()
    flows = base.flows + (("yes", "choice"),)  # choice now joins and splits
    model = base.__class__(
        roles=base.roles, tasks=base.tasks, gateways=base.gateways,
        start_event=base.start_event, end_events=base.end_events, flows=flows,
    )
    rules = [d.rule for d in validate_model(model)]
    assert "MixedGateway" in rules


def test_pass_through_gateway_flagged_whether_built_or_parsed():
    # One in-flow and one out-flow: neither a split nor a join.
    base = minimal_model()
    model = ChoreographyModel(
        roles=base.roles, tasks=base.tasks,
        gateways=(Gateway("g", GatewayKind.PARALLEL),),
        start_event="start", end_events=("end",),
        flows=(("start", "g"), ("g", "greet"), ("greet", "end")),
    )
    expected = Diagnostic("GatewayDegree", "g", "gateway has 1 in / 1 out flows")
    assert expected in validate_model(model)
    assert expected in validate_model(parse_choreography(serialize_choreography(model)))


def test_self_message_flagged():
    model = minimal_model()
    bad = model.tasks[0].__class__("greet", "Greet", "a", "a")
    model = model.__class__(
        roles=model.roles, tasks=(bad,), gateways=(),
        start_event="start", end_events=("end",), flows=model.flows,
    )
    rules = [d.rule for d in validate_model(model)]
    assert "SelfMessage" in rules


def test_unknown_role_flagged():
    model = minimal_model()
    bad = model.tasks[0].__class__("greet", "Greet", "a", "ghost")
    model = model.__class__(
        roles=model.roles, tasks=(bad,), gateways=(),
        start_event="start", end_events=("end",), flows=model.flows,
    )
    rules = [d.rule for d in validate_model(model)]
    assert "UnknownRole" in rules


@pytest.mark.parametrize("case", CASES)
def test_roundtrip_fixture(case):
    model = parse_choreography(fixture_bytes(case))
    again = parse_choreography(serialize_choreography(model))
    assert again == model


def test_diagnostics_name_existing_nodes():
    xml = MINIMAL_XML.replace(
        b"<bpmn2:endEvent",
        b"""<bpmn2:choreographyTask id="island" name="I" initiatingParticipantRef="a">
          <bpmn2:participantRef>a</bpmn2:participantRef>
          <bpmn2:participantRef>b</bpmn2:participantRef>
        </bpmn2:choreographyTask>
        <bpmn2:endEvent""",
    )
    model = parse_choreography(xml)
    known = model.node_ids() | set(model.role_ids())
    for diag in validate_model(model):
        assert diag.node_id in known


def duplicate_ids(model) -> list[str]:
    return [d.node_id for d in validate_model(model) if d.rule == "DuplicateId"]


def test_duplicate_task_id_flagged():
    model = load_model("supply_chain")
    first = model.tasks[0]
    twin = ChoreographyTask(first.id, "Twin", first.initiator, first.respondent)
    model = replace(model, tasks=model.tasks + (twin,))
    assert duplicate_ids(model) == [first.id]
    assert Diagnostic("DuplicateId", first.id, f"id {first.id!r} is not unique") in validate_model(model)


def test_gateway_reusing_node_ids_flagged_once_each_sorted():
    # "greet" is a task and two gateways, "end" an end event and a gateway.
    model = replace(minimal_model(), gateways=(
        Gateway("greet", GatewayKind.EXCLUSIVE),
        Gateway("end", GatewayKind.PARALLEL),
        Gateway("greet", GatewayKind.PARALLEL),
    ))
    assert duplicate_ids(model) == ["end", "greet"]


def test_role_id_reused_as_node_id_flagged():
    model = replace(minimal_model(), end_events=("b",), flows=(("start", "greet"), ("greet", "b")))
    assert duplicate_ids(model) == ["b"]
