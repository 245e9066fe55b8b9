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
from choreochannel.cases import CASES, compile_model, fixture_bytes, load_model
from util import exclusive_model, minimal_model, xor_into_task_model

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


@pytest.mark.parametrize("element_id,empty,child", [
    ("carrier", b'<bpmn2:participant id="carrier" name="Special Carrier"',
     b"participantMultiplicity"),
    ("start", b'<bpmn2:startEvent id="start"', b"timerEventDefinition"),
    ("end", b'<bpmn2:endEvent id="end"', b"terminateEventDefinition"),
    ("loop_entry", b'<bpmn2:exclusiveGateway id="loop_entry"', b"extensionElements"),
    ("split_procurement", b'<bpmn2:parallelGateway id="split_procurement"', b"extensionElements"),
    ("f21", b'<bpmn2:sequenceFlow id="f21" sourceRef="close_order" targetRef="end"',
     b"conditionExpression"),
], ids=["participant", "startEvent", "endEvent", "exclusiveGateway", "parallelGateway",
        "sequenceFlow"])
def test_unsupported_child_element_named(element_id, empty, child):
    """A supported node holding an element outside the subset is refused,
    not parsed as if the element were absent."""
    tag = empty.split()[0][1:]
    xml = fixture_bytes("supply_chain").replace(
        empty + b"/>", empty + b"><bpmn2:" + child + b"/></" + tag + b">")
    with pytest.raises(ParseError, match=f"<{child.decode()}>") as err:
        parse_choreography(xml)
    assert err.value.element_id == element_id


def test_unsupported_child_of_a_task_named():
    xml = fixture_bytes("supply_chain").replace(
        b"<bpmn2:participantRef>bulk_buyer</bpmn2:participantRef>",
        b"<bpmn2:standardLoopCharacteristics/>"
        b"<bpmn2:participantRef>bulk_buyer</bpmn2:participantRef>", 1)
    with pytest.raises(ParseError, match="<standardLoopCharacteristics>") as err:
        parse_choreography(xml)
    assert err.value.element_id == "place_order"


def test_unsupported_child_of_definitions_named():
    xml = MINIMAL_XML.replace(b'<bpmn2:choreography id="c">',
                              b'<bpmn2:participant id="stray"/><bpmn2:choreography id="c">')
    with pytest.raises(ParseError, match="<participant>") as err:
        parse_choreography(xml)
    assert err.value.element_id == "stray"


def test_supported_child_elements_are_accepted():
    xml = fixture_bytes("supply_chain").replace(
        b'<bpmn2:endEvent id="end"/>',
        b'<bpmn2:endEvent id="end"><bpmn2:documentation>done</bpmn2:documentation>'
        b"<bpmn2:incoming>f21</bpmn2:incoming></bpmn2:endEvent>")
    assert parse_choreography(xml) == load_model("supply_chain")


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


@pytest.mark.parametrize("edits,message,element_id", [
    ([(b'<bpmn2:participant id="b" name="B"/>', b'<bpmn2:participant name="B"/>')],
     "element <participant> has no id attribute", None),
    ([(b"bpmn2:definitions ", b"bpmn2:collaboration "),
      (b"</bpmn2:definitions>", b"</bpmn2:collaboration>")],
     "unexpected root element <collaboration>", None),
    ([(b'<bpmn2:choreography id="c">', b"<bpmn2:documentation>"),
      (b"</bpmn2:choreography>", b"</bpmn2:documentation>")],
     "expected exactly one <choreography>, found 0", None),
    ([(b"</bpmn2:choreography>", b'</bpmn2:choreography><bpmn2:choreography id="c2"/>')],
     "expected exactly one <choreography>, found 2", None),
    ([(b' targetRef="end"', b"")], "sequenceFlow missing sourceRef/targetRef", "f2"),
    ([(b'<bpmn2:startEvent id="start"/>', b"")], "choreography has no start event", None),
    ([(b"<bpmn2:participantRef>b</bpmn2:participantRef>", b"")],
     "choreography task must name exactly two participants", "greet"),
], ids=["element-without-id", "foreign-root", "no-choreography", "two-choreographies",
        "flow-without-target", "no-start-event", "one-participant"])
def test_structural_parse_errors_named(edits, message, element_id):
    xml = MINIMAL_XML
    for old, new in edits:
        assert old in xml
        xml = xml.replace(old, new)
    with pytest.raises(ParseError) as err:
        parse_choreography(xml)
    assert str(err.value) == message
    assert err.value.element_id == element_id


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


def _flow_from_end_model():
    """minimal_model with a second end event after the first."""
    base = minimal_model()
    return replace(base, end_events=("end", "end2"), flows=base.flows + (("end", "end2"),))


def _flow_into_start_model():
    """start -> greet -> xor x -> (end | start): a loop back to the start event."""
    base = minimal_model()
    return replace(base, gateways=(Gateway("x", GatewayKind.EXCLUSIVE),),
                   flows=(("start", "greet"), ("greet", "x"), ("x", "end"), ("x", "start")))


@pytest.mark.parametrize("model, line", [
    (_flow_from_end_model, "FlowFromEnd at end: end event has outgoing flow"),
    (_flow_into_start_model, "FlowIntoStart at start: start event has incoming flow"),
], ids=["flow-from-end", "flow-into-start"])
def test_compile_refuses_a_flow_out_of_an_end_or_into_the_start(model, line):
    with pytest.raises(ValueError) as refused:
        compile_model(model())
    assert str(refused.value) == f"invalid model:\n  {line}"


def test_task_with_two_incoming_flows_flagged_whether_built_or_parsed():
    # start -> xor -> A | B -> C -> end: in BPMN C would start once per
    # arriving token, but its net transition would wait for both.
    model = xor_into_task_model()
    expected = [Diagnostic("ImplicitJoin", "C", "task has 2 incoming flows; join them with a gateway")]
    assert validate_model(model) == expected
    assert validate_model(parse_choreography(serialize_choreography(model))) == expected


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
