"""Parser and validator for the supported BPMN 2.0 choreography subset.

Supported elements: one-way choreography tasks, start/end events, exclusive
and parallel gateways, and sequence flows. Anything else is a hard parse
error so later compilation stages never see elements they cannot handle.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"

_SUPPORTED_TAGS = {
    "definitions",
    "choreography",
    "participant",
    "choreographyTask",
    "exclusiveGateway",
    "parallelGateway",
    "startEvent",
    "endEvent",
    "sequenceFlow",
    "participantRef",
    "messageFlowRef",
    "messageFlow",
    "incoming",
    "outgoing",
    "documentation",
}


class ParseError(ValueError):
    """Raised when the input is not a well-formed model of the supported subset."""

    def __init__(self, message: str, element_id: str | None = None):
        super().__init__(message)
        self.element_id = element_id


class GatewayKind(Enum):
    EXCLUSIVE = "exclusive"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class Role:
    id: str
    name: str


@dataclass(frozen=True)
class ChoreographyTask:
    id: str
    name: str
    initiator: str
    respondent: str


@dataclass(frozen=True)
class Gateway:
    """A split or a join; which one is decided by its flow degrees."""

    id: str
    kind: GatewayKind


@dataclass(frozen=True)
class ChoreographyModel:
    """In-memory choreography; element order follows document order."""

    roles: tuple[Role, ...]
    tasks: tuple[ChoreographyTask, ...]
    gateways: tuple[Gateway, ...]
    start_event: str
    end_events: tuple[str, ...]
    flows: tuple[tuple[str, str], ...]
    # Start events beyond the first; kept so validate_model can flag them.
    extra_start_events: tuple[str, ...] = ()

    def role_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.roles)

    def node_ids(self) -> set[str]:
        ids = {t.id for t in self.tasks} | {g.id for g in self.gateways}
        ids.add(self.start_event)
        ids.update(self.end_events)
        return ids

    @cached_property
    def flow_graph(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """(successors, predecessors) of every node with a flow, in flow
        order; built once per model, so a node's flow degrees are the lengths
        of its lists."""
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for src, tgt in self.flows:
            succ.setdefault(src, []).append(tgt)
            pred.setdefault(tgt, []).append(src)
        return succ, pred


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    node_id: str
    message: str


@lru_cache(maxsize=64)
def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _require_id(elem: ET.Element) -> str:
    elem_id = elem.get("id")
    if not elem_id:
        raise ParseError(f"element <{_local(elem.tag)}> has no id attribute")
    return elem_id


def parse_choreography(xml_bytes: bytes) -> ChoreographyModel:
    """Parse BPMN choreography XML into a ChoreographyModel.

    Raises ParseError on malformed XML, on any element outside the supported
    subset (naming the offending element), and on tasks without an
    initiating participant.
    """
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc

    if _local(root.tag) != "definitions":
        raise ParseError(f"unexpected root element <{_local(root.tag)}>")

    choreographies = [c for c in root if _local(c.tag) == "choreography"]
    unsupported_top = [c for c in root if _local(c.tag) not in _SUPPORTED_TAGS]
    if unsupported_top:
        bad = unsupported_top[0]
        raise ParseError(
            f"unsupported element <{_local(bad.tag)}>", element_id=bad.get("id")
        )
    if len(choreographies) != 1:
        raise ParseError(f"expected exactly one <choreography>, found {len(choreographies)}")
    choreo = choreographies[0]

    roles: list[Role] = []
    tasks: list[ChoreographyTask] = []
    gateways: list[Gateway] = []
    starts: list[str] = []
    ends: list[str] = []
    flows: list[tuple[str, str]] = []

    for elem in choreo:
        tag = _local(elem.tag)
        if tag == "participant":
            rid = _require_id(elem)
            roles.append(Role(id=rid, name=elem.get("name", rid)))
        elif tag == "choreographyTask":
            tasks.append(_parse_task(elem))
        elif tag in ("exclusiveGateway", "parallelGateway"):
            gid = _require_id(elem)
            kind = GatewayKind.EXCLUSIVE if tag == "exclusiveGateway" else GatewayKind.PARALLEL
            gateways.append(Gateway(id=gid, kind=kind))
        elif tag == "startEvent":
            starts.append(_require_id(elem))
        elif tag == "endEvent":
            ends.append(_require_id(elem))
        elif tag == "sequenceFlow":
            src, tgt = elem.get("sourceRef"), elem.get("targetRef")
            if not src or not tgt:
                raise ParseError("sequenceFlow missing sourceRef/targetRef", elem.get("id"))
            flows.append((src, tgt))
        elif tag in ("messageFlow", "documentation"):
            continue
        else:
            raise ParseError(f"unsupported element <{tag}>", element_id=elem.get("id"))

    if not starts:
        raise ParseError("choreography has no start event")

    return ChoreographyModel(
        roles=tuple(roles),
        tasks=tuple(tasks),
        gateways=tuple(gateways),
        start_event=starts[0],
        end_events=tuple(ends),
        flows=tuple(flows),
        extra_start_events=tuple(starts[1:]),
    )


def _parse_task(elem: ET.Element) -> ChoreographyTask:
    task_id = _require_id(elem)
    initiator = elem.get("initiatingParticipantRef")
    if not initiator:
        raise ParseError("choreography task has no initiating participant", task_id)
    participants = [p.text.strip() for p in elem if _local(p.tag) == "participantRef" and p.text]
    message_refs = [m for m in elem if _local(m.tag) == "messageFlowRef"]
    if len(message_refs) > 1:
        raise ParseError("two-way choreography tasks are unsupported", task_id)
    others = [p for p in participants if p != initiator]
    if initiator not in participants or len(participants) != 2 or not others:
        raise ParseError("choreography task must name exactly two participants", task_id)
    return ChoreographyTask(
        id=task_id,
        name=elem.get("name", task_id),
        initiator=initiator,
        respondent=others[0],
    )


def validate_model(model: ChoreographyModel) -> list[Diagnostic]:
    """Check structural invariants; an empty list means the model is usable."""
    diags: list[Diagnostic] = []
    node_ids = model.node_ids()
    role_ids = set(model.role_ids())

    id_counts = Counter([
        *model.role_ids(),
        *(t.id for t in model.tasks),
        *(g.id for g in model.gateways),
        model.start_event,
        *model.extra_start_events,
        *model.end_events,
    ])
    for nid in sorted(nid for nid, n in id_counts.items() if n > 1):
        diags.append(Diagnostic("DuplicateId", nid, f"id {nid!r} is not unique"))

    for sid in model.extra_start_events:
        diags.append(Diagnostic("MultipleStartEvents", sid, "more than one start event"))

    if not model.end_events:
        diags.append(Diagnostic("NoEndEvent", model.start_event, "model has no end event"))

    for task in model.tasks:
        for role in (task.initiator, task.respondent):
            if role not in role_ids:
                diags.append(Diagnostic("UnknownRole", task.id, f"role {role!r} is not declared"))
        if task.initiator == task.respondent:
            diags.append(Diagnostic("SelfMessage", task.id, "initiator equals respondent"))

    for src, tgt in model.flows:
        for end_ref in (src, tgt):
            if end_ref not in node_ids:
                diags.append(Diagnostic("DanglingFlow", end_ref, "flow references unknown node"))

    succ, pred = model.flow_graph
    for gw in model.gateways:
        ins, outs = len(pred.get(gw.id, ())), len(succ.get(gw.id, ()))
        if ins >= 2 and outs >= 2:
            diags.append(Diagnostic("MixedGateway", gw.id, "gateway both joins and splits"))
        elif ins < 2 and outs < 2:
            diags.append(Diagnostic("GatewayDegree", gw.id, f"gateway has {ins} in / {outs} out flows"))

    for eid in model.end_events:
        if eid in succ:
            diags.append(Diagnostic("FlowFromEnd", eid, "end event has outgoing flow"))
    if model.start_event in pred:
        diags.append(Diagnostic("FlowIntoStart", model.start_event, "start event has incoming flow"))

    reachable = _closure({model.start_event}, succ)
    for nid in sorted(node_ids - reachable):
        diags.append(Diagnostic("UnreachableNode", nid, "not reachable from the start event"))

    reaches_end = _closure(set(model.end_events), pred)
    for nid in sorted(node_ids - reaches_end):
        if nid in reachable:
            diags.append(Diagnostic("NoPathToEnd", nid, "cannot reach any end event"))

    return diags


def _closure(seeds: set[str], rel: dict[str, list[str]]) -> set[str]:
    out = set(seeds)
    frontier = set(seeds)
    while frontier:
        frontier = {n for f in frontier for n in rel.get(f, []) if n not in out}
        out |= frontier
    return out


def serialize_choreography(model: ChoreographyModel) -> bytes:
    """Emit the model as BPMN choreography XML (supported subset only)."""
    ET.register_namespace("bpmn2", BPMN_NS)
    q = lambda tag: f"{{{BPMN_NS}}}{tag}"
    root = ET.Element(q("definitions"), {"id": "definitions"})
    choreo = ET.SubElement(root, q("choreography"), {"id": "choreography"})
    for role in model.roles:
        ET.SubElement(choreo, q("participant"), {"id": role.id, "name": role.name})
    ET.SubElement(choreo, q("startEvent"), {"id": model.start_event})
    for task in model.tasks:
        t = ET.SubElement(
            choreo,
            q("choreographyTask"),
            {"id": task.id, "name": task.name, "initiatingParticipantRef": task.initiator},
        )
        for ref in (task.initiator, task.respondent):
            p = ET.SubElement(t, q("participantRef"))
            p.text = ref
    for gw in model.gateways:
        tag = "exclusiveGateway" if gw.kind is GatewayKind.EXCLUSIVE else "parallelGateway"
        ET.SubElement(choreo, q(tag), {"id": gw.id})
    for eid in model.end_events:
        ET.SubElement(choreo, q("endEvent"), {"id": eid})
    for i, (src, tgt) in enumerate(model.flows):
        ET.SubElement(
            choreo,
            q("sequenceFlow"),
            {"id": f"flow_{i}", "sourceRef": src, "targetRef": tgt},
        )
    buf = io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue()
