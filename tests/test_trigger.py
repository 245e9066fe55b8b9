import dataclasses
import gc
import json
import warnings

import pytest

from choreochannel import trigger
from choreochannel.harness import build_network
from choreochannel.trigger import TriggerNode
from choreochannel.cases import build_machine, compile_model, load_variants
from choreochannel.ledger import Accepted, Phase, TxKind
from choreochannel.machine import TaskRequest, step as machine_step
from choreochannel.wire import (
    ChannelMessage,
    MessageKind,
    SignedStep,
    StepPayload,
    sign_step,
    verify_step,
)
from util import minimal_model


@pytest.fixture(scope="module")
def machine():
    return build_machine("supply_chain")


@pytest.fixture(scope="module")
def variant():
    return load_variants("supply_chain")[0]


def fresh(machine, **kwargs):
    return build_network(machine, key_salt="trigger-tests", **kwargs)


def test_happy_path_all_nodes_agree(machine, variant):
    setup = fresh(machine)
    result = setup.nodes["bulk_buyer"].enact(variant[0])
    assert result.confirmed
    statuses = setup.network.statuses()
    assert len({(s["seq"], s["state"]) for s in statuses.values()}) == 1
    assert statuses["supplier"]["seq"] == 1
    assert setup.network.stable()


def test_full_case_off_chain_and_close(machine, variant):
    setup = fresh(machine)
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    closer = setup.nodes[variant[-1].requester_role]
    assert closer.close().confirmed
    setup.network.poll_all()
    # Exactly two on-chain transactions: deploy and close.
    assert [t.kind.value for t in setup.ledger.log] == ["deploy", "close"]
    assert all(s["case_id"] == 1 and s["seq"] == 0 for s in setup.network.statuses().values())


def test_enact_rejects_foreign_task_locally(machine, variant):
    setup = fresh(machine)
    result = setup.nodes["supplier"].enact(variant[0])  # bulk_buyer's task
    assert result.status == "rejected"
    assert result.error == "wrong-role"
    assert len(setup.ledger.log) == 1  # nothing left the node


def test_enact_rejects_unknown_task(machine):
    setup = fresh(machine)
    result = setup.nodes["carrier"].enact(TaskRequest("no_such_task", "carrier"))
    assert result.status == "rejected"
    assert result.error == "unknown-task"


def test_enact_prefilter_blocks_nonconforming(machine, variant):
    setup = fresh(machine)
    result = setup.nodes["carrier"].enact(TaskRequest("deliver_supplies", "carrier"))
    assert result.status == "rejected"
    assert result.error == "not-enabled"
    assert len(setup.ledger.log) == 1


def test_silent_peer_causes_dispute(machine, variant):
    setup = fresh(machine)
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    setup.network.silence("supplier")
    result = setup.nodes["manufacturer"].enact(variant[1])
    assert result.status == "dispute_raised"
    view = setup.ledger.get_contract(setup.contract_id)
    assert view.phase is Phase.DISPUTE
    assert view.seq == 1  # the archived step, not the failed one


def test_on_propose_returns_verifiable_signature(machine, variant):
    setup = fresh(machine)
    initiator = setup.nodes["bulk_buyer"]
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(
            machine_step(machine, machine.initial_state, variant[0])),
    )
    sig = sign_step(payload, setup.keys["bulk_buyer"])
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {"bulk_buyer": sig}))
    reply = setup.nodes["supplier"].on_propose(msg)
    assert reply is not None and reply.kind is MessageKind.SIGN
    assert verify_step(payload, reply.signed.signatures["supplier"],
                       setup.ledger.role_keys(setup.contract_id)["supplier"])


def test_node_refuses_key_not_bound_to_its_role(machine):
    setup = fresh(machine)
    with pytest.raises(ValueError, match="not the key bound to role 'supplier'"):
        TriggerNode("supplier", setup.keys["carrier"], setup.ledger, setup.contract_id)
    with pytest.raises(ValueError, match="role 'auditor'"):
        TriggerNode("auditor", setup.keys["carrier"], setup.ledger, setup.contract_id)


def test_node_enforces_the_deployed_contract(machine):
    setup = fresh(machine)
    contract = setup.ledger.contracts[setup.contract_id]
    for role, node in setup.nodes.items():
        assert node.machine is contract.machine
        assert node.address == contract.role_binding[role] == setup.addresses[role]
        raw = {r: k.public_bytes_raw() for r, k in node.role_keys.items()}
        assert raw == setup.ledger.role_keys(setup.contract_id)


def _propose(setup, machine, proposer, seq, task_id, new_state_bytes, signer="supplier"):
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=seq,
        task_id=task_id, choice_data=b"", new_state=new_state_bytes,
    )
    sig = sign_step(payload, setup.keys[proposer])
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {proposer: sig}))
    return setup.nodes[signer].on_propose(msg)


def test_on_propose_rejects_wrong_new_state(machine, variant):
    setup = fresh(machine)
    bogus = machine.state_to_bytes(machine.initial_state)  # state unchanged
    reply = _propose(setup, machine, "bulk_buyer", 1, "place_order", bogus)
    assert reply is None
    # No archived evidence yet, so the dispute intent cannot submit anything.
    assert setup.ledger.get_contract(setup.contract_id).phase is Phase.CHANNEL_OPEN
    assert any("different state" in e for e in setup.nodes["supplier"].events)


def test_on_propose_rejects_stale_seq_and_disputes(machine, variant):
    setup = fresh(machine)
    for req in variant[:2]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    state = machine.initial_state
    state = machine_step(machine, state, variant[0])
    reply = _propose(setup, machine, "bulk_buyer", 1, "place_order",
                     machine.state_to_bytes(state))
    assert reply is None
    view = setup.ledger.get_contract(setup.contract_id)
    assert view.phase is Phase.DISPUTE
    assert view.seq == 2  # the signer submitted its best archived step


def test_on_propose_rejects_bad_signature(machine, variant):
    setup = fresh(machine)
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(
            machine_step(machine, machine.initial_state, variant[0])),
    )
    sig = sign_step(payload, setup.keys["supplier"])  # wrong key for bulk_buyer
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {"bulk_buyer": sig}))
    assert setup.nodes["carrier"].on_propose(msg) is None


def test_on_propose_rejects_wrong_initiator_role(machine, variant):
    setup = fresh(machine)
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(
            machine_step(machine, machine.initial_state, variant[0])),
    )
    sig = sign_step(payload, setup.keys["supplier"])
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {"supplier": sig}))
    assert setup.nodes["carrier"].on_propose(msg) is None


def test_first_proposal_wins_sequence_number(machine, variant):
    setup = fresh(machine)
    good = machine.state_to_bytes(machine_step(machine, machine.initial_state, variant[0]))
    assert _propose(setup, machine, "bulk_buyer", 1, "place_order", good) is not None
    # Same seq, different payload: the signer must refuse.
    assert _propose(setup, machine, "bulk_buyer", 1, "place_order",
                    good, signer="supplier") is not None  # identical re-propose re-signs
    other = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"\x01", new_state=good,
    )
    sig = sign_step(other, setup.keys["bulk_buyer"])
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(other, {"bulk_buyer": sig}))
    assert setup.nodes["supplier"].on_propose(msg) is None


def test_on_confirm_installs_full_set(machine, variant):
    setup = fresh(machine)
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    supplier = setup.nodes["supplier"]
    assert supplier.seq == 1
    assert supplier.archive.max_complete(0).payload.seq == 1


def test_on_confirm_rejects_missing_signature(machine, variant):
    setup = fresh(machine)
    state = machine_step(machine, machine.initial_state, variant[0])
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(state),
    )
    sig = sign_step(payload, setup.keys["bulk_buyer"])
    propose = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {"bulk_buyer": sig}))
    signer = setup.nodes["supplier"]
    assert signer.on_propose(propose) is not None
    incomplete = ChannelMessage(MessageKind.CONFIRM, SignedStep(
        payload, {"bulk_buyer": sig, "supplier": sign_step(payload, setup.keys["supplier"])},
    ))
    assert signer.on_confirm(incomplete) is False
    assert signer.seq == 0  # nothing installed


def test_confirm_for_unknown_step_ignored(machine, variant):
    setup = fresh(machine)
    state = machine_step(machine, machine.initial_state, variant[0])
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(state),
    )
    sigs = {r: sign_step(payload, k) for r, k in setup.keys.items()}
    msg = ChannelMessage(MessageKind.CONFIRM, SignedStep(payload, sigs))
    node = setup.nodes["carrier"]
    assert node.on_confirm(msg) is False  # never saw the proposal
    assert node.seq == 0
    assert any("unknown step" in e for e in node.events)


def test_watch_chain_counters_stale_state(machine, variant):
    setup = fresh(machine)
    for req in variant[:4]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    adversary = setup.nodes["middleman"]
    result = setup.ledger.submit_state(setup.contract_id, adversary.archive.by_seq(0, 2),
                                       adversary.address)
    assert isinstance(result, Accepted)
    assert setup.ledger.get_contract(setup.contract_id).seq == 2
    setup.network.poll_all(exclude={"middleman"})
    view = setup.ledger.get_contract(setup.contract_id)
    assert view.seq == 4
    assert view.phase is Phase.DISPUTE


def test_watch_chain_no_action_when_chain_is_current(machine, variant):
    setup = fresh(machine)
    for req in variant[:3]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    setup.nodes["carrier"].raise_dispute()
    txs_before = len(setup.ledger.log)
    setup.network.poll_all()
    assert len(setup.ledger.log) == txs_before  # every node already matched


def test_on_chain_routing_after_window(machine, variant):
    setup = fresh(machine)
    for req in variant[:5]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    setup.nodes[variant[5].requester_role].raise_dispute()
    setup.ledger.advance_blocks(10)
    setup.network.poll_all()
    assert all(n.observed_phase is Phase.ON_CHAIN for n in setup.nodes.values())
    for req in variant[5:]:
        result = setup.nodes[req.requester_role].enact(req)
        assert result.confirmed, (req.task_id, result)
    setup.network.poll_all()
    assert all(s["case_id"] == 1 for s in setup.network.statuses().values())
    assert setup.network.stable()


def test_close_rejected_mid_process(machine, variant):
    setup = fresh(machine)
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    result = setup.nodes["bulk_buyer"].close()
    assert result.status == "rejected"
    assert result.error == "not-at-end-state"


def test_close_vs_stale_submission_race(machine, variant):
    """Ledger order decides: a stale submission lands first, close is refused,
    and the nodes converge through the dispute path instead."""
    setup = fresh(machine)
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    adversary = setup.nodes["supplier"]
    stale = adversary.archive.by_seq(0, 3)
    assert isinstance(setup.ledger.submit_state(setup.contract_id, stale, adversary.address),
                      Accepted)
    closer = setup.nodes[variant[-1].requester_role]
    result = closer.close()
    assert result.status == "dispute_raised"
    # The closer's poll countered with its archived final step.
    view = setup.ledger.get_contract(setup.contract_id)
    assert view.seq == len(variant)
    setup.ledger.advance_blocks(10)
    setup.network.poll_all()
    # The window expired on an end state, so the case finalized and reset.
    assert setup.ledger.get_contract(setup.contract_id).case_id == 1
    assert setup.network.stable()


def test_archive_flushed_before_confirm(machine, variant, tmp_path):
    setup = build_network(machine, key_salt="durability", archive_dir=str(tmp_path))
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    # Signer journal: the signed payload is on disk before the Sign reply.
    supplier_log = (tmp_path / "supplier.jsonl").read_text().splitlines()
    kinds = [json.loads(line)["type"] for line in supplier_log]
    assert kinds[0] == "signed"
    assert "step" in kinds
    initiator_log = (tmp_path / "bulk_buyer.jsonl").read_text().splitlines()
    assert any(json.loads(line)["type"] == "step" for line in initiator_log)


def test_archive_leaves_no_file_open(machine, variant, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup = build_network(machine, key_salt="durability", archive_dir=str(tmp_path))
        assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
        del setup
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len((tmp_path / "supplier.jsonl").read_text().splitlines()) == 2


def test_prefilter_disabled_proposes_and_network_rejects(machine, variant):
    setup = build_network(machine, key_salt="faulty", prefilter=False)
    result = setup.nodes["carrier"].enact(TaskRequest("deliver_supplies", "carrier"))
    # Refused by the signers; with no archived step there is no dispute to raise.
    assert (result.status, result.error) == ("rejected", "missing-signatures")
    assert setup.network.stable()
    assert all(s["seq"] == 0 for s in setup.network.statuses().values())


def test_enact_reports_rejected_when_no_dispute_was_sent(machine, variant):
    setup = build_network(machine, key_salt="faulty", prefilter=False)
    result = setup.nodes[variant[1].requester_role].enact(variant[1])
    assert (result.status, result.error) == ("rejected", "missing-signatures")
    assert [t.kind.value for t in setup.ledger.log] == ["deploy"]


def _place_order(setup, machine, variant, **fields):
    """bulk_buyer's Propose for the first task, with `fields` overridden."""
    payload = dataclasses.replace(StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(
            machine_step(machine, machine.initial_state, variant[0])),
    ), **fields)
    sig = sign_step(payload, setup.keys["bulk_buyer"])
    return ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {"bulk_buyer": sig}))


@pytest.mark.parametrize("field,value", [
    ("chain_id", 2), ("contract_id", bytes(32)), ("case_id", 1)])
def test_on_propose_ignores_another_chain_contract_or_case(machine, variant, field, value):
    setup = fresh(machine)
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed  # evidence for a dispute
    supplier = setup.nodes["supplier"]
    msg = _place_order(setup, machine, variant, seq=2, **{field: value})
    assert supplier.on_propose(msg) is None
    assert supplier.signed.payload.seq == 1  # nothing signed for seq 2
    assert [t.kind for t in setup.ledger.log] == [TxKind.DEPLOY]


def test_on_propose_ignores_a_signature_keyed_by_a_role_outside_the_process(machine, variant):
    setup = fresh(machine)
    msg = _place_order(setup, machine, variant)
    outsider = ChannelMessage(MessageKind.PROPOSE, SignedStep(
        msg.signed.payload, {"auditor": msg.signed.signatures["bulk_buyer"]}))
    supplier = setup.nodes["supplier"]
    assert supplier.handle_message(outsider) is None
    assert supplier.signed is None
    assert any("bad initiator signature" in e for e in supplier.events)
    assert supplier.handle_message(msg) is not None  # the same step, keyed correctly


class ForgedSign:
    """Transport that replaces one peer's Sign reply by a signature made
    with another role's key."""

    def __init__(self, network, peer, forger_key):
        self.network, self.peer, self.forger_key = network, peer, forger_key

    def request(self, target_role, message):
        reply = self.network.request(target_role, message)
        if reply is None or target_role != self.peer:
            return reply
        payload = reply.signed.payload
        forged = {self.peer: sign_step(payload, self.forger_key)}
        return ChannelMessage(MessageKind.SIGN, SignedStep(payload, forged))


def test_bad_sign_reply_leaves_the_initiator_unchanged(machine, variant):
    setup = fresh(machine)
    initiator = setup.nodes["bulk_buyer"]
    initiator.transport = ForgedSign(setup.network, "carrier", setup.keys["supplier"])
    result = initiator.enact(variant[0])
    assert (result.status, result.error) == ("rejected", "missing-signatures")
    assert (initiator.seq, initiator.pending) == (0, None)
    assert initiator.archive.max_complete(0) is None
    assert any("invalid sign reply from carrier" in e for e in initiator.events)
    assert [t.kind for t in setup.ledger.log] == [TxKind.DEPLOY]


def test_refused_on_chain_enact_reports_the_ledger_reason(machine, variant):
    setup = fresh(machine)
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    setup.nodes["bulk_buyer"].raise_dispute()
    setup.ledger.advance_blocks(10)
    setup.network.poll_all()
    result = setup.nodes["bulk_buyer"].enact(variant[0])  # place_order is done already
    assert (result.status, result.error) == ("rejected", "not-enabled")
    tasks = [t for t in setup.ledger.log if t.kind is TxKind.ON_CHAIN_TASK]
    assert [(t.accepted, t.reason) for t in tasks] == [(False, "not-enabled")]
    assert setup.ledger.get_contract(setup.contract_id).seq == 1


def test_late_confirm_cannot_install_a_superseded_step(machine, variant):
    setup = fresh(machine)
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    setup.network.silence("carrier")
    assert setup.nodes["manufacturer"].enact(variant[1]).status == "dispute_raised"
    supplier = setup.nodes["supplier"]
    late = supplier.signed.payload  # signed for seq 2, never confirmed
    assert late.seq == 2
    setup.ledger.advance_blocks(10)
    setup.network.poll_all()
    for req in variant[1:3]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    setup.network.poll_all()
    before = (supplier.seq, supplier.state)
    assert before[0] == 3
    sigs = {r: sign_step(late, k) for r, k in setup.keys.items()}
    assert supplier.on_confirm(ChannelMessage(MessageKind.CONFIRM, SignedStep(late, sigs))) is False
    assert (supplier.seq, supplier.state) == before


def test_raise_dispute_that_sees_on_chain_switches_enact_on_chain(machine, variant):
    setup = fresh(machine)
    for req in variant[:2]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    setup.nodes["bulk_buyer"].raise_dispute()
    setup.ledger.advance_blocks(10)
    middleman = setup.nodes["middleman"]  # has not polled since the window expired
    assert middleman.raise_dispute() is False
    assert middleman.observed_phase is Phase.ON_CHAIN
    assert middleman.enact(variant[2]).confirmed
    assert setup.ledger.log[-1].kind is TxKind.ON_CHAIN_TASK
    # The contract could only have refused the evidence: none was sent.
    assert not [t for t in setup.ledger.log
                if t.kind is TxKind.SUBMIT_STATE and not t.accepted]


def test_every_archive_line_decodes_as_a_signed_step(machine, variant, tmp_path):
    setup = build_network(machine, key_salt="archive", archive_dir=str(tmp_path))
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    role_keys = setup.ledger.role_keys(setup.contract_id)
    for role, node in setup.nodes.items():
        types = []
        for line in (tmp_path / f"{role}.jsonl").read_text().splitlines():
            record = json.loads(line)
            signed = SignedStep.from_wire(record["record"])
            types.append(record["type"])
            if record["type"] == "signed":
                assert list(signed.signatures) == [role]
                assert verify_step(signed.payload, signed.signatures[role], role_keys[role])
            else:
                assert signed.verify_all(role_keys)
                assert signed == node.archive.by_seq(0, signed.payload.seq)
        assert set(types) <= {"signed", "step"}
        assert types.count("step") == len(variant)
        assert types.count("signed") == sum(1 for r in variant if r.requester_role != role)


def test_raise_dispute_after_the_case_closed_sends_nothing(machine, variant):
    setup = fresh(machine)
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    assert setup.nodes[variant[-1].requester_role].close().confirmed
    carrier = setup.nodes["carrier"]  # still on case 0: it has not polled
    assert carrier.case_id == 0 and carrier.archive.max_complete(0) is not None
    assert carrier.raise_dispute() is False
    assert [t.kind for t in setup.ledger.log] == [TxKind.DEPLOY, TxKind.CLOSE]


def _counting_verifies(monkeypatch):
    """Record every verify_step call made by a trigger node."""
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_step(*args)

    monkeypatch.setattr(trigger, "verify_step", counting)
    return calls


@pytest.mark.parametrize("model,expected", [("supply_chain", 20), ("minimal", 2)])
def test_conforming_step_verifies_each_signature_once_per_node(monkeypatch, model, expected):
    if model == "minimal":
        machine, req = compile_model(minimal_model()), TaskRequest("greet", "a")
    else:
        machine, req = build_machine(model), load_variants(model)[0][0]
    n = len(machine.role_ids)
    setup = fresh(machine)
    calls = _counting_verifies(monkeypatch)
    assert setup.nodes[req.requester_role].enact(req).confirmed
    assert setup.network.stable() and setup.nodes[req.requester_role].seq == 1
    assert len(calls) == n * (n - 1) == expected


class TamperedConfirm:
    """Transport that hands `target` a Confirm whose signature of `role` is
    replaced by `forge(signed)`."""

    def __init__(self, network, target, role, forge):
        self.network, self.target, self.role, self.forge = network, target, role, forge

    def request(self, target_role, message):
        if message.kind is MessageKind.CONFIRM and target_role == self.target:
            sigs = {**message.signed.signatures, self.role: self.forge(message.signed)}
            message = ChannelMessage(MessageKind.CONFIRM, SignedStep(message.signed.payload, sigs))
        return self.network.request(target_role, message)


def _confirm_refused_by_carrier(setup, variant, role, forge):
    """manufacturer enacts the second task; carrier receives a Confirm with
    `role`'s signature forged. Returns carrier's (seq, state) before."""
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
    carrier = setup.nodes["carrier"]
    before = (carrier.seq, carrier.state)
    manufacturer = setup.nodes["manufacturer"]
    manufacturer.transport = TamperedConfirm(setup.network, "carrier", role, forge)
    assert manufacturer.enact(variant[1]).confirmed  # every other peer installed it
    assert (carrier.seq, carrier.state) == before
    assert carrier.archive.max_complete(0).payload.seq == 1
    assert any("incomplete signature set" in e for e in carrier.events)
    # carrier disputed with the last step it holds.
    disputes = [t for t in setup.ledger.log if t.kind is TxKind.SUBMIT_STATE]
    assert [(t.sender, t.accepted, t.payload_seq) for t in disputes] == \
        [(setup.addresses["carrier"], True, 1)]
    return before


def test_confirm_with_a_corrupted_third_party_signature_is_refused(machine, variant):
    setup = fresh(machine)

    def corrupt(signed):
        sig = bytearray(signed.signatures["supplier"])
        sig[0] ^= 0x01
        return bytes(sig)

    _confirm_refused_by_carrier(setup, variant, "supplier", corrupt)


@pytest.mark.parametrize("role", ["manufacturer", "carrier"])
def test_confirm_with_another_checked_signature_is_refused(machine, variant, role):
    """The proposer's and the node's own signature are the ones the shortcut
    skips; a valid signature by the same key over another payload must not
    pass for them."""
    setup = fresh(machine)

    def over_other_payload(signed):
        other = dataclasses.replace(signed.payload, choice_data=b"\x01")
        return sign_step(other, setup.keys[role])

    _confirm_refused_by_carrier(setup, variant, role, over_other_payload)


def test_reset_for_case_drops_the_checked_signatures(monkeypatch, machine, variant):
    setup = fresh(machine)
    supplier = setup.nodes["supplier"]
    propose = _place_order(setup, machine, variant)
    assert supplier.on_propose(propose) is not None
    payload = propose.signed.payload
    sigs = {r: sign_step(payload, k) for r, k in setup.keys.items()}
    old = ChannelMessage(MessageKind.CONFIRM, SignedStep(payload, sigs))
    supplier._reset_for_case(1)
    assert supplier.signed is None
    assert supplier.on_confirm(old) is False
    assert (supplier.case_id, supplier.seq, supplier.state) == (1, 0, machine.initial_state)
    # In the new case only the new proposal's signatures are kept.
    propose = _place_order(setup, machine, variant, case_id=1)
    assert supplier.on_propose(propose) is not None
    payload = propose.signed.payload
    assert supplier.signed == SignedStep(payload, {
        "bulk_buyer": propose.signed.signatures["bulk_buyer"],
        "supplier": sign_step(payload, setup.keys["supplier"]),
    })
    calls = _counting_verifies(monkeypatch)
    sigs = {r: sign_step(payload, k) for r, k in setup.keys.items()}
    assert supplier.on_confirm(ChannelMessage(MessageKind.CONFIRM, SignedStep(payload, sigs)))
    assert [args[2] for args in calls] == [
        supplier.role_keys[r] for r in machine.role_ids if r not in ("bulk_buyer", "supplier")]


def test_confirm_for_another_payload_with_the_slot_signatures_is_refused(machine, variant):
    """on_confirm checks signatures over the slot's payload, so comparing the
    Confirm's payload with it is what keeps another step out."""
    setup = fresh(machine)
    supplier = setup.nodes["supplier"]
    propose = _place_order(setup, machine, variant)
    assert supplier.on_propose(propose) is not None
    payload = propose.signed.payload
    sigs = {r: sign_step(payload, k) for r, k in setup.keys.items()}
    other = dataclasses.replace(payload, choice_data=b"\x01")
    assert supplier.on_confirm(ChannelMessage(MessageKind.CONFIRM, SignedStep(other, sigs))) is False
    assert (supplier.seq, supplier.state) == (0, machine.initial_state)
    assert supplier.archive.max_complete(0) is None
