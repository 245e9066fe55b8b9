import dataclasses
import gc
import warnings

import pytest

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
from util import counting_calls, counting_verifies, minimal_model


@pytest.fixture(scope="module")
def machine():
    return build_machine("supply_chain")


@pytest.fixture(scope="module")
def variant():
    return load_variants("supply_chain")[0]


def fresh(machine, **kwargs):
    return build_network(machine, key_salt="trigger-tests", **kwargs)


def _archive(tmp_path, role) -> list[ChannelMessage]:
    """The envelopes in `role`'s archive file, one per line."""
    return [ChannelMessage.from_wire(bytes.fromhex(line))
            for line in (tmp_path / f"{role}.hex").read_text().splitlines()]


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
                       setup.keys["supplier"].public_key())


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
        # One parse per contract: every node verifies with the contract's keys.
        assert node.role_keys is contract.role_keys
    assert list(contract.role_keys) == list(machine.role_ids)
    for role, key in contract.role_keys.items():
        assert key.public_bytes_raw() == setup.ledger.accounts[setup.addresses[role]]


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


def test_on_propose_rejects_bad_signature(monkeypatch, machine, variant, tmp_path):
    """A forged proposal that conforms fails its one verify before any Sign."""
    setup = fresh(machine, archive_dir=str(tmp_path))
    payload = StepPayload(
        chain_id=1, contract_id=setup.contract_id, case_id=0, seq=1,
        task_id="place_order", choice_data=b"",
        new_state=machine.state_to_bytes(
            machine_step(machine, machine.initial_state, variant[0])),
    )
    sig = sign_step(payload, setup.keys["supplier"])  # wrong key for bulk_buyer
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {"bulk_buyer": sig}))
    carrier = setup.nodes["carrier"]
    verifies = counting_verifies(monkeypatch)
    signs = counting_calls(monkeypatch, "sign_step")
    assert carrier.on_propose(msg) is None
    assert (len(verifies), signs) == (1, [])
    assert carrier.signed is None and not (tmp_path / "carrier.hex").exists()
    assert [t.kind for t in setup.ledger.log] == [TxKind.DEPLOY]


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
    assert supplier.archive.latest().payload.seq == 1


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
    result = setup.ledger.submit_state(setup.contract_id, adversary.archive.by_seq(2),
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
    stale = adversary.archive.by_seq(3)
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


def test_close_after_a_stale_dispute_expired_is_rejected(machine, variant):
    """A refused close reports `dispute_raised` only when the closer's
    counter was accepted. Once a stale dispute's window has expired, the
    contract is on-chain and nothing can be countered."""
    setup = fresh(machine)
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    adversary = setup.nodes["supplier"]
    assert isinstance(setup.ledger.submit_state(setup.contract_id, adversary.archive.by_seq(3),
                                                adversary.address), Accepted)
    setup.ledger.advance_blocks(10)
    closer = setup.nodes[variant[-1].requester_role]
    txs_before = len(setup.ledger.log)
    result = closer.close()
    assert (result.status, result.error) == ("rejected", "phase-ON_CHAIN")
    # The only transaction after the expiry is the refused close.
    assert [(t.kind, t.accepted) for t in setup.ledger.log[txs_before:]] == [
        (TxKind.CLOSE, False)]
    assert closer.observed_phase is Phase.ON_CHAIN and closer.seq == 3


def test_archive_flushed_before_confirm(machine, variant, tmp_path):
    setup = build_network(machine, key_salt="durability", archive_dir=str(tmp_path))
    initiator = variant[0].requester_role
    deliver = setup.network.request
    on_disk = []

    def watching(target, message):
        if message.kind is MessageKind.CONFIRM:
            # The initiator's Confirm is on disk before it is sent.
            on_disk.append(_archive(tmp_path, initiator)[-1] == message)
        reply = deliver(target, message)
        if reply is not None:
            # A signer's Sign is on disk before it is returned.
            on_disk.append(_archive(tmp_path, target)[-1] == reply)
        return reply

    setup.network.request = watching
    assert setup.nodes[initiator].enact(variant[0]).confirmed
    assert on_disk == [True] * 2 * (len(setup.nodes) - 1)
    assert [m.kind for m in _archive(tmp_path, "supplier")] == [MessageKind.SIGN,
                                                                MessageKind.CONFIRM]


def test_archive_leaves_no_file_open(machine, variant, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup = build_network(machine, key_salt="durability", archive_dir=str(tmp_path))
        assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed
        del setup
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(_archive(tmp_path, "supplier")) == 2


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
    assert initiator.seq == 0
    assert initiator.archive.latest() is None
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


def test_peers_on_chain_stay_silent_on_an_off_chain_proposal(machine, variant):
    """An initiator that has not polled since the window expired gets no
    off-chain step signed: its peers observe ON_CHAIN and send nothing back,
    and none of them disputes."""
    setup = fresh(machine)
    for req in variant[:3]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    setup.nodes["bulk_buyer"].raise_dispute()
    setup.ledger.advance_blocks(10)
    setup.network.poll_all(exclude={"middleman"})
    middleman = setup.nodes["middleman"]
    result = middleman.enact(variant[3])
    assert (result.status, result.error) == ("rejected", "missing-signatures")
    assert all(node.seq == 3 and node.archive.latest().payload.seq == 3
               for node in setup.nodes.values())
    assert all(any("contract is on-chain" in e for e in node.events)
               for role, node in setup.nodes.items() if role != "middleman")
    disputes = [t for t in setup.ledger.log if t.kind is TxKind.SUBMIT_STATE]
    assert [t.sender for t in disputes] == [setup.addresses["bulk_buyer"]]
    assert setup.ledger.get_contract(setup.contract_id).seq == 3
    assert middleman.enact(variant[3]).confirmed
    assert setup.ledger.log[-1].kind is TxKind.ON_CHAIN_TASK
    assert setup.ledger.get_contract(setup.contract_id).seq == 4


def test_node_on_chain_refuses_a_confirm_for_its_signed_slot(machine, variant):
    setup = fresh(machine)
    for req in variant[:2]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    setup.nodes["bulk_buyer"].raise_dispute()
    setup.network.silence("bulk_buyer")
    assert setup.nodes["middleman"].enact(variant[2]).status == "rejected"
    supplier = setup.nodes["supplier"]
    slot = supplier.signed.payload  # signed for seq 3, never confirmed
    assert slot.seq == 3
    setup.ledger.advance_blocks(10)
    setup.network.poll_all()
    assert supplier.observed_phase is Phase.ON_CHAIN
    before = (supplier.seq, supplier.state)
    assert before[0] == 2
    sigs = {r: sign_step(slot, k) for r, k in setup.keys.items()}
    assert supplier.on_confirm(ChannelMessage(MessageKind.CONFIRM, SignedStep(slot, sigs))) is False
    assert (supplier.seq, supplier.state) == before
    assert supplier.archive.latest().payload.seq == 2
    assert any("contract is on-chain" in e for e in supplier.events)


def test_every_archive_line_decodes_as_a_signed_step(machine, variant, tmp_path):
    setup = build_network(machine, key_salt="archive", archive_dir=str(tmp_path))
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    role_keys = setup.ledger.contracts[setup.contract_id].role_keys
    for role, node in setup.nodes.items():
        kinds = []
        for message in _archive(tmp_path, role):
            signed = message.signed
            kinds.append(message.kind)
            if message.kind is MessageKind.SIGN:
                assert list(signed.signatures) == [role]
                assert verify_step(signed.payload, signed.signatures[role], role_keys[role])
            else:
                assert message.kind is MessageKind.CONFIRM
                assert signed.signatures.keys() == role_keys.keys()
                assert all(verify_step(signed.payload, signed.signatures[r], k)
                           for r, k in role_keys.items())
                assert signed == node.archive.by_seq(signed.payload.seq)
        assert kinds.count(MessageKind.CONFIRM) == len(variant)
        assert kinds.count(MessageKind.SIGN) == sum(1 for r in variant if r.requester_role != role)


def _assert_steps_held_in_seq_order(setup, count):
    """Every node holds the steps 1..count in order; `latest()` relies on it."""
    for node in setup.nodes.values():
        steps = node.archive._steps
        assert [s.payload.seq for s in steps] == list(range(1, count + 1))
        assert node.archive.latest() is steps[-1]


def test_a_reset_drops_the_old_case_from_memory_but_not_from_the_file(machine, variant, tmp_path):
    setup = fresh(machine, archive_dir=str(tmp_path))
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    _assert_steps_held_in_seq_order(setup, len(variant))
    closer = setup.nodes[variant[-1].requester_role]
    assert closer.archive.latest().payload.seq == len(variant)
    assert closer.close().confirmed
    setup.network.poll_all()
    for role, node in setup.nodes.items():
        assert node.case_id == 1
        assert node.archive.latest() is None
        assert node.archive.by_seq(1) is None
        steps = [m.signed.payload for m in _archive(tmp_path, role)
                 if m.kind is MessageKind.CONFIRM]
        assert [(p.case_id, p.seq) for p in steps] == [(0, seq) for seq in range(1, len(variant) + 1)]
    # Case 1: a dispute halfway, then the rest of the case off-chain while
    # the window is open.
    half = len(variant) // 2
    for req in variant[:half]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    assert setup.nodes[variant[half].requester_role].raise_dispute()
    for req in variant[half:]:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    assert setup.ledger.get_contract(setup.contract_id).phase is Phase.DISPUTE
    _assert_steps_held_in_seq_order(setup, len(variant))


def test_archive_memory_is_bounded_across_closed_cases(incident_machine, incident_variants):
    """50 cases on one channel: no node ever holds more than one case's steps."""
    setup = fresh(incident_machine)
    events = incident_variants[0].events
    closer = setup.nodes[events[-1].requester_role]
    for case_id in range(50):
        for req in events:
            assert setup.nodes[req.requester_role].enact(req).confirmed
        assert all(len(n.archive._steps) == len(events) for n in setup.nodes.values())
        assert closer.close().confirmed
        setup.network.poll_all()
        assert all(n.case_id == case_id + 1 and not n.archive._steps for n in setup.nodes.values())


def test_raise_dispute_after_the_case_closed_sends_nothing(machine, variant):
    setup = fresh(machine)
    for req in variant:
        assert setup.nodes[req.requester_role].enact(req).confirmed
    assert setup.nodes[variant[-1].requester_role].close().confirmed
    carrier = setup.nodes["carrier"]  # still on case 0: it has not polled
    assert carrier.case_id == 0 and carrier.archive.latest() is not None
    assert carrier.raise_dispute() is False
    assert [t.kind for t in setup.ledger.log] == [TxKind.DEPLOY, TxKind.CLOSE]


@pytest.mark.parametrize("model,expected", [("supply_chain", 20), ("minimal", 2)])
def test_conforming_step_verifies_each_signature_once_per_node(monkeypatch, model, expected):
    if model == "minimal":
        machine, req = compile_model(minimal_model()), TaskRequest("greet", "a")
    else:
        machine, req = build_machine(model), load_variants(model)[0][0]
    n = len(machine.role_ids)
    setup = fresh(machine)
    calls = counting_verifies(monkeypatch)
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
    assert carrier.archive.latest().payload.seq == 1
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


@pytest.mark.parametrize("extra", ["zz-extra", "x" * 300], ids=["extra-role", "long-role-id"])
def test_confirm_with_a_signer_outside_the_roles_is_refused(machine, variant, tmp_path, extra):
    """A signature set must be exactly the contract's roles: an extra signer
    would make this node archive other bytes for the step than its peers,
    and a role id too long to encode would make the archive write fail."""
    setup = fresh(machine, archive_dir=str(tmp_path))
    _confirm_refused_by_carrier(setup, variant, extra,
                                lambda signed: sign_step(signed.payload, setup.keys["carrier"]))
    confirms = {role: [m.to_wire() for m in _archive(tmp_path, role)
                       if m.kind is MessageKind.CONFIRM] for role in setup.nodes}
    assert len(confirms["carrier"]) == 1
    assert all(lines[0] == confirms["carrier"][0] for lines in confirms.values())


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
    calls = counting_verifies(monkeypatch)
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
    assert supplier.archive.latest() is None


def _second_task_by_bulk_buyer(setup, machine, variant, signer_key=None):
    """After place_order is confirmed, bulk_buyer proposes place_order again
    for seq 2: a proposal that does not conform. `signer_key` forges it."""
    assert setup.nodes["bulk_buyer"].enact(variant[0]).confirmed  # evidence for a dispute
    state = machine_step(machine, machine.initial_state, variant[0])
    msg = _place_order(setup, machine, variant, seq=2, new_state=machine.state_to_bytes(state))
    if signer_key is None:
        return msg
    payload = msg.signed.payload
    forged = {"bulk_buyer": sign_step(payload, signer_key)}
    return ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, forged))


def test_forged_nonconforming_proposal_fails_one_verify_and_sends_nothing(
        monkeypatch, machine, variant):
    setup = fresh(machine)
    supplier = setup.nodes["supplier"]
    msg = _second_task_by_bulk_buyer(setup, machine, variant, setup.keys["carrier"])
    slot = supplier.signed
    calls = counting_verifies(monkeypatch)
    assert supplier.on_propose(msg) is None
    # Evidence exists and the channel is open, so only the signature stops
    # the dispute a validly signed proposal would raise.
    assert [verify_step(*args) for args in calls] == [False]
    assert [t.kind for t in setup.ledger.log] == [TxKind.DEPLOY]
    assert supplier.signed is slot and supplier.seq == 1
    assert supplier.events[-1] == "bad initiator signature on proposal seq 2"


def test_nonconforming_proposal_under_a_pending_dispute_is_not_verified(
        monkeypatch, machine, variant):
    setup = fresh(machine)
    msg = _second_task_by_bulk_buyer(setup, machine, variant)
    assert setup.nodes["carrier"].raise_dispute()  # pending at seq 1
    log = setup.ledger.export_log()
    supplier = setup.nodes["supplier"]
    calls = counting_verifies(monkeypatch)
    assert supplier.on_propose(msg) is None
    assert calls == []
    assert setup.ledger.export_log() == log
    assert supplier.events[-1] == "dispute already pending at seq 1; holding evidence"


def test_nonconforming_proposal_is_verified_once_before_the_dispute(
        monkeypatch, machine, variant):
    setup = fresh(machine)
    msg = _second_task_by_bulk_buyer(setup, machine, variant)
    calls = counting_verifies(monkeypatch)
    verifies_at_submit = []
    submit = setup.ledger.submit_state

    def recording_submit(*args):
        verifies_at_submit.append(len(calls))
        return submit(*args)

    monkeypatch.setattr(setup.ledger, "submit_state", recording_submit)
    assert setup.nodes["supplier"].on_propose(msg) is None
    assert verifies_at_submit == [1] and len(calls) == 1
    view = setup.ledger.get_contract(setup.contract_id)
    assert (view.phase, view.seq) == (Phase.DISPUTE, 1)


@pytest.mark.parametrize("silenced", range(4))
def test_initiator_stops_verifying_replies_once_one_is_missing(
        monkeypatch, machine, variant, silenced):
    setup = fresh(machine)
    initiator = setup.nodes["bulk_buyer"]
    peers = initiator._peers()
    setup.network.silence(peers[silenced])
    proposer_key = initiator.role_keys["bulk_buyer"]
    calls = counting_verifies(monkeypatch)
    result = initiator.enact(variant[0])
    assert (result.status, result.error) == ("rejected", "missing-signatures")
    # Peers verify only the proposer's key and the initiator only peer keys,
    # so the initiator's verifies are those by any other key. Only the
    # replies before the missing one are verified ...
    assert [args[2] for args in calls if args[2] is not proposer_key] == [
        initiator.role_keys[p] for p in peers[:silenced]]
    # ... but every peer that can be reached still got the Propose and signed it.
    assert initiator.archive.latest() is None
    assert [setup.nodes[p].signed is not None for p in peers] == [
        p != peers[silenced] for p in peers]
