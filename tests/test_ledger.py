import copy
import dataclasses

import pytest

from choreochannel.cases import build_machine, load_variants
from choreochannel.ledger import (
    Accepted,
    DeployError,
    Ledger,
    LedgerError,
    Phase,
    Rejected,
    TxKind,
)
from choreochannel.machine import TaskRequest, step
from choreochannel.wire import SignedStep, StepPayload, generate_signing_key, public_key_of, sign_step


@pytest.fixture(scope="module")
def machine():
    return build_machine("supply_chain")


@pytest.fixture(scope="module")
def variant():
    return load_variants("supply_chain")[0]


def make_channel(machine, window=10, chain_id=1):
    ledger = Ledger(chain_id=chain_id)
    keys = {r: generate_signing_key(f"ledger-test|{r}".encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    contract_id = ledger.deploy_channel(machine, addresses, window)
    return ledger, contract_id, keys, addresses


def signed_after(machine, contract_id, keys, events, count, case_id=0, chain_id=1,
                 seq=None, skip_roles=()):
    """Complete SignedStep for the state after `count` events of a trace."""
    state = machine.initial_state
    for req in events[:count]:
        state = step(machine, state, req)
    payload = StepPayload(
        chain_id=chain_id,
        contract_id=contract_id,
        case_id=case_id,
        seq=count if seq is None else seq,
        task_id=events[count - 1].task_id,
        choice_data=b"",
        new_state=machine.state_to_bytes(state),
    )
    signatures = {
        role: sign_step(payload, key)
        for role, key in keys.items()
        if role not in skip_roles
    }
    return SignedStep(payload, signatures)


def test_deploy_initial_contract_state(machine):
    ledger, cid, _, _ = make_channel(machine)
    view = ledger.get_contract(cid)
    assert view.phase is Phase.CHANNEL_OPEN
    assert view.seq == 0 and view.case_id == 0
    assert view.current_state == machine.initial_state
    assert [t.kind for t in ledger.log] == [TxKind.DEPLOY]


def test_deploy_requires_all_roles_bound(machine):
    ledger = Ledger()
    keys = {r: generate_signing_key(r.encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    addresses.pop("carrier")
    with pytest.raises(DeployError, match="carrier"):
        ledger.deploy_channel(machine, addresses, 10)


def test_deploy_rejects_shared_address(machine):
    ledger = Ledger()
    keys = {r: generate_signing_key(r.encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    addresses["carrier"] = addresses["supplier"]
    with pytest.raises(DeployError, match="distinct"):
        ledger.deploy_channel(machine, addresses, 10)


def test_deploy_rejects_bad_window(machine):
    ledger = Ledger()
    keys = {r: generate_signing_key(r.encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    with pytest.raises(DeployError):
        ledger.deploy_channel(machine, addresses, 0)


@pytest.mark.parametrize("kind", ["channel", "baseline"])
def test_deploy_refuses_a_key_that_does_not_parse(machine, kind):
    """Keys are parsed once, at deploy: a registered key that is not an
    Ed25519 public key is outside input and stops the deployment."""
    ledger = Ledger()
    keys = {r: generate_signing_key(r.encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    addresses["carrier"] = ledger.register_account(b"not-a-key")
    with pytest.raises(DeployError, match="key for role 'carrier'"):
        if kind == "channel":
            ledger.deploy_channel(machine, addresses, 10)
        else:
            ledger.deploy_baseline(machine, addresses)
    assert ledger.log == [] and ledger.contracts == {}


def test_contract_ids_distinct_across_heights(machine):
    ledger = Ledger()
    keys = {r: generate_signing_key(r.encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    first = ledger.deploy_channel(machine, addresses, 10)
    ledger.advance_blocks(1)
    second = ledger.deploy_channel(machine, addresses, 10)
    assert first != second


def test_contract_ids_distinct_within_block(machine):
    ledger = Ledger()
    keys = {r: generate_signing_key(r.encode()) for r in machine.role_ids}
    addresses = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    assert ledger.deploy_channel(machine, addresses, 10) != \
        ledger.deploy_channel(machine, addresses, 10)


def test_submit_accepts_and_opens_dispute(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine, window=7)
    s3 = signed_after(machine, cid, keys, variant, 3)
    result = ledger.submit_state(cid, s3, addrs["supplier"])
    assert isinstance(result, Accepted)
    view = ledger.get_contract(cid)
    assert view.phase is Phase.DISPUTE
    assert view.seq == 3
    assert view.dispute_deadline == ledger.height + 7


def test_submit_rejects_stale_seq(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 3), addrs["carrier"])
    result = ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 2), addrs["carrier"])
    assert result == Rejected("stale-seq")
    assert ledger.get_contract(cid).seq == 3


def test_submit_higher_seq_replaces_without_extending_deadline(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine, window=5)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 3), addrs["carrier"])
    deadline = ledger.get_contract(cid).dispute_deadline
    ledger.advance_blocks(2)
    result = ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 5), addrs["carrier"])
    assert isinstance(result, Accepted)
    view = ledger.get_contract(cid)
    assert view.seq == 5
    assert view.dispute_deadline == deadline


def test_submit_rejects_incomplete_signatures(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    partial = signed_after(machine, cid, keys, variant, 3, skip_roles=("middleman",))
    assert ledger.submit_state(cid, partial, addrs["carrier"]) == Rejected("incomplete-signatures")


def test_submit_rejects_wrong_case(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    future = signed_after(machine, cid, keys, variant, 3, case_id=1)
    assert ledger.submit_state(cid, future, addrs["carrier"]) == Rejected("wrong-case")


def test_submit_rejects_wrong_chain(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine, chain_id=7)
    foreign = signed_after(machine, cid, keys, variant, 3, chain_id=8)
    assert ledger.submit_state(cid, foreign, addrs["carrier"]) == Rejected("wrong-chain")


def test_submit_rejects_cross_contract_replay(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    other_cid = ledger.deploy_channel(machine, addrs, 10)
    stolen = signed_after(machine, cid, keys, variant, 3)
    assert ledger.submit_state(other_cid, stolen, addrs["carrier"]) == Rejected("wrong-contract")


def test_advance_blocks_expires_window_exactly(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine, window=5)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 3), addrs["carrier"])
    ledger.advance_blocks(4)
    assert ledger.get_contract(cid).phase is Phase.DISPUTE
    ledger.advance_blocks(1)
    assert ledger.get_contract(cid).phase is Phase.ON_CHAIN


def test_advance_blocks_sweeps_only_expired(machine, variant):
    ledger = Ledger()
    keys = {r: generate_signing_key(f"sweep|{r}".encode()) for r in machine.role_ids}
    addrs = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    cid_a = ledger.deploy_channel(machine, addrs, 3)
    cid_b = ledger.deploy_channel(machine, addrs, 8)
    ledger.submit_state(cid_a, signed_after(machine, cid_a, keys, variant, 2), addrs["carrier"])
    ledger.submit_state(cid_b, signed_after(machine, cid_b, keys, variant, 2), addrs["carrier"])
    ledger.advance_blocks(3)
    assert ledger.get_contract(cid_a).phase is Phase.ON_CHAIN
    assert ledger.get_contract(cid_b).phase is Phase.DISPUTE


def test_on_chain_step_requires_on_chain_phase(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    result = ledger.on_chain_step(cid, TaskRequest("place_order", "bulk_buyer"), addrs["bulk_buyer"])
    assert result == Rejected("phase-CHANNEL_OPEN")


def _force_on_chain(machine, variant, count=5, window=5):
    ledger, cid, keys, addrs = make_channel(machine, window=window)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, count), addrs["carrier"])
    ledger.advance_blocks(window)
    return ledger, cid, keys, addrs


def _last_accepted(ledger, case_id):
    return [t for t in ledger.log if t.accepted and t.case_id == case_id][-1]


def test_on_chain_step_accepts_correct_sender(machine, variant):
    ledger, cid, keys, addrs = _force_on_chain(machine, variant)
    req = variant[5]
    result = ledger.on_chain_step(cid, req, addrs[req.requester_role])
    assert isinstance(result, Accepted)
    assert result.seq == 6


def test_on_chain_step_rejects_wrong_address(machine, variant):
    ledger, cid, keys, addrs = _force_on_chain(machine, variant)
    req = variant[5]
    wrong = addrs["bulk_buyer" if req.requester_role != "bulk_buyer" else "supplier"]
    assert ledger.on_chain_step(cid, req, wrong) == Rejected("wrong-role")


def test_on_chain_step_rejects_unbound_address(machine, variant):
    ledger, cid, keys, addrs = _force_on_chain(machine, variant)
    assert ledger.on_chain_step(cid, variant[5], b"\x01" * 32) == Rejected("unbound-sender")


def test_full_remainder_on_chain_reaches_end_and_resets(machine, variant):
    ledger, cid, keys, addrs = _force_on_chain(machine, variant, count=5)
    for req in variant[5:]:
        result = ledger.on_chain_step(cid, req, addrs[req.requester_role])
        assert isinstance(result, Accepted), (req, result)
    view = ledger.get_contract(cid)
    assert view.case_id == 1
    assert view.phase is Phase.CHANNEL_OPEN
    assert view.seq == 0
    assert _last_accepted(ledger, case_id=0).kind is TxKind.ON_CHAIN_TASK


def test_close_happy_path_resets_case(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    final = signed_after(machine, cid, keys, variant, len(variant))
    result = ledger.close_channel(cid, final, addrs["manufacturer"])
    assert isinstance(result, Accepted)
    view = ledger.get_contract(cid)
    assert view.case_id == 1
    assert view.phase is Phase.CHANNEL_OPEN
    assert view.current_state == machine.initial_state
    assert _last_accepted(ledger, case_id=0).kind is TxKind.CLOSE


def test_contract_state_does_not_grow_across_cases(machine, variant):
    """Each way a case can end leaves the contract as the first close did,
    apart from the case id: the contract keeps no history of past cases."""
    ledger, cid, keys, addrs = make_channel(machine, window=5)
    contract = ledger.contracts[cid]

    def without_case_id():
        return {k: copy.deepcopy(v) for k, v in vars(contract).items() if k != "case_id"}

    n = len(variant)
    final = signed_after(machine, cid, keys, variant, n, case_id=0)
    assert isinstance(ledger.close_channel(cid, final, addrs["carrier"]), Accepted)
    after_first = without_case_id()

    final = signed_after(machine, cid, keys, variant, n, case_id=1)
    assert isinstance(ledger.submit_state(cid, final, addrs["carrier"]), Accepted)
    ledger.advance_blocks(5)  # the window expires on an end state
    assert contract.case_id == 2 and without_case_id() == after_first

    partial = signed_after(machine, cid, keys, variant, 5, case_id=2)
    assert isinstance(ledger.submit_state(cid, partial, addrs["carrier"]), Accepted)
    ledger.advance_blocks(5)
    for req in variant[5:]:
        assert isinstance(ledger.on_chain_step(cid, req, addrs[req.requester_role]), Accepted)
    assert contract.case_id == 3 and without_case_id() == after_first


def test_close_rejects_mid_process_state(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    partial = signed_after(machine, cid, keys, variant, 4)
    assert ledger.close_channel(cid, partial, addrs["carrier"]) == Rejected("not-final-state")


def test_close_rejects_incomplete_signatures(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    final = signed_after(machine, cid, keys, variant, len(variant), skip_roles=("supplier",))
    assert ledger.close_channel(cid, final, addrs["carrier"]) == Rejected("incomplete-signatures")


def test_case_zero_final_rejected_after_reset(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    final = signed_after(machine, cid, keys, variant, len(variant))
    assert isinstance(ledger.close_channel(cid, final, addrs["manufacturer"]), Accepted)
    # Same bytes again: the contract now runs case 1, so the old step is dead.
    assert ledger.close_channel(cid, final, addrs["manufacturer"]) == Rejected("wrong-case")
    assert ledger.submit_state(cid, final, addrs["manufacturer"]) == Rejected("wrong-case")


def test_close_rejected_during_dispute(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 3), addrs["carrier"])
    final = signed_after(machine, cid, keys, variant, len(variant))
    assert ledger.close_channel(cid, final, addrs["carrier"]) == Rejected("phase-DISPUTE")


def test_seq_monotonic_across_log(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine, window=4)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 2), addrs["carrier"])
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 1), addrs["carrier"])
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 4), addrs["carrier"])
    ledger.advance_blocks(4)
    for req in variant[4:]:
        ledger.on_chain_step(cid, req, addrs[req.requester_role])
    seqs = [t.contract_seq for t in ledger.log if t.accepted]
    assert seqs == sorted(seqs)


def test_ledger_log_deterministic(machine, variant):
    def run():
        ledger, cid, keys, addrs = make_channel(machine, window=5)
        ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 3), addrs["carrier"])
        ledger.advance_blocks(5)
        for req in variant[3:]:
            ledger.on_chain_step(cid, req, addrs[req.requester_role])
        return ledger.export_log()

    assert run() == run()


def test_cost_depends_only_on_payload(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    other = signed_after(machine, cid, keys, variant, 3)
    r1 = ledger.submit_state(cid, other, addrs["carrier"])
    assert isinstance(r1, Accepted)
    submit_costs = [t.cost for t in ledger.log if t.kind is TxKind.SUBMIT_STATE]
    ledger.advance_blocks(1)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 4), addrs["supplier"])
    submit_costs2 = [t.cost for t in ledger.log if t.kind is TxKind.SUBMIT_STATE]
    assert submit_costs2[-1] == submit_costs[-1]


def test_contract_charges_are_logged(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 2), addrs["carrier"])
    ledger.submit_state(cid, signed_after(machine, cid, keys, variant, 1), addrs["carrier"])  # rejected
    submits = [t for t in ledger.log if t.contract_id == cid and t.kind is TxKind.SUBMIT_STATE]
    assert [t.accepted for t in submits] == [True, False]
    assert submits[0].cost == submits[1].cost


def test_baseline_serves_back_to_back_cases_on_chain(machine, variant):
    channel, cid, _, channel_addrs = _force_on_chain(machine, variant)
    channel.on_chain_step(cid, variant[5], channel_addrs[variant[5].requester_role])
    channel_task_cost = channel.log[-1].cost

    ledger = Ledger()
    keys = {r: generate_signing_key(f"baseline|{r}".encode()) for r in machine.role_ids}
    addrs = {r: ledger.register_account(public_key_of(k)) for r, k in keys.items()}
    bid = ledger.deploy_baseline(machine, addrs)
    for case_id in range(2):
        view = ledger.get_contract(bid)
        assert (view.phase, view.case_id, view.seq) == (Phase.ON_CHAIN, case_id, 0)
        state = machine.initial_state
        for i, req in enumerate(variant, 1):
            state = step(machine, state, req)
            result = ledger.on_chain_step(bid, req, addrs[req.requester_role])
            assert result == Accepted(0 if i == len(variant) else i, Phase.ON_CHAIN, state)
    view = ledger.get_contract(bid)
    assert (view.phase, view.case_id, view.seq) == (Phase.ON_CHAIN, 2, 0)
    assert ledger.contracts[bid].current_state == machine.initial_state

    tasks = [t for t in ledger.log if t.kind is TxKind.ON_CHAIN_TASK]
    n = len(variant)
    assert all(t.accepted for t in tasks)
    assert [t.case_id for t in tasks] == [0] * n + [1] * n
    assert [t.contract_seq for t in tasks] == list(range(1, n + 1)) * 2
    surcharge = ledger.params.dispute_check_surcharge
    assert {t.cost.cost_units for t in tasks} == {channel_task_cost.cost_units - surcharge}


@pytest.mark.parametrize("order", [(3, 1, 4, 2), (1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)])
def test_highest_seq_wins_any_submission_order(machine, variant, order):
    """Safety: whatever the interleaving, the state installed when the window
    expires is the highest submitted complete seq."""
    ledger, cid, keys, addrs = make_channel(machine, window=10)
    for count in order:
        ledger.submit_state(cid, signed_after(machine, cid, keys, variant, count),
                            addrs["carrier"])
    ledger.advance_blocks(10)
    view = ledger.get_contract(cid)
    assert view.seq == 4
    assert view.phase is Phase.ON_CHAIN


def _forged(signed, keys, role="carrier", signer="supplier"):
    """The complete set with `role`'s signature made by another role's key."""
    forged = sign_step(signed.payload, keys[signer])
    return SignedStep(signed.payload, {**signed.signatures, role: forged})


def test_submit_and_close_reject_a_signature_from_another_key(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    mid = _forged(signed_after(machine, cid, keys, variant, 2), keys)
    assert mid.signatures.keys() == set(machine.role_ids)
    assert ledger.submit_state(cid, mid, addrs["carrier"]) == Rejected("invalid-signature")
    final = _forged(signed_after(machine, cid, keys, variant, len(variant)), keys)
    assert ledger.close_channel(cid, final, addrs["carrier"]) == Rejected("invalid-signature")
    view = ledger.get_contract(cid)
    assert (view.phase, view.seq, view.case_id) == (Phase.CHANNEL_OPEN, 0, 0)
    assert [(t.kind, t.reason) for t in ledger.log[1:]] == [
        (TxKind.SUBMIT_STATE, "invalid-signature"), (TxKind.CLOSE, "invalid-signature")]


def test_submit_and_close_reject_a_signer_beyond_the_roles(machine, variant):
    """The contract applies the nodes' signer rule: the signers are exactly
    the roles. The roles' valid signatures plus one more are refused like a
    missing one, charged and logged, and the contract is left as it was."""
    ledger, cid, keys, addrs = make_channel(machine)
    contract = ledger.contracts[cid]
    before = copy.deepcopy(vars(contract))

    def with_extra_signer(signed):
        return SignedStep(signed.payload, {**signed.signatures, "zz-extra": bytes(64)})

    mid = signed_after(machine, cid, keys, variant, 2)
    final = signed_after(machine, cid, keys, variant, len(variant))
    assert ledger.submit_state(cid, with_extra_signer(mid), addrs["carrier"]) == \
        Rejected("incomplete-signatures")
    assert ledger.close_channel(cid, with_extra_signer(final), addrs["carrier"]) == \
        Rejected("incomplete-signatures")
    assert vars(contract) == before
    # The same step with exactly the roles' signatures is accepted, at the
    # same charge.
    assert isinstance(ledger.submit_state(cid, mid, addrs["carrier"]), Accepted)
    assert [(t.kind, t.accepted, t.reason, t.contract_seq, t.payload_seq)
            for t in ledger.log[1:]] == [
        (TxKind.SUBMIT_STATE, False, "incomplete-signatures", 0, 2),
        (TxKind.CLOSE, False, "incomplete-signatures", 0, len(variant)),
        (TxKind.SUBMIT_STATE, True, None, 2, 2)]
    assert len({t.cost for t in ledger.log[1:]}) == 1


def test_submit_rejects_bad_state_width(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    good = signed_after(machine, cid, keys, variant, 2)
    payload = dataclasses.replace(good.payload, new_state=good.payload.new_state + b"\x00")
    wide = SignedStep(payload, {r: sign_step(payload, k) for r, k in keys.items()})
    assert ledger.submit_state(cid, wide, addrs["carrier"]) == Rejected("bad-state-width")
    assert ledger.get_contract(cid).phase is Phase.CHANNEL_OPEN


def test_unknown_contract_is_refused_without_a_log_entry(machine, variant):
    ledger, cid, keys, addrs = make_channel(machine)
    signed = signed_after(machine, cid, keys, variant, len(variant))
    unknown = bytes(32)
    sender = addrs["carrier"]
    assert ledger.submit_state(unknown, signed, sender) == Rejected("unknown-contract")
    assert ledger.on_chain_step(unknown, variant[0], sender) == Rejected("unknown-contract")
    assert ledger.close_channel(unknown, signed, sender) == Rejected("unknown-contract")
    assert [t.kind for t in ledger.log] == [TxKind.DEPLOY]


@pytest.mark.parametrize("blocks", [0, -1])
def test_advance_blocks_refuses_non_positive(machine, blocks):
    ledger, _, _, _ = make_channel(machine)
    with pytest.raises(LedgerError, match="at least one block"):
        ledger.advance_blocks(blocks)
    assert ledger.height == 0
