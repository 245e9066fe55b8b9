import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choreochannel.machine import TaskRequest, step
from choreochannel.cases import build_machine
from choreochannel.wire import (
    ChannelMessage,
    EncodingError,
    MessageKind,
    SignedStep,
    StepPayload,
    WireError,
    address_of,
    encode_step,
    generate_signing_key,
    public_key_of,
    sign_step,
    verify_step,
)

KEY = generate_signing_key(b"wire-tests")
PUB = public_key_of(KEY)

# Captured once from the supply-chain fixture payload below; pinned since the
# encoding must never drift.
GOLDEN_HEX = (
    "0000000000000001000102030405060708090a0b0c0d0e0f10111213141516171819"
    "1a1b1c1d1e1f0000000000000000000000000000000100000"
    "00b706c6163655f6f7264657200000000000000020020"
)


def payload(**overrides) -> StepPayload:
    base = dict(
        chain_id=1,
        contract_id=bytes(range(32)),
        case_id=0,
        seq=1,
        task_id="place_order",
        choice_data=b"",
        new_state=b"\x00\x20",
    )
    base.update(overrides)
    return StepPayload(**base)


def test_encode_stable():
    assert encode_step(payload()) == encode_step(payload())


def test_encode_golden_vector():
    machine = build_machine("supply_chain")
    state = step(machine, machine.initial_state, TaskRequest("place_order", "bulk_buyer"))
    p = payload(new_state=machine.state_to_bytes(state))
    assert encode_step(p).hex() == GOLDEN_HEX


def test_encode_injective_on_seq():
    assert encode_step(payload(seq=1)) != encode_step(payload(seq=2))


@pytest.mark.parametrize(
    "bad",
    [
        dict(chain_id=-1),
        dict(seq=2**64),
        dict(contract_id=b"\x00" * 31),
    ],
)
def test_encode_rejects_out_of_range(bad):
    with pytest.raises(EncodingError):
        encode_step(payload(**bad))


def test_sign_verify_roundtrip():
    p = payload()
    sig = sign_step(p, KEY)
    assert verify_step(p, sig, PUB)


def test_verify_wrong_key():
    other = public_key_of(generate_signing_key(b"someone-else"))
    assert not verify_step(payload(), sign_step(payload(), KEY), other)


def test_verify_fails_for_every_task_id_mutation():
    p = payload()
    sig = sign_step(p, KEY)
    raw = bytearray(p.task_id.encode())
    for i in range(len(raw)):
        mutated = bytearray(raw)
        mutated[i] ^= 0x01
        q = payload(task_id=mutated.decode("latin-1"))
        assert not verify_step(q, sig, PUB), f"byte {i} mutation verified"


def test_verify_never_raises_on_garbage():
    p = payload()
    assert not verify_step(p, b"short", PUB)
    assert not verify_step(p, b"\x00" * 64, PUB)
    assert not verify_step(p, sign_step(p, KEY), b"not-a-key")


payload_strategy = st.builds(
    StepPayload,
    chain_id=st.integers(min_value=0, max_value=2**64 - 1),
    contract_id=st.binary(min_size=32, max_size=32),
    case_id=st.integers(min_value=0, max_value=2**64 - 1),
    seq=st.integers(min_value=0, max_value=2**64 - 1),
    task_id=st.text(max_size=24),
    choice_data=st.binary(max_size=16),
    new_state=st.binary(min_size=1, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(a=payload_strategy, b=payload_strategy)
def test_encoding_injective(a, b):
    if a != b:
        assert encode_step(a) != encode_step(b)
    else:
        assert encode_step(a) == encode_step(b)


@settings(max_examples=40, deadline=None)
@given(p=payload_strategy)
def test_payload_wire_roundtrip(p):
    assert StepPayload.from_wire(p.to_wire()) == p


def test_signed_step_completeness_order_insensitive():
    p = payload()
    keys = {role: generate_signing_key(role.encode()) for role in ("a", "b", "c")}
    pubs = {role: public_key_of(k) for role, k in keys.items()}
    forward = SignedStep(p, {role: sign_step(p, keys[role]) for role in ("a", "b", "c")})
    backward = SignedStep(p, {role: sign_step(p, keys[role]) for role in ("c", "b", "a")})
    assert forward.signatures == backward.signatures
    assert forward.is_complete(pubs) and backward.is_complete(pubs)
    assert forward.verify_all(pubs) and backward.verify_all(pubs)
    assert not SignedStep(p, dict(list(forward.signatures.items())[:2])).is_complete(pubs)


def test_address_is_hash_of_public_key():
    assert len(address_of(PUB)) == 32
    assert address_of(PUB) == address_of(PUB)
    assert address_of(PUB) != address_of(public_key_of(generate_signing_key(b"x")))


def test_signed_step_wire_roundtrip():
    p = payload()
    signed = SignedStep(p, {"b": sign_step(p, KEY), "a": sign_step(p, generate_signing_key(b"a"))})
    assert SignedStep.from_wire(signed.to_wire()) == signed
    assert SignedStep.from_wire(json.loads(json.dumps(signed.to_wire()))) == signed


def test_message_envelope_roundtrip():
    p = payload()
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(p, {"a": sign_step(p, KEY)}))
    again = ChannelMessage.from_wire(msg.to_wire())
    assert again == msg
    assert json.loads(msg.to_wire()) == {"kind": "propose", **msg.signed.to_wire()}


def test_message_signature_cardinality():
    p = payload()
    sig = sign_step(p, KEY)
    with pytest.raises(ValueError):
        ChannelMessage(MessageKind.PROPOSE, SignedStep(p, {"a": sig, "b": sig}))
    with pytest.raises(ValueError):
        ChannelMessage(MessageKind.SIGN, SignedStep(p, {}))
    with pytest.raises(ValueError):
        ChannelMessage(MessageKind.CONFIRM, SignedStep(p, {}))
    ChannelMessage(MessageKind.CONFIRM, SignedStep(p, {"a": sig, "b": sig}))  # fine


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
ENVELOPE = json.loads(ChannelMessage(
    MessageKind.PROPOSE, SignedStep(payload(), {"a": sign_step(payload(), KEY)})).to_wire())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_message_from_wire_is_total(data):
    """Arbitrary JSON, and a valid envelope with one field of the envelope or
    of its payload or signatures replaced by arbitrary JSON, either decodes or
    raises WireError."""
    doc = json.loads(json.dumps(ENVELOPE))
    target = data.draw(st.sampled_from([None, doc, doc["payload"], doc["signatures"]]))
    if target is None:
        doc = data.draw(JSON)
    else:
        target[data.draw(st.sampled_from(sorted(target) + ["extra"]))] = data.draw(JSON)
    try:
        msg = ChannelMessage.from_wire(json.dumps(doc))
    except WireError:
        return
    step = msg.signed.payload
    assert isinstance(step.task_id, str)
    assert {type(step.chain_id), type(step.case_id), type(step.seq)} == {int}
    assert {type(r) for r in msg.signed.signatures} <= {str}
    assert {type(s) for s in msg.signed.signatures.values()} <= {bytes}


@pytest.mark.parametrize("raw", ["", "not json", "[" * 100000], ids=["empty", "text", "deep"])
def test_message_from_wire_rejects_undecodable_text(raw):
    with pytest.raises(WireError):
        ChannelMessage.from_wire(raw)
