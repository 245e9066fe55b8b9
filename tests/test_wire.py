import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choreochannel import wire
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
    decode_step,
    encode_step,
    generate_signing_key,
    public_key_of,
    sign_step,
    verify_step,
)
from util import CONFIRM, PROPOSE, SIGN, envelope, flipped, step_bytes

KEY = generate_signing_key(b"wire-tests")
PUB = public_key_of(KEY)  # raw bytes, for addresses
VERIFY_KEY = KEY.public_key()

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
    assert verify_step(p, sig, VERIFY_KEY)


def test_verify_wrong_key():
    other = generate_signing_key(b"someone-else").public_key()
    assert not verify_step(payload(), sign_step(payload(), KEY), other)


def test_verify_fails_for_every_task_id_mutation():
    p = payload()
    sig = sign_step(p, KEY)
    raw = bytearray(p.task_id.encode())
    for i in range(len(raw)):
        mutated = bytearray(raw)
        mutated[i] ^= 0x01
        q = payload(task_id=mutated.decode("latin-1"))
        assert not verify_step(q, sig, VERIFY_KEY), f"byte {i} mutation verified"


def test_verify_never_raises_on_garbage():
    p = payload()
    assert not verify_step(p, b"short", VERIFY_KEY)
    assert not verify_step(p, b"\x00" * 64, VERIFY_KEY)
    assert not verify_step(payload(seq=2**64), sign_step(p, KEY), VERIFY_KEY)  # unencodable


def _verify_cases() -> list[tuple[StepPayload, bytes]]:
    """The signed payload and its signature first, then every one-bit change
    of its task id or signature, garbage signatures and an unencodable
    payload."""
    p = payload()
    sig = sign_step(p, KEY)
    cases = [(p, sig), (p, b"short"), (p, b"\x00" * 64), (payload(seq=2**64), sig)]
    raw = p.task_id.encode()
    for i in range(len(raw)):
        mutated = bytearray(raw)
        mutated[i] ^= 0x01
        cases.append((payload(task_id=mutated.decode("latin-1")), sig))
    for i in range(len(sig)):
        mutated = bytearray(sig)
        mutated[i] ^= 0x01
        cases.append((p, bytes(mutated)))
    return cases


def test_verify_accepts_only_the_signed_payload_and_signature():
    cases = _verify_cases()
    verdicts = [verify_step(q, s, VERIFY_KEY) for q, s in cases]
    assert verdicts == [True] + [False] * (len(cases) - 1)


def test_one_key_object_gives_every_thread_the_same_verdicts():
    """All nodes of a channel verify with the contract's key objects, and
    over HTTP each node does so on its own handler thread."""
    cases = _verify_cases()
    expected = [True] + [False] * (len(cases) - 1)
    results: list[list[bool]] = [[] for _ in range(4)]  # more threads than cores

    def verify_all_cases(out):
        for _ in range(3):
            out.append([verify_step(q, s, VERIFY_KEY) for q, s in cases])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=verify_all_cases, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected] * 3] * len(threads)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=payload_strategy, b=payload_strategy)
def test_encoding_injective(a, b):
    if a != b:
        assert encode_step(a) != encode_step(b)
    else:
        assert encode_step(a) == encode_step(b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=payload_strategy)
def test_cached_encoding_is_encode_step(p):
    assert p.encoded == encode_step(p)
    assert p.encoded is p.encoded  # computed once


def test_signed_step_completeness_order_insensitive():
    p = payload()
    keys = {role: generate_signing_key(role.encode()) for role in ("a", "b", "c")}
    forward = SignedStep(p, {role: sign_step(p, keys[role]) for role in ("a", "b", "c")})
    backward = SignedStep(p, {role: sign_step(p, keys[role]) for role in ("c", "b", "a")})
    assert forward == backward
    assert forward.signatures.keys() == backward.signatures.keys() == keys.keys()
    assert all(verify_step(p, sig, keys[role].public_key())
               for role, sig in backward.signatures.items())
    wire_form = ChannelMessage(MessageKind.CONFIRM, forward).to_wire()
    assert ChannelMessage(MessageKind.CONFIRM, backward).to_wire() == wire_form


def test_address_is_hash_of_public_key():
    assert len(address_of(PUB)) == 32
    assert address_of(PUB) == address_of(PUB)
    assert address_of(PUB) != address_of(public_key_of(generate_signing_key(b"x")))


def test_message_envelope_roundtrip():
    p = payload()
    sig_a, sig_b = sign_step(p, KEY), sign_step(p, generate_signing_key(b"b"))
    msg = ChannelMessage(MessageKind.PROPOSE, SignedStep(p, {"a": sig_a}))
    assert msg.to_wire() == envelope(PROPOSE, encode_step(p), [(b"a", sig_a)])
    again = ChannelMessage.from_wire(msg.to_wire())
    assert again == msg
    assert again.signed.payload.encoded == encode_step(p)
    # Signers go out in role order, whatever order they were collected in.
    confirm = ChannelMessage(MessageKind.CONFIRM, SignedStep(p, {"b": sig_b, "a": sig_a}))
    assert confirm.to_wire() == envelope(CONFIRM, encode_step(p), [(b"a", sig_a), (b"b", sig_b)])
    assert ChannelMessage.from_wire(confirm.to_wire()) == confirm


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


def test_message_to_wire_refuses_what_it_cannot_write():
    p = payload()
    sig = sign_step(p, KEY)
    for signed in (SignedStep(p, {"r" * 256: sig}), SignedStep(p, {"a": sig[:63]}),
                   SignedStep(payload(seq=2**64), {"a": sig})):
        with pytest.raises(EncodingError):
            ChannelMessage(MessageKind.PROPOSE, signed).to_wire()
    many = {f"r{i:03}": sig for i in range(256)}
    with pytest.raises(EncodingError):
        ChannelMessage(MessageKind.CONFIRM, SignedStep(p, many)).to_wire()
    # The u8 limits themselves still encode: a 255-byte role id, 255 signers.
    del many["r255"]
    for msg in (ChannelMessage(MessageKind.PROPOSE, SignedStep(p, {"r" * 255: sig})),
                ChannelMessage(MessageKind.CONFIRM, SignedStep(p, many))):
        assert ChannelMessage.from_wire(msg.to_wire()) == msg


def test_a_received_payload_is_verified_over_its_bytes_never_re_encoded(monkeypatch):
    p = payload()
    sig = sign_step(p, KEY)
    raw = ChannelMessage(MessageKind.PROPOSE, SignedStep(p, {"a": sig})).to_wire()

    def no_encoding(_):
        raise AssertionError("a received payload was encoded again")

    monkeypatch.setattr(wire, "encode_step", no_encoding)
    msg = ChannelMessage.from_wire(raw)
    assert verify_step(msg.signed.payload, sig, VERIFY_KEY)
    assert msg.to_wire() == raw


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=payload_strategy)
def test_decode_step_inverts_encode_step(p):
    raw = encode_step(p)
    decoded = decode_step(raw)
    assert decoded == p
    assert decoded.encoded == raw


def edits(base: bytes):
    """`base` with one byte changed, with a span replaced by arbitrary bytes
    (inserting or deleting some), or cut short."""
    spliced = st.tuples(st.integers(0, len(base)), st.integers(0, 4), st.binary(max_size=4)).map(
        lambda t: base[:t[0]] + t[2] + base[t[0] + t[1]:])
    return flipped(base) | spliced | st.integers(0, len(base)).map(lambda i: base[:i])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_decode_step_is_total(data):
    """Arbitrary bytes, and edits of a valid encoding, either raise WireError
    or are the encoding of the payload they decode to."""
    base = encode_step(data.draw(payload_strategy))
    raw = data.draw(st.binary(max_size=120) | edits(base))
    try:
        decoded = decode_step(raw)
    except WireError:
        return
    assert encode_step(decoded) == raw
    assert decoded.encoded == raw


ROLE = st.text(max_size=6).filter(lambda r: len(r.encode()) <= 255)
SIGNATURE = st.binary(min_size=64, max_size=64)
message_strategy = st.one_of(
    st.builds(lambda kind, p, role, sig: ChannelMessage(kind, SignedStep(p, {role: sig})),
              st.sampled_from([MessageKind.PROPOSE, MessageKind.SIGN]), payload_strategy,
              ROLE, SIGNATURE),
    st.builds(lambda p, sigs: ChannelMessage(MessageKind.CONFIRM, SignedStep(p, sigs)),
              payload_strategy, st.dictionaries(ROLE, SIGNATURE, min_size=1, max_size=5)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(msg=message_strategy)
def test_message_wire_roundtrip(msg):
    again = ChannelMessage.from_wire(msg.to_wire())
    assert again == msg
    assert again.signed.payload.encoded == encode_step(msg.signed.payload)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_message_from_wire_is_total(data):
    """Arbitrary bytes, and edits of a valid envelope, either raise WireError
    or decode to a message whose envelope is exactly those bytes, with the
    received payload bytes as its encoding."""
    base = data.draw(message_strategy).to_wire()
    raw = data.draw(st.binary(max_size=200) | edits(base))
    try:
        msg = ChannelMessage.from_wire(raw)
    except WireError:
        return
    assert msg.to_wire() == raw
    assert msg.signed.payload.encoded == encode_step(msg.signed.payload)


@pytest.mark.parametrize("raw", [b"", b"not json", b"[" * 100000], ids=["empty", "text", "deep"])
def test_message_from_wire_rejects_undecodable_text(raw):
    with pytest.raises(WireError):
        ChannelMessage.from_wire(raw)


SIG = bytes(range(64))
STEP = step_bytes()
BASE = envelope(PROPOSE, STEP, [(b"a", SIG)])
# Each body differs from a decodable one by the one defect its id names.
DEFECTS = {
    "kind-zero": envelope(0, STEP, [(b"a", SIG)]),
    "kind-four": envelope(4, STEP, [(b"a", SIG)]),
    "payload-length-too-long": BASE[:1] + (len(STEP) + 1).to_bytes(4, "big") + BASE[5:],
    "trailing-byte": BASE + b"\x00",
    "cut-short": BASE[:-1],
    "short-signature": envelope(PROPOSE, STEP, [(b"a", SIG[:63])]),
    "step-trailing-byte": envelope(PROPOSE, STEP + b"\x00", [(b"a", SIG)]),
    "step-short-contract-id": envelope(PROPOSE, step_bytes(contract_id=bytes(31)), [(b"a", SIG)]),
    "step-task-not-utf8": envelope(PROPOSE, step_bytes(task_id=b"\xff\xfe\xfa"), [(b"a", SIG)]),
    "role-not-utf8": envelope(PROPOSE, STEP, [(b"\xff", SIG)]),
    "propose-two-signers": envelope(PROPOSE, STEP, [(b"a", SIG), (b"b", SIG)]),
    "sign-no-signer": envelope(SIGN, STEP, []),
    "confirm-no-signer": envelope(CONFIRM, STEP, []),
    "confirm-repeated-role": envelope(CONFIRM, STEP, [(b"a", SIG), (b"a", SIG)]),
    "confirm-unordered-roles": envelope(CONFIRM, STEP, [(b"b", SIG), (b"a", SIG)]),
}


@pytest.mark.parametrize("name", DEFECTS)
def test_message_from_wire_refuses_each_defect(name):
    with pytest.raises(WireError):
        ChannelMessage.from_wire(DEFECTS[name])


def test_hand_built_envelopes_decode():
    for raw in (BASE, envelope(SIGN, STEP, [(b"a", SIG)]),
                envelope(CONFIRM, STEP, [(b"a", SIG), (b"b", SIG)])):
        assert ChannelMessage.from_wire(raw).to_wire() == raw
