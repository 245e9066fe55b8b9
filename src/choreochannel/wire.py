"""Canonical byte encoding, Ed25519 signing, and off-chain message envelopes.

Signatures always cover `encode_step` output. The encoding is injective:
fixed big-endian integers in field order, then length-prefixed variable
fields. `decode_step` is its exact inverse, so a received payload keeps the
bytes it arrived in and is verified over them, never re-encoded.

A protocol envelope (`ChannelMessage.to_wire`) carries those same bytes: a
kind byte, the u32-length-prefixed payload encoding, a u8 signer count, then
per signer, in role order, a u8-length-prefixed UTF-8 role id and its 64-byte
signature. Each message has exactly one byte form, and it is the only form
of evidence: a node's archive stores the same bytes, hex encoded, one
envelope per line.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

CONTRACT_ID_BYTES = 32
_U64_MAX = 2**64 - 1
_U32_MAX = 2**32 - 1
_U8_MAX = 255
SIGNATURE_BYTES = 64
# chain_id, contract_id, case_id, seq, then the length of the task id.
_STEP_HEAD = struct.Struct(">Q32sQQI")
_U32 = struct.Struct(">I")
# The kind byte, then the length of the payload bytes that follow it.
_ENVELOPE_HEAD = struct.Struct(">BI")


class EncodingError(ValueError):
    pass


class WireError(ValueError):
    """Bytes that are not an envelope or step encoding."""


@dataclass(frozen=True)
class StepPayload:
    chain_id: int
    contract_id: bytes
    case_id: int
    seq: int
    task_id: str
    choice_data: bytes
    new_state: bytes

    @cached_property
    def encoded(self) -> bytes:
        """`encode_step(self)`, computed once: every sign and verify of this
        payload reuses the same bytes."""
        return encode_step(self)


def encode_step(p: StepPayload) -> bytes:
    """Deterministic, injective byte encoding of a step payload."""
    for name, value in (("chain_id", p.chain_id), ("case_id", p.case_id), ("seq", p.seq)):
        if not 0 <= value <= _U64_MAX:
            raise EncodingError(f"{name} out of unsigned 64-bit range: {value}")
    if len(p.contract_id) != CONTRACT_ID_BYTES:
        raise EncodingError(f"contract_id must be {CONTRACT_ID_BYTES} bytes")
    task_bytes = p.task_id.encode("utf-8")
    for name, blob in (("task_id", task_bytes), ("choice_data", p.choice_data), ("new_state", p.new_state)):
        if len(blob) > _U32_MAX:
            raise EncodingError(f"{name} exceeds 32-bit length prefix")
    return b"".join((
        _STEP_HEAD.pack(p.chain_id, p.contract_id, p.case_id, p.seq, len(task_bytes)),
        task_bytes,
        _U32.pack(len(p.choice_data)),
        p.choice_data,
        _U32.pack(len(p.new_state)),
        p.new_state,
    ))


def decode_step(raw: bytes) -> StepPayload:
    """The payload whose `encode_step` bytes are exactly `raw`; its cached
    `encoded` is `raw` itself. Anything else, trailing bytes included,
    raises WireError."""
    try:
        chain_id, contract_id, case_id, seq, size = _STEP_HEAD.unpack_from(raw)
        at = _STEP_HEAD.size + size
        task_bytes = raw[_STEP_HEAD.size:at]
        (size,) = _U32.unpack_from(raw, at)
        at += _U32.size + size
        choice_data = raw[at - size:at]
        (size,) = _U32.unpack_from(raw, at)
        at += _U32.size + size
        new_state = raw[at - size:at]
        task_id = task_bytes.decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"not a step encoding: {exc}") from None
    # A field cut short leaves `at` past the end: offsets only ever advance
    # by the lengths the encoding declares.
    if at != len(raw):
        raise WireError(f"step encoding declares {at} bytes, got {len(raw)}")
    payload = StepPayload(chain_id, contract_id, case_id, seq, task_id, choice_data, new_state)
    # Sound because encode_step(payload) == raw for every raw accepted here.
    payload.__dict__["encoded"] = bytes(raw)
    return payload


def generate_signing_key(seed: bytes) -> Ed25519PrivateKey:
    """Ed25519 private key derived from a seed, so runs are reproducible."""
    return Ed25519PrivateKey.from_private_bytes(hashlib.sha256(seed).digest())


def public_key_of(signing_key: Ed25519PrivateKey) -> bytes:
    return signing_key.public_key().public_bytes_raw()


def address_of(public_key: bytes) -> bytes:
    """Participant address: the 32-byte hash of the public key."""
    return hashlib.sha256(public_key).digest()


def sign_step(p: StepPayload, signing_key: Ed25519PrivateKey) -> bytes:
    return signing_key.sign(p.encoded)


def verify_step(p: StepPayload, signature: bytes, public_key: Ed25519PublicKey) -> bool:
    """True iff signature covers encode_step(p) under the parsed key. Never
    raises on any payload or signature bytes: an unencodable payload or a
    signature of the wrong length is simply not valid."""
    try:
        public_key.verify(signature, p.encoded)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True)
class SignedStep:
    """A step payload plus collected signatures, keyed by role id. Whether
    they are exactly the roles' and valid is decided by `signature_fault`
    under the contract's role keys (`ChannelContract.role_keys`)."""

    payload: StepPayload
    signatures: dict[str, bytes]


def signature_fault(payload: StepPayload, signatures: dict[str, bytes],
                    role_keys: dict[str, Ed25519PublicKey],
                    checked: dict[str, bytes] | None = None) -> str | None:
    """The one signer-set rule, which the contract applies to every fully
    signed step and a node to every Confirm: the signers are exactly the
    roles, and each signature is valid. Returns "incomplete-signatures",
    "invalid-signature" or None.

    A signature byte-equal to the one `checked` holds for its role was
    verified, or made, by the caller already and is not verified again."""
    if signatures.keys() != role_keys.keys():
        return "incomplete-signatures"
    held = checked or {}
    for role, key in role_keys.items():
        sig = signatures[role]
        if sig != held.get(role) and not verify_step(payload, sig, key):
            return "invalid-signature"
    return None


class MessageKind(Enum):
    """A message kind; its value is the envelope's kind byte."""

    PROPOSE = 1
    SIGN = 2
    CONFIRM = 3


_KINDS = {kind.value: kind for kind in MessageKind}


@dataclass(frozen=True)
class ChannelMessage:
    """A protocol envelope: a kind plus signed evidence. Propose and Sign
    carry exactly one signature, which names the sender; Confirm carries the
    full set."""

    kind: MessageKind
    signed: SignedStep

    def __post_init__(self):
        count = len(self.signed.signatures)
        if self.kind in (MessageKind.PROPOSE, MessageKind.SIGN) and count != 1:
            raise ValueError(f"{self.kind.name} message must carry exactly one signature")
        if self.kind is MessageKind.CONFIRM and not count:
            raise ValueError("CONFIRM message must carry signatures")

    def to_wire(self) -> bytes:
        """The envelope's one byte form (see the module docstring)."""
        payload = self.signed.payload.encoded
        signatures = sorted(self.signed.signatures.items())
        if len(signatures) > _U8_MAX:
            raise EncodingError(f"{len(signatures)} signers exceed the u8 count")
        parts = [_ENVELOPE_HEAD.pack(self.kind.value, len(payload)), payload,
                 bytes((len(signatures),))]
        for role, sig in signatures:
            name = role.encode("utf-8")
            if len(name) > _U8_MAX or len(sig) != SIGNATURE_BYTES:
                raise EncodingError(f"role {role[:20]!r} or its signature does not fit")
            parts += (bytes((len(name),)), name, sig)
        return b"".join(parts)

    @classmethod
    def from_wire(cls, raw: bytes) -> "ChannelMessage":
        """Decode an envelope. Any bytes that `to_wire` would not write, such
        as repeated or unordered roles or a signature count wrong for the
        kind, raise WireError."""
        try:
            code, size = _ENVELOPE_HEAD.unpack_from(raw)
            kind = _KINDS[code]
            at = _ENVELOPE_HEAD.size + size
            payload = raw[_ENVELOPE_HEAD.size:at]
            count = raw[at]
            at += 1
            signatures: dict[str, bytes] = {}
            role = None
            for _ in range(count):
                size = raw[at]
                previous, role = role, raw[at + 1:at + 1 + size].decode("utf-8")
                if previous is not None and role <= previous:
                    raise WireError("signer roles repeat or are out of order")
                at += 1 + size + SIGNATURE_BYTES
                signatures[role] = raw[at - SIGNATURE_BYTES:at]
            # As in decode_step, a field cut short leaves `at` past the end.
            if at != len(raw):
                raise WireError(f"envelope declares {at} bytes, got {len(raw)}")
            return cls(kind, SignedStep(decode_step(payload), signatures))
        except WireError:
            raise
        except (struct.error, KeyError, IndexError, ValueError) as exc:  # kind, UTF-8, count
            raise WireError(f"not an envelope: {exc}") from None
