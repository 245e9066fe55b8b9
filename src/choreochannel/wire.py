"""Canonical byte encoding, Ed25519 signing, and off-chain message envelopes.

Signatures always cover `encode_step` output, never the JSON envelope, so
bit-exactness is confined to one function. The encoding is injective: fixed
big-endian integers in field order, then length-prefixed variable fields.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from enum import Enum

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

CONTRACT_ID_BYTES = 32
_U64_MAX = 2**64 - 1
_U32_MAX = 2**32 - 1


class EncodingError(ValueError):
    pass


class WireError(ValueError):
    """A wire form whose JSON does not have the expected shape or types."""


def _field(data, key: str, kind: type):
    value = data.get(key) if type(data) is dict else None
    if type(value) is not kind:
        raise WireError(f"{key!r} must be a {kind.__name__}")
    return value


def _hex(value) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise WireError(f"not a hex string: {value!r}") from None


@dataclass(frozen=True)
class StepPayload:
    chain_id: int
    contract_id: bytes
    case_id: int
    seq: int
    task_id: str
    choice_data: bytes
    new_state: bytes

    def to_wire(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "contract_id": self.contract_id.hex(),
            "case_id": self.case_id,
            "seq": self.seq,
            "task_id": self.task_id,
            "choice_data": self.choice_data.hex(),
            "new_state": self.new_state.hex(),
        }

    @classmethod
    def from_wire(cls, data) -> "StepPayload":
        return cls(
            chain_id=_field(data, "chain_id", int),
            contract_id=_hex(_field(data, "contract_id", str)),
            case_id=_field(data, "case_id", int),
            seq=_field(data, "seq", int),
            task_id=_field(data, "task_id", str),
            choice_data=_hex(_field(data, "choice_data", str)),
            new_state=_hex(_field(data, "new_state", str)),
        )


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
    parts = [
        struct.pack(">Q", p.chain_id),
        p.contract_id,
        struct.pack(">Q", p.case_id),
        struct.pack(">Q", p.seq),
        struct.pack(">I", len(task_bytes)),
        task_bytes,
        struct.pack(">I", len(p.choice_data)),
        p.choice_data,
        struct.pack(">I", len(p.new_state)),
        p.new_state,
    ]
    return b"".join(parts)


def generate_signing_key(seed: bytes) -> Ed25519PrivateKey:
    """Ed25519 private key derived from a seed, so runs are reproducible."""
    return Ed25519PrivateKey.from_private_bytes(hashlib.sha256(seed).digest())


def public_key_of(signing_key: Ed25519PrivateKey) -> bytes:
    return signing_key.public_key().public_bytes_raw()


def address_of(public_key: bytes) -> bytes:
    """Participant address: the 32-byte hash of the public key."""
    return hashlib.sha256(public_key).digest()


def sign_step(p: StepPayload, signing_key: Ed25519PrivateKey) -> bytes:
    return signing_key.sign(encode_step(p))


def verify_step(p: StepPayload, signature: bytes, public_key: bytes) -> bool:
    """True iff signature covers encode_step(p) under the key; never raises."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, encode_step(p))
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


@dataclass(frozen=True)
class SignedStep:
    """A step payload plus collected signatures, keyed by role id."""

    payload: StepPayload
    signatures: dict[str, bytes] = field(default_factory=dict)

    def is_complete(self, roles) -> bool:
        return set(roles) <= set(self.signatures)

    def verify_all(self, role_keys: dict[str, bytes]) -> bool:
        """All required roles present and every signature valid."""
        for role, pub in role_keys.items():
            sig = self.signatures.get(role)
            if sig is None or not verify_step(self.payload, sig, pub):
                return False
        return True

    def to_wire(self) -> dict:
        return {
            "payload": self.payload.to_wire(),
            "signatures": {role: sig.hex() for role, sig in sorted(self.signatures.items())},
        }

    @classmethod
    def from_wire(cls, data) -> "SignedStep":
        """Decode an envelope or archive record; malformed input raises WireError."""
        return cls(
            payload=StepPayload.from_wire(_field(data, "payload", dict)),
            signatures={r: _hex(s) for r, s in _field(data, "signatures", dict).items()},
        )


class MessageKind(Enum):
    PROPOSE = "propose"
    SIGN = "sign"
    CONFIRM = "confirm"


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
            raise ValueError(f"{self.kind.value} message must carry exactly one signature")
        if self.kind is MessageKind.CONFIRM and not count:
            raise ValueError("confirm message must carry signatures")

    def to_wire(self) -> str:
        return json.dumps({"kind": self.kind.value, **self.signed.to_wire()}, sort_keys=True)

    @classmethod
    def from_wire(cls, raw: str) -> "ChannelMessage":
        """Decode an envelope; any malformed input raises WireError."""
        try:
            data = json.loads(raw)
            return cls(MessageKind(_field(data, "kind", str)), SignedStep.from_wire(data))
        except WireError:
            raise
        except (ValueError, RecursionError) as exc:  # JSON, kind, signature count
            raise WireError(str(exc)) from exc
