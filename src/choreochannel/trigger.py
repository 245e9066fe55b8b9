"""Per-participant channel node: propose, verify, sign, confirm, watch, dispute.

Each node owns its local state and archive; message handling for one case is
serialised through the caller (the in-process network and the HTTP server both
deliver one message at a time). A message is a kind plus a `SignedStep`; a
Propose or Sign names its sender by its one signature. Nodes never install a
state without holding the full signature set, and they archive every
`SignedStep` they sign or install before any Sign or Confirm leaves the node.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .ledger import Accepted, Ledger, Phase
from .machine import (
    ConformanceError,
    TaskRequest,
    is_end_state,
    step,
)
from .wire import (
    ChannelMessage,
    MessageKind,
    SignedStep,
    StepPayload,
    public_key_of,
    sign_step,
    verify_step,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnactResult:
    status: str  # "confirmed" | "dispute_raised" | "rejected"
    new_state: int | None = None
    error: str | None = None

    @property
    def confirmed(self) -> bool:
        return self.status == "confirmed"


class ArchiveStore:
    """Append-only evidence store. Every record is flushed before the node
    sends the message that depends on it."""

    def __init__(self, path: str | None):
        self._steps: dict[int, list[SignedStep]] = {}
        self._path = path

    def _write(self, record: dict) -> None:
        if self._path is not None:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def note_signed(self, signed: SignedStep) -> None:
        self._write({"type": "signed", "record": signed.to_wire()})

    def append_step(self, signed: SignedStep) -> None:
        case = signed.payload.case_id
        self._steps.setdefault(case, []).append(signed)
        self._write({"type": "step", "record": signed.to_wire()})

    def max_complete(self, case_id: int) -> SignedStep | None:
        steps = self._steps.get(case_id)
        if not steps:
            return None
        return max(steps, key=lambda s: s.payload.seq)

    def by_seq(self, case_id: int, seq: int) -> SignedStep | None:
        for s in self._steps.get(case_id, []):
            if s.payload.seq == seq:
                return s
        return None


class TriggerNode:
    """One channel participant; drives the off-chain protocol for its role
    under the machine and role keys of the deployed contract."""

    def __init__(self, role: str, signing_key: Ed25519PrivateKey, ledger: Ledger,
                 contract_id: bytes, *, prefilter: bool = True,
                 archive_path: str | None = None):
        role_keys = ledger.role_keys(contract_id)
        if role_keys.get(role) != public_key_of(signing_key):
            raise ValueError(f"signing key is not the key bound to role {role!r}")
        # Parsed once: every verify on this node reuses the key objects.
        self.role_keys = {r: Ed25519PublicKey.from_public_bytes(pub)
                          for r, pub in role_keys.items()}
        contract = ledger.contracts[contract_id]
        self.machine = contract.machine
        self.address = contract.role_binding[role]
        self.role = role
        self.signing_key = signing_key
        self.ledger = ledger
        self.contract_id = contract_id
        self.prefilter = prefilter
        self.transport = None  # set by InProcessNetwork.register or serve_network
        self.state = self.machine.initial_state
        self.seq = 0
        self.case_id = 0
        self.pending: StepPayload | None = None
        # The remote proposal this node signed last (first proposal wins),
        # with the two signatures it has already checked: the proposer's,
        # verified in on_propose, and its own.
        self.signed: SignedStep | None = None
        self.archive = ArchiveStore(archive_path)
        self.observed_phase = Phase.CHANNEL_OPEN
        self.events: list[str] = []

    # -- helpers ------------------------------------------------------------

    def _note(self, message: str) -> None:
        self.events.append(message)
        log.debug("[%s] %s", self.role, message)

    def _peers(self) -> list[str]:
        return [r for r in self.machine.role_ids if r != self.role]

    def status(self) -> dict:
        """The node's view as served on /status."""
        return {
            "role": self.role,
            "case_id": self.case_id,
            "seq": self.seq,
            "state": hex(self.state),
            "phase": self.observed_phase.value,
        }

    # -- enactment (PAIS-facing) ---------------------------------------------

    def enact(self, req: TaskRequest, retries: int = 2) -> EnactResult:
        """Propose a task to the channel, or to the contract when on-chain."""
        if self.observed_phase is Phase.ON_CHAIN:
            return self._enact_on_chain(req)
        candidates = self.machine.manual_transitions(req.task_id)
        if not candidates:
            return EnactResult("rejected", error="unknown-task")
        if candidates[0].initiator != self.role:
            return EnactResult("rejected", error="wrong-role")
        if self.pending is not None:
            return EnactResult("rejected", error="proposal-pending")

        try:
            new_state = step(self.machine, self.state, req)
            new_state_bytes = self.machine.state_to_bytes(new_state)
        except ConformanceError as exc:
            if self.prefilter:
                # Request never leaves the node.
                return EnactResult("rejected", error=exc.reason)
            # Faulty-component mode: forward the request with an unchanged
            # state so the network, not this node, performs the rejection.
            new_state = None
            new_state_bytes = self.machine.state_to_bytes(self.state)

        payload = StepPayload(
            chain_id=self.ledger.chain_id,
            contract_id=self.contract_id,
            case_id=self.case_id,
            seq=self.seq + 1,
            task_id=req.task_id,
            choice_data=req.choice_data,
            new_state=new_state_bytes,
        )
        my_sig = sign_step(payload, self.signing_key)
        self.pending = payload
        propose = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {self.role: my_sig}))
        signatures = {self.role: my_sig}
        all_signed = True
        for peer in self._peers():
            reply = self.transport.request(peer, propose)
            if reply is None or reply.kind is not MessageKind.SIGN:
                all_signed = False
                continue
            sig = reply.signed.signatures.get(peer)
            if sig is None or not verify_step(payload, sig, self.role_keys[peer]):
                self._note(f"invalid sign reply from {peer} for seq {payload.seq}")
                all_signed = False
                continue
            signatures[peer] = sig

        if all_signed:
            signed = SignedStep(payload, signatures)
            # Durability before Confirm: the evidence must outlive the send.
            self.archive.append_step(signed)
            self.state = self.machine.state_from_bytes(payload.new_state)
            self.seq = payload.seq
            self.pending = None
            confirm = ChannelMessage(MessageKind.CONFIRM, signed)
            for peer in self._peers():
                self.transport.request(peer, confirm)
            return EnactResult("confirmed", new_state=self.state)

        self.pending = None
        if self.seq >= payload.seq and retries > 0:
            # A concurrent proposal won this sequence number; retry on top of
            # the newly installed state.
            return self.enact(req, retries=retries - 1)
        self._note(f"proposal for seq {payload.seq} failed to collect signatures")
        if self.raise_dispute():
            return EnactResult("dispute_raised", error="missing-signatures")
        return EnactResult("rejected", error="missing-signatures")

    def _enact_on_chain(self, req: TaskRequest) -> EnactResult:
        result = self.ledger.on_chain_step(self.contract_id, req, self.address)
        if isinstance(result, Accepted):
            self.state = result.new_state
            self.seq = result.seq
            self.poll_chain()
            return EnactResult("confirmed", new_state=result.new_state)
        self.poll_chain()
        return EnactResult("rejected", error=result.reason)

    # -- message handling (network-facing) ------------------------------------

    def handle_message(self, msg: ChannelMessage) -> ChannelMessage | None:
        if msg.kind is MessageKind.PROPOSE:
            return self.on_propose(msg)
        if msg.kind is MessageKind.CONFIRM:
            self.on_confirm(msg)
        return None

    def on_propose(self, msg: ChannelMessage) -> ChannelMessage | None:
        """Verify a proposal; reply Sign if it conforms, otherwise stay silent
        (and raise a dispute when a validly signed proposal breaks the process)."""
        payload = msg.signed.payload
        ((proposer, sig),) = msg.signed.signatures.items()
        if payload.chain_id != self.ledger.chain_id or payload.contract_id != self.contract_id:
            self._note("proposal for foreign chain/contract ignored")
            return None
        if payload.case_id != self.case_id:
            self._note(f"proposal for case {payload.case_id}, local case is {self.case_id}")
            return None
        if proposer not in self.role_keys or not verify_step(
            payload, sig, self.role_keys[proposer]
        ):
            self._note(f"bad initiator signature on proposal seq {payload.seq}")
            return None
        candidates = self.machine.manual_transitions(payload.task_id)
        if not candidates or candidates[0].initiator != proposer:
            self._note(f"proposal from {proposer} for task it does not initiate")
            self.raise_dispute()
            return None
        if payload.seq != self.seq + 1:
            self._note(f"proposal seq {payload.seq} does not follow local seq {self.seq}")
            self.raise_dispute()
            return None
        if (self.signed is not None and self.signed.payload != payload
                and self.signed.payload.seq == payload.seq):
            self._note(f"seq {payload.seq} already signed for a different proposal")
            return None
        try:
            expected = step(
                self.machine, self.state,
                TaskRequest(payload.task_id, proposer, payload.choice_data),
            )
        except ConformanceError as exc:
            self._note(f"non-conforming proposal {payload.task_id}: {exc.reason}")
            self.raise_dispute()
            return None
        if self.machine.state_to_bytes(expected) != payload.new_state:
            self._note(f"proposal {payload.task_id} leads to a different state")
            self.raise_dispute()
            return None

        mine = sign_step(payload, self.signing_key)
        signed = SignedStep(payload, {self.role: mine})
        # Evidence first, then the signature leaves the node.
        self.archive.note_signed(signed)
        self.signed = SignedStep(payload, {proposer: sig, self.role: mine})
        return ChannelMessage(MessageKind.SIGN, signed)

    def on_confirm(self, msg: ChannelMessage) -> bool:
        """Install a fully signed step this node signed for its next seq."""
        payload = msg.signed.payload
        if (self.signed is None or payload != self.signed.payload
                or payload.seq != self.seq + 1):
            self._note(f"confirm for unknown step seq {payload.seq} ignored")
            return False
        if not self._all_signatures_valid(msg.signed):
            self._note(f"confirm for seq {payload.seq} carries an incomplete signature set")
            self.raise_dispute()
            return False
        self.archive.append_step(msg.signed)
        self.state = self.machine.state_from_bytes(payload.new_state)
        self.seq = payload.seq
        return True

    def _all_signatures_valid(self, confirm: SignedStep) -> bool:
        """Every role signed the slot's payload (equal to the Confirm's). A
        signature byte-equal to one the slot holds was checked in on_propose,
        or made here, and is not verified again; any other goes through
        verify_step. Checking over the slot's payload reuses its encoding and
        leaves the archived Confirm payload unencoded."""
        slot = self.signed
        for role, key in self.role_keys.items():
            sig = confirm.signatures.get(role)
            if sig is None:
                return False
            if sig != slot.signatures.get(role) and not verify_step(slot.payload, sig, key):
                return False
        return True

    # -- chain duties ---------------------------------------------------------

    def raise_dispute(self) -> bool:
        """Submit the highest archived complete step as dispute evidence;
        True iff the ledger accepted it.

        Skips the transaction whenever the contract can only refuse it: the
        case is on-chain, closed or over, or a dispute is already pending at
        the same or a higher sequence number (the watcher duty covers that).
        """
        latest = self.archive.max_complete(self.case_id)
        if latest is None:
            self._note("dispute intended but no complete step archived yet")
            return False
        view = self.ledger.get_contract(self.contract_id)
        self.observed_phase = view.phase
        if view.phase in (Phase.ON_CHAIN, Phase.CLOSED) or view.case_id != self.case_id:
            self._note(f"contract is {view.phase.value} at case {view.case_id}, "
                       f"would refuse evidence for case {self.case_id}; holding it")
            return False
        if view.phase is Phase.DISPUTE and view.seq >= latest.payload.seq:
            self._note(f"dispute already pending at seq {view.seq}; holding evidence")
            return False
        result = self.ledger.submit_state(self.contract_id, latest, self.address)
        self._note(f"dispute submission seq {latest.payload.seq}: {result}")
        return isinstance(result, Accepted)

    def poll_chain(self) -> None:
        """One polling pass: counter stale state, follow phase, follow resets."""
        view = self.ledger.get_contract(self.contract_id)
        self.observed_phase = view.phase
        if view.case_id > self.case_id:
            self._reset_for_case(view.case_id)
            return
        if view.phase is Phase.DISPUTE:
            latest = self.archive.max_complete(self.case_id)
            if latest is not None and view.seq < latest.payload.seq:
                result = self.ledger.submit_state(self.contract_id, latest, self.address)
                self._note(f"countered stale state with seq {latest.payload.seq}: {result}")
        elif view.phase is Phase.ON_CHAIN:
            self.state = view.current_state
            self.seq = view.seq

    def _reset_for_case(self, case_id: int) -> None:
        self.case_id = case_id
        self.seq = 0
        self.state = self.machine.initial_state
        self.pending = None
        self.signed = None
        self.observed_phase = Phase.CHANNEL_OPEN
        self._note(f"reset for case {case_id}")

    def close(self) -> EnactResult:
        """Submit the archived final step to close the case unanimously."""
        if not is_end_state(self.machine, self.state):
            return EnactResult("rejected", error="not-at-end-state")
        final = self.archive.max_complete(self.case_id)
        if final is None:
            return EnactResult("rejected", error="no-archived-final-step")
        result = self.ledger.close_channel(self.contract_id, final, self.address)
        if isinstance(result, Accepted):
            self.poll_chain()
            return EnactResult("confirmed", new_state=self.state)
        self._note(f"close rejected: {result.reason}; falling back to dispute handling")
        self.poll_chain()
        return EnactResult("dispute_raised", error=result.reason)


class InProcessNetwork:
    """Synchronous transport for deterministic tests: direct method calls,
    with silenced roles standing in for timeouts."""

    def __init__(self):
        self.nodes: dict[str, TriggerNode] = {}
        self.silenced: set[str] = set()

    def register(self, node: TriggerNode) -> None:
        self.nodes[node.role] = node
        node.transport = self

    def silence(self, role: str) -> None:
        self.silenced.add(role)

    def request(self, target_role: str, message: ChannelMessage) -> ChannelMessage | None:
        if target_role in self.silenced:
            return None
        node = self.nodes.get(target_role)
        if node is None:
            return None
        return node.handle_message(message)

    def poll_all(self, exclude: set[str] | None = None) -> None:
        """Drive one watcher pass on every node, in role registration order."""
        for role, node in self.nodes.items():
            if exclude and role in exclude:
                continue
            node.poll_chain()

    def statuses(self) -> dict[str, dict]:
        return {role: node.status() for role, node in self.nodes.items()}

    def stable(self) -> bool:
        """All nodes report identical (case, seq, state)."""
        views = {(s["case_id"], s["seq"], s["state"]) for s in self.statuses().values()}
        return len(views) == 1
