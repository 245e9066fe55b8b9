"""Per-participant channel node: propose, verify, sign, confirm, watch, dispute.

Each node owns its local state and archive; message handling for one case is
serialised through the caller (the in-process network and the HTTP server both
deliver one message at a time). A message is a kind plus a `SignedStep`; a
Propose or Sign names its sender by its one signature. Nodes never install a
state without holding the full signature set, and they archive every Sign
they return and every Confirm they send or install, as the envelope itself,
before any Sign or Confirm leaves the node.

A node verifies a signature before it signs or disputes on the strength of
it, and only then: a refused proposal after which the node sends nothing is
not verified, and the initiator stops verifying Sign replies once one is
missing or invalid, since the step can no longer collect its full set.

Every dispute, the watcher's counter to stale state included, goes through
`TriggerNode.raise_dispute`, the node's one sender of evidence. A refused
`close` reports "dispute_raised" only when the node's counter was accepted.
"""

from __future__ import annotations

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
    """Append-only evidence store: one line per envelope the node handles,
    the hex of its `ChannelMessage.to_wire()` bytes, which are the bytes the
    HTTP transport carries. A SIGN line is a Sign the node returned; a CONFIRM
    line is a Confirm it sent or installed. Every line is flushed before the
    node sends the message that depends on it.

    The file holds every envelope of every case. Memory holds the complete
    steps of the node's current case in seq order, the only ones a dispute,
    counter or close can still use: `start_case` drops them when the node
    moves on. A node appends only the step at its seq + 1, so the last step
    held is the highest.
    """

    def __init__(self, path: str | None):
        self._steps: list[SignedStep] = []
        self._path = path

    def _write(self, message: ChannelMessage) -> None:
        # The envelope is encoded only when there is a file to write it to.
        if self._path is not None:
            with open(self._path, "a", encoding="ascii") as fh:
                fh.write(message.to_wire().hex() + "\n")

    def start_case(self) -> None:
        """Forget the steps held for the previous case."""
        self._steps = []

    def note_signed(self, sign: ChannelMessage) -> None:
        self._write(sign)

    def append_step(self, confirm: ChannelMessage) -> None:
        self._write(confirm)
        self._steps.append(confirm.signed)

    def latest(self) -> SignedStep | None:
        return self._steps[-1] if self._steps else None

    def by_seq(self, seq: int) -> SignedStep | None:
        for s in self._steps:
            if s.payload.seq == seq:
                return s
        return None


class TriggerNode:
    """One channel participant; drives the off-chain protocol for its role
    under the machine and role keys of the deployed contract."""

    def __init__(self, role: str, signing_key: Ed25519PrivateKey, ledger: Ledger,
                 contract_id: bytes, *, prefilter: bool = True,
                 archive_path: str | None = None):
        contract = ledger.contracts[contract_id]
        key = contract.role_keys.get(role)
        if key is None or key.public_bytes_raw() != public_key_of(signing_key):
            raise ValueError(f"signing key is not the key bound to role {role!r}")
        # The contract's own key objects: no copy, no second parse.
        self.role_keys = contract.role_keys
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

    def enact(self, req: TaskRequest) -> EnactResult:
        """Propose a task to the channel, or to the contract when on-chain."""
        if self.observed_phase is Phase.ON_CHAIN:
            return self._enact_on_chain(req)
        candidates = self.machine.manual_transitions(req.task_id)
        if not candidates:
            return EnactResult("rejected", error="unknown-task")
        if candidates[0].initiator != self.role:
            return EnactResult("rejected", error="wrong-role")

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
        propose = ChannelMessage(MessageKind.PROPOSE, SignedStep(payload, {self.role: my_sig}))
        signatures = {self.role: my_sig}
        all_signed = True
        for peer in self._peers():
            reply = self.transport.request(peer, propose)
            if not all_signed:
                continue  # the step cannot complete; the reply goes unused
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
            confirm = ChannelMessage(MessageKind.CONFIRM, SignedStep(payload, signatures))
            # Durability before Confirm: the evidence must outlive the send.
            self.archive.append_step(confirm)
            self.state = self.machine.state_from_bytes(payload.new_state)
            self.seq = payload.seq
            for peer in self._peers():
                self.transport.request(peer, confirm)
            return EnactResult("confirmed", new_state=self.state)

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
        """Check a proposal; reply Sign if it conforms, otherwise stay silent
        and dispute when it breaks the process. A node that observes the
        contract on-chain signs nothing off-chain and stays silent.

        The cheap checks come first. The proposer's signature is verified
        last, and only where the node then acts: before it signs, and before
        it submits dispute evidence. A refused proposal after which the node
        would send nothing (no archived step, a dispute already pending, a
        contract that would refuse the evidence) costs no verify."""
        payload = msg.signed.payload
        ((proposer, sig),) = msg.signed.signatures.items()
        if payload.chain_id != self.ledger.chain_id or payload.contract_id != self.contract_id:
            self._note("proposal for foreign chain/contract ignored")
            return None
        if payload.case_id != self.case_id:
            self._note(f"proposal for case {payload.case_id}, local case is {self.case_id}")
            return None
        if self.observed_phase is Phase.ON_CHAIN:
            self._note(f"proposal seq {payload.seq} ignored: contract is on-chain")
            return None
        key = self.role_keys.get(proposer)
        if key is None:
            self._note(f"bad initiator signature on proposal seq {payload.seq}")
            return None
        candidates = self.machine.manual_transitions(payload.task_id)
        if not candidates or candidates[0].initiator != proposer:
            self._note(f"proposal from {proposer} for task it does not initiate")
            self.raise_dispute((payload, sig, key))
            return None
        if payload.seq != self.seq + 1:
            self._note(f"proposal seq {payload.seq} does not follow local seq {self.seq}")
            self.raise_dispute((payload, sig, key))
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
            self.raise_dispute((payload, sig, key))
            return None
        if self.machine.state_to_bytes(expected) != payload.new_state:
            self._note(f"proposal {payload.task_id} leads to a different state")
            self.raise_dispute((payload, sig, key))
            return None
        if not self._proposer_signed(payload, sig, key):
            return None

        mine = sign_step(payload, self.signing_key)
        reply = ChannelMessage(MessageKind.SIGN, SignedStep(payload, {self.role: mine}))
        # Evidence first, then the signature leaves the node.
        self.archive.note_signed(reply)
        self.signed = SignedStep(payload, {proposer: sig, self.role: mine})
        return reply

    def _proposer_signed(self, payload: StepPayload, sig: bytes,
                         key: Ed25519PublicKey) -> bool:
        if verify_step(payload, sig, key):
            return True
        self._note(f"bad initiator signature on proposal seq {payload.seq}")
        return False

    def on_confirm(self, msg: ChannelMessage) -> bool:
        """Install a fully signed step this node signed for its next seq,
        unless the node observes the contract on-chain."""
        payload = msg.signed.payload
        if self.observed_phase is Phase.ON_CHAIN:
            self._note(f"confirm for seq {payload.seq} ignored: contract is on-chain")
            return False
        if (self.signed is None or payload != self.signed.payload
                or payload.seq != self.seq + 1):
            self._note(f"confirm for unknown step seq {payload.seq} ignored")
            return False
        if not self._all_signatures_valid(msg.signed):
            self._note(f"confirm for seq {payload.seq} carries an incomplete signature set")
            self.raise_dispute()
            return False
        self.archive.append_step(msg)
        self.state = self.machine.state_from_bytes(payload.new_state)
        self.seq = payload.seq
        return True

    def _all_signatures_valid(self, confirm: SignedStep) -> bool:
        """Every role signed the slot's payload (equal to the Confirm's). A
        signature byte-equal to one the slot holds was checked in on_propose,
        or made here, and is not verified again; any other goes through
        verify_step. Checking over the slot's payload reuses its encoding.
        A Confirm signed by any set of roles but exactly the contract's is
        refused, as the contract refuses it (`Ledger._check_signed`), so
        every node archives the same bytes for a step."""
        if confirm.signatures.keys() != self.role_keys.keys():
            return False
        slot = self.signed
        for role, key in self.role_keys.items():
            sig = confirm.signatures[role]
            if sig != slot.signatures.get(role) and not verify_step(slot.payload, sig, key):
                return False
        return True

    # -- chain duties ---------------------------------------------------------

    def raise_dispute(
            self, proposal: tuple[StepPayload, bytes, Ed25519PublicKey] | None = None) -> bool:
        """Submit the highest archived complete step as dispute evidence;
        True iff the ledger accepted it.

        Nothing is sent without an archived complete step, or whenever the
        contract can only refuse it: the case is on-chain or over, or a
        dispute is already pending at the same or a higher sequence number
        (the watcher duty covers that). Reads the contract, and so refreshes
        `observed_phase`, once there is an archived step.

        `proposal` is a refused Propose's (payload, signature, proposer key);
        its signature is verified last, once evidence would be sent, so a
        forged proposal cannot put the channel on-chain.
        """
        latest = self.archive.latest()
        if latest is None:
            self._note("dispute intended but no complete step archived yet")
            return False
        view = self.ledger.get_contract(self.contract_id)
        self.observed_phase = view.phase
        if view.phase is Phase.ON_CHAIN or view.case_id != self.case_id:
            self._note(f"contract is {view.phase.value} at case {view.case_id}, "
                       f"would refuse evidence for case {self.case_id}; holding it")
            return False
        if view.phase is Phase.DISPUTE and view.seq >= latest.payload.seq:
            self._note(f"dispute already pending at seq {view.seq}; holding evidence")
            return False
        if proposal is not None and not self._proposer_signed(*proposal):
            return False
        result = self.ledger.submit_state(self.contract_id, latest, self.address)
        self._note(f"dispute submission seq {latest.payload.seq}: {result}")
        return isinstance(result, Accepted)

    def poll_chain(self) -> bool:
        """One polling pass: counter stale state, follow phase, follow resets.
        True iff a counter-submission was sent and accepted."""
        view = self.ledger.get_contract(self.contract_id)
        self.observed_phase = view.phase
        if view.case_id > self.case_id:
            self._reset_for_case(view.case_id)
        elif view.phase is Phase.DISPUTE:
            latest = self.archive.latest()
            return latest is not None and view.seq < latest.payload.seq and self.raise_dispute()
        elif view.phase is Phase.ON_CHAIN:
            self.state = view.current_state
            self.seq = view.seq
        return False

    def _reset_for_case(self, case_id: int) -> None:
        self.case_id = case_id
        self.archive.start_case()
        self.seq = 0
        self.state = self.machine.initial_state
        self.signed = None
        self.observed_phase = Phase.CHANNEL_OPEN
        self._note(f"reset for case {case_id}")

    def close(self) -> EnactResult:
        """Submit the archived final step to close the case unanimously."""
        if not is_end_state(self.machine, self.state):
            return EnactResult("rejected", error="not-at-end-state")
        final = self.archive.latest()
        if final is None:
            return EnactResult("rejected", error="no-archived-final-step")
        result = self.ledger.close_channel(self.contract_id, final, self.address)
        if isinstance(result, Accepted):
            self.poll_chain()
            return EnactResult("confirmed", new_state=self.state)
        self._note(f"close rejected: {result.reason}; falling back to dispute handling")
        if self.poll_chain():
            return EnactResult("dispute_raised", error=result.reason)
        return EnactResult("rejected", error=result.reason)


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
