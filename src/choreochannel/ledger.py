"""Deterministic single-order ledger with the channel contract on top.

The ledger is the sole serialisation point: every submitted transaction is
applied one at a time in arrival order, and identical transaction sequences
produce bit-identical logs. Costs are abstract units driven only by payload
shape, so relative comparisons behave like gas without reproducing any
chain-specific constants. A contract parses its role keys once, at deploy,
and accepts a fully signed step only under `wire.signature_fault`, the
signer-set rule its nodes apply to a Confirm.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from .machine import (
    ConformanceError,
    ProcessStateMachine,
    TaskRequest,
    is_end_state,
    step,
)
from .wire import SIGNATURE_BYTES, SignedStep, address_of, signature_fault

# The one chain this ledger simulates; every step payload names it.
CHAIN_ID = 1


class Phase(Enum):
    CHANNEL_OPEN = "CHANNEL_OPEN"
    DISPUTE = "DISPUTE"
    ON_CHAIN = "ON_CHAIN"


class TxKind(Enum):
    DEPLOY = "deploy"
    SUBMIT_STATE = "submitState"
    ON_CHAIN_TASK = "onChainTask"
    CLOSE = "close"


class LedgerError(Exception):
    pass


class DeployError(LedgerError):
    pass


# Cost-unit constants. The first four echo EVM orders of magnitude so
# relative comparisons are meaningful; absolute values are not targets. A
# posted signature is `wire.SIGNATURE_BYTES` long.
FIXED_BASE = 21000
PER_BYTE = 16
PER_SIG_VERIFY = 3000
PER_STORAGE_WRITE = 5000

WORD_BYTES = 32
# Contract "code" posted at deployment.
CHANNEL_CODE_BYTES = 40000
BASELINE_CODE_BYTES = 20000
CODE_BYTES_PER_TRANSITION = 96
CODE_BYTES_PER_ROLE = 32
CHANNEL_DEPLOY_WRITES = 8
BASELINE_DEPLOY_WRITES = 4
# Storage writes per accepted state submission / task.
SUBMIT_WRITES = 4
TASK_WRITES = 2
TASK_CALLDATA_WORDS = 4
STEP_CALLDATA_HEAD_WORDS = 6
# Extra cost of a task executed by the channel contract: it must check
# whether a dispute is active before enacting (~10% of a typical task).
DISPUTE_CHECK_SURCHARGE = 3000


@dataclass(frozen=True)
class CostRecord:
    cost_units: int
    payload_bytes: int
    sig_count: int
    words_written: int

    def to_wire(self) -> dict:
        return {
            "cost_units": self.cost_units,
            "payload_bytes": self.payload_bytes,
            "sig_count": self.sig_count,
            "words_written": self.words_written,
        }


@dataclass(frozen=True)
class TxRecord:
    index: int
    height: int
    kind: TxKind
    contract_id: bytes
    sender: bytes
    accepted: bool
    reason: str | None
    case_id: int
    contract_seq: int
    payload_seq: int | None
    cost: CostRecord

    def to_wire(self) -> dict:
        return {
            "index": self.index,
            "height": self.height,
            "kind": self.kind.value,
            "contract_id": self.contract_id.hex(),
            "sender": self.sender.hex(),
            "accepted": self.accepted,
            "reason": self.reason,
            "case_id": self.case_id,
            "contract_seq": self.contract_seq,
            "payload_seq": self.payload_seq,
            "cost": {"tx_kind": self.kind.value, **self.cost.to_wire()},
        }


@dataclass(frozen=True)
class Accepted:
    seq: int
    phase: Phase
    new_state: int


@dataclass(frozen=True)
class Rejected:
    reason: str


SubmitResult = Accepted | Rejected


@dataclass
class ChannelContract:
    contract_id: bytes
    machine: ProcessStateMachine
    role_binding: dict[str, bytes]
    # Parsed once at deploy, in role order; the channel's nodes share them.
    role_keys: dict[str, Ed25519PublicKey]
    dispute_window: int
    current_state: int
    seq: int = 0
    case_id: int = 0
    phase: Phase = Phase.CHANNEL_OPEN
    dispute_deadline: int | None = None
    # Set only by deploy_baseline: the contract never leaves ON_CHAIN.
    baseline: bool = False


@dataclass(frozen=True)
class ContractView:
    phase: Phase
    seq: int
    case_id: int
    current_state: int
    dispute_deadline: int | None


# -- cost model -----------------------------------------------------------


def _units(payload_bytes: int, sig_count: int, words: int, surcharge: int = 0) -> CostRecord:
    units = (
        FIXED_BASE
        + PER_BYTE * payload_bytes
        + PER_SIG_VERIFY * sig_count
        + PER_STORAGE_WRITE * words
        + surcharge
    )
    return CostRecord(units, payload_bytes, sig_count, words)


def _deploy_cost(machine: ProcessStateMachine, channel: bool) -> CostRecord:
    code = CHANNEL_CODE_BYTES if channel else BASELINE_CODE_BYTES
    payload = (
        code
        + CODE_BYTES_PER_TRANSITION * len(machine.transitions)
        + CODE_BYTES_PER_ROLE * len(machine.role_ids)
    )
    writes = (CHANNEL_DEPLOY_WRITES if channel else BASELINE_DEPLOY_WRITES) + len(
        machine.role_ids
    )
    return _units(payload, 0, writes)


def _step_tx_cost(machine: ProcessStateMachine) -> CostRecord:
    """A fully signed step: every role's signature is posted and checked."""
    sig_count = len(machine.role_ids)
    state_words = max(1, -(-machine.place_count // (8 * WORD_BYTES)))
    payload = (
        (STEP_CALLDATA_HEAD_WORDS + state_words) * WORD_BYTES
        + sig_count * SIGNATURE_BYTES
    )
    return _units(payload, sig_count, SUBMIT_WRITES)


def _task_cost(with_dispute_check: bool) -> CostRecord:
    surcharge = DISPUTE_CHECK_SURCHARGE if with_dispute_check else 0
    return _units(TASK_CALLDATA_WORDS * WORD_BYTES, 0, TASK_WRITES, surcharge)


class Ledger:
    """Simulated chain: height counter, append-only log, contract registry."""

    def __init__(self):
        self.height = 0
        self.log: list[TxRecord] = []
        self.accounts: dict[bytes, bytes] = {}
        self.contracts: dict[bytes, ChannelContract] = {}

    # -- accounts ---------------------------------------------------------

    def register_account(self, public_key: bytes) -> bytes:
        address = address_of(public_key)
        self.accounts[address] = public_key
        return address

    # -- transaction log --------------------------------------------------

    def _record(self, kind: TxKind, contract_id: bytes, sender: bytes, accepted: bool,
                reason: str | None, case_id: int, contract_seq: int,
                payload_seq: int | None, cost: CostRecord) -> None:
        self.log.append(
            TxRecord(
                index=len(self.log),
                height=self.height,
                kind=kind,
                contract_id=contract_id,
                sender=sender,
                accepted=accepted,
                reason=reason,
                case_id=case_id,
                contract_seq=contract_seq,
                payload_seq=payload_seq,
                cost=cost,
            )
        )

    def export_log(self) -> str:
        """Line-delimited canonical JSON of every transaction, oldest first."""
        return "\n".join(json.dumps(tx.to_wire(), sort_keys=True) for tx in self.log)

    # -- contracts --------------------------------------------------------

    def deploy_channel(self, machine: ProcessStateMachine, role_binding: dict[str, bytes],
                       dispute_window: int, sender: bytes = b"") -> bytes:
        role_keys = self._role_keys(machine, role_binding)
        if dispute_window < 1:
            raise DeployError("dispute window must be at least one block")
        return self._deploy(machine, role_binding, role_keys, sender, dispute_window,
                            baseline=False)

    def deploy_baseline(self, machine: ProcessStateMachine, role_binding: dict[str, bytes],
                        sender: bytes = b"") -> bytes:
        """The on-chain comparator: a contract pinned to ON_CHAIN that enacts
        every task itself, with cheaper code and no dispute check."""
        role_keys = self._role_keys(machine, role_binding)
        return self._deploy(machine, role_binding, role_keys, sender, 0, baseline=True)

    def _deploy(self, machine: ProcessStateMachine, role_binding: dict[str, bytes],
                role_keys: dict[str, Ed25519PublicKey], sender: bytes,
                dispute_window: int, baseline: bool) -> bytes:
        fields = {"baseline": True} if baseline else {"window": dispute_window,
                                                      "chain": CHAIN_ID}
        payload = json.dumps(
            {
                "machine": machine.to_dict(),
                "binding": {r: a.hex() for r, a in sorted(role_binding.items())},
                **fields,
            },
            sort_keys=True,
        ).encode()
        salt = f"|{self.height}|{len(self.log)}".encode()
        contract_id = hashlib.sha256(payload + salt).digest()
        self.contracts[contract_id] = ChannelContract(
            contract_id=contract_id,
            machine=machine,
            role_binding=dict(role_binding),
            role_keys=role_keys,
            dispute_window=dispute_window,
            current_state=machine.initial_state,
            phase=Phase.ON_CHAIN if baseline else Phase.CHANNEL_OPEN,
            baseline=baseline,
        )
        cost = _deploy_cost(machine, channel=not baseline)
        self._record(TxKind.DEPLOY, contract_id, sender, True, None, 0, 0, None, cost)
        return contract_id

    def _role_keys(self, machine: ProcessStateMachine,
                   role_binding: dict[str, bytes]) -> dict[str, Ed25519PublicKey]:
        """Check the binding; return each role's parsed key, in role order."""
        for role in machine.role_ids:
            if role not in role_binding:
                raise DeployError(f"role {role!r} has no bound address")
        addresses = list(role_binding.values())
        if len(set(addresses)) != len(addresses):
            raise DeployError("each role needs a distinct address")
        for role, address in role_binding.items():
            if address not in self.accounts:
                raise DeployError(f"address for role {role!r} is not registered")
        role_keys = {}
        for role in machine.role_ids:
            try:
                role_keys[role] = Ed25519PublicKey.from_public_bytes(
                    self.accounts[role_binding[role]])
            except ValueError:
                raise DeployError(f"key for role {role!r} is not an Ed25519 public key") from None
        return role_keys

    def get_contract(self, contract_id: bytes) -> ContractView:
        c = self.contracts[contract_id]
        return ContractView(
            phase=c.phase,
            seq=c.seq,
            case_id=c.case_id,
            current_state=c.current_state,
            dispute_deadline=c.dispute_deadline,
        )

    def _reject(self, kind: TxKind, contract: ChannelContract, sender: bytes,
                payload_seq: int | None, cost: CostRecord, reason: str) -> Rejected:
        """Charge and log a refused transaction; the contract is left as it was."""
        self._record(kind, contract.contract_id, sender, False, reason,
                     contract.case_id, contract.seq, payload_seq, cost)
        return Rejected(reason)

    def _check_signed(self, contract: ChannelContract, signed: SignedStep,
                      phases: tuple[Phase, ...]) -> str | None:
        """Why a fully signed step may not be installed now, or None."""
        if contract.phase not in phases:
            return f"phase-{contract.phase.value}"
        payload = signed.payload
        if payload.chain_id != CHAIN_ID:
            return "wrong-chain"
        if payload.contract_id != contract.contract_id:
            return "wrong-contract"
        if payload.case_id != contract.case_id:
            return "wrong-case"
        fault = signature_fault(payload, signed.signatures, contract.role_keys)
        if fault is not None:
            return fault
        try:
            contract.machine.state_from_bytes(payload.new_state)
        except ValueError:
            return "bad-state-width"
        if payload.seq <= contract.seq:
            return "stale-seq"
        return None

    def submit_state(self, contract_id: bytes, signed: SignedStep, sender: bytes) -> SubmitResult:
        contract = self.contracts.get(contract_id)
        if contract is None:
            return Rejected("unknown-contract")
        cost = _step_tx_cost(contract.machine)
        reason = self._check_signed(contract, signed, (Phase.CHANNEL_OPEN, Phase.DISPUTE))
        if reason is not None:
            return self._reject(TxKind.SUBMIT_STATE, contract, sender, signed.payload.seq,
                                cost, reason)

        contract.current_state = contract.machine.state_from_bytes(signed.payload.new_state)
        contract.seq = signed.payload.seq
        if contract.phase is Phase.CHANNEL_OPEN:
            contract.phase = Phase.DISPUTE
            contract.dispute_deadline = self.height + contract.dispute_window
        self._record(TxKind.SUBMIT_STATE, contract_id, sender, True, None,
                     contract.case_id, contract.seq, signed.payload.seq, cost)
        return Accepted(contract.seq, contract.phase, contract.current_state)

    def advance_blocks(self, n: int) -> int:
        """Advance simulated time; expire dispute windows in contract order."""
        if n < 1:
            raise LedgerError("must advance by at least one block")
        self.height += n
        for contract in self.contracts.values():
            if contract.phase is Phase.DISPUTE and contract.dispute_deadline is not None \
                    and contract.dispute_deadline <= self.height:
                if is_end_state(contract.machine, contract.current_state):
                    self._finalize_case(contract)
                else:
                    contract.phase = Phase.ON_CHAIN
                    contract.dispute_deadline = None
        return self.height

    def on_chain_step(self, contract_id: bytes, req: TaskRequest, sender: bytes) -> SubmitResult:
        contract = self.contracts.get(contract_id)
        if contract is None:
            return Rejected("unknown-contract")
        cost = _task_cost(with_dispute_check=not contract.baseline)
        if contract.phase is not Phase.ON_CHAIN:
            return self._reject(TxKind.ON_CHAIN_TASK, contract, sender, None, cost,
                                f"phase-{contract.phase.value}")
        role = next((r for r, a in contract.role_binding.items() if a == sender), None)
        if role is None:
            return self._reject(TxKind.ON_CHAIN_TASK, contract, sender, None, cost,
                                "unbound-sender")
        try:
            new_state = step(contract.machine, contract.current_state,
                             TaskRequest(req.task_id, role, req.choice_data))
        except ConformanceError as exc:
            return self._reject(TxKind.ON_CHAIN_TASK, contract, sender, None, cost, exc.reason)

        contract.current_state = new_state
        contract.seq += 1
        self._record(TxKind.ON_CHAIN_TASK, contract_id, sender, True, None,
                     contract.case_id, contract.seq, None, cost)
        if is_end_state(contract.machine, new_state):
            self._finalize_case(contract)
        return Accepted(contract.seq, contract.phase, new_state)

    def close_channel(self, contract_id: bytes, final: SignedStep, sender: bytes) -> SubmitResult:
        contract = self.contracts.get(contract_id)
        if contract is None:
            return Rejected("unknown-contract")
        cost = _step_tx_cost(contract.machine)
        reason = self._check_signed(contract, final, (Phase.CHANNEL_OPEN,))
        if reason is None:
            final_state = contract.machine.state_from_bytes(final.payload.new_state)
            if not is_end_state(contract.machine, final_state):
                reason = "not-final-state"
        if reason is not None:
            return self._reject(TxKind.CLOSE, contract, sender, final.payload.seq, cost, reason)

        self._record(TxKind.CLOSE, contract_id, sender, True, None,
                     contract.case_id, final.payload.seq, final.payload.seq, cost)
        self._finalize_case(contract)
        return Accepted(0, contract.phase, contract.current_state)

    def _finalize_case(self, contract: ChannelContract) -> None:
        """Reset the contract to serve the next case; a baseline contract stays
        on-chain. Only the ledger log records how the case ended."""
        contract.case_id += 1
        contract.seq = 0
        contract.current_state = contract.machine.initial_state
        contract.phase = Phase.ON_CHAIN if contract.baseline else Phase.CHANNEL_OPEN
        contract.dispute_deadline = None
