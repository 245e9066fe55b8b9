"""Enact BPMN choreographies in n-party state channels over a simulated ledger."""

from .bpmn import (
    ChoreographyModel,
    ChoreographyTask,
    Diagnostic,
    Gateway,
    ParseError,
    Role,
    parse_choreography,
    serialize_choreography,
    validate_model,
)
from .cases import CASES, build_machine, compile_model, load_model, load_variants
from .ledger import Ledger, Phase, TxKind
from .machine import (
    CompiledTransition,
    ConformanceError,
    ProcessStateMachine,
    TaskRequest,
    compile_state_machine,
    enabled_tasks,
    is_end_state,
    step,
)
from .petri import (
    NetRows,
    check_safeness,
    reduce_net,
    to_interaction_net,
    traces_equivalent,
)
from .trigger import InProcessNetwork, TriggerNode
from .wire import (
    ChannelMessage,
    SignedStep,
    StepPayload,
    address_of,
    decode_step,
    encode_step,
    generate_signing_key,
    public_key_of,
    sign_step,
    verify_step,
)

__version__ = "0.1.0"
