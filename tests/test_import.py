"""What importing the package loads, checked in a fresh interpreter.

Every command runs as a new process, so import time is paid on each run.
Plain value records are `NamedTuple`s, which are built without the one
`exec` per generated method that a dataclass costs; these tests hold the
few dataclasses left to the reasons named here, and keep the package from
importing `logging`, which nothing in it configures.
"""

import json
import subprocess
import sys
from pathlib import Path

import choreochannel
from choreochannel.petri import BoundExceeded, SafeOk

SRC = str(Path(choreochannel.__file__).resolve().parents[1])

# The modules the benchmark's import step loads.
MODULES = ("bpmn", "cases", "harness", "httpd", "ledger", "machine", "petri", "trigger", "wire")

# Each dataclass the package keeps, with the reason it is not a NamedTuple.
KEPT_DATACLASSES = {
    "bpmn.ChoreographyModel": "caches its flow graph in a cached_property",
    "bpmn.Diagnostic": "as a tuple it would equal any triple of the same strings",
    "ledger.ChannelContract": "the ledger mutates it",
    "machine.ProcessStateMachine": "told apart from NetRows by type; per-machine fields to come",
    "petri.BoundExceeded": "as a tuple it would equal SafeOk of the same count",
    "petri.SafeOk": "as a tuple it would equal BoundExceeded of the same count",
    "petri.UnsafeWitness": "as a tuple it would equal any pair of the same values",
    "wire.ChannelMessage": "checks its signature count in __post_init__",
    "wire.StepPayload": "caches its encoding in a cached_property",
}

PROBE = f"""
import json, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, {SRC!r})
import choreochannel
from choreochannel import {", ".join(MODULES)}
loaded = sorted(m for m in ("logging",) if m in set(sys.modules) - before)
for info in pkgutil.iter_modules(choreochannel.__path__):
    __import__("choreochannel." + info.name)
kept = sorted(
    name.removeprefix("choreochannel.") + "." + attr
    for name, module in list(sys.modules.items()) if name.startswith("choreochannel.")
    for attr, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == name
    and "__dataclass_fields__" in vars(value)
)
print(json.dumps({{"loaded": loaded, "dataclasses": kept}}))
"""


def probe() -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out)


def test_import_loads_no_logging_and_keeps_only_the_named_dataclasses():
    result = probe()
    assert result["loaded"] == []
    assert result["dataclasses"] == sorted(KEPT_DATACLASSES)


def test_safeness_verdicts_of_one_count_differ_by_type():
    assert SafeOk(3) != BoundExceeded(3)
