"""The benchmark's tracer (`perfbench/tracer.py`) wraps functions by module,
class and attribute name, and a name that no longer resolves is skipped: its
per-layer metric then reads zero without any error. This test loads the
tracer from its file, so that a refactor that renames or deletes a traced
function fails here instead."""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, owner: str | None, attr: str) -> bool:
    """Whether `Tracer.install` finds something to wrap for this target."""
    mod = importlib.import_module(f"choreochannel.{module}")
    if owner is None:
        return getattr(mod, attr, None) is not None
    cls = getattr(mod, owner, None)
    return cls is not None and cls.__dict__.get(attr) is not None


def test_every_traced_name_resolves_except_the_known_dead_one():
    tracer = _load_tracer()
    unresolved = {name for name, module, owner, attr in tracer.TARGETS + tracer.HELPERS
                  if not _resolves(module, owner, attr)}
    # `Ledger.baseline_task` is defined nowhere in src; dropping it from the
    # tracer is part of ROADMAP item 3's bench housekeeping, after which this
    # set is empty.
    assert unresolved == {"ledger.Ledger.baseline_task"}


def test_each_compile_stage_is_traced_once_per_compile():
    # `install` looks up every target module in sys.modules, so all of them
    # are imported first.
    from choreochannel import cases, harness, httpd  # noqa: F401

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for case in cases.CASES:
            cases.compile_model(cases.load_model(case))
    finally:
        tracer.uninstall()
    counts = Counter(span[1] for span in tracer.spans)
    stages = ("petri.to_interaction_net", "petri.reduce_net", "machine.compile_state_machine")
    assert {stage: counts[stage] for stage in stages} == dict.fromkeys(stages, len(cases.CASES))
