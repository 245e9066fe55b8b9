"""Command line interface: compile models, run scenarios, analyse costs."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bpmn import parse_choreography
from .cases import CASES, build_machine, load_variants, normalize_case, reduce_model
from .harness import (
    DEFAULT_MIXES,
    ScenarioError,
    ScenarioKind,
    ScenarioSpec,
    Trace,
    break_even,
    mutate_traces,
    replay_conformance,
    run_scenario,
)
from .machine import compile_state_machine
from .petri import to_pnml


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text)


def cmd_compile(args) -> int:
    reduced = reduce_model(parse_choreography(Path(args.model).read_bytes()))
    machine = compile_state_machine(reduced)
    Path(args.output).write_text(machine.to_json() + "\n", encoding="utf-8")
    print(
        f"compiled: {machine.place_count} places, {len(machine.transitions)} transitions "
        f"({sum(1 for t in machine.transitions if t.task_id is None)} autonomous), "
        f"{len(machine.role_ids)} roles -> {args.output}"
    )
    if args.pnml:
        Path(args.pnml).write_bytes(to_pnml(reduced))
        print(f"wrote {args.pnml}")
    return 0


def cmd_run_scenario(args) -> int:
    spec = ScenarioSpec(
        case=normalize_case(args.case),
        variant=args.variant,
        kind=ScenarioKind(args.kind),
        seed=args.seed,
        dispute_window=args.window,
    )
    outcome = run_scenario(spec)
    payload = {
        "type": "scenario",
        "spec": {
            "case": spec.case,
            "variant": spec.variant,
            "kind": spec.kind.value,
            "seed": spec.seed,
            "window": spec.dispute_window,
        },
        "end_reached": outcome.end_reached,
        "stable": outcome.stable,
        "on_chain_tasks": outcome.on_chain_tasks,
        "report": asdict(outcome.report),
    }
    if args.format == "structured":
        _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    else:
        print(_scenario_table(payload))
        if args.out:
            _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def cmd_conformance(args) -> int:
    case = normalize_case(args.case)
    machine = build_machine(case)
    variants = [Trace(tuple(v)) for v in load_variants(case)]
    batch = mutate_traces(machine, variants, args.mutants, args.seed)
    print(
        f"{case}: generated {len(batch.traces)} non-conforming traces "
        f"(ops: {batch.op_counts}, discarded {batch.discarded_conforming} conforming mutants)"
    )
    conforming_report = replay_conformance(case, variants, seed=args.seed)
    mutated_report = replay_conformance(case, batch.traces, seed=args.seed)
    ok = True
    for name, report, expect_accept in (
        ("conforming", conforming_report, True),
        ("mutated", mutated_report, False),
    ):
        agree = report.all_agree
        stable = report.all_stable
        false_accepts = report.fully_accepted if not expect_accept else 0
        rejected_conforming = (
            len(report.results) - report.fully_accepted if expect_accept else 0
        )
        line_ok = agree and stable and false_accepts == 0 and rejected_conforming == 0
        ok = ok and line_ok
        print(
            f"  {name}: traces={len(report.results)} oracle_agreement={agree} "
            f"stable={stable} false_accepts={false_accepts} "
            f"rejected_conforming={rejected_conforming} -> {'ok' if line_ok else 'FAIL'}"
        )
    if args.out:
        payload = {
            "type": "conformance",
            "case": case,
            "mutation": {"count": len(batch.traces), "ops": batch.op_counts,
                         "discarded_conforming": batch.discarded_conforming},
            "conforming": conforming_report.to_wire(),
            "mutated": mutated_report.to_wire(),
        }
        _write_or_print(json.dumps(payload, sort_keys=True), args.out)
    return 0 if ok else 1


def cmd_break_even(args) -> int:
    payload: dict = {"type": "break_even", "cases": {}}
    for case in args.case or list(CASES):
        case = normalize_case(case)
        report = break_even(case, mixes=tuple(args.mix or DEFAULT_MIXES), horizon=args.horizon)
        payload["cases"][case] = asdict(report)
        print(_break_even_table(case, payload["cases"][case]))
    if args.out:
        _write_or_print(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def cmd_report(args) -> int:
    data = json.loads(Path(args.input).read_text())
    try:
        lines = _report_lines(data)
    except (KeyError, TypeError, AttributeError) as exc:
        return _fail(f"malformed report in {args.input}: {type(exc).__name__}: {exc}")
    if lines is None:
        return _fail(f"unknown report type {data.get('type')!r}")
    if args.format == "structured":
        lines = [json.dumps(data, sort_keys=True, indent=2)]
    for line in lines:
        print(line)
    return 0


def _report_lines(data: dict) -> list[str] | None:
    """The table form of a structured result file; None for an unknown type.
    Both report formats refuse what this cannot render."""
    kind = data.get("type")
    if kind == "scenario":
        return [_scenario_table(data)]
    if kind == "break_even":
        return [_break_even_table(case, report) for case, report in data["cases"].items()]
    if kind == "conformance":
        lines = [f"case: {data['case']}"]
        for name in ("conforming", "mutated"):
            rep = data[name]
            lines.append(
                f"  {name}: traces={rep['traces']} "
                f"oracle_agreement={rep['all_agree_with_oracle']} "
                f"stable={rep['all_stable']} fully_accepted={rep['fully_accepted']}"
            )
        return lines
    return None


def _scenario_table(payload: dict) -> str:
    spec = payload["spec"]
    report = payload["report"]
    lines = [
        f"scenario {spec['case']} variant={spec['variant']} kind={spec['kind']} "
        f"seed={spec['seed']} window={spec['window']}",
        f"  end_reached={payload['end_reached']} stable={payload['stable']} "
        f"on_chain_tasks={payload['on_chain_tasks']}",
        f"  {'tx kind':<14}{'total cost units':>18}",
    ]
    for kind, units in sorted(report["totals_by_kind"].items()):
        lines.append(f"  {kind:<14}{units:>18}")
    lines.append(
        f"  channel: deploy={report['channel_deploy']} exec={report['channel_exec']} | "
        f"baseline: deploy={report['baseline_deploy']} exec={report['baseline_exec']}"
    )
    return "\n".join(lines)


def _break_even_table(case: str, report: dict) -> str:
    lines = [
        f"break-even {case}: channel_deploy={report['channel_deploy']:.0f} "
        f"baseline_deploy={report['baseline_deploy']:.0f} "
        f"baseline_exec_avg={report['baseline_exec_avg']:.0f}",
        f"  {'mix':>6} {'exec/run':>12} {'savings/run':>12} {'break-even':>11}",
    ]
    for entry in report["mixes"]:
        be = "never" if entry["break_even_runs"] is None else str(entry["break_even_runs"])
        lines.append(
            f"  {entry['mix']:>6.2f} {entry['exec_per_run']:>12.0f} "
            f"{entry['savings_per_run']:>12.0f} {be:>11}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="choreochannel",
        description="Compile BPMN choreographies into state-channel machines and "
                    "benchmark their on-chain footprint on a simulated ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    case_choices = [c.replace("_", "-") for c in CASES] + list(CASES)

    p = sub.add_parser("compile", help="compile a BPMN choreography to a machine dump")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--pnml", help="also dump the reduced net as PNML")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run-scenario", help="run a best/bad/worst case benchmark")
    p.add_argument("--case", required=True, choices=case_choices)
    p.add_argument("--variant", type=int, default=0)
    p.add_argument("--kind", required=True, choices=[k.value for k in ScenarioKind])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run_scenario)

    p = sub.add_parser("conformance", help="replay conforming variants and mutated traces")
    p.add_argument("--case", required=True, choices=case_choices)
    p.add_argument("--mutants", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser("break-even", help="amortisation analysis across dispute mixes")
    p.add_argument("--case", action="append", choices=case_choices)
    p.add_argument("--mix", type=float, action="append",
                   help="dispute rate, e.g. 0.05 (repeatable)")
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_break_even)

    p = sub.add_parser("report", help="render a structured result file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
