"""choreochannel benchmark: one seeded workload per run, or all four in turn.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 a separate traced pass reports per-layer metrics and
the tracing slowdown, and writes its spans to perfbench/out/. End-to-end
times are scaled to a nominal host speed measured during the run (see
hostclock.py); the header line also gives unscaled figures. With
--workload all every workload runs in its own process, one after another.
The exit code is non-zero, with no result line, when the package or its test
data cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("replay", "disputes", "http", "compile")
SETUP_REPEATS = 5
IMPORT = """import sys, time
started = time.perf_counter()
sys.path.insert(0, {src!r})
import choreochannel
from choreochannel import bpmn, cases, harness, httpd, ledger, machine, petri, trigger, wire
elapsed = time.perf_counter() - started
"""
IMPORT_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("onchain_units_per_op", "units/op"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package(clock: HostClock) -> float:
    """Import choreochannel from this checkout's src; returns the median scaled import time.

    The import is timed in fresh interpreters, since a module is imported
    only once per process.
    """
    code = IMPORT.format(src=str(SRC))
    exec(code, {})
    import choreochannel

    if not Path(choreochannel.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"choreochannel imported from {choreochannel.__file__}, not {SRC}")
    times = []
    for _ in range(IMPORT_REPEATS):
        clock.sample()
        started = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code + "print(elapsed)"],
                             capture_output=True, text=True, check=True, timeout=60)
        ended = time.perf_counter()
        clock.sample()
        times.append(float(out.stdout) * clock.scale(started, ended))
    return statistics.median(times)


def measure(workload, seconds: float, *recorders) -> None:
    """Repeat whole rounds until `seconds` have passed, at least one per recorder.

    Rounds go to the recorders in turn; a recorder with a tracer has it
    installed for its rounds only, so traced and untraced rounds alternate
    and meet the same host conditions.
    """
    started = time.perf_counter()
    done = 0
    while time.perf_counter() - started < seconds or done < len(recorders):
        rec = recorders[done % len(recorders)]
        if rec.tracer is not None:
            rec.tracer.install()
            rec.tracer.time_locks(getattr(workload, "servers", {}).values())
        try:
            round_started = time.perf_counter()
            rec.round_digests.append(workload.run_round(rec))
            rec.round_ends.append(time.perf_counter())
            rec.round_times.append(rec.round_ends[-1] - round_started)
        finally:
            if rec.tracer is not None:
                rec.tracer.uninstall()
        done += 1


def median_of_rounds(rec, scaled: bool = True) -> tuple[float, list[float]]:
    """Ops per second and op latencies, each op at its median repeat.

    Rounds repeat the same ops, so op i of every round is one op measured
    several times. Each repeat's wall time is scaled to the nominal host
    speed (see hostclock), which undoes the host's slow stretches of tens
    of seconds, and each op is then taken at the median of its repeats.
    For throughput an op's share of the round runs from its start to the
    next op's start, or to the round's end, so work between ops counts;
    reference pieces are left out.
    """
    rounds = len(rec.round_times)
    n = rec.ops // rounds
    if n * rounds != rec.ops:
        raise RuntimeError(f"{rec.ops} ops do not split into {rounds} equal rounds")
    latencies = [[0.0] * n for _ in range(rounds)]
    shares = [[0.0] * n for _ in range(rounds)]
    for r in range(rounds):
        ends = rec.marks[r * n + 1:(r + 1) * n] + [rec.round_ends[r]]
        for i in range(n):
            op = r * n + i
            start = rec.starts[op]
            scale = rec.clock.scale(start, ends[i]) if scaled else 1.0
            latencies[r][i] = rec.latencies[op] * scale
            shares[r][i] = (ends[i] - start) * scale
    latency = [statistics.median(latencies[r][i] for r in range(rounds)) for i in range(n)]
    round_s = sum(statistics.median(shares[r][i] for r in range(rounds)) for i in range(n))
    return n / round_s, latency


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_one(args) -> dict:
    # One CPU for every thread: in `http` the client and the handler threads
    # hand each request to one another, and handoffs across CPUs spread a
    # round's time by about 0.1 where on one CPU they spread it by 0.03.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = HostClock()
    import_s = import_package(clock)
    from tracer import Tracer, metric_specs
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.seed)  # input generation: not set-up
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            workload.teardown()
        clock.sample()
        started = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
        clock.sample()
        setups.append((ended - started) * clock.scale(started, ended))
    setup_s = import_s + statistics.median(setups)

    try:
        if args.trace:
            plain, rec = Recorder(clock), Recorder(clock, Tracer())
            measure(workload, args.seconds, plain, rec)
            layer = rec.tracer.metrics(rec.ops, threading.main_thread().ident)
            layer["tracing.slowdown"] = median_of_rounds(plain)[0] / median_of_rounds(rec)[0]
            same = plain.round_digests[0] == rec.round_digests[0]
            rec.check(same, "traced round differs from untraced round")
            rec.merge(plain)
            OUT.mkdir(exist_ok=True)
            rec.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            units = dict(metric_specs())
            metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
            extra = {"traced_matches_untraced": same, "bindings": rec.tracer.bindings}
        else:
            rec = Recorder(clock)
            measure(workload, args.seconds, rec)
            ops_per_s, latency = median_of_rounds(rec)
            wall_ops_per_s, wall_latency = median_of_rounds(rec, scaled=False)
            units_per_op = (workload.units_per_op() if hasattr(workload, "units_per_op")
                            else rec.units / rec.ops)
            values = {
                "setup_s": setup_s,
                "ops_per_s": ops_per_s,
                "op_ms_p50": statistics.median(latency) * 1e3,
                "op_ms_p95": percentile(latency, 95) * 1e3,
                "onchain_units_per_op": units_per_op,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            extra = {"ops_per_round": len(latency), "host_speed": f"{clock.speed():.3f}",
                     "wall_ops_per_s": f"{wall_ops_per_s:.4g}",
                     "wall_op_ms_p50": f"{statistics.median(wall_latency) * 1e3:.4g}"}
    finally:
        workload.teardown()

    result = {"correct": rec.wrong == 0, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={rec.ops} rounds={len(rec.round_times)} "
          f"round_s={','.join(f'{t:.3f}' for t in rec.round_times)} {' '.join(f'{k}={v}' for k, v in extra.items())}")
    print(f"# failed_ratio={rec.failed / rec.attempted:.6f} ({rec.failed}/{rec.attempted})")
    for problem in rec.problems:
        print(f"# problem: {problem}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    return result


def run_all(args) -> None:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return 0
    try:
        result = run_one(args)
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot run from {ROOT}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
