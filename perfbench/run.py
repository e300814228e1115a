#!/usr/bin/env python3
"""Benchmark of the buyback package: seeded workloads run through its CLI.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 45 --trace 0

One process, one closed-loop client: each op is a short fixed sequence of
``buyback.cli.main(argv)`` commands on input files generated from ``--seed``,
and the next op starts when the previous one returns.  Every op's outputs are
checked.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs
the traced replay and reports the per-layer metrics instead.  The last line
of standard output is one JSON object; a fuller record (tail percentile,
output digest, environment) goes to ``perfbench/out/``.
See NOTES.md for the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402  (needs the sys.path entry above)
    BLAS_THREAD_VARS,
    OpTimeout,
    environment,
    hang_guard,
    peak_rss_mb,
    tail_percentile,
)

# One client, so one BLAS thread: keeps numpy within nproc and the timing steady.
# Set before numpy is first imported, which happens inside the functions below.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

#: Wall-time limit of a single op; an op that overruns it counts as failed.
OP_GUARD_S = 15.0
#: The timed loop finishes its current round, but never runs past
#: --seconds plus this much wall time.
WALL_EXTRA_S = 45.0
#: Fewest ops a run measures, so the tail percentile keeps 10 samples beyond it.
MIN_OPS = 30
#: Set-up repetitions behind the reported median setup_s, spread evenly over
#: the timed run so that a slow spell of the host moves them no more than it
#: moves the ops; and the time limit of each.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 30.0

OUT = HERE / "out"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "market"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate inputs and warm up, then exit (times setup_s)")
    return parser.parse_args(argv)


def run_op(workload, case, tracer):
    """Run one op through the CLI; return (latency ns, problems, output record)."""
    import buyback.cli as cli
    from workloads import check, commands

    problems = []
    sink = io.StringIO()
    command = "?"
    start = time.perf_counter_ns()
    try:
        with hang_guard(OP_GUARD_S), redirect_stdout(sink), redirect_stderr(sink), \
                tracer.span("op"):
            for argv, expected in commands(workload, case):
                command = argv[0]
                with tracer.span("cli.main"):
                    code = cli.main(argv)
                if code != expected:
                    problems.append(f"{command} exited {code}, expected {expected}: "
                                    f"{sink.getvalue()[-300:]!r}")
                    break
    except OpTimeout as exc:
        problems.append(f"{command}: {exc}")
    except SystemExit as exc:
        problems.append(f"{command} exited via SystemExit({exc.code})")
    except Exception as exc:  # any crash is a failed op, not a failed benchmark
        problems.append(f"{command} raised {exc!r}")
    latency = time.perf_counter_ns() - start
    record = None
    if not problems:
        try:
            found, record = check(workload, case)
            problems.extend(found)
        except Exception as exc:
            problems.append(f"output check raised {exc!r}")
    return latency, problems, record


def setup(workload: str, seed: int, workdir: Path):
    """Generate and write the inputs, compute reference values, warm up."""
    from tracing import Tracer
    from workloads import generate, prepare, write_inputs

    cases = generate(workload, seed)
    write_inputs(cases, workdir)
    prepare(cases)
    _, problems, _ = run_op(workload, cases[0], Tracer(enabled=False))
    if problems:
        raise RuntimeError(f"warm-up op failed: {problems}")
    return cases


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports, sets up and exits."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed: {proc.stderr[-500:]}")
    return elapsed


class Loop:
    """Closed-loop client: whole rounds over the cases until the budget is spent."""

    def __init__(self, workload, cases, seconds, min_ops):
        from workloads import round_size

        self.cases, self.min_ops = cases, min_ops
        self.round = round_size(workload)
        self.budget_ns = seconds * 1e9
        self.wall_limit = time.perf_counter() + seconds + WALL_EXTRA_S
        self.latencies: list[int] = []
        self.by_case: dict[str, list[int]] = {}
        self.failed = 0
        self.first_pass: dict[str, dict] = {}

    def record(self, case, latency, problems, record):
        """Count one op, checking its outputs against those of its first run."""
        self.latencies.append(latency)
        self.by_case.setdefault(case.name, []).append(latency)
        if record is not None:
            if case.name not in self.first_pass:
                self.first_pass[case.name] = record
            elif record != self.first_pass[case.name]:
                problems.append("outputs differ from an earlier op on the same input")
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {case.name} failed: {'; '.join(problems)}", file=sys.stderr)

    def ops(self, spent_ns):
        """Yield cases, cycling through them, until spent_ns() covers the
        budget at the end of a round (one op of every shape)."""
        for i, case in enumerate(itertools.cycle(self.cases), start=1):
            if time.perf_counter() > self.wall_limit:
                return
            yield case
            if (i % self.round == 0 and spent_ns() >= self.budget_ns
                    and len(self.latencies) >= self.min_ops):
                return

    def digest(self) -> str:
        from workloads import digest

        return digest([self.first_pass.get(case.name, {"failed": case.name})
                       for case in self.cases])


def timed_run(workload, cases, seconds, seed):
    """The timed loop, with a set-up process between ops each time another
    1/SETUP_REPEATS of the op-time budget is spent; returns the loop and the
    set-up times."""
    from tracing import Tracer

    loop = Loop(workload, cases, seconds, MIN_OPS)
    off = Tracer(enabled=False)
    setup_times = []
    for case in loop.ops(lambda: sum(loop.latencies)):
        due = len(setup_times) * loop.budget_ns / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and sum(loop.latencies) >= due:
            setup_times.append(measure_setup(workload, seed))
        loop.record(case, *run_op(workload, case, off))
    while len(setup_times) < SETUP_REPEATS:  # the wall-time limit cut the loop short
        setup_times.append(measure_setup(workload, seed))
    return loop, setup_times


def traced_run(workload, cases, seconds):
    """Run each op untraced and traced, alternating which goes first, then
    probe it."""
    from tracing import Tracer, run_probes

    loop = Loop(workload, cases, seconds, min_ops=1)
    tracer = Tracer()
    off = Tracer(enabled=False)
    counters: dict = {}
    untraced_ns = 0
    started = time.perf_counter_ns()
    for case in loop.ops(lambda: time.perf_counter_ns() - started):
        tracer.op += 1
        tracer.calls = []
        for traced in (True, False) if tracer.op % 2 else (False, True):
            if traced:
                with tracer.installed():
                    result = run_op(workload, case, tracer)
            else:
                untraced_ns += run_op(workload, case, off)[0]
        loop.record(case, *result)
        run_probes(tracer, case.instance, counters)
    return loop, tracer, counters, untraced_ns


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "buyback" / "__init__.py").is_file():
        print(f"error: the buyback package is not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cases = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            from tracing import per_layer_metrics

            loop, tracer, counters, untraced_ns = traced_run(args.workload, cases, args.seconds)
            ops = len(loop.latencies)
            metrics, extra = per_layer_metrics(tracer, ops, counters, untraced_ns)
            tracer.write_jsonl(OUT / f"spans-{stem}.jsonl")
        else:
            loop, setup_times = timed_run(args.workload, cases, args.seconds, args.seed)
            ops = len(loop.latencies)
            busy_s = sum(loop.latencies) / 1e9
            pct, tail, beyond = tail_percentile(loop.latencies)
            metrics = {
                "setup_s": (median(setup_times), "s"),
                "ops_per_s": ((ops - loop.failed) / busy_s, "1/s"),
                "latency_p50_ms": (median(loop.latencies) / 1e6, "ms"),
                "latency_tail_ms": (tail / 1e6, "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            extra = {
                "error_rate": loop.failed / ops,
                "latency_tail": {"percentile": pct, "samples_beyond": beyond, "samples": ops},
                "setup_runs_s": setup_times,
                "timed_s": busy_s,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": loop.failed == 0,
        "attempted": ops,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, **result, **extra, "digest": loop.digest(),
               "environment": environment(ROOT),
               "case_median_ms": {name: median(ns) / 1e6 for name, ns in loop.by_case.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    if not args.trace:
        tail = extra["latency_tail"]
        print(f"{'  tail percentile':32s} p{tail['percentile']:g}, {tail['samples_beyond']} "
              f"of {tail['samples']} samples beyond")
        print(f"{'error_rate':32s} {extra['error_rate']:14.6g} ({loop.failed} of {ops} ops failed)")
    else:
        for name, value in extra.items():
            print(f"{name:32s} {value:14.6g}")
    print(f"{'digest':32s} {details['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
