"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import buyback.cli as cli  # noqa: E402
import run  # noqa: E402
from measure import TAIL_MIN_BEYOND, nearest_rank, tail_percentile  # noqa: E402
from tracing import BOUNDARIES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, _exact_case, check, generate, prepare, write_inputs)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


#: Index of the first penalised case in the exact workload's round.
PENALISED = 26


def _ready_case(workload, tmp_path, seed=3, index=0):
    cases = generate(workload, seed)
    write_inputs(cases, tmp_path / workload)
    prepare(cases)
    return cases[index]


def test_generator_writes_identical_bytes_for_a_seed(tmp_path):
    for workload in WORKLOADS:
        write_inputs(generate(workload, 7), tmp_path / "a" / workload)
        write_inputs(generate(workload, 7), tmp_path / "b" / workload)
        write_inputs(generate(workload, 8), tmp_path / "c" / workload)
        first = _files(tmp_path / "a" / workload)
        assert first and first == _files(tmp_path / "b" / workload)
        assert first != _files(tmp_path / "c" / workload)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(2 * TAIL_MIN_BEYOND, 600, 7):
        samples = list(range(n, 0, -1))
        pct, value, beyond = tail_percentile(samples)
        ordered = sorted(samples)
        _, rank = nearest_rank(ordered, pct)
        assert beyond == n - rank >= TAIL_MIN_BEYOND
        assert value == ordered[rank - 1]
        assert sum(1 for s in samples if s > value) >= TAIL_MIN_BEYOND
    _, _, beyond = tail_percentile(list(range(1000)))
    assert beyond == 10  # p99 of 1000 samples


def test_tracing_off_records_no_spans(tmp_path):
    case = _ready_case("exact", tmp_path, index=PENALISED)
    originals = {name: getattr(cli, name) for name in BOUNDARIES}
    off = Tracer(enabled=False)
    with off.installed():
        assert all(getattr(cli, name) is fn for name, fn in originals.items())
        _, problems, _ = run.run_op("exact", case, off)
    assert problems == []
    assert off.spans == [] and off.calls == []

    on = Tracer()
    with on.installed():
        run.run_op("exact", case, on)
    assert {s.name for s in on.spans} >= {"op", "cli.main", "cli.parse", "solver.exact",
                                          "feasibility.audit", "cli.serialise"}
    assert all(getattr(cli, name) is fn for name, fn in originals.items())


def _tamper(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc["contract"])
    path.write_text(json.dumps(doc))


def test_checks_flag_a_planted_bad_solve_output(tmp_path):
    case = _ready_case("exact", tmp_path, index=PENALISED + 5)
    _, problems, _ = run.run_op("exact", case, Tracer(enabled=False))
    assert problems == []
    report = case.paths["out"] / "solve.json"
    pristine = report.read_text()

    def raise_payment(contract):
        contract["payment"][0][0] += 0.5

    def over_capacity(contract):
        contract["allocation"][0][0] = case.instance.grid.capacities[0] + 1.0

    for edit in (raise_payment, over_capacity):
        report.write_text(pristine)
        _tamper(report, edit)
        found, _ = check("exact", case)
        assert any("audit failed" in p for p in found), edit.__name__


def test_market_op_fails_on_a_planted_bad_menu(tmp_path):
    case = _ready_case("market", tmp_path)
    path = case.paths["contract"]
    doc = json.loads(path.read_text())
    doc["payment"][1][1] += 0.5
    path.write_text(json.dumps(doc))
    _, problems, _ = run.run_op("market", case, Tracer(enabled=False))
    assert any("verify exited 1" in p for p in problems)


def test_hang_guard_turns_a_runaway_solve_into_a_failed_op(tmp_path, monkeypatch):
    # An 8x8 penalty solve spends over a second enumerating crossings.
    case = _exact_case(np.random.default_rng(0), 8, 8, 0, penalised=True)
    write_inputs([case], tmp_path)
    prepare([case])
    monkeypatch.setattr(run, "OP_GUARD_S", 0.2)
    start = time.perf_counter()
    _, problems, record = run.run_op("exact", case, Tracer(enabled=False))
    assert time.perf_counter() - start < 1.0
    assert record is None
    assert any("hang guard" in p for p in problems)
