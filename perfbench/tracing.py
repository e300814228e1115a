"""Traced replay: spans around the calls the CLI makes into each layer.

The traced run executes the same ``buyback.cli.main`` commands as the timed
run, with the cross-layer functions the CLI calls (``parse_instance``, the
solver entry points, ``check_theorem1``, ``compute_regret``, ``simulate``,
``provider_expected_utility``, the JSON reader and writer, and the report
functions) temporarily replaced
in the ``buyback.cli`` namespace by wrappers that record one span per call.
Nothing inside the package is instrumented.  Work that happens inside one of
those calls (the solver's pricing, ``simulate``'s choice table and
allocation peak, the joint IC check inside the audit) is timed by separate probe calls after the op, so the traced op
does the same work as an untraced one.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import buyback.cli as cli
from buyback import (
    best_response,
    check_ic_full,
    optimal_payment_multi,
    provider_expected_utility,
    simulate,
)

#: Names looked up in ``buyback.cli`` at call time, and the span each becomes.
BOUNDARIES = {
    "_load_json": "cli.parse",
    "parse_instance": "cli.parse",
    "parse_contract": "cli.parse",
    "solve_report": "cli.serialise",
    "audit_dict": "cli.serialise",
    "contract_dict": "cli.serialise",
    "_write_out": "cli.serialise",
    "solve_single_capacity": "solver.exact",
    "solve_multi_reduced": "solver.exact",
    "check_theorem1": "feasibility.audit",
    "compute_regret": "feasibility.regret",
    "regret_bound": "feasibility.regret_bound",
    "provider_expected_utility": "model.expected_utility",
    "simulate": "simulation.simulate",
}

LAYERS = ("cli", "model", "payments", "solver", "feasibility", "simulation")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int


class Tracer:
    """Records spans in memory; records nothing unless ``enabled``."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.calls: list[tuple[str, tuple, dict, object]] = []  # (span, args, kwargs, result)
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.op if op is None else op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into ``buyback.cli`` for the duration of the block."""
        originals = {attr: getattr(cli, attr) for attr in BOUNDARIES if hasattr(cli, attr)}
        if self.enabled:
            for attr, fn in originals.items():
                setattr(cli, attr, self._wrap(fn, BOUNDARIES[attr]))
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(cli, attr, fn)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "parent": s.parent, "op": s.op}))
                fh.write("\n")


def _timed(tracer: Tracer, name: str, fn, *args):
    with tracer.span(name, op=tracer.op):
        return fn(*args)


def run_probes(tracer: Tracer, instance, counters: dict) -> None:
    """Probe calls for the work hidden inside this op's recorded calls.

    Each probe is a root span (no parent) named ``probe.<layer>.<what>``.
    Counters taken from the calls' results accumulate into ``counters``.
    """
    saved_stack, tracer._stack = tracer._stack, []
    try:
        for name, args, kwargs, result in tracer.calls:
            if name.startswith("solver."):
                diag = result.diagnostics
                contract = result.contract
                for key in ("candidates", "grid_candidates", "crossing_candidates"):
                    if key in diag:
                        counters[key] = counters.get(key, 0) + diag[key]
                _timed(tracer, "probe.payments.price", optimal_payment_multi,
                       instance.grid, contract.allocation)
                _timed(tracer, "probe.model.expected_utility",
                       provider_expected_utility, instance, contract)
            elif name == "feasibility.audit":
                grid, contract = args[0], args[1]
                tol = kwargs.get("tol", args[2] if len(args) > 2 else cli.AUDIT_TOL)
                _timed(tracer, "probe.feasibility.ic_full", check_ic_full, grid, contract, tol)
                counters["audit_failures"] = counters.get("audit_failures", 0) + (
                    0 if result.feasible else 1)
            elif name == "simulation.simulate":
                sim_instance, contract, config = args
                grid = sim_instance.grid
                _timed(tracer, "probe.simulation.choice_table", lambda: [
                    best_response(grid, contract, (k, l), config.tie_break)
                    for l in range(grid.num_capacities) for k in range(grid.num_valuations)])
                tracemalloc.start()
                try:
                    simulate(sim_instance, contract, config)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                counters["alloc_peak_bytes"] = max(counters.get("alloc_peak_bytes", 0), peak)
                counters["cells"] = counters.get("cells", 0) + (
                    config.replications * sim_instance.num_clients)
    finally:
        tracer._stack = saved_stack


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


def layer_of(name: str) -> str | None:
    """Layer a span is charged to; 'op' spans are the benchmark's own loop."""
    if name.startswith("probe.") or name == "op":
        return None
    return name.split(".")[0]


def per_layer_metrics(tracer: Tracer, ops: int, counters: dict, untraced_ns: int) -> tuple[dict, dict]:
    """Every per-layer metric as {name: (value, unit)}, and each layer's
    calls and share of the op's time as further figures."""
    spans = tracer.spans
    own = self_times(spans)
    total = {}  # inclusive time per span name, outermost calls only
    self_by_name = {}
    calls_by_layer = {layer: 0 for layer in LAYERS}
    self_by_layer = {layer: 0 for layer in LAYERS}
    op_ns = 0
    for i, s in enumerate(spans):
        dur = s.end_ns - s.start_ns
        if s.name == "op":
            op_ns += dur
            continue
        nested = s.parent is not None and spans[s.parent].name == s.name
        if not nested:
            total[s.name] = total.get(s.name, 0) + dur
        self_by_name[s.name] = self_by_name.get(s.name, 0) + own[i]
        layer = layer_of(s.name)
        if layer is not None:
            calls_by_layer[layer] += 1
            self_by_layer[layer] += own[i]

    def per_op_ms(name, table=total):
        return table.get(name, 0) / 1e6 / ops

    def ratio(ns, count):
        return ns / count if count else 0.0

    m = {
        "cli.parse_ms": (per_op_ms("cli.parse"), "ms"),
        "cli.serialise_ms": (per_op_ms("cli.serialise", self_by_name), "ms"),
        "model.expected_utility_ms": (per_op_ms("model.expected_utility")
                                      + per_op_ms("probe.model.expected_utility"), "ms"),
        "payments.price_ms": (per_op_ms("probe.payments.price"), "ms"),
        "solver.exact_ms": (per_op_ms("solver.exact"), "ms"),
        "solver.candidates": (counters.get("candidates", 0) / ops, "count"),
        "solver.grid_candidates": (counters.get("grid_candidates", 0) / ops, "count"),
        "solver.crossing_candidates": (counters.get("crossing_candidates", 0) / ops, "count"),
        "solver.exact_ns_per_candidate": (
            ratio(total.get("solver.exact", 0), counters.get("candidates", 0)), "ns"),
        "feasibility.audit_ms": (per_op_ms("feasibility.audit"), "ms"),
        "feasibility.ic_full_ms": (per_op_ms("probe.feasibility.ic_full"), "ms"),
        "feasibility.regret_ms": (per_op_ms("feasibility.regret"), "ms"),
        "feasibility.audit_failures": (counters.get("audit_failures", 0), "count"),
        "simulation.simulate_ms": (per_op_ms("simulation.simulate"), "ms"),
        "simulation.cells_per_s": (
            ratio(counters.get("cells", 0), total.get("simulation.simulate", 0)) * 1e9, "1/s"),
        "simulation.choice_table_ms": (per_op_ms("probe.simulation.choice_table"), "ms"),
        "simulation.alloc_peak_mb": (counters.get("alloc_peak_bytes", 0) / 2**20, "MB"),
    }
    extra = {}
    for layer in LAYERS:
        if layer != "payments":  # the CLI never calls payments; see payments.price_ms
            m[f"{layer}.self_ms"] = (self_by_layer[layer] / 1e6 / ops, "ms")
        extra[f"{layer}.calls_per_op"] = calls_by_layer[layer] / ops
        extra[f"{layer}.self_share_pct"] = 100.0 * ratio(self_by_layer[layer], op_ns)
    m["trace.op_ms"] = (op_ns / 1e6 / ops, "ms")
    m["trace.untraced_op_ms"] = (untraced_ns / 1e6 / ops, "ms")
    m["trace.overhead_pct"] = (100.0 * (ratio(op_ns, untraced_ns) - 1.0), "%")
    extra["trace.spans_per_op"] = sum(1 for s in spans if not s.name.startswith("probe.")) / ops
    return m, extra
