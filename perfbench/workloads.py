"""The workloads: seeded input generation, op commands and output checks.

Sizes follow a fixed stratified design (every workload covers the same grid
shapes on every seed); the seed draws everything else: valuations,
capacities, client distributions, prices, penalties and menus.  Run time is
driven mainly by the shapes, so this keeps seed-to-seed spread small while
the inputs still change with the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from buyback import (
    MarketInstance,
    TypeGrid,
    check_theorem1,
    priced_contract,
    provider_expected_utility,
)
from buyback.cli import parse_contract, parse_instance

#: Audit tolerance for every solver output the benchmark checks.
CHECK_TOL = 1e-8
#: Monte Carlo replications per market op.
REPLICATIONS = 100_000
#: Allowed |simulated mean - analytic expectation|, in standard errors.
SIM_SIGMAS = 5.0
#: Largest exact regret accepted for a priced (exactly IC) market menu.
MARKET_REGRET_TOL = 1e-9

WORKLOADS = ("exact", "market")


@dataclass
class Case:
    """One generated input: its files, parsed objects and reference values."""

    name: str
    instance_doc: dict
    contract_doc: dict | None = None
    sim_seed: int = 0
    instance: MarketInstance | None = None
    ref: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc) + "\n").encode("utf-8")


def _instance_doc(vals, caps, probs, alpha, penalty, demand) -> dict:
    return {
        "valuations": [float(v) for v in vals],
        "capacities": [float(c) for c in caps],
        "clients": [{"probs": p.tolist()} for p in probs],
        "alpha": float(alpha),
        "penalty_M": float(penalty),
        "demand_floor_D": float(demand),
    }


def _random_grid(rng, K, L):
    vals = 0.5 + np.cumsum(rng.uniform(0.3, 1.5, K))
    caps = 1.0 + np.cumsum(rng.uniform(0.5, 2.0, L))
    return vals, caps


def _random_probs(rng, K, L, n):
    out = []
    for _ in range(n):
        raw = rng.random((L, K)) ** 2 + 1e-3
        out.append(raw / raw.sum())
    return out


def _exact_case(rng, K, L, i, penalised):
    n = int(rng.integers(2, 6))
    vals, caps = _random_grid(rng, K, L)
    probs = _random_probs(rng, K, L, n)
    alpha = rng.uniform(vals[0], vals[-1])
    if penalised:  # a demand floor inside the supply range: crossings run
        penalty, demand = rng.uniform(0.5, 4.0), rng.uniform(0.2, 0.8) * n * caps[-1]
    elif i % 2 == 0:  # M * D = 0: alternately no penalty and no floor
        penalty, demand = 0.0, rng.uniform(0.2, 0.8) * n * caps[-1]
    else:
        penalty, demand = rng.uniform(0.5, 4.0), 0.0
    kind = "pen" if penalised else "free"
    return Case(f"{kind}-K{K}-L{L}-{i}",
                _instance_doc(vals, caps, probs, alpha, penalty, demand))


def _market_case(rng, K, L, i):
    # A third-party menu: a greedy allocation priced with the optimal
    # payments.  The penalty stays linear in supply (M = 0 or D = 0), where
    # the analytic expectation is the true mean, so the simulated mean can
    # be checked against it.
    n = 10
    vals, caps = _random_grid(rng, K, L)
    probs = _random_probs(rng, K, L, n)
    alpha = rng.uniform(vals[0], vals[-1])
    if i % 2 == 0:
        penalty, demand = 0.0, rng.uniform(0.2, 0.8) * n * caps[-1]
    else:
        penalty, demand = rng.uniform(0.5, 4.0), 0.0
    y = rng.uniform(0.0, caps[-1], K)
    atoms = rng.random(K) < 0.3
    y[atoms] = rng.choice(caps, int(atoms.sum()))
    x = np.minimum(caps[None, :], np.sort(y)[::-1][:, None])
    contract = priced_contract(TypeGrid(vals, caps), x)
    return Case(
        f"K{K}-L{L}-{i}",
        _instance_doc(vals, caps, probs, alpha, penalty, demand),
        contract_doc={"allocation": contract.allocation.tolist(),
                      "payment": contract.payment.tolist()},
        sim_seed=int(rng.integers(0, 2**32)),
    )


# Per workload: the shapes of one round and the function that builds one case.
#
# exact: M * D = 0 at K, L in 6..10, where grid-vertex enumeration does the
# work, and a penalty with the floor inside the supply range at K, L in
# 4..7, where crossing enumeration dominates.  The largest shape of each
# kind appears twice per round, so the tail percentile falls inside their
# block of samples rather than on the edge between two shapes, and the
# round has an odd number of ops, which keeps the median inside one shape.
#
# market: K, L in {30, 45, 60}, with 60x60 twice for the tail and 30x30
# twice to keep the op count odd.
_EXACT_SHAPES = (
    [(K, L, False) for K, L in itertools.product(range(6, 11), repeat=2)] + [(10, 10, False)]
    + [(K, L, True) for K, L in itertools.product(range(4, 8), repeat=2)] + [(7, 7, True)]
)
_DESIGN = {
    "exact": (_EXACT_SHAPES, lambda rng, shape, i: _exact_case(rng, *shape[:2], i, shape[2])),
    "market": (list(itertools.product((30, 45, 60), repeat=2)) + [(60, 60), (30, 30)],
               lambda rng, shape, i: _market_case(rng, *shape, i)),
}


def round_size(workload: str) -> int:
    """Ops per round: one of each shape, so every round has the stated mix."""
    return len(_DESIGN[workload][0])


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for ``seed``, one per shape of its round; the
    same seed gives the same cases."""
    shapes, build = _DESIGN[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [build(rng, shape, i) for i, shape in enumerate(shapes)]


def write_inputs(cases: list[Case], directory: Path) -> None:
    """Write each case's input files and remember their paths and outputs."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(cases):
        stem = f"{i:02d}-{case.name}"
        case.paths["instance"] = directory / f"{stem}-instance.json"
        case.paths["instance"].write_bytes(_json_bytes(case.instance_doc))
        if case.contract_doc is not None:
            case.paths["contract"] = directory / f"{stem}-contract.json"
            case.paths["contract"].write_bytes(_json_bytes(case.contract_doc))
        case.paths["out"] = directory / f"{stem}-out"
        case.paths["out"].mkdir(exist_ok=True)


def prepare(cases: list[Case]) -> None:
    """Parse every case and compute its reference values (outside any timing)."""
    for case in cases:
        case.instance, _, _ = parse_instance(case.instance_doc)
        if case.contract_doc is not None:
            contract = parse_contract(case.contract_doc, case.instance.grid)
            case.ref["expected_utility"] = provider_expected_utility(case.instance, contract)


def commands(workload: str, case: Case) -> list[tuple[list[str], int]]:
    """The CLI invocations of one op, each with its expected exit code."""
    inst = str(case.paths["instance"])
    out = case.paths["out"]
    if workload == "exact":
        return [(["solve", inst, "--out", str(out / "solve.json")], 0)]
    contract = str(case.paths["contract"])
    return [
        (["verify", inst, contract, "--out", str(out / "verify.json")], 0),
        (["regret", inst, contract, "--out", str(out / "regret.json")], 0),
        (["simulate", inst, contract, "--replications", str(REPLICATIONS),
          "--seed", str(case.sim_seed), "--out", str(out / "simulate.json")], 0),
    ]


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, case: Case) -> tuple[list[str], dict]:
    """Check one op's outputs.

    Returns the problems found (empty when the op is correct) and the
    record that enters the output digest.
    """
    out = case.paths["out"]
    if workload == "exact":
        # The contract passes the audit at CHECK_TOL and its expected
        # utility re-evaluates exactly.
        report = _load(out / "solve.json")
        contract = parse_contract(report, case.instance.grid)
        audit = check_theorem1(case.instance.grid, contract, tol=CHECK_TOL)
        problems = []
        if not (audit.feasible and audit.ic_full and audit.ir):
            problems.append(f"solve: audit failed at tol {CHECK_TOL} ({audit.worst_violation})")
        if report["expected_utility"] != provider_expected_utility(case.instance, contract):
            problems.append("solve: reported expected utility does not re-evaluate")
        record = {"contract": report["contract"], "expected_utility": report["expected_utility"]}
        return problems, record

    verify = _load(out / "verify.json")
    regret = _load(out / "regret.json")
    summary = _load(out / "simulate.json")
    expected = case.ref["expected_utility"]
    problems = []
    if verify["expected_utility"] != expected:
        problems.append("verify: expected utility differs from the reference")
    if not 0.0 <= regret["regret"] <= MARKET_REGRET_TOL:
        problems.append(f"regret: {regret['regret']!r} for an incentive-compatible menu")
    if abs(summary["mean_utility"] - expected) > SIM_SIGMAS * summary["std_error"]:
        problems.append("simulate: mean is more than "
                        f"{SIM_SIGMAS:g} standard errors from the expectation")
    cells = int(np.sum(summary["item_counts"])) + summary["opt_out_count"]
    if summary["replications"] != REPLICATIONS or cells != REPLICATIONS * case.instance.num_clients:
        problems.append("simulate: selection counts do not cover every cell")
    record = {"expected_utility": verify["expected_utility"], "regret": regret,
              "simulate": summary}
    return problems, record


def digest(records: list[dict]) -> str:
    """sha256 over the given output records, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
