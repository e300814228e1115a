"""Command-line front end: solve, verify, simulate, regret, and oracle.

File formats (UTF-8 JSON):

* instance file — keys ``valuations`` (K numbers, ascending), ``capacities``
  (L numbers, ascending), ``clients`` (n objects, each with an L x K
  ``probs`` matrix, rows by capacity, columns by valuation), ``alpha``,
  ``penalty_M``, ``demand_floor_D``, optional ``epsilon`` and ``seed``;
* contract file — ``allocation`` and ``payment`` K x L matrices; a report
  written by ``solve`` also works (its ``contract`` block is used).

Numbers are serialized at full round-trip precision; human-readable tables
render at 6 significant digits.  Exit codes: 0 success/feasible, 1 infeasible
contract, 2 invalid input, 3 internal failure.  Environment variables are
never consulted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .feasibility import AUDIT_TOL, AuditReport, check_theorem1, compute_regret, regret_bound
from .model import (
    ClientDistribution,
    Contract,
    MarketInstance,
    TypeGrid,
    ValidationError,
    check_shapes,
    client_utility,
    provider_expected_utility,
)
from .simulation import SimulationConfig, SimulationSummary, simulate
from .solver import (
    SolveResult,
    oracle_grid_search,
    solve_multi_reduced,
    solve_multi_relaxed,
    solve_single_capacity,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

DEFAULT_EPSILON = 1e-6
DEFAULT_GRID_STEP = 0.01

_REQUIRED_INSTANCE_KEYS = (
    "valuations",
    "capacities",
    "clients",
    "alpha",
    "penalty_M",
    "demand_floor_D",
)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, not UTF-8, or an integer past the digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"'{key}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"'{key}' is an integer beyond the float range") from None


def _number_list(value, key: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"'{key}' must be a non-empty array of numbers")
    return [_number(entry, f"{key}[{i}]") for i, entry in enumerate(value)]


def _matrix(value, key: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise ValidationError(f"'{key}' must be a matrix with {rows} rows")
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"'{key}' row {r} must hold {cols} numbers")
        if not set(map(type, row)) <= {int, float}:  # bool is not int here
            for c, entry in enumerate(row):
                _number(entry, f"{key}[{r}][{c}]")
    try:
        return np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the float range: convert per entry to name it
        return np.array(
            [[_number(entry, f"{key}[{r}][{c}]") for c, entry in enumerate(row)]
             for r, row in enumerate(value)]
        )


def parse_instance(doc) -> tuple[MarketInstance, float | None, int | None]:
    """Build a MarketInstance from a parsed instance document.

    Returns the instance plus the optional epsilon and seed from the file.
    Raises ValidationError naming the offending key/index on any problem.
    """
    if not isinstance(doc, dict):
        raise ValidationError("instance file must be a JSON object")
    for key in _REQUIRED_INSTANCE_KEYS:
        if key not in doc:
            raise ValidationError(f"instance file is missing key '{key}'")
    grid = TypeGrid(_number_list(doc["valuations"], "valuations"),
                    _number_list(doc["capacities"], "capacities"))
    K, L = grid.num_valuations, grid.num_capacities
    raw_clients = doc["clients"]
    if not isinstance(raw_clients, list) or not raw_clients:
        raise ValidationError("'clients' must be a non-empty array")
    clients = []
    for i, entry in enumerate(raw_clients):
        if not isinstance(entry, dict) or "probs" not in entry:
            raise ValidationError(f"clients[{i}] must be an object with a 'probs' matrix")
        probs = _matrix(entry["probs"], f"clients[{i}].probs", L, K)
        try:
            clients.append(ClientDistribution(probs))
        except ValidationError as exc:
            raise ValidationError(f"clients[{i}].probs: {exc}") from exc
    instance = MarketInstance(
        grid=grid,
        clients=tuple(clients),
        alpha=_number(doc["alpha"], "alpha"),
        penalty=_number(doc["penalty_M"], "penalty_M"),
        demand_floor=_number(doc["demand_floor_D"], "demand_floor_D"),
    )
    epsilon = _number(doc["epsilon"], "epsilon") if "epsilon" in doc else None
    seed = None
    if "seed" in doc:
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValidationError(f"'seed' must be an integer, got {seed!r}")
    return instance, epsilon, seed


def parse_contract(doc, grid: TypeGrid) -> Contract:
    """Build a Contract from a contract document or a solve report."""
    if not isinstance(doc, dict):
        raise ValidationError("contract file must be a JSON object")
    if "contract" in doc and isinstance(doc["contract"], dict):
        doc = doc["contract"]
    for key in ("allocation", "payment"):
        if key not in doc:
            raise ValidationError(f"contract file is missing key '{key}'")
    K, L = grid.num_valuations, grid.num_capacities
    allocation = _matrix(doc["allocation"], "allocation", K, L)
    payment = _matrix(doc["payment"], "payment", K, L)
    return Contract(allocation, payment)


def contract_dict(contract: Contract) -> dict:
    return {
        "allocation": contract.allocation.tolist(),
        "payment": contract.payment.tolist(),
    }


def audit_dict(report: AuditReport) -> dict:
    return {
        "feasible": report.feasible,
        "p1": report.p1,
        "p2": report.p2,
        "p3": report.p3,
        "p4": report.p4,
        "p5": report.p5,
        "p6": report.p6,
        "resource_feasible": report.resource_feasible,
        "greedy_monotone": report.greedy_monotone,
        "greedy_maximal": report.greedy_maximal,
        "ic_valuation": report.ic_valuation,
        "ic_capacity": report.ic_capacity,
        "ic_full": report.ic_full,
        "ir": report.ir,
        "margins": report.margins,
        "worst_violation": list(report.worst_violation),
        "regret": report.regret,
        "regret_bound": report.regret_bound,
    }


def _menu_rows(instance: MarketInstance, contract: Contract) -> list[dict]:
    grid = instance.grid
    rows = []
    for k in range(grid.num_valuations):
        for l in range(grid.num_capacities):
            rows.append(
                {
                    "valuation": float(grid.valuations[k]),
                    "capacity": float(grid.capacities[l]),
                    "repurchase": float(contract.allocation[k, l]),
                    "payment": float(contract.payment[k, l]),
                    "client_utility": client_utility(grid, contract, k, (k, l)),
                }
            )
    return rows


def solve_report(instance: MarketInstance, result: SolveResult, tol: float) -> dict:
    audit = check_theorem1(instance.grid, result.contract, tol=tol, epsilon=result.epsilon)
    return {
        "contract": contract_dict(result.contract),
        "menu": _menu_rows(instance, result.contract),
        "expected_utility": result.expected_utility,
        "audit": audit_dict(audit),
        "solver": {
            "method": result.method.value,
            "epsilon": result.epsilon,
            "aux_t": result.aux_t,
            "diagnostics": result.diagnostics,
        },
    }


def _write_out(doc: dict, out_path: str | None) -> None:
    if out_path is None:
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _print_menu(instance: MarketInstance, contract: Contract) -> None:
    print("contract menu:")
    print(f"  {'valuation':>12} {'capacity':>12} {'repurchase':>12} "
          f"{'payment':>12} {'utility':>12}")
    for row in _menu_rows(instance, contract):
        print(
            f"  {row['valuation']:>12.6g} {row['capacity']:>12.6g} "
            f"{row['repurchase']:>12.6g} {row['payment']:>12.6g} "
            f"{row['client_utility']:>12.6g}"
        )


def _print_audit(report: AuditReport) -> None:
    for key in ("p1", "p2", "p3", "p4", "p5", "p6", "ic_full", "ir"):
        ok = getattr(report, key)
        print(f"  {key:<8} {'pass' if ok else 'FAIL'}  margin {report.margins[key]:.6g}")
    worst_id, worst_mag = report.worst_violation
    print(f"  worst violation: {worst_id} ({worst_mag:.6g})")
    print(f"  regret {report.regret:.6g}  bound {report.regret_bound:.6g}")


def cmd_solve(args) -> int:
    instance, file_epsilon, file_seed = parse_instance(_load_json(args.instance))
    epsilon = args.epsilon if args.epsilon is not None else file_epsilon
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    method = args.method
    if method == "auto":
        method = "single" if instance.grid.num_capacities == 1 else "reduced"
    if method == "single":
        result = solve_single_capacity(instance)
    elif method == "reduced":
        result = solve_multi_reduced(instance)
    elif method == "relaxed":
        result = solve_multi_relaxed(
            instance,
            epsilon=epsilon if epsilon is not None else DEFAULT_EPSILON,
            restarts=args.restarts,
            seed=seed,
        )
    else:
        raise ValidationError(f"unknown method '{method}'")
    report = solve_report(instance, result, args.tol)
    _write_out(report, args.out)
    _print_menu(instance, result.contract)
    print(f"method {result.method.value}  epsilon {result.epsilon:.6g}")
    print(f"expected provider utility: {result.expected_utility:.6g}")
    print(f"regret {report['audit']['regret']:.6g}  bound {report['audit']['regret_bound']:.6g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    instance, file_epsilon, _ = parse_instance(_load_json(args.instance))
    contract = parse_contract(_load_json(args.contract), instance.grid)
    check_shapes(instance.grid, contract)
    epsilon = args.epsilon if args.epsilon is not None else (file_epsilon or 0.0)
    report = check_theorem1(instance.grid, contract, tol=args.tol, epsilon=epsilon)
    doc = {
        "audit": audit_dict(report),
        "expected_utility": provider_expected_utility(instance, contract),
    }
    _write_out(doc, args.out)
    _print_audit(report)
    verdict = "feasible" if report.feasible else "infeasible"
    print(f"contract is {verdict}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _summary_dict(summary: SimulationSummary) -> dict:
    return {
        "mean_utility": summary.mean_utility,
        "std_error": summary.std_error,
        "mean_total_repurchase": summary.mean_total_repurchase,
        "shortfall_frequency": summary.shortfall_frequency,
        "item_counts": summary.item_counts.tolist(),
        "opt_out_count": summary.opt_out_count,
        "replications": summary.replications,
    }


def cmd_simulate(args) -> int:
    instance, _, file_seed = parse_instance(_load_json(args.instance))
    contract = parse_contract(_load_json(args.contract), instance.grid)
    check_shapes(instance.grid, contract)
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    config = SimulationConfig(
        replications=args.replications, seed=seed, tie_break=args.tie_break
    )
    summary = simulate(instance, contract, config)
    _write_out(_summary_dict(summary), args.out)
    print(f"replications {summary.replications}  seed {seed}")
    print(f"mean utility {summary.mean_utility:.6g}  std error {summary.std_error:.6g}")
    print(f"mean total repurchase {summary.mean_total_repurchase:.6g}")
    print(f"shortfall frequency {summary.shortfall_frequency:.6g}")
    print("item selection counts (valuation-major rows):")
    for k, row in enumerate(summary.item_counts.tolist()):
        print(f"  k={k}: {row}")
    print(f"  opt-out: {summary.opt_out_count}")
    return EXIT_OK


def cmd_regret(args) -> int:
    instance, file_epsilon, _ = parse_instance(_load_json(args.instance))
    contract = parse_contract(_load_json(args.contract), instance.grid)
    check_shapes(instance.grid, contract)
    epsilon = args.epsilon if args.epsilon is not None else (file_epsilon or 0.0)
    value = compute_regret(instance.grid, contract)
    bound = regret_bound(instance.grid, epsilon)
    _write_out({"regret": value, "regret_bound": bound, "epsilon": epsilon}, args.out)
    print(f"regret {value:.6g}")
    print(f"bound {bound:.6g} (epsilon {epsilon:.6g})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance, _, _ = parse_instance(_load_json(args.instance))
    result = oracle_grid_search(instance, args.grid_step)
    report = solve_report(instance, result, args.tol)
    _write_out(report, args.out)
    _print_menu(instance, result.contract)
    print(f"method {result.method.value}  candidates {result.diagnostics['candidates']}")
    print(f"expected provider utility: {result.expected_utility:.6g}")
    return EXIT_OK


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text!r}")
    return value


@functools.cache  # parse_args leaves the parser unchanged, so every call can share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buyback",
        description="Design, audit, and simulate resource-repurchasing contract menus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=_tolerance, default=AUDIT_TOL, help="audit tolerance")
        p.add_argument("--out", help="write the machine-readable JSON report here")

    p_solve = sub.add_parser("solve", help="compute an optimal contract for an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument(
        "--method", choices=("auto", "single", "reduced", "relaxed"), default="auto"
    )
    p_solve.add_argument("--epsilon", type=float, default=None,
                         help="relaxation tolerance (relaxed method)")
    p_solve.add_argument("--restarts", type=int, default=4)
    p_solve.add_argument("--seed", type=int, default=None)
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="audit a contract against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("contract")
    p_verify.add_argument("--epsilon", type=float, default=None,
                          help="epsilon used for the reported regret bound")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation of a contract")
    p_sim.add_argument("instance")
    p_sim.add_argument("contract")
    p_sim.add_argument("--replications", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument(
        "--tie-break", choices=("truthful_first", "max_payment"), default="truthful_first"
    )
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_regret = sub.add_parser("regret", help="exact regret of a contract, with bound")
    p_regret.add_argument("instance")
    p_regret.add_argument("contract")
    p_regret.add_argument("--epsilon", type=float, default=None)
    add_common(p_regret)
    p_regret.set_defaults(func=cmd_regret)

    p_oracle = sub.add_parser("oracle", help="brute-force lattice search that cross-checks solve")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # internal failure contract: exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
