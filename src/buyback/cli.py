"""Command-line front end: solve, verify, simulate, regret, and oracle.

File formats (UTF-8 JSON):

* instance file — keys ``valuations`` (K numbers, ascending), ``capacities``
  (L numbers, ascending), ``clients`` (n objects, each with an L x K
  ``probs`` matrix, rows by capacity, columns by valuation), ``alpha``,
  ``penalty_M``, ``demand_floor_D``, optional ``epsilon`` (read by ``verify``,
  ``regret`` and ``solve --method relaxed``) and ``seed`` (read by ``simulate``);
* contract file — ``allocation`` and ``payment`` K x L matrices; a report
  written by ``solve`` also works (its ``contract`` block is used).

Numbers are serialized at full round-trip precision; human-readable tables
render at 6 significant digits.  Exit codes: 0 success/feasible, 1 infeasible
contract, 2 invalid input, 3 internal failure.  Environment variables are
never consulted.  A process that calls ``main`` repeatedly re-parses an input
file only when its bytes change: the last parse of each kind of file is kept
with the file's bytes, and a read that finds the same bytes reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .feasibility import (
    AUDIT_TOL, VERDICT_KEYS, AuditReport, _truthful_utilities, check_theorem1, compute_regret,
    regret_bound,
)
from .model import (
    ClientDistribution,
    Contract,
    MarketInstance,
    TypeGrid,
    ValidationError,
    provider_expected_utility,
)
from .simulation import (
    TIE_TRUTHFUL_FIRST, _TIE_MODES, SimulationConfig, SimulationSummary, simulate
)
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

DEFAULT_GRID_STEP = 0.01

_REQUIRED_INSTANCE_KEYS = (
    "valuations",
    "capacities",
    "clients",
    "alpha",
    "penalty_M",
    "demand_floor_D",
)


#: The last successful parse of each kind of input file: kind -> (key, result).
#: The key is the file's bytes plus, for a contract, the grid shape it was
#: read against, so a changed file is parsed again whatever its path, inode
#: or mtime.  Results are frozen, so commands may share them.
_parsed: dict[str, tuple[tuple, object]] = {}


def _load_json(path: str, grid: TypeGrid | None = None):
    """``parse_instance`` of the JSON in ``path``, or with a ``grid`` its
    ``parse_contract``, taken from ``_parsed`` while the bytes are unchanged."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    kind = "instance" if grid is None else "contract"
    shape = None if grid is None else (grid.num_valuations, grid.num_capacities)
    key = (data, shape)
    last = _parsed.get(kind)
    if last is not None and last[0] == key:
        return last[1]
    try:
        # What text-mode open(path, encoding="utf-8") reads: strict UTF-8, universal newlines.
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except ValueError as exc:  # not UTF-8, malformed, or an integer past the digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    # Looked up at call time, so a wrapper swapped into this module sees the call.
    result = parse_instance(doc) if grid is None else parse_contract(doc, grid)
    _parsed[kind] = (key, result)
    return result


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
    seed = _check_seed(doc["seed"], "'seed'") if "seed" in doc else None
    return instance, epsilon, seed


def _check_seed(seed, name: str) -> int:
    """A seed is an integer in [0, 2**64), the range SimulationConfig takes."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValidationError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return seed


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
    """The verdicts in the order of the report's margins, then the margins and the rest."""
    return {
        "feasible": report.feasible,
        **{key: getattr(report, key) for key in report.margins},
        "margins": report.margins,
        "worst_violation": list(report.worst_violation),
        "regret": report.regret,
        "regret_bound": report.regret_bound,
    }


def _menu_rows(instance: MarketInstance, contract: Contract) -> list[dict]:
    """One row per item, valuation-major; each utility is ``client_utility``
    of the item's own valuation, read off the audit's truthful-utility table."""
    grid = instance.grid
    x, p = contract.allocation, contract.payment
    utility = _truthful_utilities(grid, contract)
    capacities = grid.capacities.tolist()
    return [
        {
            "valuation": v,
            "capacity": c,
            "repurchase": x_c,
            "payment": p_c,
            "client_utility": u_c,
        }
        for v, x_row, p_row, u_row in zip(
            grid.valuations.tolist(), x.tolist(), p.tolist(), utility.tolist()
        )
        for c, x_c, p_c, u_c in zip(capacities, x_row, p_row, u_row)
    ]


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


def _numbers(text: str) -> str:
    """JSON spelling of joined int and float reprs: only nan and inf hold an 'n'."""
    return text.replace("inf", "Infinity").replace("nan", "NaN") if "n" in text else text


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` nested ``pad`` deep, byte for byte.

    CPython's C encoder serves only ``indent=None``, so the common shapes are
    spelled here; anything else goes to ``json.dumps`` and is re-indented,
    which is exact because a JSON string holds no raw newline.
    """
    kind = type(value)
    if kind is float or kind is int:
        return _numbers(repr(value))
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list and value:
        kinds = set(map(type, value))
        if kinds <= {float, int}:
            return f"[\n{inner}{_numbers(sep.join(map(repr, value)))}\n{pad}]"
        if kinds == {dict} and all(type(key) is str for key in value[0]):
            keys = list(value[0])
            cells = [cell for row in value if list(row) == keys for cell in row.values()]
            # A nan or inf makes the sum non-finite (so may an overflow: that is only slower).
            if len(cells) == len(keys) * len(value) and set(map(type, cells)) == {float} \
                    and math.isfinite(sum(cells)):
                fields = [encode_basestring_ascii(key).replace("%", "%%") + ": %r" for key in keys]
                row = f"{{\n{inner}  " + f",\n{inner}  ".join(fields) + f"\n{inner}}}"
                return f"[\n{inner}" + sep.join([row] * len(value)) % tuple(cells) + f"\n{pad}]"
        return f"[\n{inner}" + sep.join([_json(item, inner) for item in value]) + f"\n{pad}]"
    if kind is dict and value and all(type(key) is str for key in value):
        return f"{{\n{inner}" + sep.join([
            f"{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in value.items()
        ]) + f"\n{pad}}}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _write_out(doc: dict, out_path: str | None) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline over ``out_path``.

    The file is rewritten in place and then cut to length, so its inode and
    mode stay.  Truncating first would cost more: ext4 forces allocation and
    writeback at close of a file truncated to zero.  Only a regular file is
    cut, so a pipe or a terminal also works.
    """
    if out_path is None:
        return
    data = (_json(doc, "") + "\n").encode("ascii")
    try:
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ValidationError(f"cannot write {out_path}: {exc}") from exc


def _print_menu(rows: list[dict]) -> None:
    head = "  %12s %12s %12s %12s %12s\n" % ("valuation", "capacity", "repurchase", "payment", "utility")
    line = "  %12.6g %12.6g %12.6g %12.6g %12.6g\n"
    print("contract menu:\n" + head + "".join([
        line % (row["valuation"], row["capacity"], row["repurchase"], row["payment"],
                row["client_utility"])
        for row in rows
    ]), end="")


def _print_audit(report: AuditReport) -> None:
    for key in VERDICT_KEYS:
        ok = getattr(report, key)
        print(f"  {key:<8} {'pass' if ok else 'FAIL'}  margin {report.margins[key]:.6g}")
    worst_id, worst_mag = report.worst_violation
    print(f"  worst violation: {worst_id} ({worst_mag:.6g})")
    print(f"  regret {report.regret:.6g}  bound {report.regret_bound:.6g}")


def cmd_solve(args) -> int:
    if args.epsilon is not None and args.method != "relaxed":
        raise ValidationError("--epsilon applies only to --method relaxed")
    instance, file_epsilon, _ = _load_json(args.instance)
    epsilon = args.epsilon if args.epsilon is not None else file_epsilon
    if args.method == "relaxed":
        result = solve_multi_relaxed(instance, *([] if epsilon is None else [epsilon]))
    elif args.method == "auto" and instance.grid.num_capacities == 1:
        result = solve_single_capacity(instance)
    else:
        result = solve_multi_reduced(instance)
    report = solve_report(instance, result, args.tol)
    _write_out(report, args.out)
    _print_menu(report["menu"])
    print(f"method {result.method.value}  epsilon {result.epsilon:.6g}")
    print(f"expected provider utility: {result.expected_utility:.6g}")
    print(f"regret {report['audit']['regret']:.6g}  bound {report['audit']['regret_bound']:.6g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    instance, file_epsilon, _ = _load_json(args.instance)
    contract = _load_json(args.contract, instance.grid)
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
    doc = {field.name: getattr(summary, field.name) for field in dataclasses.fields(summary)}
    doc["item_counts"] = summary.item_counts.tolist()
    return doc


def cmd_simulate(args) -> int:
    instance, _, file_seed = _load_json(args.instance)
    contract = _load_json(args.contract, instance.grid)
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    config = SimulationConfig(args.replications, seed, args.tie_break)
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
    instance, file_epsilon, _ = _load_json(args.instance)
    contract = _load_json(args.contract, instance.grid)
    epsilon = args.epsilon if args.epsilon is not None else (file_epsilon or 0.0)
    value = compute_regret(instance.grid, contract)
    bound = regret_bound(instance.grid, epsilon)
    _write_out({"regret": value, "regret_bound": bound, "epsilon": epsilon}, args.out)
    print(f"regret {value:.6g}")
    print(f"bound {bound:.6g} (epsilon {epsilon:.6g})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance, _, _ = _load_json(args.instance)
    result = oracle_grid_search(instance, args.grid_step)
    report = solve_report(instance, result, args.tol)
    _write_out(report, args.out)
    _print_menu(report["menu"])
    print(f"method {result.method.value}  candidates {result.diagnostics['candidates']}")
    print(f"expected provider utility: {result.expected_utility:.6g}")
    return EXIT_OK


def _seed(text: str) -> int:
    try:
        return _check_seed(int(text), "seed")
    except (ValueError, ValidationError):
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**64), got {text!r}"
        ) from None


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

    def add_common(p, func, tol=False):
        if tol:  # only the commands that audit take a tolerance
            p.add_argument("--tol", type=_tolerance, default=AUDIT_TOL, help="audit tolerance")
        p.add_argument("--out", help="write the machine-readable JSON report here")
        p.set_defaults(func=func)

    p_solve = sub.add_parser("solve", help="compute an optimal contract for an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=("auto", "reduced", "relaxed"), default="auto")
    p_solve.add_argument("--epsilon", type=float, default=None,
                         help="relaxation tolerance (--method relaxed only)")
    add_common(p_solve, cmd_solve, tol=True)

    p_verify = sub.add_parser("verify", help="audit a contract against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("contract")
    p_verify.add_argument("--epsilon", type=float, default=None,
                          help="epsilon used for the reported regret bound")
    add_common(p_verify, cmd_verify, tol=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation of a contract")
    p_sim.add_argument("instance")
    p_sim.add_argument("contract")
    p_sim.add_argument("--replications", type=int, default=10_000)
    p_sim.add_argument("--seed", type=_seed, default=None)
    p_sim.add_argument("--tie-break", choices=_TIE_MODES, default=TIE_TRUTHFUL_FIRST)
    add_common(p_sim, cmd_simulate)

    p_regret = sub.add_parser("regret", help="exact regret of a contract, with bound")
    p_regret.add_argument("instance")
    p_regret.add_argument("contract")
    p_regret.add_argument("--epsilon", type=float, default=None)
    add_common(p_regret, cmd_regret)

    p_oracle = sub.add_parser("oracle", help="brute-force lattice search that cross-checks solve")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    add_common(p_oracle, cmd_oracle, tol=True)

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
