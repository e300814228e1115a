from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from buyback import (
    CandidateCountError,
    Contract,
    MarketInstance,
    SimulationConfig,
    SolveMethod,
    SolveResult,
    ValidationError,
    best_response,
    estimate_misreport_gain,
    simulate,
    solve_multi_reduced,
)
from buyback import cli as cli_mod
from buyback import solver
from buyback.cli import _build_parser, _matrix, main, parse_instance, solve_report
from buyback.feasibility import AUDIT_TOL
from helpers import (
    matrix_reference,
    menu_rows_reference,
    print_menu_reference,
    random_instance,
    random_menu,
    summary_dict_reference,
    write_out_reference,
)

INSTANCE_L1 = {
    "valuations": [1.0, 2.0],
    "capacities": [10.0],
    "clients": [{"probs": [[0.5, 0.5]]}],
    "alpha": 2.0,
    "penalty_M": 0.0,
    "demand_floor_D": 0.0,
}

INSTANCE_L2 = {
    "valuations": [1.0, 2.0],
    "capacities": [5.0, 10.0],
    "clients": [
        {"probs": [[0.3, 0.2], [0.1, 0.4]]},
        {"probs": [[0.25, 0.25], [0.25, 0.25]]},
    ],
    "alpha": 2.5,
    "penalty_M": 1.5,
    "demand_floor_D": 4.0,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "buyback", *args], capture_output=True, text=True
    )


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_solve_simple_instance(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    out = str(tmp_path / "report.json")
    proc = run_cli("solve", inst, "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(Path(out).read_text())
    assert report["solver"]["method"] == "single_exact"
    assert report["contract"]["allocation"] == [[10.0], [0.0]]
    assert report["contract"]["payment"] == [[10.0], [0.0]]
    assert report["expected_utility"] == pytest.approx(5.0)
    assert report["audit"]["feasible"] is True


def test_solve_then_verify_round_trip(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out = str(tmp_path / "report.json")
    assert run_cli("solve", inst, "--out", out).returncode == 0
    verify = run_cli("verify", inst, out)
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert "feasible" in verify.stdout


def test_solve_reports_are_byte_identical(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    p1 = run_cli("solve", inst, "--method", "relaxed", "--out", out1)
    p2 = run_cli("solve", inst, "--method", "relaxed", "--out", out2)
    assert p1.returncode == 0 and p2.returncode == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert p1.stdout == p2.stdout


def test_report_contract_round_trips_bit_exactly(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out = str(tmp_path / "report.json")
    run_cli("solve", inst, "--out", out)
    report = json.loads(Path(out).read_text())

    from buyback.cli import parse_contract, parse_instance

    instance, _, _ = parse_instance(INSTANCE_L2)
    contract = parse_contract(report, instance.grid)
    from buyback import solve_multi_reduced

    direct = solve_multi_reduced(instance).contract
    assert np.array_equal(contract.allocation, direct.allocation)
    assert np.array_equal(contract.payment, direct.payment)


def test_verify_detects_lowered_payment(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    contract = write_json(
        tmp_path / "c.json",
        {"allocation": [[10.0], [4.0]], "payment": [[13.0], [8.0]]},
    )
    proc = run_cli("verify", inst, contract, "--out", str(tmp_path / "audit.json"))
    assert proc.returncode == 1
    audit = json.loads((tmp_path / "audit.json").read_text())["audit"]
    assert audit["ic_full"] is False
    assert audit["margins"]["ic_full"] == pytest.approx(-1.0)


def test_verify_flags_overallocation(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    contract = write_json(
        tmp_path / "c.json",
        {"allocation": [[11.0], [4.0]], "payment": [[14.0], [8.0]]},
    )
    proc = run_cli("verify", inst, contract)
    assert proc.returncode == 1
    assert "p1" in proc.stdout and "FAIL" in proc.stdout


def test_invalid_probability_matrix_names_client(tmp_path):
    doc = json.loads(json.dumps(INSTANCE_L2))
    doc["clients"][1]["probs"] = [[0.3, 0.2], [0.1, 0.3]]  # sums to 0.9
    inst = write_json(tmp_path / "bad.json", doc)
    proc = run_cli("solve", inst)
    assert proc.returncode == 2
    assert "clients[1]" in proc.stderr


@pytest.mark.parametrize(
    "probs, problem",
    [
        ([[0.4, 0.2], [0.5, -0.1]], "= -0.1 is outside [0, 1]"),
        ([[0.0, 0.0], [0.0, 1.5]], "= 1.5 is outside [0, 1]"),
        ([[0.3, 0.2], [0.1, 0.3]], "sum to"),
        ([[0.5, 0.5], [float("nan"), 0.0]], "non-finite"),
    ],
    ids=["negative", "above-one", "sum-0.9", "nan"],
)
def test_client_probability_errors_name_the_client(tmp_path, capsys, probs, problem):
    doc = json.loads(json.dumps(INSTANCE_L2))
    doc["clients"][1]["probs"] = probs
    inst = write_json(tmp_path / "bad.json", doc)  # json.dumps writes the NaN literal
    code, out, err = _in_process(capsys, "solve", inst)
    assert (code, out) == (2, "")
    assert err.startswith("error: clients[1].probs: ") and problem in err, err


def test_missing_file_is_invalid_input(tmp_path):
    proc = run_cli("solve", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


def test_exact_crossing_budget_is_invalid_input(tmp_path):
    vals = list(range(1, 21))
    doc = {
        "valuations": vals,
        "capacities": vals,
        "clients": [{"probs": [[1.0 / 400.0] * 20] * 20}],
        "alpha": 6.0,
        "penalty_M": 2.0,
        "demand_floor_D": 6.0,
    }
    proc = run_cli("solve", write_json(tmp_path / "inst.json", doc))
    assert proc.returncode == 2
    assert "78263394 crossing pairs" in proc.stderr


@pytest.mark.parametrize("method", ["reduced", "relaxed"])
def test_exact_front_budget_is_invalid_input(tmp_path, capsys, monkeypatch, method):
    # with the budget below the DP's front points, the fronts trip it
    # before any crossing pair is counted, on both routes that run the DP
    monkeypatch.setattr(solver, "MAX_CANDIDATES", 4)
    message = "exact solve needs more than 4 front points"
    with pytest.raises(CandidateCountError, match=message):
        solve_multi_reduced(parse_instance(INSTANCE_L2)[0])
    out = tmp_path / "report.json"
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    code, _, err = _in_process(capsys, "solve", inst, "--method", method, "--out", str(out))
    assert code == 2 and message in err
    assert not out.exists()


def test_single_method_on_multi_capacity_instance(tmp_path):
    # --method single is gone; auto picks the single-capacity solver on L = 1
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    proc = run_cli("solve", inst, "--method", "single")
    assert proc.returncode == 2
    assert "invalid choice: 'single'" in proc.stderr


def test_relaxed_uses_default_epsilon(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out = str(tmp_path / "r.json")
    proc = run_cli("solve", inst, "--method", "relaxed", "--out", out)
    assert proc.returncode == 0
    report = json.loads(Path(out).read_text())
    assert report["solver"]["epsilon"] == 1e-6
    assert report["audit"]["regret"] <= report["audit"]["regret_bound"]


def test_simulate_deterministic_and_validates(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out = str(tmp_path / "report.json")
    run_cli("solve", inst, "--out", out)
    a = run_cli("simulate", inst, out, "--replications", "5000", "--seed", "3")
    b = run_cli("simulate", inst, out, "--replications", "5000", "--seed", "3")
    assert a.returncode == 0 and a.stdout == b.stdout
    bad = run_cli("simulate", inst, out, "--replications", "0")
    assert bad.returncode == 2


def test_simulate_point_mass_zero_std_error(tmp_path):
    doc = json.loads(json.dumps(INSTANCE_L1))
    doc["clients"] = [{"probs": [[1.0, 0.0]]}]
    inst = write_json(tmp_path / "inst.json", doc)
    contract = write_json(
        tmp_path / "c.json", {"allocation": [[10.0], [4.0]], "payment": [[14.0], [8.0]]}
    )
    out = str(tmp_path / "sim.json")
    proc = run_cli("simulate", inst, contract, "--replications", "50", "--out", out)
    assert proc.returncode == 0
    summary = json.loads(Path(out).read_text())
    assert summary["std_error"] == 0.0


def test_regret_command(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    contract = write_json(
        tmp_path / "c.json", {"allocation": [[10.0], [4.0]], "payment": [[14.0], [9.0]]}
    )
    out = str(tmp_path / "regret.json")
    proc = run_cli("regret", inst, contract, "--epsilon", "0.01", "--out", out)
    assert proc.returncode == 0
    doc = json.loads(Path(out).read_text())
    assert doc["regret"] == pytest.approx(1.0)
    assert doc["regret_bound"] == pytest.approx(3.0 * 0.1)


def test_oracle_command_matches_solve(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    solve_out = str(tmp_path / "solve.json")
    oracle_out = str(tmp_path / "oracle.json")
    run_cli("solve", inst, "--out", solve_out)
    proc = run_cli("oracle", inst, "--grid-step", "0.05", "--out", oracle_out)
    assert proc.returncode == 0
    solve_report = json.loads(Path(solve_out).read_text())
    oracle_report = json.loads(Path(oracle_out).read_text())
    assert oracle_report["expected_utility"] == pytest.approx(
        solve_report["expected_utility"], abs=1e-6
    )
    assert oracle_report["solver"]["method"] == "oracle"


def test_internal_failure_exit_code(tmp_path, monkeypatch):
    from buyback import cli as cli_mod

    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)

    def boom(instance):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(cli_mod, "solve_single_capacity", boom)
    assert cli_mod.main(["solve", inst]) == 3


def test_shape_mismatch_between_files(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    contract = write_json(
        tmp_path / "c.json", {"allocation": [[1.0, 1.0]], "payment": [[1.0, 1.0]]}
    )
    proc = run_cli("verify", inst, contract)
    assert proc.returncode == 2


def _in_process(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_reuses_one_parser_across_commands(tmp_path, capsys):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = str(tmp_path / "solved.json")
    assert run_cli("solve", inst, "--out", contract).returncode == 0
    calls = [
        ("verify", inst, contract, "--out", "{out}"),
        ("simulate", inst, contract, "--replications", "3000", "--seed", "5", "--out", "{out}"),
        ("simulate", inst, contract, "--tie-break", "nope"),  # argparse error, exit 2
        ("regret", inst, contract, "--epsilon", "0.01", "--out", "{out}"),
        ("solve", inst, "--out", "{out}"),
        ("verify", inst, str(tmp_path / "missing.json")),  # invalid input, exit 2
    ]
    for i, call in enumerate(calls):
        fresh_out, here_out = tmp_path / f"fresh{i}.json", tmp_path / f"here{i}.json"
        fresh = run_cli(*[a.format(out=fresh_out) for a in call])
        code, out, err = _in_process(capsys, *[a.format(out=here_out) for a in call])
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), call
        if "--out" in call:
            assert here_out.read_bytes() == fresh_out.read_bytes()
    assert _build_parser() is _build_parser()


_MATRIX_DOC_ERRORS = [
    (True, "must be a number, got True"),
    ("0.5", "must be a number, got '0.5'"),
    (None, "must be a number, got None"),
    ([0.5], "must be a number, got [0.5]"),
]


@pytest.mark.parametrize("target", ["probs", "allocation", "payment"])
@pytest.mark.parametrize("bad, message", _MATRIX_DOC_ERRORS)
def test_matrix_entry_errors_name_the_entry(tmp_path, capsys, target, bad, message):
    doc = json.loads(json.dumps(INSTANCE_L2))
    contract = {"allocation": [[4.0, 4.0], [2.0, 2.0]], "payment": [[6.0, 6.0], [4.0, 4.0]]}
    if target == "probs":
        doc["clients"][1]["probs"][1][0] = bad
        key = "clients[1].probs[1][0]"
    else:
        contract[target][1][0] = bad
        key = f"{target}[1][0]"
    inst = write_json(tmp_path / "inst.json", doc)
    path = write_json(tmp_path / "c.json", contract)
    code, out, err = _in_process(capsys, "verify", inst, path)
    assert (code, out, err) == (2, "", f"error: '{key}' {message}\n")


_CONTRACT_L2 = {"allocation": [[4.0, 4.0], [2.0, 2.0]], "payment": [[6.0, 6.0], [4.0, 4.0]]}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_DOCUMENT_ERRORS = [
    ([INSTANCE_L2], _CONTRACT_L2, "instance file must be a JSON object"),
    (INSTANCE_L2, [_CONTRACT_L2], "contract file must be a JSON object"),
    *[(_without(INSTANCE_L2, key), _CONTRACT_L2, f"instance file is missing key '{key}'")
      for key in INSTANCE_L2],
    *[(INSTANCE_L2, _without(_CONTRACT_L2, key), f"contract file is missing key '{key}'")
      for key in _CONTRACT_L2],
    ({**INSTANCE_L2, "valuations": []}, _CONTRACT_L2,
     "'valuations' must be a non-empty array of numbers"),
    ({**INSTANCE_L2, "clients": []}, _CONTRACT_L2, "'clients' must be a non-empty array"),
    ({**INSTANCE_L2, "clients": {"probs": [[0.25] * 2] * 2}}, _CONTRACT_L2,
     "'clients' must be a non-empty array"),
    ({**INSTANCE_L2, "clients": [INSTANCE_L2["clients"][0], {"p": [[0.25] * 2] * 2}]},
     _CONTRACT_L2, "clients[1] must be an object with a 'probs' matrix"),
    ({**INSTANCE_L2, "clients": [[[0.25] * 2] * 2]}, _CONTRACT_L2,
     "clients[0] must be an object with a 'probs' matrix"),
]


@pytest.mark.parametrize("instance, contract, message", _DOCUMENT_ERRORS)
def test_malformed_documents_say_what_is_wrong(tmp_path, capsys, instance, contract, message):
    inst = write_json(tmp_path / "inst.json", instance)
    path = write_json(tmp_path / "c.json", contract)
    assert _in_process(capsys, "verify", inst, path) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("target", ["probs", "allocation", "payment"])
def test_matrix_short_row_names_the_row(tmp_path, capsys, target):
    doc = json.loads(json.dumps(INSTANCE_L2))
    contract = {"allocation": [[4.0, 4.0], [2.0, 2.0]], "payment": [[6.0, 6.0], [4.0, 4.0]]}
    if target == "probs":
        doc["clients"][0]["probs"][1] = [0.5]
        key = "clients[0].probs"
    else:
        contract[target][1] = [1.0]
        key = target
    inst = write_json(tmp_path / "inst.json", doc)
    path = write_json(tmp_path / "c.json", contract)
    code, out, err = _in_process(capsys, "verify", inst, path)
    assert (code, out, err) == (2, "", f"error: '{key}' row 1 must hold 2 numbers\n")


@pytest.mark.parametrize(
    "value",
    [
        [[1, 2.5], [-0.0, 2**60 + 1]],
        [[0.1, 0.2], [3, 4]],
        [[True, 1.0], [1.0, 1.0]],
        [[1.0, 1.0], [1.0, "x"]],
        [[1.0, 1.0], [1.0]],
        [[1.0, 1.0], "row"],
        [[1.0, [2.0]], [1.0, None]],
        [[1.0, 1.0]],
        [[1.0, 1.0], [10**400, 1.0]],
        "matrix",
    ],
)
def test_matrix_matches_per_entry_reference(value):
    def outcome(parse):
        try:
            return parse(value, "m", 2, 2)
        except ValidationError as exc:
            return str(exc)

    got, ref = outcome(_matrix), outcome(matrix_reference)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "target, key",
    [
        ("alpha", "alpha"),
        ("valuations", "valuations[1]"),
        ("probs", "clients[1].probs[1][0]"),
        ("allocation", "allocation[1][0]"),
    ],
)
def test_integer_beyond_float_range_names_its_key(tmp_path, capsys, target, key):
    doc = json.loads(json.dumps(INSTANCE_L2))
    contract = json.loads(json.dumps(_CONTRACT_L2))
    if target == "alpha":
        doc["alpha"] = 10**400
    elif target == "valuations":
        doc["valuations"][1] = 10**400
    elif target == "probs":
        doc["clients"][1]["probs"][1][0] = 10**400
    else:
        contract["allocation"][1][0] = 10**400
    inst = write_json(tmp_path / "inst.json", doc)
    path = write_json(tmp_path / "c.json", contract)
    code, out, err = _in_process(capsys, "verify", inst, path)
    assert (code, out, err) == (2, "", f"error: '{key}' is an integer beyond the float range\n")


def test_integer_past_the_digit_limit_is_invalid_input(tmp_path, capsys):
    text = json.dumps(INSTANCE_L2).replace('"alpha": 2.5', '"alpha": 1' + "0" * 5000)
    inst = tmp_path / "inst.json"
    inst.write_text(text, encoding="utf-8")
    code, out, err = _in_process(capsys, "solve", str(inst))
    assert code == 2 and "is not valid JSON" in err


@pytest.mark.parametrize("step", ["1e-300", "1e-8", "nan", "inf"])
def test_oracle_grid_step_out_of_budget_or_non_finite(tmp_path, capsys, step):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    code, out, err = _in_process(capsys, "oracle", inst, "--grid-step", step)
    assert (code, out) == (2, "") and "grid_step" in err


@pytest.mark.parametrize(
    "args, file_epsilon",
    [
        (("verify", "{inst}", "{contract}", "--epsilon", "nan"), None),
        (("regret", "{inst}", "{contract}", "--epsilon", "inf"), None),
        (("solve", "{inst}", "--method", "relaxed", "--epsilon", "nan"), None),
        (("solve", "{inst}", "--method", "relaxed"), float("nan")),
        (("verify", "{inst}", "{contract}"), float("inf")),
    ],
)
def test_non_finite_epsilon_is_invalid_input(tmp_path, capsys, args, file_epsilon):
    doc = dict(INSTANCE_L2)
    if file_epsilon is not None:
        doc["epsilon"] = file_epsilon
    inst = write_json(tmp_path / "inst.json", doc)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    out_path = tmp_path / "out.json"
    argv = [a.format(inst=inst, contract=contract) for a in args]
    code, out, err = _in_process(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "") and "epsilon" in err and "finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "abc"])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    code, out, err = _in_process(capsys, "verify", inst, contract, "--tol", tol)
    assert (code, out) == (2, "") and "--tol" in err


def instance_doc(instance) -> dict:
    return {
        "valuations": instance.grid.valuations.tolist(),
        "capacities": instance.grid.capacities.tolist(),
        "clients": [{"probs": c.probs.tolist()} for c in instance.clients],
        "alpha": instance.alpha,
        "penalty_M": instance.penalty,
        "demand_floor_D": instance.demand_floor,
    }


def assert_report_bytes(tmp_path, capsys, argv, instance, solve):
    """Run one command and compare its --out bytes and its menu on stdout with
    the rendering that priced every menu item with client_utility."""
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    result = solve(instance)
    report = solve_report(instance, result, AUDIT_TOL)
    report["menu"] = menu_rows_reference(instance, result.contract)
    ref = tmp_path / "ref.json"
    write_out_reference(report, str(ref))
    assert out.read_bytes() == ref.read_bytes()
    print_menu_reference(instance, result.contract)
    menu = capsys.readouterr().out
    assert printed.startswith(menu)
    assert printed.count("\n") == menu.count("\n") + (3 if argv[0] == "solve" else 2)


def test_summary_dict_matches_reference():
    rng = np.random.default_rng(89)
    for i in range(8):
        instance = random_instance(rng, max_k=4, max_l=3, integer=i % 2 == 0)
        contract = random_menu(rng, instance.grid, ("feasible", "perturbed", "integer")[i % 3])
        tie_break = ("truthful_first", "max_payment")[i % 2]
        summary = simulate(instance, contract, SimulationConfig(50, seed=i, tie_break=tie_break))
        got = list(cli_mod._summary_dict(summary).items())
        assert repr(got) == repr(list(summary_dict_reference(summary).items()))


def test_solve_and_oracle_bytes_match_reference_rendering(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(83)
    for i in range(12):
        instance = random_instance(rng, max_k=4, max_l=3, integer=i % 2 == 0)
        path = write_json(tmp_path / "inst.json", instance_doc(instance))
        single = instance.grid.num_capacities == 1
        solve = cli_mod.solve_single_capacity if single else cli_mod.solve_multi_reduced
        assert_report_bytes(tmp_path, capsys, ["solve", path], instance, solve)
        assert_report_bytes(
            tmp_path, capsys, ["oracle", path, "--grid-step", "0.5"], instance,
            lambda inst: cli_mod.oracle_grid_search(inst, 0.5),
        )
    # a menu holding -0.0 as repurchase, payment and client utility
    instance, _, _ = parse_instance(INSTANCE_L2)
    contract = Contract([[0.0, 0.0], [-0.0, 0.0]], [[-0.0, 0.0], [-0.0, -0.0]])
    result = SolveResult(contract, 0.0, SolveMethod.MULTI_REDUCED_EXACT, 0.0, -0.0, {})
    monkeypatch.setattr(cli_mod, "solve_multi_reduced", lambda inst: result)
    path = write_json(tmp_path / "inst.json", INSTANCE_L2)
    assert_report_bytes(tmp_path, capsys, ["solve", path], instance, lambda inst: result)
    assert '"client_utility": -0.0' in (tmp_path / "out.json").read_text()


@pytest.mark.parametrize("command", ["simulate"])  # the one command that takes --seed
@pytest.mark.parametrize("seed", ["-3", str(2**64), "1.5", "x"])
def test_seed_flag_outside_64_unsigned_bits_is_invalid_input(tmp_path, capsys, command, seed):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    args = [command, inst, contract, "--replications", "10"]
    code, out, err = _in_process(capsys, *args, "--seed", seed)
    assert (code, out) == (2, "") and "--seed" in err and "[0, 2**64)" in err


@pytest.mark.parametrize("seed", [-4, 2**64, True, 1.0, "7"])
@pytest.mark.parametrize("command", ["solve", "verify", "simulate", "regret", "oracle"])
def test_file_seed_outside_64_unsigned_bits_is_invalid_input(tmp_path, capsys, command, seed):
    inst = write_json(tmp_path / "inst.json", {**INSTANCE_L2, "seed": seed})
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    args = {"solve": ["--method", "relaxed"], "oracle": ["--grid-step", "0.5"]}.get(command, [contract])
    code, out, err = _in_process(capsys, command, inst, *args)
    assert (code, out) == (2, "") and "'seed' must be an integer in [0, 2**64)" in err


def test_seed_at_the_edges_of_64_unsigned_bits(tmp_path, capsys):
    inst = write_json(tmp_path / "inst.json", {**INSTANCE_L2, "seed": 2**64 - 1})
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    code, out, _ = _in_process(capsys, "simulate", inst, contract, "--replications", "10")
    assert code == 0 and f"seed {2**64 - 1}" in out
    code, out, _ = _in_process(capsys, "simulate", inst, contract, "--replications", "10",
                               "--seed", "0")
    assert code == 0 and "seed 0" in out


def test_replications_over_the_cap_exit_2_before_anything_is_allocated(tmp_path, capsys,
                                                                      monkeypatch):
    # The count is refused when the config is built; a simulate that ran
    # would end the command with exit 3 instead of allocating 745 GiB.
    def must_not_run(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli_mod, "simulate", must_not_run)
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    for replications in ("100000001", "100000000000"):
        code, out, err = _in_process(capsys, "simulate", inst, contract,
                                     "--replications", replications)
        assert (code, out) == (2, "")
        assert f"replications = {replications} is over MAX_REPLICATIONS = 100000000" in err


def test_removed_options_are_refused(tmp_path, capsys):
    # The relaxed descent is deterministic and only solve, verify and oracle
    # audit: restarts, seed, solve --seed and --tol elsewhere changed nothing.
    # simulate always breaks ties at CHOICE_TOL, estimate_misreport_gain makes
    # no choice, and solve --method auto already picks the single-capacity
    # solver on an L = 1 grid.
    instance, _, _ = parse_instance(INSTANCE_L2)
    for keyword in ("restarts", "seed"):
        with pytest.raises(TypeError, match=keyword):
            solver.solve_multi_relaxed(instance, 1e-3, **{keyword: 1})
        with pytest.raises(TypeError, match=keyword):
            solver.relaxed_schedule(instance, (1e-3,), **{keyword: 1})
    with pytest.raises(TypeError, match="tol"):
        best_response(instance.grid, Contract(**_CONTRACT_L2), (1, 0), tol=0.0)
    with pytest.raises(ValidationError, match="replications = .* must be an integer"):
        estimate_misreport_gain(instance, Contract(**_CONTRACT_L2), SimulationConfig(10))
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    out_path = tmp_path / "out.json"
    for argv in (["solve", inst, "--seed", "7"],
                 ["simulate", inst, contract, "--replications", "10", "--tol", "0"],
                 ["regret", inst, contract, "--tol", "0"]):
        code, out, err = _in_process(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in err
        assert not out_path.exists()
    for doc in (INSTANCE_L1, INSTANCE_L2):
        inst = write_json(tmp_path / "inst.json", doc)
        code, out, err = _in_process(capsys, "solve", inst, "--method", "single",
                                     "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "invalid choice: 'single'" in err
        assert not out_path.exists()


@pytest.mark.parametrize("method", ["auto", "reduced"])
@pytest.mark.parametrize("doc", [INSTANCE_L1, INSTANCE_L2], ids=["L1", "L2"])
def test_exact_solve_refuses_epsilon(tmp_path, capsys, method, doc):
    # Only the relaxed solver reads an epsilon; an exact solve used to take
    # the flag, even a non-finite one, and ignore it.
    inst = write_json(tmp_path / "inst.json", doc)
    out_path = tmp_path / "out.json"
    for epsilon in ("1e-3", "nan"):
        code, out, err = _in_process(capsys, "solve", inst, "--method", method,
                                     "--epsilon", epsilon, "--out", str(out_path))
        assert (code, out) == (2, "") and "--method relaxed" in err
        assert not out_path.exists()
    # the file's epsilon key stays a default that an exact solve leaves unread
    runs = []
    for file_doc in (doc, {**doc, "epsilon": 1e-3}):
        inst = write_json(tmp_path / "inst.json", file_doc)
        code, out, _ = _in_process(capsys, "solve", inst, "--method", method,
                                   "--out", str(out_path))
        assert code == 0
        runs.append((out, out_path.read_bytes()))
    assert runs[0] == runs[1]


def test_relaxed_epsilon_zero_names_the_exact_method_of_the_cli(tmp_path, capsys):
    # epsilon = 0 is the exact complementarity program: the message names the
    # CLI's way to it as well as the Python function
    inst = write_json(tmp_path / "b.json", INSTANCE_L2)
    out_path = tmp_path / "out.json"
    code, out, err = _in_process(capsys, "solve", inst, "--method", "relaxed",
                                 "--epsilon", "0", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "--method reduced" in err and "solve_multi_reduced" in err
    assert not out_path.exists()


def test_every_cli_option_is_read_by_its_command(tmp_path, capsys):
    # An option its command never reads changes nothing; none may be offered.
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    out = str(tmp_path / "out.json")
    every_option = {
        "solve": ([inst], {"--method": "relaxed", "--epsilon": "1e-3", "--tol": "1e-9"}),
        "verify": ([inst, contract], {"--epsilon": "0", "--tol": "1e-9"}),
        "simulate": ([inst, contract],
                     {"--replications": "10", "--seed": "1", "--tie-break": "max_payment"}),
        "regret": ([inst, contract], {"--epsilon": "0"}),
        "oracle": ([inst], {"--grid-step": "0.5", "--tol": "1e-9"}),
    }
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands.choices) == set(every_option)
    unread = []
    for command, (files, options) in every_option.items():
        actions = [action for action in commands.choices[command]._actions
                   if action.option_strings and action.dest != "help"]
        assert {action.option_strings[0] for action in actions} == {*options, "--out"}
        argv = [command, *files, *[word for item in options.items() for word in item]]
        args = _build_parser().parse_args([*argv, "--out", out], namespace=Recording())
        read.clear()
        args.func(args)
        capsys.readouterr()
        unread += [f"{command}.{action.dest}" for action in actions if action.dest not in read]
    assert unread == []


# ---------------------------------------------------------------------------
# The --out writer: json.dumps(doc, indent=2) bytes, written in place.


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("ascii")


def test_every_report_kind_is_written_as_json_dumps_indent_2(tmp_path, capsys, monkeypatch):
    written = []
    write_out = cli_mod._write_out
    monkeypatch.setattr(cli_mod, "_write_out",
                        lambda doc, path: (written.append(doc), write_out(doc, path)))
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    report = str(tmp_path / "0.json")
    commands = [
        ["solve", inst], ["solve", inst, "--method", "relaxed", "--epsilon", "1e-3"],
        ["oracle", inst, "--grid-step", "0.5"], ["verify", inst, report],
        ["regret", inst, report], ["simulate", inst, report, "--replications", "50"],
    ]
    for i, argv in enumerate(commands):
        out = tmp_path / f"{i}.json"
        assert _in_process(capsys, *argv, "--out", str(out))[0] == 0
        assert out.read_bytes() == _dumps(written[-1])
    assert len(written) == len(commands)


class _Float(float):
    pass


ADVERSARIAL_DOCS = [
    {"x": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, 0.0, 2**64 + 1, -7]},
    {"empty": [], "none": {}, "nested": [[], [{}], {"x": []}, [[]]]},
    {"text": "héllo \u0001\"\\\n\t\U0001f600", "keys": {"a\nb": 1.0, "%r": [2.0]}},
    [True, False, None, 1, 1.5, "x", [None], [True, 2.0]],
    {"np": np.float64(1.1), "list": [np.float64(2.5), 1.0], "mixed": [1, 2.0, 3], "sub": _Float(0.1)},
    {"menu": [{"a": 1.0, "b": float("nan")}, {"a": 2.0, "b": 3.0}]},
    {"menu": [{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 3.0}], "ints": [{"a": 1.0}, {"a": 1}]},
    {"menu": [{"a": 1e308, "b": 1e308}, {"a": -0.0, "b": 5e-324}], "tuple": (1, 2.0)},
    {"menu": [{"%r": -0.0, "\u00e9": 5e-324}, {"%r": 1e300, "\u00e9": 0.1}], "rows": [{}, {}]},
    {"floats": {"p": float("nan"), "q": 1.0}, "int_keys": {1: 2, "x": [3]}},
    {"deep": {"x": {"y": [[1.0, 2.0], [3.0, float("inf")]], "z": [{"q": [1, {"r": None}]}]}}},
    [], {}, -0.0, "s", None, float("nan"), 2**70,
]


@pytest.mark.parametrize("doc", ADVERSARIAL_DOCS)
def test_writer_matches_json_dumps_on_adversarial_documents(tmp_path, doc):
    out = tmp_path / "out.json"
    cli_mod._write_out(doc, str(out))
    assert out.read_bytes() == _dumps(doc)


def test_rewriting_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    out = tmp_path / "out.json"
    cli_mod._write_out({"long": list(range(1000))}, str(out))
    inode = out.stat().st_ino
    cli_mod._write_out({"short": 1.0}, str(out))
    assert out.read_bytes() == _dumps({"short": 1.0})
    assert out.stat().st_ino == inode  # rewritten in place, as open(path, "w") does


@pytest.mark.parametrize("umask", [0o002, 0o022, 0o077])
def test_new_report_file_gets_the_mode_open_gives(tmp_path, umask):
    saved = os.umask(umask)
    try:
        with open(tmp_path / "ref.json", "w"):
            pass
        cli_mod._write_out({"a": 1.0}, str(tmp_path / "out.json"))
    finally:
        os.umask(saved)
    assert (tmp_path / "out.json").stat().st_mode == (tmp_path / "ref.json").stat().st_mode


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_out_path_is_invalid_input(tmp_path, capsys, where):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out = str(tmp_path / where)
    code, _, err = _in_process(capsys, "solve", inst, "--out", out)
    assert code == 2 and err.startswith(f"error: cannot write {out}: [Errno")


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
def test_out_to_dev_stdout_prints_the_report(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    report = tmp_path / "report.json"
    assert run_cli("solve", inst, "--out", str(report)).returncode == 0
    proc = run_cli("solve", inst, "--out", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(report.read_text() + "contract menu:\n")


# ---------------------------------------------------------------------------
# Each kind of input file is parsed once per text: repeated commands in one
# process share the parse, and any change to the text is seen.


@pytest.fixture
def parses(monkeypatch):
    """An empty parse memo, and the number of parse_instance / parse_contract calls."""
    monkeypatch.setattr(cli_mod, "_parsed", {})
    counts = {"parse_instance": 0, "parse_contract": 0}
    for name in counts:
        def counted(*args, _parse=getattr(cli_mod, name), _name=name):
            counts[_name] += 1
            return _parse(*args)
        monkeypatch.setattr(cli_mod, name, counted)
    return counts


def test_market_commands_parse_each_file_once(tmp_path, capsys, parses):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    for command in (["verify", inst, contract], ["regret", inst, contract],
                    ["simulate", inst, contract, "--replications", "100"]):
        assert _in_process(capsys, *command)[0] in (0, 1)
    assert parses == {"parse_instance": 1, "parse_contract": 1}


def test_same_size_rewrite_with_its_mtime_restored_is_parsed_again(tmp_path, capsys, parses):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    path = tmp_path / "c.json"
    contract = write_json(path, _CONTRACT_L2)
    first = _in_process(capsys, "regret", inst, contract)
    before = path.stat()
    lowered = {**_CONTRACT_L2, "payment": [[6.0, 6.0], [3.0, 4.0]]}  # same length
    write_json(path, lowered)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert path.stat().st_mtime_ns == before.st_mtime_ns
    second = _in_process(capsys, "regret", inst, contract)
    assert parses == {"parse_instance": 1, "parse_contract": 2}
    assert second != first
    fresh = run_cli("regret", inst, contract)
    assert second == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_one_byte_rewrite_of_the_instance_in_place_is_parsed_again(tmp_path, capsys, parses):
    path = tmp_path / "inst.json"
    inst = write_json(path, INSTANCE_L2)
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    command = ("simulate", inst, contract, "--replications", "100")  # reports alpha's effect
    first = _in_process(capsys, *command)
    before = path.stat()
    at = path.read_bytes().index(b'"alpha": 2.5') + len('"alpha": ')
    with open(path, "r+b") as fh:  # alpha 2.5 -> 3.5: one byte, same length, same inode
        fh.seek(at)
        fh.write(b"3")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns)
    second = _in_process(capsys, *command)
    assert parses == {"parse_instance": 2, "parse_contract": 1}
    assert second != first
    fresh = run_cli(*command)
    assert second == (fresh.returncode, fresh.stdout, fresh.stderr)


# Each file's message as text-mode open(path, encoding="utf-8") and json.loads
# give it: strict UTF-8, universal newlines, the BOM left in the text.
_BAD_FILES = {
    "crlf": (b'{\r\n"valuations": [1.0, 2.0],\r\n"capacities": [5.0 10.0]\r\n}',
             "Expecting ',' delimiter: line 3 column 20 (char 47)"),
    "cr": (b'{\r"valuations": [1.0, 2.0],\r"capacities": [5.0 10.0]\r}',
           "Expecting ',' delimiter: line 3 column 20 (char 47)"),
    "mixed": (b'{\r\n\r"valuations":\n\r\n [1.0, 2.0],\r"capacities": [5.0 10.0]\r\n}',
              "Expecting ',' delimiter: line 6 column 20 (char 50)"),
    "cr in a string": (b'{"valuations\r\n": [1.0]}',
                       "Invalid control character at: line 1 column 13 (char 12)"),
    "bom": (b"\xef\xbb\xbf{}",
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "latin-1": (b'{"valuations": "\xe9"}',
                "'utf-8' codec can't decode byte 0xe9 in position 16: invalid continuation byte"),
    "late bad byte": (b'{\r\n"valuations": [1.0, 2.0],\r\n "x": "\xff\xfe"}',
                      "'utf-8' codec can't decode byte 0xff in position 37: invalid start byte"),
    "cut short": (b'{"a": 1}\xe2\x82',
                  "'utf-8' codec can't decode bytes in position 8-9: unexpected end of data"),
}


@pytest.mark.parametrize("name", list(_BAD_FILES))
def test_crlf_bom_and_invalid_utf8_files_keep_their_messages(tmp_path, capsys, parses, name):
    data, message = _BAD_FILES[name]
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    for _ in range(2):  # a failure is kept nowhere: the second read fails alike
        assert _in_process(capsys, "oracle", str(path)) == (
            2, "", f"error: {path} is not valid JSON: {message}\n")
    assert parses == {"parse_instance": 0, "parse_contract": 0}


def test_crlf_and_cr_files_parse_as_their_lf_text(tmp_path, capsys, parses):
    lf = json.dumps(INSTANCE_L2, indent=1).encode()
    outputs = []
    for i, data in enumerate((lf, lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r"))):
        path = tmp_path / f"inst{i}.json"
        path.write_bytes(data)
        outputs.append(_in_process(capsys, "oracle", str(path)))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[2] == outputs[0]
    assert parses == {"parse_instance": 3, "parse_contract": 0}  # keyed by bytes, not text


def test_a_failed_parse_is_not_kept(tmp_path, capsys, parses):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    good = write_json(tmp_path / "c.json", _CONTRACT_L2)
    bad = write_json(tmp_path / "bad.json", {**_CONTRACT_L2, "payment": [[6.0, 6.0], [4.0, "4"]]})
    assert _in_process(capsys, "regret", inst, good)[0] == 0
    kept = cli_mod._parsed["contract"]
    for _ in range(2):
        assert _in_process(capsys, "regret", inst, bad)[0] == 2
        assert cli_mod._parsed["contract"] is kept
    assert _in_process(capsys, "regret", inst, good)[0] == 0
    assert parses == {"parse_instance": 1, "parse_contract": 3}


def test_solve_out_over_the_contract_file_is_seen(tmp_path, capsys, parses):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    path = tmp_path / "c.json"
    contract = write_json(path, {"allocation": [[5.0, 9.0], [0.0, 0.0]],
                                 "payment": [[1.0, 1.0], [1.0, 1.0]]})
    assert _in_process(capsys, "verify", inst, contract)[0] == 1
    inode = path.stat().st_ino
    assert _in_process(capsys, "solve", inst, "--out", contract)[0] == 0
    assert path.stat().st_ino == inode  # rewritten in place
    assert _in_process(capsys, "verify", inst, contract)[0] == 0
    assert parses["parse_contract"] == 2


def test_a_fixed_file_parses_after_a_failed_parse(tmp_path, capsys, parses):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    path = tmp_path / "c.json"
    broken = {**_CONTRACT_L2, "payment": [[6.0, 6.0], [4.0, "4"]]}
    for doc, code in ((broken, 2), (broken, 2), (_CONTRACT_L2, 0)):
        contract = write_json(path, doc)
        assert _in_process(capsys, "regret", inst, contract)[0] == code
    path.write_text("{", encoding="utf-8")
    assert _in_process(capsys, "regret", inst, contract)[0] == 2
    write_json(path, _CONTRACT_L2)
    assert _in_process(capsys, "regret", inst, contract)[0] == 0
    # Each failure is parsed afresh and kept nowhere, so the good text's parse
    # stays, and serves it again after the malformed text.
    assert parses == {"parse_instance": 1, "parse_contract": 3}


def test_one_contract_against_two_grid_shapes(tmp_path, capsys, parses):
    narrow = write_json(tmp_path / "narrow.json", INSTANCE_L2)
    wide = write_json(tmp_path / "wide.json", {
        **INSTANCE_L2, "capacities": [5.0, 10.0, 15.0],
        "clients": [{"probs": [[0.1, 0.1], [0.2, 0.2], [0.2, 0.2]]}]})
    contract = write_json(tmp_path / "c.json", _CONTRACT_L2)
    for inst in (narrow, wide, narrow, wide):
        code, out, err = _in_process(capsys, "verify", inst, contract)
        if inst == wide:
            assert (code, out) == (2, "")
            assert err == "error: 'allocation' row 0 must hold 3 numbers\n"
        else:
            assert code == 0
    # The failed 2 x 3 reads leave the 2 x 2 parse of the contract in place.
    assert parses == {"parse_instance": 4, "parse_contract": 3}


def test_repeated_commands_match_fresh_processes(tmp_path, capsys, parses):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    contract = str(tmp_path / "solved.json")
    bom, crlf, latin = tmp_path / "bom.json", tmp_path / "crlf.json", tmp_path / "latin.json"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "inst.json").read_bytes())
    crlf.write_bytes(b'{\r\n"allocation": [[1.0, 2.0]],\r\n"payment": [[1.0, 2.0]\r\n')
    latin.write_bytes(b'{"valuations": "\xe9"}')
    crlf_ok = tmp_path / "crlf_ok.json"
    crlf_ok.write_bytes(json.dumps(_CONTRACT_L2, indent=1).replace("\n", "\r\n").encode())
    calls = [
        ("solve", inst, "--out", contract),
        ("verify", inst, contract, "--out", "{out}"),
        ("regret", inst, contract, "--out", "{out}"),
        ("simulate", inst, contract, "--replications", "500", "--out", "{out}"),
        ("verify", inst, contract, "--out", "{out}"),
        ("verify", str(bom), contract),
        ("verify", inst, str(crlf)),
        ("verify", inst, str(crlf_ok), "--out", "{out}"),
        ("verify", str(latin), contract),
        ("verify", inst, str(tmp_path)),
        ("verify", inst, str(tmp_path / "missing.json")),
        ("regret", inst, contract, "--epsilon", "0.01", "--out", "{out}"),
    ]
    for i, call in enumerate(calls):
        fresh_out, here_out = tmp_path / f"fresh{i}.json", tmp_path / f"here{i}.json"
        code, out, err = _in_process(capsys, *[a.format(out=here_out) for a in call])
        fresh = run_cli(*[a.format(out=fresh_out) for a in call])
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), call
        if "--out" in call and "{out}" in call:
            assert here_out.read_bytes() == fresh_out.read_bytes()
    # Only the solved contract, the CRLF one, then the solved one again parse;
    # every other read fails before parsing or finds its text's parse.
    assert parses == {"parse_instance": 1, "parse_contract": 3}


def _live_instances() -> int:
    return sum(isinstance(obj, MarketInstance) for obj in gc.get_objects())


def test_parse_memo_keeps_one_file_of_each_kind(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "_parsed", {})
    rng = np.random.default_rng(449)
    contract = write_json(tmp_path / "c.json", {"allocation": [[0.0] * 60] * 60,
                                                "payment": [[0.0] * 60] * 60})
    gc.collect()
    live = _live_instances()
    for i in range(20):
        probs = rng.random((60, 60))
        doc = {"valuations": list(range(1, 61)), "capacities": list(range(1, 61)),
               "clients": [{"probs": (probs / probs.sum()).tolist()}],
               "alpha": 2.0, "penalty_M": 0.0, "demand_floor_D": 0.0}
        inst = write_json(tmp_path / f"inst{i}.json", doc)
        assert _in_process(capsys, "regret", inst, contract)[0] == 0
        assert set(cli_mod._parsed) == {"instance", "contract"}
    gc.collect()
    assert _live_instances() <= live + 1


def test_every_traced_boundary_is_a_cli_name():
    # The tracer skips a name buyback.cli lacks, so a rename would drop a layer silently.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (boundaries,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                     and [target.id for target in node.targets] == ["BOUNDARIES"]]
    names = ast.literal_eval(boundaries).keys()
    assert len(names) >= 10
    assert [name for name in names if not hasattr(cli_mod, name)] == []
