from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from buyback import ValidationError
from buyback.cli import _build_parser, _matrix, main
from helpers import matrix_reference

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
    p1 = run_cli("solve", inst, "--method", "relaxed", "--seed", "7", "--out", out1)
    p2 = run_cli("solve", inst, "--method", "relaxed", "--seed", "7", "--out", out2)
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


def test_single_method_on_multi_capacity_instance(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    proc = run_cli("solve", inst, "--method", "single")
    assert proc.returncode == 2


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


_CONTRACT_L2 = {"allocation": [[4.0, 4.0], [2.0, 2.0]], "payment": [[6.0, 6.0], [4.0, 4.0]]}


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
