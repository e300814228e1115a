from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

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
    report = json.loads(open(out).read())
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
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert p1.stdout == p2.stdout


def test_report_contract_round_trips_bit_exactly(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L2)
    out = str(tmp_path / "report.json")
    run_cli("solve", inst, "--out", out)
    report = json.loads(open(out).read())

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
    audit = json.loads(open(tmp_path / "audit.json").read())["audit"]
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
    report = json.loads(open(out).read())
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
    summary = json.loads(open(out).read())
    assert summary["std_error"] == 0.0


def test_regret_command(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    contract = write_json(
        tmp_path / "c.json", {"allocation": [[10.0], [4.0]], "payment": [[14.0], [9.0]]}
    )
    out = str(tmp_path / "regret.json")
    proc = run_cli("regret", inst, contract, "--epsilon", "0.01", "--out", out)
    assert proc.returncode == 0
    doc = json.loads(open(out).read())
    assert doc["regret"] == pytest.approx(1.0)
    assert doc["regret_bound"] == pytest.approx(3.0 * 0.1)


def test_oracle_command_matches_solve(tmp_path):
    inst = write_json(tmp_path / "inst.json", INSTANCE_L1)
    solve_out = str(tmp_path / "solve.json")
    oracle_out = str(tmp_path / "oracle.json")
    run_cli("solve", inst, "--out", solve_out)
    proc = run_cli("oracle", inst, "--grid-step", "0.05", "--out", oracle_out)
    assert proc.returncode == 0
    solve_report = json.loads(open(solve_out).read())
    oracle_report = json.loads(open(oracle_out).read())
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
