"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from buyback import (
    MarketInstance,
    TypeGrid,
    check_ic_decomposed,
    check_ic_full,
    check_resource_feasibility,
    check_resource_greedy,
    check_theorem1,
    compute_regret,
    optimal_payment_multi,
    oracle_grid_search,
    provider_expected_utility,
    regret_bound,
    simulate,
    solve_multi_reduced,
    solve_multi_relaxed,
    solve_single_capacity,
    SimulationConfig,
)
from helpers import (
    greedy_allocation,
    linear_penalty_regime,
    perturb_contract,
    random_clients,
    random_feasible_contract,
    random_grid,
    random_instance,
    random_monotone_y,
    representable_as_min_form,
    satisfies_greedy_and_feasible,
)
from buyback import Contract


def abs_coef_sum(instance):
    w = sum(c.probs for c in instance.clients)
    v = instance.grid.valuations
    total = 0.0
    for l in range(instance.grid.num_capacities):
        below = 0.0
        for k in range(instance.grid.num_valuations):
            coef = w[l][k] * (instance.alpha - v[k])
            if k > 0:
                coef -= below * (v[k] - v[k - 1])
            total += abs(coef)
            below += w[l][k]
    return total


def small_integer_instance(rng):
    """Small-integer-grid instance that fits the oracle's candidate budget
    at grid_step 1e-3 (two valuations and capacities up to 3 keep the
    monotone lattice under 10^7 candidates)."""
    K = 1 if rng.random() < 0.35 else 2
    L = int(rng.integers(1, 4))
    vals = np.sort(rng.choice(np.arange(1, 7), size=K, replace=False)).astype(float)
    caps = np.sort(rng.choice(np.arange(1, 4), size=L, replace=False)).astype(float)
    grid = TypeGrid(vals, caps)
    n = int(rng.integers(1, 4))
    clients = random_clients(rng, grid, n)
    alpha = float(rng.integers(1, 7))
    penalty = float(rng.integers(0, 4))
    demand = 0.0
    if rng.random() < 0.7:
        demand = round(float(rng.uniform(0.0, 1.2 * n * caps[-1])), 1)
    return MarketInstance(grid, clients, alpha, penalty, demand)


def test_criterion_1_exact_solver_matches_oracle():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    step = 1e-3
    for _ in range(200):
        inst = small_integer_instance(rng)
        exact = solve_multi_reduced(inst)
        oracle = oracle_grid_search(inst, step)
        assert oracle.expected_utility <= exact.expected_utility + 1e-9
        gap = exact.expected_utility - oracle.expected_utility
        assert gap <= max(1e-6, abs_coef_sum(inst) * step)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 1 PASS: exact solver matches 1e-3 oracle on 200 instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_theorem1_closed_loop():
    rng = np.random.default_rng(20260802)
    failures = 0
    for _ in range(1000):
        inst = random_instance(rng)
        if inst.grid.num_capacities == 1:
            result = solve_single_capacity(inst)
        else:
            result = solve_multi_reduced(inst)
        report = check_theorem1(inst.grid, result.contract, tol=1e-8)
        if not (report.feasible and report.ic_full and report.ir):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 2 PASS: 1000/1000 exact-solver contracts pass the "
          "six-property audit at tol 1e-8")


def test_criterion_3_ic_equivalence():
    rng = np.random.default_rng(20260803)
    disagreements = 0
    for _ in range(1000):
        grid = random_grid(rng, max_k=4, max_l=4)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, grid, contract)
        tol = 1e-9
        joint, _ = check_ic_full(grid, contract, tol=tol)
        feasible, _ = check_resource_feasibility(grid, contract, tol=tol)
        monotone, maximal, _ = check_resource_greedy(grid, contract, tol=tol)
        ic_val, ic_cap = check_ic_decomposed(grid, contract, tol=tol)
        decomposed = feasible and monotone and maximal and ic_val and ic_cap
        if joint != decomposed:
            disagreements += 1
    assert disagreements == 0
    print("\nACCEPTANCE 3 PASS: joint IC agrees with "
          "[feasible + greedy + valuation-IC + capacity-IC] on 1000 contracts")


def test_criterion_4_relaxed_regret_bound():
    rng = np.random.default_rng(20260804)
    trend_hits = 0
    total = 100
    for i in range(total):
        inst = random_instance(rng, max_n=2)
        regrets = {}
        for eps in (1e-2, 1e-4, 1e-6):
            res = solve_multi_relaxed(inst, epsilon=eps, restarts=2, seed=i)
            regret = compute_regret(inst.grid, res.contract)
            assert regret <= regret_bound(inst.grid, eps) + 1e-12
            regrets[eps] = regret
        if regrets[1e-6] <= regrets[1e-2] + 1e-12:
            trend_hits += 1
    assert trend_hits >= 0.9 * total
    print(f"\nACCEPTANCE 4 PASS: relaxed regret within (sum v)*sqrt(eps) for "
          f"300 solves; monotone trend in {trend_hits}/{total} instances")


def test_criterion_5_payment_minimality():
    rng = np.random.default_rng(20260805)
    for _ in range(200):
        grid = random_grid(rng, max_k=4, max_l=3)
        floor = 0.3 * float(grid.capacities[0])
        x = greedy_allocation(grid, random_monotone_y(rng, grid, min_bottom=floor))
        p = optimal_payment_multi(grid, x)
        top = p[-1, :] - grid.valuations[-1] * x[-1, :]
        assert np.all(np.abs(top) <= 1e-9)
        for k in range(grid.num_valuations):
            for l in range(grid.num_capacities):
                lowered = p.copy()
                lowered[k, l] -= 1e-3
                assert lowered[k, l] >= 0.0
                report = check_theorem1(grid, Contract(x, lowered), tol=1e-6)
                assert not (report.ic_full and report.ir)
    print("\nACCEPTANCE 5 PASS: every single-entry payment cut of 1e-3 breaks "
          "IC or IR on 200 allocations; top-valuation IR margin is 0")


def test_criterion_6_monte_carlo_validates_expectation():
    # the analytic formula applies min{0, .} to the expected supply, so the
    # demand floor is placed where that min is linear over the realized
    # supply range; there the analytic value is the true mean
    rng = np.random.default_rng(20260806)
    start = time.perf_counter()
    hits = 0
    for i in range(20):
        inst = random_instance(rng, max_n=3)
        contract = random_feasible_contract(rng, inst.grid, pay_shift=True)
        inst = linear_penalty_regime(rng, inst, contract)
        summary = simulate(inst, contract, SimulationConfig(replications=100_000, seed=i))
        analytic = provider_expected_utility(inst, contract)
        if abs(summary.mean_utility - analytic) <= max(3 * summary.std_error, 1e-9):
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 19
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.1f}s (budget 30s)"
    print(f"\nACCEPTANCE 6 PASS: empirical mean within 3 sigma in {hits}/20 runs "
          f"({elapsed:.1f}s)")


def test_criterion_7_reduced_form_equivalence():
    rng = np.random.default_rng(20260807)
    counterexamples = 0
    for _ in range(100_000):
        K = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        caps = np.sort(rng.choice(np.arange(1, 6), size=L, replace=False)).astype(float)
        if rng.random() < 0.5:
            x = rng.integers(0, int(caps[-1]) + 2, (K, L)).astype(float)
        else:
            y = rng.integers(0, int(caps[-1]) + 1, K).astype(float)
            x = np.minimum(caps[None, :], y[:, None])
            if rng.random() < 0.3:
                x[rng.integers(K), rng.integers(L)] += float(rng.choice([-1.0, 1.0]))
                x = np.maximum(x, 0.0)
        if satisfies_greedy_and_feasible(x, caps) != representable_as_min_form(x, caps):
            counterexamples += 1
    assert counterexamples == 0
    print("\nACCEPTANCE 7 PASS: greedy+feasible <=> min(c, y) form on 100000 "
          "lattice matrices, no counterexamples")


def test_criterion_8_cli_round_trip(tmp_path):
    instance_doc = {
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
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance_doc), encoding="utf-8")

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "buyback", *args], capture_output=True, text=True
        )

    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli("solve", str(inst), "--seed", "11", "--out", out1).returncode == 0
    assert cli("verify", str(inst), out1).returncode == 0
    assert cli("solve", str(inst), "--seed", "11", "--out", out2).returncode == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()

    instance_doc["clients"][1]["probs"] = [[0.3, 0.2], [0.1, 0.3]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(instance_doc), encoding="utf-8")
    proc = cli("solve", str(bad))
    assert proc.returncode == 2
    assert "clients[1]" in proc.stderr
    print("\nACCEPTANCE 8 PASS: solve->verify exits 0, fixed-seed reports are "
          "byte-identical, invalid probabilities exit 2 naming the client")
