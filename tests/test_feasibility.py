from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from buyback import feasibility

from buyback import (
    Contract,
    TypeGrid,
    check_ic_decomposed,
    check_ic_full,
    check_ir,
    check_resource_feasibility,
    check_resource_greedy,
    check_theorem1,
    compute_regret,
    regret_bound,
)
from helpers import (
    greedy_allocation,
    greedy_margins_reference,
    ic_capacity_margin_reference,
    ic_valuation_margin_reference,
    perturb_contract,
    random_feasible_contract,
    random_grid,
    random_instance,
    random_menu,
    regret_bruteforce,
    squeeze_margin_reference,
)

GRID_K2 = TypeGrid([1.0, 2.0], [10.0])
# The canonical two-valuation menu: payments make v1 exactly indifferent
# between its own item and the smaller one.
IC_CONTRACT = Contract([[10.0], [4.0]], [[14.0], [8.0]])
BAD_IC_CONTRACT = Contract([[10.0], [4.0]], [[14.0], [9.0]])


def ic_slack_bruteforce(grid, contract, tol):
    """Independent re-implementation of the joint IC slack (plain loops)."""
    x, p, v, c = contract.allocation, contract.payment, grid.valuations, grid.capacities
    K, L = x.shape
    worst = None
    for k in range(K):
        for l in range(L):
            truthful = p[k, l] - v[k] * x[k, l]
            for k2 in range(K):
                for l2 in range(L):
                    if x[k2, l2] > c[l] + tol:
                        continue
                    slack = truthful - (p[k2, l2] - v[k] * x[k2, l2])
                    if worst is None or slack < worst:
                        worst = slack
    return 0.0 if worst is None else worst


def test_resource_feasibility_zero_contract():
    ok, margin = check_resource_feasibility(GRID_K2, Contract.zero(GRID_K2))
    assert ok and margin == -10.0


def test_resource_feasibility_boundary():
    grid = TypeGrid([1.0], [10.0])
    ok, margin = check_resource_feasibility(grid, Contract([[10.0]], [[10.0]]))
    assert ok and margin == 0.0


def test_resource_feasibility_violation():
    grid = TypeGrid([1.0], [5.0, 10.0])
    contract = Contract([[6.0, 6.0]], [[1.0, 1.0]])
    ok, margin = check_resource_feasibility(grid, contract)
    assert not ok and margin == pytest.approx(1.0)


def test_resource_greedy_single_capacity_vacuous():
    monotone, maximal, margins = check_resource_greedy(GRID_K2, IC_CONTRACT)
    assert monotone and maximal and margins == (0.0, 0.0)


def test_resource_greedy_fully_recycled_row():
    grid = TypeGrid([1.0], [5.0, 10.0])
    monotone, maximal, _ = check_resource_greedy(grid, Contract([[5.0, 8.0]], [[5.0, 8.0]]))
    assert monotone and maximal


def test_resource_greedy_maximal_violation():
    grid = TypeGrid([1.0], [5.0, 10.0])
    monotone, maximal, margins = check_resource_greedy(
        grid, Contract([[3.0, 8.0]], [[3.0, 8.0]])
    )
    assert monotone and not maximal
    assert margins[1] == pytest.approx(2.0)  # |3 - 5|


def test_ic_full_all_items_identical():
    ok, _ = check_ic_full(GRID_K2, Contract.zero(GRID_K2))
    assert ok


def test_ic_full_telescoping_contract_tight():
    ok, margin = check_ic_full(GRID_K2, IC_CONTRACT)
    assert ok and margin == pytest.approx(0.0, abs=1e-12)


def test_ic_full_detects_profitable_deviation():
    ok, margin = check_ic_full(GRID_K2, BAD_IC_CONTRACT)
    assert not ok and margin == pytest.approx(-1.0)


def test_ic_full_matches_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(100):
        grid = random_grid(rng, max_k=4, max_l=3)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, grid, contract)
        _, margin = check_ic_full(grid, contract, tol=1e-9)
        assert margin == pytest.approx(ic_slack_bruteforce(grid, contract, 1e-9), abs=1e-12)
    for i in range(200):
        grid = random_grid(rng, max_k=4, max_l=4, integer=i % 2 == 0)
        contract = random_menu(rng, grid, ("integer", "unaffordable")[i % 2])
        for tol in (0.0, 1e-9, 0.5):
            _, margin = check_ic_full(grid, contract, tol=tol)
            assert margin == ic_slack_bruteforce(grid, contract, tol)


def test_ic_decomposed_identical_columns():
    grid = TypeGrid([1.0, 2.0], [5.0, 10.0])
    contract = Contract([[4.0, 4.0], [2.0, 2.0]], [[6.0, 6.0], [4.0, 4.0]])
    _, ic_capacity = check_ic_decomposed(grid, contract)
    assert ic_capacity


def test_ic_decomposed_valuation_on_telescoping_contract():
    ic_valuation, _ = check_ic_decomposed(GRID_K2, IC_CONTRACT)
    assert ic_valuation


def test_ic_decomposition_if_direction():
    # feasible + greedy + both decomposed conditions implies full IC
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(300):
        grid = random_grid(rng, max_k=4, max_l=4)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        feas, _ = check_resource_feasibility(grid, contract, tol=1e-9)
        mono, maximal, _ = check_resource_greedy(grid, contract, tol=1e-9)
        ic_val, ic_cap = check_ic_decomposed(grid, contract, tol=1e-9)
        if feas and mono and maximal and ic_val and ic_cap:
            checked += 1
            ok, _ = check_ic_full(grid, contract, tol=1e-9)
            assert ok
    assert checked > 200


def test_ic_decomposition_only_if_direction():
    rng = np.random.default_rng(31)
    for _ in range(300):
        grid = random_grid(rng, max_k=4, max_l=4)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, grid, contract)
        ok, _ = check_ic_full(grid, contract, tol=1e-9)
        if ok:
            ic_val, ic_cap = check_ic_decomposed(grid, contract, tol=1e-9)
            assert ic_val and ic_cap


def test_ir_zero_contract():
    ok, _ = check_ir(GRID_K2, Contract.zero(GRID_K2))
    assert ok


def test_ir_binds_at_top_valuation():
    ok, margin = check_ir(GRID_K2, IC_CONTRACT)
    assert ok and margin == pytest.approx(0.0, abs=1e-12)


def test_ir_utilities():
    # utilities (4, 0) for the telescoping contract
    ok, _ = check_ir(GRID_K2, IC_CONTRACT)
    assert ok
    truth = IC_CONTRACT.payment[:, 0] - GRID_K2.valuations * IC_CONTRACT.allocation[:, 0]
    assert truth.tolist() == [4.0, 0.0]


def test_theorem1_zero_contract_passes():
    report = check_theorem1(GRID_K2, Contract.zero(GRID_K2))
    assert report.feasible and report.ic_full and report.ir
    assert report.worst_violation == ("none", 0.0)


def test_theorem1_telescoping_contract_p3_tight():
    report = check_theorem1(GRID_K2, IC_CONTRACT)
    assert report.feasible
    # squeeze: lower bound v1*(10-4)=6 equals dp=14-8=6; upper 2*6=12 is slack
    assert report.margins["p3"] == pytest.approx(0.0, abs=1e-12)


def test_theorem1_p2_violation():
    contract = Contract([[4.0], [10.0]], [[4.0], [10.0]])
    report = check_theorem1(GRID_K2, contract)
    assert not report.p2 and not report.feasible


def test_theorem1_matches_definitions_both_ways():
    rng = np.random.default_rng(37)
    agreements = 0
    for _ in range(400):
        grid = random_grid(rng, max_k=4, max_l=4)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        if rng.random() < 0.6:
            contract = perturb_contract(rng, grid, contract)
        report = check_theorem1(grid, contract, tol=1e-9)
        definitions = (
            report.resource_feasible
            and report.greedy_monotone
            and report.greedy_maximal
            and report.ic_full
            and report.ir
        )
        assert report.feasible == definitions
        agreements += 1
    assert agreements == 400


def test_ic_truthful_utility_monotone_in_valuation():
    # any IC contract: truthful utility non-increasing in the valuation index
    rng = np.random.default_rng(41)
    for _ in range(200):
        grid = random_grid(rng, max_k=4, max_l=3)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        ok, _ = check_ic_full(grid, contract, tol=1e-9)
        assert ok
        truth = contract.payment - grid.valuations[:, None] * contract.allocation
        assert np.all(np.diff(truth, axis=0) <= 1e-9)


def test_ic_case2_structure():
    # in an IC contract, an item above some capacity forces full recycling there
    rng = np.random.default_rng(43)
    for _ in range(200):
        grid = random_grid(rng, max_k=3, max_l=3)
        contract = random_feasible_contract(rng, grid)
        x, c = contract.allocation, grid.capacities
        for k in range(grid.num_valuations):
            for l in range(grid.num_capacities):
                for l2 in range(grid.num_capacities):
                    if x[k, l2] > c[l]:
                        assert x[k, l] == pytest.approx(c[l], abs=1e-12)


def test_regret_zero_for_ic_contract():
    assert compute_regret(GRID_K2, IC_CONTRACT) == 0.0


def test_regret_of_broken_contract():
    assert compute_regret(GRID_K2, BAD_IC_CONTRACT) == pytest.approx(1.0)


def test_regret_zero_iff_exact_ic_on_integer_contracts():
    rng = np.random.default_rng(47)
    for _ in range(300):
        grid = random_grid(rng, max_k=3, max_l=3, integer=True)
        y = rng.integers(0, int(grid.capacities[-1]) + 1, grid.num_valuations)
        y = np.sort(y)[::-1].astype(float)
        x = greedy_allocation(grid, y)
        from buyback import optimal_payment_multi

        p = optimal_payment_multi(grid, x)
        if rng.random() < 0.5:
            k = rng.integers(grid.num_valuations)
            l = rng.integers(grid.num_capacities)
            p = p.copy()
            p[k, l] = max(0.0, p[k, l] + float(rng.choice([-1.0, 1.0])))
        contract = Contract(x, p)
        ic, _ = check_ic_full(grid, contract, tol=0.0)
        assert ic == (compute_regret(grid, contract) == 0.0)
        assert compute_regret(grid, contract) == regret_bruteforce(grid, contract)


def test_regret_matches_bruteforce():
    rng = np.random.default_rng(59)
    for i in range(400):
        grid = random_grid(rng, max_k=4, max_l=4, integer=i % 2 == 0)
        kind = ("feasible", "perturbed", "integer", "unaffordable")[i % 4]
        contract = random_menu(rng, grid, kind)
        assert compute_regret(grid, contract) == regret_bruteforce(grid, contract)


def test_ic_full_implies_small_regret():
    rng = np.random.default_rng(53)
    for _ in range(200):
        grid = random_grid(rng)
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, grid, contract)
        report = check_theorem1(grid, contract, tol=1e-6)
        if report.ic_full:
            assert report.regret <= 1e-6


def test_regret_bound_values():
    assert regret_bound(TypeGrid([1.0, 2.0, 3.0], [1.0]), 0.0) == 0.0
    assert regret_bound(TypeGrid([1.0, 2.0, 3.0], [1.0]), 0.01) == pytest.approx(0.6)
    assert regret_bound(TypeGrid([5.0], [1.0]), 4.0) == pytest.approx(10.0)


def _with_signed_zeros(rng, contract):
    """Some entries replaced by +0.0 or -0.0, so ties between zeros of both signs occur."""
    x, p = contract.allocation.copy(), contract.payment.copy()
    for a in (x, p):
        hit = rng.random(a.shape) < 0.4
        a[hit] = np.where(rng.random(int(hit.sum())) < 0.5, -0.0, 0.0)
    return Contract(x, p)


def _reference_audit(grid, contract, tol):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "_greedy_margins", greedy_margins_reference)
        mp.setattr(feasibility, "_squeeze_margin", squeeze_margin_reference)
        mp.setattr(feasibility, "_ic_valuation_margin", ic_valuation_margin_reference)
        mp.setattr(feasibility, "_ic_capacity_margin", ic_capacity_margin_reference)
        mp.setattr(feasibility, "_BLOCK_CELLS", 1 << 40)  # every table in one block
        return check_theorem1(grid, contract, tol=tol)


@pytest.mark.parametrize("block_cells", [None, 1, 40])
def test_audit_margins_match_loop_references(block_cells, monkeypatch):
    # block_cells = 1 puts each valuation row in a block of its own; with 40,
    # a 4 x 3 grid splits its rows 3 + 1.
    if block_cells is not None:
        monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(431)
    kinds = ("feasible", "perturbed", "integer", "unaffordable")
    for i in range(160):
        k = 1 if i % 10 == 0 else None
        l = 1 if i % 10 == 5 else None
        grid = random_grid(rng, max_k=4, max_l=4, integer=i % 2 == 0, k=k, l=l)
        contract = random_menu(rng, grid, kinds[i % 4])
        if i % 3 == 0:
            contract = _with_signed_zeros(rng, contract)
        for tol in (0.0, 1e-9, 1e-6, 0.5):
            got = check_theorem1(grid, contract, tol=tol)
            ref = _reference_audit(grid, contract, tol)
            assert got.margins == ref.margins
            assert got.worst_violation == ref.worst_violation
            # repr tells -0.0 from 0.0: reports must match byte for byte
            assert repr(got.margins) == repr(ref.margins)
            assert repr(got.worst_violation) == repr(ref.worst_violation)
            assert repr(got.regret) == repr(ref.regret)


def test_audit_budget_150x150():
    # Budget: a 150 x 150 audit finishes in under 2 s with under 32 MB of
    # traced allocations; its row-blocked tables keep memory O(K * L).
    rng = np.random.default_rng(433)
    grid = random_grid(rng, k=150, l=150)
    contract = perturb_contract(rng, grid, random_feasible_contract(rng, grid, pay_shift=True))
    start = time.perf_counter()
    check_theorem1(grid, contract)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        check_theorem1(grid, contract)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
