from __future__ import annotations

import numpy as np
import pytest

from buyback import (
    OPT_OUT,
    ClientDistribution,
    Contract,
    MarketInstance,
    SimulationConfig,
    TypeGrid,
    ValidationError,
    best_response,
    compute_regret,
    estimate_misreport_gain,
    provider_expected_utility,
    simulate,
)
from buyback.simulation import _choice_tables, _sample_type_indices
from helpers import (
    best_response_reference,
    linear_penalty_regime,
    perturb_contract,
    point_mass_clients,
    random_feasible_contract,
    random_grid,
    random_instance,
    random_menu,
    regret_bruteforce,
)

MENU_KINDS = ("feasible", "perturbed", "integer", "unaffordable")

GRID_K2 = TypeGrid([1.0, 2.0], [10.0])
IC_CONTRACT = Contract([[10.0], [4.0]], [[14.0], [8.0]])
BAD_IC_CONTRACT = Contract([[10.0], [4.0]], [[14.0], [9.0]])


def test_best_response_truthful_on_ic_contract():
    assert best_response(GRID_K2, IC_CONTRACT, (0, 0)) == (0, 0)
    assert best_response(GRID_K2, IC_CONTRACT, (1, 0)) == (1, 0)


def test_best_response_zero_contract_signs():
    # everything ties at zero utility; an indifferent client still signs
    assert best_response(GRID_K2, Contract.zero(GRID_K2), (1, 0)) == (1, 0)


def test_best_response_profitable_deviation():
    assert best_response(GRID_K2, BAD_IC_CONTRACT, (0, 0)) == (1, 0)


def test_best_response_opt_out_when_everything_hurts():
    grid = TypeGrid([2.0], [5.0])
    contract = Contract([[4.0]], [[1.0]])  # utility 1 - 8 < 0
    assert best_response(grid, contract, (0, 0)) is OPT_OUT


def test_best_response_max_payment_tie_break():
    grid = TypeGrid([1.0], [3.0, 4.0])
    contract = Contract([[0.0, 2.0]], [[0.0, 2.0]])  # both items worth 0
    assert best_response(grid, contract, (0, 0), tie_break="truthful_first") == (0, 0)
    assert best_response(grid, contract, (0, 0), tie_break="max_payment") == (0, 1)


def test_best_response_never_exceeds_capacity():
    rng = np.random.default_rng(109)
    for _ in range(100):
        grid = random_grid(rng)
        contract = random_feasible_contract(rng, grid)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, grid, contract)
        for l in range(grid.num_capacities):
            for k in range(grid.num_valuations):
                choice = best_response(grid, contract, (k, l))
                if choice is not OPT_OUT:
                    k2, l2 = choice
                    assert contract.allocation[k2, l2] <= grid.capacities[l]


@pytest.mark.parametrize("tie_break", ["truthful_first", "max_payment"])
def test_choices_match_reference(tie_break):
    rng = np.random.default_rng(211)
    opt_outs = 0
    for i in range(200):
        inst = random_instance(rng, max_k=4, max_l=4, integer=i % 2 == 0)
        grid = inst.grid
        K, L = grid.num_valuations, grid.num_capacities
        contract = random_menu(rng, grid, MENU_KINDS[i % 4])
        chosen_x, chosen_p, codes = _choice_tables(inst, contract, tie_break)
        for l in range(L):
            for k in range(K):
                ref = best_response_reference(grid, contract, (k, l), tie_break)
                assert best_response(grid, contract, (k, l), tie_break) == ref
                t = l * K + k
                if ref is OPT_OUT:
                    opt_outs += 1
                    assert (codes[t], chosen_x[t], chosen_p[t]) == (-1, 0.0, 0.0)
                else:
                    assert codes[t] == ref[0] * L + ref[1]
                    assert chosen_x[t] == contract.allocation[ref]
                    assert chosen_p[t] == contract.payment[ref]
    assert opt_outs > 0


def test_simulation_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(replications=0)
    with pytest.raises(ValidationError):
        SimulationConfig(replications=10, tie_break="nope")


def test_point_mass_zero_variance_exact_mean():
    grid = TypeGrid([1.0, 2.0], [10.0])
    client = ClientDistribution([[1.0, 0.0]])
    inst = MarketInstance(grid, (client, client), 2.0, 1.0, 3.0)
    summary = simulate(inst, IC_CONTRACT, SimulationConfig(replications=500, seed=4))
    assert summary.std_error == 0.0
    assert summary.mean_utility == pytest.approx(
        provider_expected_utility(inst, IC_CONTRACT), abs=1e-12
    )


def test_simulation_is_reproducible():
    rng = np.random.default_rng(113)
    inst = random_instance(rng)
    contract = random_feasible_contract(rng, inst.grid)
    config = SimulationConfig(replications=2000, seed=99)
    a = simulate(inst, contract, config)
    b = simulate(inst, contract, config)
    assert a.mean_utility == b.mean_utility
    assert a.std_error == b.std_error
    assert np.array_equal(a.item_counts, b.item_counts)
    assert a.opt_out_count == b.opt_out_count


def test_histogram_counts_sum():
    rng = np.random.default_rng(127)
    for _ in range(10):
        inst = random_instance(rng)
        contract = random_feasible_contract(rng, inst.grid)
        config = SimulationConfig(replications=750, seed=1)
        summary = simulate(inst, contract, config)
        total = int(np.sum(summary.item_counts)) + summary.opt_out_count
        assert total == 750 * inst.num_clients


def test_unreachable_demand_floor_always_short():
    grid = TypeGrid([1.0], [5.0])
    inst = MarketInstance(grid, (ClientDistribution([[1.0]]),), 2.0, 1.0, 100.0)
    contract = Contract([[5.0]], [[5.0]])
    summary = simulate(inst, contract, SimulationConfig(replications=200, seed=0))
    assert summary.shortfall_frequency == 1.0


def test_mean_within_three_sigma_of_expectation():
    rng = np.random.default_rng(131)
    inst = random_instance(rng, max_n=3)
    contract = random_feasible_contract(rng, inst.grid)
    inst = linear_penalty_regime(rng, inst, contract)
    summary = simulate(inst, contract, SimulationConfig(replications=100_000, seed=17))
    analytic = provider_expected_utility(inst, contract)
    assert abs(summary.mean_utility - analytic) <= max(3 * summary.std_error, 1e-9)


def test_empirical_mean_convergence_across_seeds():
    rng = np.random.default_rng(137)
    inst = random_instance(rng, max_n=2)
    contract = random_feasible_contract(rng, inst.grid)
    inst = linear_penalty_regime(rng, inst, contract)
    analytic = provider_expected_utility(inst, contract)
    hits = 0
    for seed in range(100):
        summary = simulate(inst, contract, SimulationConfig(replications=10_000, seed=seed))
        if abs(summary.mean_utility - analytic) <= max(4 * summary.std_error, 1e-9):
            hits += 1
    assert hits >= 99


def test_interior_demand_floor_mean_never_exceeds_expectation():
    # min{0, supply - D} is concave in the realized supply, so with the floor
    # inside the supply range the mean realized utility sits below the
    # analytic value computed from the expected supply
    rng = np.random.default_rng(149)
    for _ in range(10):
        inst = random_instance(rng, max_n=3)
        contract = random_feasible_contract(rng, inst.grid)
        mid = 0.5 * inst.num_clients * float(np.max(contract.allocation))
        if mid <= 0.0:
            continue
        inst = MarketInstance(inst.grid, inst.clients, inst.alpha, 2.0, mid)
        summary = simulate(inst, contract, SimulationConfig(replications=20_000, seed=7))
        analytic = provider_expected_utility(inst, contract)
        assert summary.mean_utility <= analytic + max(4 * summary.std_error, 1e-9)


def test_misreport_gain_zero_for_ic_contract():
    grid = GRID_K2
    inst = MarketInstance(grid, (ClientDistribution([[0.5, 0.5]]),), 2.0, 0.0, 0.0)
    gain = estimate_misreport_gain(inst, IC_CONTRACT, SimulationConfig(replications=200, seed=2))
    assert gain == 0.0


def test_misreport_gain_finds_known_violation():
    grid = GRID_K2
    inst = MarketInstance(grid, (ClientDistribution([[0.5, 0.5]]),), 2.0, 0.0, 0.0)
    gain = estimate_misreport_gain(
        inst, BAD_IC_CONTRACT, SimulationConfig(replications=500, seed=3)
    )
    assert gain == pytest.approx(1.0)


def test_misreport_gain_bounded_by_regret():
    rng = np.random.default_rng(139)
    for i in range(50):
        inst = random_instance(rng)
        contract = random_feasible_contract(rng, inst.grid)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, inst.grid, contract)
        config = SimulationConfig(replications=300, seed=5)
        gain = estimate_misreport_gain(inst, contract, config)
        assert gain <= compute_regret(inst.grid, contract) + 1e-12
        types = _sample_type_indices(inst, config)
        assert gain == regret_bruteforce(inst.grid, contract, types)
        # point-mass clients leave most types unsampled
        sparse = MarketInstance(inst.grid, point_mass_clients(rng, inst.grid, 2), 1.0, 0.0, 0.0)
        menu = random_menu(rng, inst.grid, MENU_KINDS[i % 4])
        assert estimate_misreport_gain(sparse, menu, config) == regret_bruteforce(
            inst.grid, menu, _sample_type_indices(sparse, config)
        )
