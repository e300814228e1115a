from __future__ import annotations

import numpy as np
import pytest

import buyback
from buyback import (
    OPT_OUT,
    AggregateWeights,
    ClientDistribution,
    Contract,
    MarketInstance,
    TypeGrid,
    ValidationError,
    client_utility,
    provider_expected_utility,
    realized_provider_utility,
)
from helpers import point_mass_clients, random_feasible_contract, random_instance

# The public names: a rename or removal here breaks callers, so it must be deliberate.
PUBLIC_NAMES = [
    "AUDIT_TOL", "AggregateWeights", "AuditReport", "CandidateCountError",
    "ClientDistribution", "Contract", "MarketInstance", "OPT_OUT", "PreconditionError",
    "SimulationConfig", "SimulationSummary", "SolveMethod", "SolveResult", "TypeGrid",
    "ValidationError", "best_response", "check_ic_decomposed", "check_ic_full", "check_ir",
    "check_resource_feasibility", "check_resource_greedy", "check_theorem1", "client_utility",
    "column_payments", "compute_regret", "estimate_misreport_gain", "optimal_payment_multi",
    "optimal_payment_single", "oracle_grid_search", "priced_contract",
    "provider_expected_utility", "realized_provider_utility", "regret_bound",
    "relaxed_schedule", "simulate", "solve_multi_reduced", "solve_multi_relaxed",
    "solve_single_capacity",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 38
    assert buyback.__all__ == PUBLIC_NAMES
    assert all(hasattr(buyback, name) for name in PUBLIC_NAMES)


def single_item(v, c, x, p):
    grid = TypeGrid([v], [c])
    return grid, Contract([[x]], [[p]])


def test_client_utility_direct_formula():
    grid, contract = single_item(2.0, 10.0, 4.0, 10.0)
    assert client_utility(grid, contract, 0, (0, 0)) == 2.0


def test_client_utility_opt_out_is_zero():
    grid, contract = single_item(2.0, 10.0, 4.0, 10.0)
    assert client_utility(grid, contract, 0, OPT_OUT) == 0.0


def test_client_utility_ir_boundary():
    grid, contract = single_item(2.0, 10.0, 4.0, 8.0)
    assert client_utility(grid, contract, 0, (0, 0)) == 0.0


def test_client_utility_index_errors():
    grid, contract = single_item(2.0, 10.0, 4.0, 8.0)
    with pytest.raises(ValidationError):
        client_utility(grid, contract, 1, (0, 0))
    with pytest.raises(ValidationError):
        client_utility(grid, contract, 0, (0, 1))


def test_provider_expected_utility_single_term():
    grid = TypeGrid([1.0], [10.0])
    inst = MarketInstance(grid, (ClientDistribution([[1.0]]),), 2.0, 0.0, 0.0)
    contract = Contract([[10.0]], [[10.0]])
    assert provider_expected_utility(inst, contract) == pytest.approx(10.0)


def test_provider_expected_utility_pure_penalty():
    grid = TypeGrid([1.0], [10.0])
    inst = MarketInstance(grid, (ClientDistribution([[1.0]]),), 2.0, 3.0, 5.0)
    assert provider_expected_utility(inst, Contract.zero(grid)) == pytest.approx(-15.0)


def test_provider_expected_utility_two_identical_clients():
    # hand evaluation: 2*(4-2) + 2*min(0, 8-10) = 0
    grid = TypeGrid([1.0], [10.0])
    client = ClientDistribution([[1.0]])
    inst = MarketInstance(grid, (client, client), 1.0, 2.0, 10.0)
    contract = Contract([[4.0]], [[2.0]])
    assert provider_expected_utility(inst, contract) == pytest.approx(0.0)


def test_provider_expected_utility_shape_mismatch():
    grid = TypeGrid([1.0, 2.0], [10.0])
    inst = MarketInstance(grid, (ClientDistribution([[0.5, 0.5]]),), 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        provider_expected_utility(inst, Contract([[1.0]], [[1.0]]))


def test_realized_all_opt_out():
    grid = TypeGrid([1.0], [10.0])
    inst = MarketInstance(grid, (ClientDistribution([[1.0]]),) * 2, 2.0, 1.0, 0.0)
    contract = Contract([[4.0]], [[2.0]])
    assert realized_provider_utility(inst, contract, [OPT_OUT, OPT_OUT]) == 0.0
    with pytest.raises(ValidationError, match="expected 2 choices, got 1"):
        realized_provider_utility(inst, contract, [OPT_OUT])


def test_realized_single_client():
    grid = TypeGrid([1.0], [10.0])
    inst = MarketInstance(grid, (ClientDistribution([[1.0]]),), 2.0, 3.0, 5.0)
    contract = Contract([[10.0]], [[10.0]])
    assert realized_provider_utility(inst, contract, [(0, 0)]) == pytest.approx(10.0)


def test_realized_with_penalty():
    grid = TypeGrid([1.0], [10.0])
    inst = MarketInstance(grid, (ClientDistribution([[1.0]]),), 0.5, 5.0, 10.0)
    contract = Contract([[10.0]], [[10.0]])
    assert realized_provider_utility(inst, contract, [(0, 0)]) == pytest.approx(-5.0)


def test_point_mass_expectation_equals_realization():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst = random_instance(rng, point_mass=True)
        contract = random_feasible_contract(rng, inst.grid)
        choices = []
        for client in inst.clients:
            l, k = np.argwhere(client.probs == 1.0)[0]
            choices.append((int(k), int(l)))
        expected = provider_expected_utility(inst, contract)
        realized = realized_provider_utility(inst, contract, choices)
        assert realized == pytest.approx(expected, abs=1e-10)


def test_expected_utility_linear_in_payments():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst = random_instance(rng)
        contract = random_feasible_contract(rng, inst.grid)
        doubled = Contract(contract.allocation, 2.0 * contract.payment)
        weights = AggregateWeights.from_instance(inst).weights
        pay_mass = float(np.sum(weights * contract.payment.T))
        base = provider_expected_utility(inst, contract)
        assert provider_expected_utility(inst, doubled) == pytest.approx(
            base - pay_mass, abs=1e-9
        )


def test_client_utility_decreasing_in_valuation_when_allocating():
    rng = np.random.default_rng(13)
    for _ in range(50):
        inst = random_instance(rng, max_k=4)
        grid = inst.grid
        contract = random_feasible_contract(rng, grid, min_bottom=0.05)
        for l in range(grid.num_capacities):
            for item_k in range(grid.num_valuations):
                if contract.allocation[item_k, l] <= 0.0:
                    continue
                utils = [
                    client_utility(grid, contract, k, (item_k, l))
                    for k in range(grid.num_valuations)
                ]
                assert all(a > b for a, b in zip(utils, utils[1:]))


def test_expected_utility_matches_aggregate_route():
    rng = np.random.default_rng(17)
    for _ in range(50):
        inst = random_instance(rng)
        contract = random_feasible_contract(rng, inst.grid)
        w = AggregateWeights.from_instance(inst).weights
        margin = inst.alpha * contract.allocation - contract.payment
        supply = float(np.sum(w * contract.allocation.T))
        via_weights = float(np.sum(w * margin.T)) + inst.penalty * min(
            0.0, supply - inst.demand_floor
        )
        assert provider_expected_utility(inst, contract) == pytest.approx(
            via_weights, abs=1e-9
        )


def test_aggregate_weights_sum_to_client_count():
    rng = np.random.default_rng(19)
    for _ in range(20):
        inst = random_instance(rng)
        w = AggregateWeights.from_instance(inst)
        assert float(np.sum(w.weights)) == pytest.approx(inst.num_clients, abs=1e-9)


def test_type_grid_validation():
    with pytest.raises(ValidationError):
        TypeGrid([2.0, 1.0], [1.0])
    with pytest.raises(ValidationError):
        TypeGrid([1.0, 1.0], [1.0])
    with pytest.raises(ValidationError):
        TypeGrid([-1.0, 1.0], [1.0])
    with pytest.raises(ValidationError):
        TypeGrid([1.0], [])
    with pytest.raises(ValidationError):
        TypeGrid([1.0], [np.inf])


def test_client_distribution_validation():
    with pytest.raises(ValidationError):
        ClientDistribution([[0.5, 0.4]])  # sums to 0.9
    with pytest.raises(ValidationError):
        ClientDistribution([[1.5, -0.5]])
    with pytest.raises(ValidationError, match="probs must be a 2-d matrix"):
        ClientDistribution([0.25, 0.75])
    with pytest.raises(ValidationError, match="probs contains non-finite entries"):
        ClientDistribution([[np.nan, 1.0]])
    ClientDistribution([[0.25, 0.75]])


def test_market_instance_validation():
    grid = TypeGrid([1.0, 2.0], [5.0])
    good = ClientDistribution([[0.5, 0.5]])
    with pytest.raises(ValidationError):
        MarketInstance(grid, (), 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        MarketInstance(grid, (ClientDistribution([[1.0]]),), 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        MarketInstance(grid, (good,), 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        MarketInstance(grid, (good,), 1.0, -1.0, 0.0)
    with pytest.raises(ValidationError, match="demand_floor = -1.0 must be non-negative"):
        MarketInstance(grid, (good,), 1.0, 0.0, -1.0)
    for terms, name in (((np.inf, 0.0, 0.0), "alpha = inf"), ((1.0, np.nan, 0.0), "penalty = nan"),
                        ((1.0, 0.0, -np.inf), "demand_floor = -inf")):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            MarketInstance(grid, (good,), *terms)
    with pytest.raises(ValidationError, match="aggregate weights must be non-negative"):
        AggregateWeights([[0.5, -0.5]])


def test_contract_validation():
    with pytest.raises(ValidationError):
        Contract([[1.0]], [[-1.0]])
    with pytest.raises(ValidationError):
        Contract([[1.0, 2.0]], [[1.0]])
    with pytest.raises(ValidationError):
        Contract([[np.nan]], [[1.0]])
    with pytest.raises(ValidationError, match="allocation must be a 2-d matrix"):
        Contract([1.0], [[1.0]])


def test_types_are_immutable():
    grid = TypeGrid([1.0], [2.0])
    with pytest.raises(ValueError):
        grid.valuations[0] = 5.0
    contract = Contract.zero(grid)
    with pytest.raises(ValueError):
        contract.allocation[0, 0] = 1.0
