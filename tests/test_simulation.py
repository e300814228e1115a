from __future__ import annotations

import tracemalloc

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
from buyback.simulation import (
    _BLOCK,
    _BUCKETS,
    _choice_tables,
    _guide_table,
    _lookup,
    _type_blocks,
)
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
    random_clients,
    sample_type_indices_reference,
    simulate_reference,
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
        types = sample_type_indices_reference(inst, config)
        assert gain == regret_bruteforce(inst.grid, contract, types)
        # point-mass clients leave most types unsampled
        sparse = MarketInstance(inst.grid, point_mass_clients(rng, inst.grid, 2), 1.0, 0.0, 0.0)
        menu = random_menu(rng, inst.grid, MENU_KINDS[i % 4])
        assert estimate_misreport_gain(sparse, menu, config) == regret_bruteforce(
            inst.grid, menu, sample_type_indices_reference(sparse, config)
        )


def _adversarial_clients(rng, grid, family, n):
    """Client distributions that stress the guide-table sampler."""
    L, K = grid.num_capacities, grid.num_valuations
    if family == "point_mass":
        return point_mass_clients(rng, grid, n)
    if family == "plain":
        return random_clients(rng, grid, n)
    out = []
    for _ in range(n):
        raw = rng.random((L, K))
        if family == "sparse":  # about 95% of the types never drawn
            raw[rng.random((L, K)) < 0.95] = 0.0
            raw.flat[rng.integers(L * K)] += 1e-3
        else:  # "skew": a few types carry nearly all the mass
            raw = raw**8 + 1e-300
        out.append(ClientDistribution(raw / raw.sum()))
    return tuple(out)


SAMPLER_FAMILIES = ("point_mass", "sparse", "skew", "plain")


@pytest.mark.parametrize("replications", [1, _BLOCK // 3, 3 * _BLOCK + 7])
def test_sampler_matches_searchsorted_reference(replications):
    rng = np.random.default_rng(401)
    short_clients = 0
    for i in range(24):
        if i % 6 == 0:
            grid = TypeGrid([1.0], [2.0])  # K * L = 1
        else:
            grid = random_grid(rng, k=int(rng.integers(1, 61)), l=int(rng.integers(1, 61)))
        clients = _adversarial_clients(rng, grid, SAMPLER_FAMILIES[i % 4], int(rng.integers(1, 5)))
        short_clients += sum(np.cumsum(c.probs.ravel())[-1] < 1.0 for c in clients)
        inst = MarketInstance(grid, clients, 1.0, 0.0, 0.0)
        config = SimulationConfig(replications=replications, seed=int(rng.integers(2**63)))
        blocks = list(_type_blocks(inst, config))
        assert all(len(b) <= _BLOCK for b in blocks)
        types = np.concatenate(blocks)
        assert types.dtype == np.intp
        assert np.array_equal(types, sample_type_indices_reference(inst, config))
    assert short_clients > 0  # rounding leaves some cumulative tables short of 1


def test_guide_table_lookup_at_edges():
    rng = np.random.default_rng(409)
    edge_grid = np.arange(1, 9) * 8191.0 / _BUCKETS  # every value on a bucket edge
    tables = [
        np.array([1.0]),
        np.cumsum(rng.dirichlet(np.ones(3600))),
        np.cumsum(np.where(rng.random(50) < 0.7, 0.0, rng.random(50))) * 0.99,
        np.concatenate([edge_grid, [1.0]]),
        np.concatenate([edge_grid, [1.0 - 2.0**-40]]),  # short of 1
        np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0 + 2.0**-52]),  # repeats, above 1
    ]
    for cum in tables:
        cum = np.sort(cum)
        probes = [
            np.arange(_BUCKETS) / _BUCKETS,  # every bucket edge b / B
            np.nextafter(np.arange(1, _BUCKETS + 1) / _BUCKETS, 0.0),  # just below each edge
            cum,
            np.nextafter(cum, -np.inf),
            np.nextafter(cum, np.inf),
            np.array([cum[-1], (cum[-1] + 1.0) / 2.0, np.nextafter(1.0, 0.0)]),
            rng.random(10_000),
        ]
        u = np.concatenate(probes)
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        assert np.array_equal(_lookup(cum, _guide_table(cum), u), expected)


@pytest.mark.parametrize("tie_break", ["truthful_first", "max_payment"])
def test_streamed_simulation_matches_whole_array_reference(tie_break):
    rng = np.random.default_rng(419)
    for i, replications in enumerate([1, 2, 500, _BLOCK, 3 * _BLOCK + 7] * 4):
        inst = random_instance(rng, max_k=6, max_l=6, max_n=12, point_mass=i % 5 == 0)
        inst = MarketInstance(inst.grid, inst.clients, inst.alpha,
                              float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 15.0)))
        contract = random_menu(rng, inst.grid, MENU_KINDS[i % 4])
        config = SimulationConfig(replications=replications, seed=i, tie_break=tie_break)
        got = simulate(inst, contract, config)
        ref = simulate_reference(inst, contract, config)
        for field in ("mean_utility", "std_error", "mean_total_repurchase",
                      "shortfall_frequency", "opt_out_count", "replications"):
            assert getattr(got, field) == getattr(ref, field), field
            assert repr(getattr(got, field)) == repr(getattr(ref, field)), field
        assert got.item_counts.dtype == ref.item_counts.dtype
        assert np.array_equal(got.item_counts, ref.item_counts)


def test_simulate_memory_does_not_scale_with_replications():
    # Budget: n = 10 clients on a 10 x 10 grid, one million replications,
    # under 64 MB of traced allocations (16 bytes per replication stay resident).
    rng = np.random.default_rng(421)
    grid = random_grid(rng, k=10, l=10)
    inst = MarketInstance(grid, random_clients(rng, grid, 10), 2.0, 1.0, 5.0)
    contract = random_feasible_contract(rng, grid)
    tracemalloc.start()
    try:
        summary = simulate(inst, contract, SimulationConfig(replications=1_000_000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(np.sum(summary.item_counts)) + summary.opt_out_count == 10_000_000
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
