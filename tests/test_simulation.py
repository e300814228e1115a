from __future__ import annotations

import time
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
from buyback import simulation
from buyback.simulation import (
    _BLOCK,
    _BUCKETS,
    MAX_REPLICATIONS,
    _choice_tables,
    _choices_at,
    _fold,
    _guide_table,
    _leaves,
    _lookup,
    _row_sums,
    _std,
    _type_blocks,
)
from helpers import (
    best_response_reference,
    choice_tables_reference,
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
    with pytest.raises(ValidationError, match="tie_break must be one of"):
        best_response(grid, contract, (0, 0), tie_break="nope")


def test_best_response_rejects_a_tol_that_is_not_finite_and_non_negative():
    # Ties are judged at CHOICE_TOL only, as simulate judges them, so any tol
    # is refused; a NaN tol once made every type opt out
    for tol in (float("nan"), float("inf"), float("-inf"), -1.0, 0.0):
        with pytest.raises(TypeError, match="tol"):
            best_response(GRID_K2, IC_CONTRACT, (1, 0), tol=tol)
    assert best_response(GRID_K2, IC_CONTRACT, (1, 0)) == (1, 0)


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


def _choice_table_cases(rng):
    """Random menus of every kind, K = 1 and L = 1 grids, and menus at the
    edges of the truthful shortcut: own items beyond capacity, nothing worth
    signing, and a truthful item inside or just outside the CHOICE_TOL band
    of a lower-coded item."""
    cases = []
    for i in range(160):
        inst = random_instance(rng, max_k=4, max_l=4, integer=i % 2 == 0,
                               k=1 if i % 8 == 1 else None, l=1 if i % 8 == 3 else None)
        cases.append((inst, random_menu(rng, inst.grid, MENU_KINDS[i % 4])))
    for _ in range(10):
        inst = random_instance(rng, max_k=5, max_l=5)
        grid = inst.grid
        shape = (grid.num_valuations, grid.num_capacities)
        above = grid.capacities[None, :] + rng.uniform(0.1, 1.0, shape)  # own item unaffordable
        cases.append((inst, Contract(above, rng.uniform(0.0, 10.0, shape))))
        cases.append((inst, Contract(np.ones(shape), np.zeros(shape))))  # every item hurts
    client = ClientDistribution([[0.5, 0.5]])
    for gap in (5e-10, 2e-9):  # type (1, 0): item 1 ties item 0 within CHOICE_TOL, then not
        cases.append((MarketInstance(GRID_K2, (client,), 1.0, 0.0, 0.0),
                      Contract([[1.0], [1.0]], [[5.0], [5.0 - gap]])))
    return cases


@pytest.mark.parametrize("tie_break", ["truthful_first", "max_payment"])
def test_choice_tables_match_full_table_reference(tie_break, monkeypatch):
    fallback_types = []

    def spy(grid, contract, ks, l, mode):
        fallback_types.append(len(ks))
        return _choices_at(grid, contract, ks, l, mode)

    monkeypatch.setattr(simulation, "_choices_at", spy)
    cases = _choice_table_cases(np.random.default_rng(223))
    for inst, contract in cases:
        got = _choice_tables(inst, contract, tie_break)
        for g, r in zip(got, choice_tables_reference(inst, contract, tie_break)):
            assert g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()
    types = sum(inst.grid.num_valuations * inst.grid.num_capacities for inst, _ in cases)
    if tie_break == "truthful_first":  # the shortcut decides most types, not all
        assert 0 < sum(fallback_types) < types
        assert [_choice_tables(*case, tie_break)[2][1] for case in cases[-2:]] == [1, 0]
    else:
        assert sum(fallback_types) == types


def test_simulation_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(replications=0)
    with pytest.raises(ValidationError):
        SimulationConfig(replications=10, tie_break="nope")
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match=f"seed = {seed} must fit in 64 unsigned bits"):
            SimulationConfig(replications=10, seed=seed)


def test_replications_over_the_cap_are_refused_before_any_draw():
    assert SimulationConfig(MAX_REPLICATIONS).replications == MAX_REPLICATIONS
    inst = MarketInstance(GRID_K2, (ClientDistribution([[0.5, 0.5]]),), 2.0, 0.0, 0.0)
    for replications in (MAX_REPLICATIONS + 1, 10**11):
        message = f"replications = {replications} is over MAX_REPLICATIONS = {MAX_REPLICATIONS}"
        with pytest.raises(ValidationError, match=message):
            SimulationConfig(replications)
        with pytest.raises(ValidationError, match=message):
            estimate_misreport_gain(inst, IC_CONTRACT, replications)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.9), ("seed", True), ("seed", "1"), ("seed", np.float64(1.0)),
     ("replications", 10.5), ("replications", True), ("replications", None)],
)
def test_simulation_config_refuses_non_integers(field, value):
    with pytest.raises(ValidationError, match=f"{field} = .* must be an integer"):
        SimulationConfig(**{"replications": 10, field: value})


def test_simulation_config_takes_numpy_integers_as_ints():
    config = SimulationConfig(np.int32(10), seed=np.uint64(2**64 - 1))
    assert (config.replications, config.seed) == (10, 2**64 - 1)
    assert type(config.replications) is int and type(config.seed) is int

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
    gain = estimate_misreport_gain(inst, IC_CONTRACT, 200, seed=2)
    assert gain == 0.0


def test_misreport_gain_finds_known_violation():
    grid = GRID_K2
    inst = MarketInstance(grid, (ClientDistribution([[0.5, 0.5]]),), 2.0, 0.0, 0.0)
    gain = estimate_misreport_gain(inst, BAD_IC_CONTRACT, 500, seed=3)
    assert gain == pytest.approx(1.0)


def test_misreport_gain_bounded_by_regret():
    rng = np.random.default_rng(139)
    for i in range(50):
        inst = random_instance(rng)
        contract = random_feasible_contract(rng, inst.grid)
        if rng.random() < 0.5:
            contract = perturb_contract(rng, inst.grid, contract)
        config = SimulationConfig(replications=300, seed=5)
        gain = estimate_misreport_gain(inst, contract, config.replications, config.seed)
        assert gain <= compute_regret(inst.grid, contract) + 1e-12
        types = sample_type_indices_reference(inst, config)
        assert gain == regret_bruteforce(inst.grid, contract, types)
        # point-mass clients leave most types unsampled
        sparse = MarketInstance(inst.grid, point_mass_clients(rng, inst.grid, 2), 1.0, 0.0, 0.0)
        menu = random_menu(rng, inst.grid, MENU_KINDS[i % 4])
        assert estimate_misreport_gain(
            sparse, menu, config.replications, config.seed
        ) == regret_bruteforce(
            inst.grid, menu, sample_type_indices_reference(sparse, config)
        )


def test_misreport_gain_reads_every_block():
    rng = np.random.default_rng(457)
    config = SimulationConfig(replications=2 * _BLOCK + 7, seed=11)
    for i in range(8):
        inst = random_instance(rng, max_k=4, max_l=4, max_n=3, point_mass=i % 2 == 0)
        contract = perturb_contract(rng, inst.grid, random_feasible_contract(rng, inst.grid))
        types = sample_type_indices_reference(inst, config)
        assert estimate_misreport_gain(
            inst, contract, config.replications, config.seed
        ) == regret_bruteforce(
            inst.grid, contract, types)


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
        # Client-major: one contiguous row per client, as wide as a leaf of
        # numpy's tree over the replications.
        assert all(b.shape[0] == len(clients) for b in blocks)
        assert [b.shape[1] for b in blocks] == list(_leaves(replications, _BLOCK))
        assert all(b.flags.c_contiguous for b in blocks)
        types = np.concatenate(blocks, axis=1)
        assert types.dtype == np.intp
        assert np.array_equal(types.T, sample_type_indices_reference(inst, config))
    assert short_clients > 0  # rounding leaves some cumulative tables short of 1


def test_blocks_stay_above_half_a_block():
    # Every replication count gets blocks of more than _BLOCK/2 - 8 rows once
    # it passes _BLOCK, so simulate never runs on the slower small blocks.
    leaves = list(_leaves(MAX_REPLICATIONS, _BLOCK))
    assert sum(leaves) == MAX_REPLICATIONS
    assert all(_BLOCK / 2 - 8 < size <= _BLOCK for size in leaves)


def _words(k: np.ndarray, rng) -> np.ndarray:
    """Philox words whose doubles (word >> 11) * 2**-53 are k * 2**-53; the
    11 low bits, which no double keeps, are random."""
    k = np.asarray(k, dtype=np.uint64)
    return (k << np.uint64(11)) | rng.integers(0, 2**11, size=k.shape, dtype=np.uint64)


def test_philox_words_become_generator_doubles():
    # The sampler turns raw Philox words into Generator.random's doubles by
    # (word >> 11) * 2**-53; a numpy that maps words another way fails here.
    for seed in (0, 1, 409, 2**63 + 5, 2**64 - 1):
        for m in (1, 3, 4, 5, 7, 8191, 8192, 81_923):
            words = np.random.Philox(key=seed).random_raw(m)
            doubles = np.random.Generator(np.random.Philox(key=seed)).random(m)
            assert ((words >> 11) * 2.0**-53).tobytes() == doubles.tobytes()
        # Consecutive (rows, n) blocks of words, at sizes off the 4-word
        # Philox output, continue one stream as Generator.random's do.
        bitgen = np.random.Philox(key=seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        for rows, n in ((3, 1), (5, 3), (2, 7), (8192, 10), (1, 1)):
            words = bitgen.random_raw(rows * n).reshape(rows, n)
            assert ((words >> 11) * 2.0**-53).tobytes() == rng.random((rows, n)).tobytes()


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
        np.array([0.5, 1.0 - 2.0**-20, 1.0 - 2.0**-40]),  # last bucket split, short of 1
        # 2**-70 above a lattice double: a draw's double must be exact.
        np.array([2.0**-50 + 2.0**-70, 1.0]),  # one value in bucket 0
        np.array([2.0**-50 + 2.0**-70, 2.0**-49 + 2.0**-70, 0.5, 1.0]),  # two in bucket 0
    ]
    one_value = several_values = False
    for cum in tables:
        cum = np.sort(cum)
        table = _guide_table(cum)
        # A split bucket holding one cumulative value is settled by one compare.
        one_value |= bool(np.any((table < 0) & (table > -len(cum))))
        several_values |= bool(np.any(table == -len(cum)))
        below = np.floor(cum * 2.0**53)  # the last lattice double at or below each value
        k = np.concatenate([
            np.arange(_BUCKETS) << 37,  # every bucket edge b / B
            (np.arange(1, _BUCKETS + 1) << 37) - 1,  # 2**-53 below each edge
            below - 1, below, below + 1,  # at, just below and just above each value
            [2**53 - 1],  # the largest double below 1
            rng.integers(0, 2**53, 10_000),
        ])
        k = k[(k >= 0) & (k < 2**53)]
        u = k * 2.0**-53
        expected = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        words = _words(k, rng)
        assert np.array_equal(_lookup(cum, table, words), expected)
        # The sampler passes each client's words as a strided column.
        assert np.array_equal(_lookup(cum, table, np.column_stack([words] * 3)[:, 1]), expected)
    assert one_value and several_values


@pytest.mark.parametrize("num_types", [127, 128, 129, 255, 256, 257, 32_767, 32_768, 32_769])
def test_sampler_at_table_dtype_edges(num_types):
    # Table entries lie in [-1, K * L): one byte up to 128 types, two up to 32,768.
    rng = np.random.default_rng(num_types)
    k = next(d for d in range(1, 200) if num_types % d == 0 and num_types // d <= 11_000)
    grid = random_grid(rng, k=k, l=num_types // k)
    heavy_last = rng.random((grid.num_capacities, grid.num_valuations))
    heavy_last.flat[-1] = heavy_last.sum()  # about half the mass on the last type
    clients = (ClientDistribution(heavy_last / heavy_last.sum()),) + random_clients(rng, grid, 1)
    inst = MarketInstance(grid, clients, 1.0, 0.0, 0.0)
    table = _guide_table(np.cumsum(clients[0].probs.ravel()))
    narrowest = np.int8 if num_types <= 128 else np.int16 if num_types <= 32_768 else np.int32
    assert table.dtype == narrowest
    assert 0 < np.sum(table < 0) < _BUCKETS
    config = SimulationConfig(replications=3000, seed=num_types)
    types = np.concatenate(list(_type_blocks(inst, config)), axis=1).T
    assert np.array_equal(types, sample_type_indices_reference(inst, config))
    assert types.max() == num_types - 1


@pytest.mark.parametrize("tie_break", ["truthful_first", "max_payment"])
def test_streamed_simulation_matches_whole_array_reference(tie_break):
    rng = np.random.default_rng(419)
    for i, replications in enumerate([1, 2, 500, _BLOCK, 3 * _BLOCK + 7] * 4 + [100_000] * 4):
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


@pytest.mark.parametrize(
    "n", [*range(1, 40), 127, 128, 129, 200, 255, 256, 257, 300, 1000])
def test_row_sums_match_numpy_sum_bitwise(n):
    # The row-wise tree restates numpy's own pairwise summation; a numpy
    # that sums rows another way fails here first.  Magnitudes 1e-20..1e20
    # make every reordering visible, and signed zeros test the identity.
    # The table is complex, x + 1j p: each part must sum as its own floats.
    rng = np.random.default_rng(443 + n)
    x = rng.standard_normal(64) * 10.0 ** rng.integers(-20, 21, size=64)
    x[:8] = [0.0, -0.0, -0.0, 1e20, -1e20, 1.0, -1.0, 5e-324]
    p = rng.standard_normal(64) * 10.0 ** rng.integers(-20, 21, size=64)
    p[:8] = [1.0, -0.0, -0.0, -1e20, 1e20, -1.0, 1.0, -5e-324]
    values = np.empty(64, dtype=complex)
    values.real, values.imag = x, p
    types = rng.integers(0, 64, size=(300, n))
    types[:4] = rng.integers(1, 3, size=(4, n))  # rows of -0.0 only
    types[4] = rng.permutation(np.resize([3, 4, 5, 6], n))  # cancellation
    got = _row_sums(values, np.ascontiguousarray(types.T))  # client-major, as sampled
    assert got.real.tobytes() == x[types].sum(axis=1).tobytes()
    assert got.imag.tobytes() == p[types].sum(axis=1).tobytes()
    assert repr(float(got[0].real)) == repr(float(got[0].imag)) == "0.0"  # not -0.0


@pytest.mark.parametrize(
    "n", [1, 2, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 24_583, 100_000, 123_457, 10**6])
def test_streamed_sum_matches_numpy_reduction_bitwise(n):
    # simulate sums over replications with numpy's own pairwise tree, one
    # leaf (one block) at a time; a numpy that reduces a long array another
    # way fails here first.  Magnitudes 1e-20..1e20 make every reordering
    # visible, and signed zeros test the 0.0 start.
    rng = np.random.default_rng(461 + n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, size=n)
    values[:8] = [-0.0, 0.0, -0.0, 1e20, -1e20, 1.0, -1.0, 5e-324][:n]
    paired = np.empty(n, dtype=complex)  # simulate reduces the .real of x + 1j p
    paired.real, paired.imag = values, rng.standard_normal(n)
    ends = np.cumsum(list(_leaves(n, _BLOCK)))
    assert ends[-1] == n
    for data in (values, np.full(n, -0.0), paired.real):
        leaf_sums = iter([np.add.reduce(leaf) for leaf in np.split(data, ends[:-1])])
        total = 0.0 + _fold(leaf_sums, n, _BLOCK)
        assert next(leaf_sums, None) is None  # every leaf folded in
        assert np.float64(total).tobytes() == np.add.reduce(data).tobytes()
        assert np.float64(total / n).tobytes() == data.mean().tobytes()
        if n > 1:
            assert np.float64(_std(data, data.mean())).tobytes() == data.std(ddof=1).tobytes()


def test_simulate_budget_150x150():
    # Budget: n = 2 clients on a 150 x 150 grid and 10,000 replications, under
    # 1 s and 16 MB of traced allocations, on a priced menu and on one with
    # an entry moved (some types then deviate and take the full-table path).
    rng = np.random.default_rng(439)
    grid = random_grid(rng, k=150, l=150)
    inst = MarketInstance(grid, random_clients(rng, grid, 2), 2.0, 1.0, 5.0)
    priced = random_feasible_contract(rng, grid, pay_shift=True)
    config = SimulationConfig(replications=10_000, seed=5)
    for contract in (priced, perturb_contract(rng, grid, priced)):
        start = time.perf_counter()
        simulate(inst, contract, config)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            simulate(inst, contract, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _memory_budget_case():
    """n = 10 clients on a 10 x 10 grid, the README's memory budget case."""
    rng = np.random.default_rng(421)
    grid = random_grid(rng, k=10, l=10)
    inst = MarketInstance(grid, random_clients(rng, grid, 10), 2.0, 1.0, 5.0)
    return inst, random_feasible_contract(rng, grid)


def _traced(fn, *args):
    """fn(*args) and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _traced_simulate(inst, contract, replications):
    return _traced(simulate, inst, contract, SimulationConfig(replications=replications, seed=3))


def test_simulate_memory_does_not_scale_with_replications():
    # Budget: n = 10 clients on a 10 x 10 grid, one million replications,
    # under 64 MB of traced allocations (one block of draws and 8 bytes per
    # replication, its utility, stay resident).
    summary, peak = _traced_simulate(*_memory_budget_case(), 1_000_000)
    assert int(np.sum(summary.item_counts)) + summary.opt_out_count == 10_000_000
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_simulate_keeps_eight_bytes_per_replication():
    # A second million replications may add its 8 MB of utilities (7.6 MiB)
    # and little else; 16 or 24 bytes per replication would add 15-23 MiB.
    inst, contract = _memory_budget_case()
    growth = (_traced_simulate(inst, contract, 2_000_000)[1]
              - _traced_simulate(inst, contract, 1_000_000)[1])
    assert growth < 10 * 2**20, f"growth {growth / 2**20:.1f} MB"


def test_simulate_holds_one_block_of_draws():
    # Past its 8 bytes of utility per replication, a million replications
    # peak no higher than a single block does: each block of types is
    # released before the next is drawn.
    inst, contract = _memory_budget_case()
    one_block = _traced_simulate(inst, contract, _BLOCK)[1] - 8 * _BLOCK
    million = _traced_simulate(inst, contract, 1_000_000)[1] - 8 * 1_000_000
    assert million <= one_block + 64 * 2**10, f"{million / 2**20:.2f} MB, {one_block / 2**20:.2f} MB"


def test_misreport_gain_holds_one_block_of_draws():
    # Each block of types is released before the next is drawn, so a million
    # replications peak no higher than a single block does.
    inst, contract = _memory_budget_case()
    one_block = _traced(estimate_misreport_gain, inst, contract, _BLOCK, 3)[1]
    million = _traced(estimate_misreport_gain, inst, contract, 1_000_000, 3)[1]
    assert million <= one_block + 64 * 2**10, f"{million / 2**20:.2f} MB, {one_block / 2**20:.2f} MB"
