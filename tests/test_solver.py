from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from buyback import (
    AggregateWeights,
    CandidateCountError,
    ClientDistribution,
    Contract,
    MarketInstance,
    SolveMethod,
    TypeGrid,
    ValidationError,
    check_theorem1,
    compute_regret,
    oracle_grid_search,
    optimal_payment_multi,
    provider_expected_utility,
    regret_bound,
    relaxed_schedule,
    solve_multi_reduced,
    solve_multi_relaxed,
    solve_single_capacity,
)
from helpers import (
    exact_objective,
    oracle_grid_search_reference,
    random_instance,
    representable_as_min_form,
    satisfies_greedy_and_feasible,
    solve_reduced_enumeration,
)


def one_client_instance(vals, caps, probs, alpha, penalty=0.0, demand=0.0):
    grid = TypeGrid(vals, caps)
    return MarketInstance(grid, (ClientDistribution(probs),), alpha, penalty, demand)


def abs_coef_sum(instance):
    """Sum of |objective coefficient| over items; Lipschitz bound for the y-grid."""
    w = sum(c.probs for c in instance.clients)  # (L, K)
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


def assert_result_structure(instance, result, tol=1e-8):
    x = result.contract.allocation
    caps = instance.grid.capacities
    # column chains (capacity bound, non-increasing in valuation)
    assert np.all(x <= caps[None, :] + tol)
    assert np.all(x >= -tol)
    assert np.all(np.diff(x, axis=0) <= tol)
    # row chains (non-decreasing in capacity)
    assert np.all(np.diff(x, axis=1) >= -tol)
    # reported utility and the linearization variable
    assert result.expected_utility == pytest.approx(
        provider_expected_utility(instance, result.contract), abs=1e-8
    )
    w = AggregateWeights.from_instance(instance).weights
    supply = float(np.sum(w * x.T))
    t = result.aux_t
    assert t == pytest.approx(min(0.0, supply - instance.demand_floor), abs=1e-8)
    assert t <= tol and t <= supply - instance.demand_floor + tol
    assert abs(t) <= tol or abs(t - (supply - instance.demand_floor)) <= tol


def test_single_capacity_full_recycling():
    inst = one_client_instance([1.0], [10.0], [[1.0]], alpha=2.0)
    res = solve_single_capacity(inst)
    assert res.method is SolveMethod.SINGLE_EXACT and res.epsilon == 0.0
    assert res.contract.allocation.tolist() == [[10.0]]
    assert res.contract.payment.tolist() == [[10.0]]
    assert res.expected_utility == pytest.approx(10.0)


def test_single_capacity_negative_margin_idles():
    inst = one_client_instance([1.0], [10.0], [[1.0]], alpha=0.5)
    res = solve_single_capacity(inst)
    assert res.contract.allocation.tolist() == [[0.0]]
    assert res.expected_utility == 0.0


def test_single_capacity_penalty_pressure():
    inst = one_client_instance([1.0], [10.0], [[1.0]], alpha=0.5, penalty=5.0, demand=10.0)
    res = solve_single_capacity(inst)
    assert res.contract.allocation.tolist() == [[10.0]]
    assert res.expected_utility == pytest.approx(-5.0)


def test_single_capacity_interior_demand_crossing():
    inst = one_client_instance([1.0], [10.0], [[1.0]], alpha=0.5, penalty=5.0, demand=4.0)
    res = solve_single_capacity(inst)
    assert res.contract.allocation.tolist() == [[4.0]]
    assert res.expected_utility == pytest.approx(-2.0)
    assert res.aux_t == pytest.approx(0.0)


def test_single_capacity_matches_scalar_bruteforce():
    rng = np.random.default_rng(79)
    for _ in range(30):
        inst = random_instance(rng, k=None, l=1, max_k=3)
        res = solve_single_capacity(inst)
        # independent scan: single shared capacity, scan y per valuation is
        # coupled, so only for K == 1 instances do the scalar scan
        if inst.grid.num_valuations != 1:
            continue
        c = float(inst.grid.capacities[0])
        w = float(sum(cl.probs[0, 0] for cl in inst.clients))
        best = -np.inf
        for x in np.append(np.arange(0.0, c, 1e-3), c):
            value = w * (inst.alpha - inst.grid.valuations[0]) * x
            value += inst.penalty * min(0.0, w * x - inst.demand_floor)
            best = max(best, value)
        assert res.expected_utility >= best - 1e-9
        assert res.expected_utility <= best + abs_coef_sum(inst) * 1e-3 + 1e-9


def test_single_capacity_rejects_multi_capacity_grid():
    inst = one_client_instance([1.0], [5.0, 10.0], [[0.5], [0.5]], alpha=2.0)
    with pytest.raises(ValidationError):
        solve_single_capacity(inst)


def test_reduced_equals_single_on_shared_capacity():
    rng = np.random.default_rng(83)
    for _ in range(40):
        inst = random_instance(rng, l=1)
        single = solve_single_capacity(inst)
        reduced = solve_multi_reduced(inst)
        assert np.array_equal(single.contract.allocation, reduced.contract.allocation)
        assert np.array_equal(single.contract.payment, reduced.contract.payment)
        assert reduced.method is SolveMethod.MULTI_REDUCED_EXACT


def test_reduced_full_recycling_both_capacities():
    inst = one_client_instance([1.0], [5.0, 10.0], [[0.5], [0.5]], alpha=2.0)
    res = solve_multi_reduced(inst)
    assert res.contract.allocation.tolist() == [[5.0, 10.0]]
    assert res.contract.payment.tolist() == [[5.0, 10.0]]
    assert res.expected_utility == pytest.approx(7.5)


def test_reduced_interior_crossing_multi_capacity():
    inst = one_client_instance(
        [1.0], [5.0, 10.0], [[0.5], [0.5]], alpha=0.5, penalty=10.0, demand=4.0
    )
    res = solve_multi_reduced(inst)
    assert res.contract.allocation == pytest.approx(np.array([[4.0, 4.0]]))
    assert res.expected_utility == pytest.approx(-2.0)
    oracle = oracle_grid_search(inst, 0.01)
    assert oracle.expected_utility == pytest.approx(-2.0, abs=1e-9)


def test_reduced_interior_crossing_low_valuation_row():
    # alpha below the top valuation, penalty strong enough that the bottom
    # row is pulled up exactly until the expected supply meets the floor
    inst = one_client_instance(
        [1.0, 2.0], [10.0], [[0.5, 0.5]], alpha=1.5, penalty=3.0, demand=6.0
    )
    res = solve_multi_reduced(inst)
    assert res.contract.allocation == pytest.approx(np.array([[10.0], [2.0]]))
    assert res.expected_utility == pytest.approx(1.0)
    oracle = oracle_grid_search(inst, 0.005)
    assert oracle.expected_utility == pytest.approx(1.0, abs=1e-9)


def test_exact_solver_outputs_audit_clean():
    rng = np.random.default_rng(89)
    for _ in range(100):
        inst = random_instance(rng)
        res = solve_multi_reduced(inst)
        report = check_theorem1(inst.grid, res.contract, tol=1e-8)
        assert report.feasible and report.ic_full and report.ir
        assert_result_structure(inst, res)


def test_oracle_never_beats_exact_and_sandwich():
    rng = np.random.default_rng(97)
    step = 0.05
    for _ in range(40):
        inst = random_instance(rng)
        exact = solve_multi_reduced(inst)
        oracle = oracle_grid_search(inst, step)
        assert oracle.expected_utility <= exact.expected_utility + 1e-6
        gap = exact.expected_utility - oracle.expected_utility
        assert gap <= abs_coef_sum(inst) * step + 1e-9
        assert_result_structure(inst, oracle)


def test_oracle_full_recycling_when_all_margins_positive():
    # full recycling is optimal when every item's objective coefficient is
    # positive (for K = 1 that is exactly alpha > v; with more valuations the
    # information rents must also be covered)
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng, max_n=2)
        inst = MarketInstance(inst.grid, inst.clients, inst.alpha, 0.0, 0.0)
        w = sum(c.probs for c in inst.clients)
        v = inst.grid.valuations
        coef_ok = True
        for l in range(inst.grid.num_capacities):
            below = 0.0
            for k in range(inst.grid.num_valuations):
                coef = w[l][k] * (inst.alpha - v[k])
                if k > 0:
                    coef -= below * (v[k] - v[k - 1])
                below += w[l][k]
                if coef <= 0.0:
                    coef_ok = False
        if not coef_ok:
            continue
        checked += 1
        res = oracle_grid_search(inst, 0.1)
        assert res.contract.allocation == pytest.approx(
            np.tile(inst.grid.capacities, (inst.grid.num_valuations, 1))
        )
    assert checked >= 3


def test_oracle_candidate_budget_guard():
    inst = one_client_instance(
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0],
        np.full((3, 3), 1.0 / 9.0),
        alpha=2.0,
    )
    with pytest.raises(CandidateCountError, match="candidates"):
        oracle_grid_search(inst, 1e-4)
    with pytest.raises(ValidationError):
        oracle_grid_search(inst, 0.0)


@pytest.mark.parametrize("step", [1e-8, 1e-300, 5e-324])
def test_oracle_budget_is_checked_before_the_axis(step):
    # c_max / step steps alone pass the budget, so the refusal must come
    # before np.arange is asked for them
    inst = one_client_instance([1.0, 2.0], [1.0, 3.0], np.full((2, 2), 0.25), alpha=2.0)
    start = time.perf_counter()
    with pytest.raises(CandidateCountError, match="candidates"):
        oracle_grid_search(inst, step)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf")])
def test_oracle_rejects_non_finite_grid_step(step):
    inst = one_client_instance([1.0], [1.0], [[1.0]], alpha=2.0)
    with pytest.raises(ValidationError, match="grid_step"):
        oracle_grid_search(inst, step)


def test_oracle_matches_reference():
    # the per-row tables and the lattice walk against the chunked evaluation
    # of every lattice point; integer grids with point masses are tie-heavy
    rng = np.random.default_rng(131)
    for draw in range(240):
        integer = bool(rng.random() < 0.5)
        inst = random_instance(rng, integer=integer, point_mass=bool(rng.random() < 0.3))
        if draw % 4 >= 2:
            inst = MarketInstance(inst.grid, inst.clients, inst.alpha, 0.0, 0.0)
        step = (0.05, 0.1)[draw % 2]
        got = oracle_grid_search(inst, step)
        ref = oracle_grid_search_reference(inst, step)
        assert got.diagnostics == ref.diagnostics, draw
        y_got, y_ref = got.contract.allocation[:, -1], ref.contract.allocation[:, -1]
        if not np.array_equal(y_got, y_ref):
            # the two sum the same terms in different orders, so menus whose
            # objectives tie before rounding can come out in either order; a
            # supply tie as well would leave the pick to the lex tie-break
            (obj_got, s_got), (obj_ref, s_ref) = (exact_objective(inst, y) for y in (y_got, y_ref))
            assert obj_got == obj_ref and s_got != s_ref, draw
            continue
        assert np.array_equal(got.contract.payment, ref.contract.payment), draw
        assert got.expected_utility == ref.expected_utility, draw
        assert got.aux_t == ref.aux_t, draw


def test_oracle_breaks_exact_ties_toward_the_lex_larger_y():
    # all mass on the top valuation: rows 0 and 1 move neither the objective
    # nor the supply, so the lex-larger y puts both at c_max
    probs = [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5]]
    inst = one_client_instance([1.0, 2.0, 3.0], [1.0, 2.0], probs, alpha=2.0)
    for step in (0.1, 0.25):
        got = oracle_grid_search(inst, step)
        assert got.contract.allocation[:, -1].tolist() == [2.0, 2.0, 0.0]
        ref = oracle_grid_search_reference(inst, step)
        assert np.array_equal(got.contract.allocation, ref.contract.allocation)


@pytest.mark.parametrize("penalty", [0.0, 2.0])
@pytest.mark.parametrize(
    "vals, caps, step",
    [([1.0, 2.0], [1.5, 4.4], 1e-3), ([1.0, 2.0, 3.0], [1.0, 3.8], 0.01)],
    ids=["K2", "K3"],
)
def test_oracle_budget_at_the_lattice_edge(vals, caps, step, penalty):
    # lattices of 9.4M-9.7M points, just under MAX_CANDIDATES
    probs = np.full((len(caps), len(vals)), 1.0 / (len(caps) * len(vals)))
    inst = one_client_instance(vals, caps, probs, alpha=2.5, penalty=penalty, demand=2.0)
    start = time.perf_counter()
    res = oracle_grid_search(inst, step)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        oracle_grid_search(inst, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["candidates"] > 9_000_000
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def family_instance(n, alpha, penalty, demand):
    """vals = caps = 1..n, one client spread uniformly over the n*n types."""
    vals = np.arange(1.0, n + 1.0)
    return one_client_instance(vals, vals, np.full((n, n), 1.0 / n**2), alpha, penalty, demand)


def assert_solves_audit_clean(inst, seconds):
    start = time.perf_counter()
    res = solve_multi_reduced(inst)
    assert time.perf_counter() - start < seconds
    report = check_theorem1(inst.grid, res.contract, tol=1e-8)
    assert report.feasible and report.ic_full and report.ir
    assert_result_structure(inst, res)
    return res


def test_exact_penalty_solves_within_budget():
    # 12x12 with the floor inside the supply range: beyond the crossing
    # budget of a vertex enumeration, a fraction of a second for the DP
    res = assert_solves_audit_clean(family_instance(12, 6.0, 2.0, 6.0), 1.0)
    assert res.diagnostics["crossing_pairs"] > 0
    # 10x10 with M = 2, D = 5 took 37 s as an enumeration
    assert_solves_audit_clean(family_instance(10, 5.0, 2.0, 5.0), 1.0)


def test_exact_free_solves_at_scale():
    # M * D = 0 at 20x20: C(40, 20) = 1.4e11 grid vertices, one suffix per
    # (row, level) in the DP
    for penalty, demand in ((0.0, 6.0), (2.0, 0.0)):
        res = assert_solves_audit_clean(family_instance(20, 10.0, penalty, demand), 0.5)
        assert res.diagnostics["front_points"] == 20 * 21
        assert res.diagnostics["crossing_pairs"] == 0


def test_exact_crossing_budget_guard():
    # the 20x20 member of the family needs 78M crossing pairs: refused
    # after the fronts are built, before any pair is evaluated
    inst = family_instance(20, 6.0, 2.0, 6.0)
    start = time.perf_counter()
    with pytest.raises(CandidateCountError, match="78263394 crossing pairs"):
        solve_multi_reduced(inst)
    assert time.perf_counter() - start < 2.0


def test_exact_matches_enumeration():
    # bitwise, against the vertex enumeration, over tie-heavy integer
    # instances, point-mass clients, zero-weight items and both penalty regimes
    rng = np.random.default_rng(109)
    crossing_wins = penalised = 0
    for i in range(400):
        kind = i % 4
        inst = random_instance(
            rng,
            max_k=5,
            max_l=4 if kind == 1 else 5,
            integer=kind == 1,
            point_mass=kind == 2,
        )
        if kind == 3:
            clients = []
            for client in inst.clients:
                probs = client.probs * (rng.random(client.probs.shape) < 0.5)
                probs = probs if probs.sum() > 0.0 else client.probs
                clients.append(ClientDistribution(probs / probs.sum()))
            inst = MarketInstance(
                inst.grid, tuple(clients), inst.alpha, inst.penalty, inst.demand_floor
            )
        res = solve_multi_reduced(inst)
        ref = solve_reduced_enumeration(inst)
        assert np.array_equal(res.contract.allocation, ref.contract.allocation)
        assert np.array_equal(res.contract.payment, ref.contract.payment)
        assert res.expected_utility == ref.expected_utility
        assert res.diagnostics == solve_multi_reduced(inst).diagnostics
        penalised += inst.penalty > 0.0 and inst.demand_floor > 0.0
        levels = np.concatenate([[0.0], inst.grid.capacities])
        crossing_wins += not np.all(np.isin(ref.contract.allocation[:, -1], levels))
    assert penalised >= 100
    assert crossing_wins >= 10  # grid vertices alone would miss these optima


def test_reduced_form_equivalence_sample():
    rng = np.random.default_rng(103)
    for _ in range(20_000):
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
        assert satisfies_greedy_and_feasible(x, caps) == representable_as_min_form(x, caps)


RELAX_INSTANCE = one_client_instance(
    [1.0, 4.0], [1.0, 10.0], [[0.4, 0.1], [0.05, 0.45]], alpha=5.0
)


def test_relaxed_validates_arguments():
    with pytest.raises(ValidationError, match="solve_multi_reduced"):
        solve_multi_relaxed(RELAX_INSTANCE, epsilon=0.0)
    with pytest.raises(ValidationError):
        solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-4, restarts=0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_epsilon_is_invalid(eps):
    with pytest.raises(ValidationError, match="finite"):
        solve_multi_relaxed(RELAX_INSTANCE, epsilon=eps)
    with pytest.raises(ValidationError, match="finite"):
        relaxed_schedule(RELAX_INSTANCE, epsilons=(1e-2, eps))
    with pytest.raises(ValidationError, match="finite"):
        regret_bound(RELAX_INSTANCE.grid, eps)


def test_relaxed_exploits_slack_and_value_monotone_in_epsilon():
    exact = solve_multi_reduced(RELAX_INSTANCE).expected_utility
    values = {
        eps: solve_multi_relaxed(RELAX_INSTANCE, epsilon=eps, seed=5).expected_utility
        for eps in (1e-6, 1e-4, 1e-2)
    }
    assert values[1e-6] >= exact - 1e-12
    assert values[1e-4] >= values[1e-6] - 1e-9
    assert values[1e-2] >= values[1e-4] - 1e-9
    assert values[1e-2] > exact + 1e-4  # the relaxation genuinely buys something


def test_relaxed_respects_regret_bound():
    rng = np.random.default_rng(107)
    for _ in range(15):
        inst = random_instance(rng, max_n=2)
        for eps in (1e-2, 1e-4):
            res = solve_multi_relaxed(inst, epsilon=eps, restarts=2, seed=3)
            assert res.epsilon == eps
            assert compute_regret(inst.grid, res.contract) <= regret_bound(inst.grid, eps) + 1e-12
            zero_value = provider_expected_utility(inst, Contract.zero(inst.grid))
            assert res.expected_utility >= zero_value - 1e-12
            assert_result_structure(inst, res)


def test_relaxed_close_to_exact_for_tiny_epsilon():
    res = solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-8, seed=2)
    exact = solve_multi_reduced(RELAX_INSTANCE)
    assert abs(res.expected_utility - exact.expected_utility) <= 1e-4


def test_relaxed_spec_example_two_capacities():
    inst = one_client_instance([1.0], [5.0, 10.0], [[0.5], [0.5]], alpha=2.0)
    res = solve_multi_relaxed(inst, epsilon=1e-4, seed=0)
    exact = solve_multi_reduced(inst)
    assert abs(res.expected_utility - exact.expected_utility) <= 1e-2
    assert compute_regret(inst.grid, res.contract) <= 1.0 * 1e-2


def test_relaxed_is_deterministic():
    a = solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-3, restarts=3, seed=11)
    b = solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-3, restarts=3, seed=11)
    assert np.array_equal(a.contract.allocation, b.contract.allocation)
    assert np.array_equal(a.contract.payment, b.contract.payment)
    assert a.expected_utility == b.expected_utility
    assert a.diagnostics == b.diagnostics


def test_relaxed_zero_weight_types_still_constrained():
    inst = one_client_instance([1.0, 2.0], [4.0], [[1.0, 0.0]], alpha=3.0)
    res = solve_multi_relaxed(inst, epsilon=1e-4, seed=1)
    x = res.contract.allocation
    assert x[1, 0] <= x[0, 0] + 1e-12
    report = check_theorem1(inst.grid, res.contract, tol=1e-8)
    assert report.ir and report.resource_feasible


def test_relaxed_schedule_runs_and_tightens():
    res = relaxed_schedule(RELAX_INSTANCE, epsilons=(1e-2, 1e-4), restarts=2, seed=7)
    assert res.epsilon == 1e-4
    assert compute_regret(RELAX_INSTANCE.grid, res.contract) <= regret_bound(
        RELAX_INSTANCE.grid, 1e-4
    )


def test_exact_solver_with_zero_weight_items():
    inst = one_client_instance([1.0, 2.0], [4.0], [[1.0, 0.0]], alpha=3.0)
    res = solve_multi_reduced(inst)
    report = check_theorem1(inst.grid, res.contract, tol=1e-8)
    assert report.feasible
    # only the weighted type matters for the objective
    assert res.expected_utility == pytest.approx(
        provider_expected_utility(inst, res.contract)
    )
