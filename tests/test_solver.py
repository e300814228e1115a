from __future__ import annotations

import itertools
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
    column_payments,
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
from buyback import solver
from helpers import (
    dp_inputs,
    exact_dp_draw,
    exact_objective,
    level_fronts_reference,
    oracle_axis_reference,
    oracle_grid_search_reference,
    penalty_candidates_reference,
    random_instance,
    representable_as_min_form,
    row_products_ok_reference,
    satisfies_greedy_and_feasible,
    solve_reduced_enumeration,
    theta_kept_blocks_reference,
)
from buyback.solver import (
    _crossing_screen,
    _expected_supply,
    _level_fronts,
    _oracle_axis,
    _penalty_candidates,
    _reduced_coefficients,
    _rows_at,
    _rows_ok,
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


def test_oracle_axis_matches_unique_bitwise():
    # the merged axis against one np.unique over every value, compared as
    # bit patterns so that a -0.0 for 0.0 would show; ties: integer grids put
    # capacities on steps, and a demand floor at the others' full supply puts
    # a crossing at 0.0 and others at capacities
    rng = np.random.default_rng(132)
    zero_crossings = 0
    for draw in range(400):
        inst = random_instance(rng, max_k=4, max_l=4, integer=bool(rng.random() < 0.5),
                               point_mass=bool(rng.random() < 0.3))
        w = AggregateWeights.from_instance(inst).weights
        if draw % 3 == 0:
            full = w.T @ inst.grid.capacities
            k = int(rng.integers(full.size))
            demand = float(np.sum(full)) - full[k]
            if demand > 0.0:
                inst = MarketInstance(inst.grid, inst.clients, inst.alpha, 1.0, demand)
                zero_crossings += 1
        step = float(rng.choice([0.5, 0.25, 0.1, 0.3, 1.0, 1e-3]))
        got = _oracle_axis(inst, step, w)
        ref = oracle_axis_reference(inst, step, w)
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.uint64), ref.view(np.uint64)), draw
    assert zero_crossings > 80


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


def test_lattice_walk_scores_only_non_increasing_tuples(monkeypatch):
    # integer tables, so sums are exact and ties many: at any block size the
    # walk picks the best non-increasing index tuple by objective, then
    # supply, then the lex-larger tuple, as a brute force over them does
    rng = np.random.default_rng(229)
    for _ in range(300):
        K, B = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        util = rng.integers(-5, 6, (K, B)).astype(float)
        supply = rng.integers(0, 4, (K, B)).astype(float)
        M, D = float(rng.integers(0, 3)), float(rng.integers(0, 6))

        def key(t):
            u, s = util[range(K), t].sum(), supply[range(K), t].sum()
            return u + M * min(0.0, s - D), s, t

        best = max(key(t[::-1]) for t in itertools.combinations_with_replacement(range(B), K))
        for size in (1, 2, 5, solver._ORACLE_BLOCK):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_ORACLE_BLOCK", size)
                assert solver._lattice_walk(util, supply, M, D) == list(best[2])


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


def test_exact_free_tables_stay_small():
    # gain and mass go in blocks of rows: the (K, L, L+1) product of a free
    # 200x200 solve alone took 63 MB
    inst = family_instance(200, 10.0, 0.0, 6.0)
    tracemalloc.start()
    try:
        solve_multi_reduced(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_exact_penalised_crossings_stay_small():
    # L = 1 and all mass on the middle valuation: about (K/2)^2 blocks each
    # keep a crossing of K entries; ranked a chunk at a time they took 48 MB
    # at K = 200 when all of them were stacked at once
    K = 200
    probs = np.zeros((1, K))
    probs[0, K // 2] = 1.0
    inst = one_client_instance(np.arange(1.0, K + 1.0), [1.0], probs, K + 1.0, 2.0, 0.5)
    tracemalloc.start()
    try:
        res = solve_multi_reduced(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["crossing_candidates"] > 5_000
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_dp_tables_do_not_depend_on_the_block_size(monkeypatch):
    # gain and mass built a row, a few rows or all rows at a time are the one
    # (K, L, L+1) product bit for bit, zero and -0.0 coefficients included
    rng = np.random.default_rng(227)
    tables, best_levels = [], solver._best_levels
    monkeypatch.setattr(solver, "_best_levels", lambda g, s: tables.append((g, s)) or best_levels(g, s))
    for _ in range(100):
        K, L = (int(n) for n in rng.integers(1, 61, 2))
        caps = np.cumsum(rng.uniform(0.1, 2.0, L))
        inst = one_client_instance(np.arange(1.0, K + 1.0), caps, np.full((L, K), 1.0 / (K * L)), 2.0)
        coef = rng.normal(size=(K, L)) * 10.0 ** rng.integers(-8, 9, (K, L))
        coef[rng.random((K, L)) < 0.2] = rng.choice([0.0, -0.0])
        w = rng.random((L, K)) * (rng.random((L, K)) < 0.7)
        X = np.minimum(caps[:, None], np.concatenate([[0.0], caps])[None, :])
        ref = np.sum(coef[:, :, None] * X, axis=1), np.sum(w.T[:, :, None] * X, axis=1)
        for size in (1, 64, 1 << 16):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_SCREEN_BLOCK", size)
                solver._exact_allocation(inst, coef, w)
            gain, mass = tables.pop()
            assert same_bits(gain, ref[0]) and same_bits(mass, ref[1])


def test_exact_crossing_budget_guard():
    # the 20x20 member of the family needs 78M crossing pairs: refused
    # after the fronts are built, before any pair is evaluated
    inst = family_instance(20, 6.0, 2.0, 6.0)
    start = time.perf_counter()
    with pytest.raises(CandidateCountError, match="78263394 crossing pairs"):
        solve_multi_reduced(inst)
    assert time.perf_counter() - start < 2.0


def test_exact_crossing_budget_is_checked_before_the_screen(monkeypatch):
    # L = 1 and all mass on the middle valuation: every front holds at most
    # two points, yet each of the (K/2)^2 blocks holding that row has a
    # crossing theta in [0, c], so a screen run before the count would keep
    # all of them; the budget is scaled down so that this K is refused: the
    # default one passes its 250,500 pairs and ranks up to as many crossings,
    # a chunk at a time
    K = 1000
    probs = np.zeros((1, K))
    probs[0, K // 2] = 1.0
    inst = one_client_instance(np.arange(1.0, K + 1.0), [1.0], probs, K + 1.0, 2.0, 0.5)

    def screen(*args):
        raise AssertionError("blocks screened before the pair budget was checked")

    monkeypatch.setattr(solver, "MAX_CANDIDATES", 100_000)
    monkeypatch.setattr(solver, "_crossing_screen", screen)
    start = time.perf_counter()
    with pytest.raises(CandidateCountError, match="2999 front points and 250500 crossing pairs"):
        solve_multi_reduced(inst)
    assert time.perf_counter() - start < 2.0


def test_exact_fronts_at_ten_thousand_rows_are_refused_within_seconds():
    # the same kind of instance at K = 10^4 and the default budget: 29,999
    # front points of at most two points each, whose rows once took over a
    # minute when every row sorted on all its level columns
    K = 10_000
    probs = np.zeros((1, K))
    probs[0, K // 2] = 1.0
    inst = one_client_instance(np.arange(1.0, K + 1.0), [1.0], probs, K + 1.0, 2.0, 0.5)
    start = time.perf_counter()
    with pytest.raises(CandidateCountError, match="29999 front points and 25005000 crossing pairs"):
        solve_multi_reduced(inst)
    assert time.perf_counter() - start < 10.0


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


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def front_lists(states, suffix: bool):
    """``_level_fronts``'s states as lists ``out[n][j]`` of (g, s, levels)
    fronts per level bound j, each point's levels rebuilt by following its
    parent pointers.  A prefix state keeps no bound-0 front: ``out[n][0]``
    is None there."""
    width = len(states[0].ends) - (1 if suffix else 0)
    out = []
    for n, state in enumerate(states):
        row = [None] * width
        for i, (lo, hi) in enumerate(zip(state.ends[:-1], state.ends[1:])):
            levels = np.zeros((hi - lo, n), dtype=np.min_scalar_type(-width))
            at = np.arange(lo, hi)
            for t in range(n, 0, -1):  # the newest level first
                levels[:, n - t if suffix else t - 1] = states[t].level[at]
                at = states[t].parent[at]
            row[i if suffix else width - 1 - i] = (state.g[lo:hi], state.s[lo:hi], levels)
        out.append(row)
    return out


def penalty_candidates(*args):
    """``_penalty_candidates`` with its chunks of crossings read into one list."""
    levels, chunks, points, pairs = _penalty_candidates(*args)
    return levels, [y for chunk in chunks for y in chunk], points, pairs


def test_exact_dp_matches_reference_bitwise():
    # fronts (g, s, levels rebuilt from the parent pointers, dtype, order,
    # point count), grid levels, crossings and crossing pairs against one
    # Pareto sort per (row, level) and the two-sum block loop, over
    # tie-heavy integer grids, point masses, zero-weight capacities, K = 1
    # and L = 1
    rng = np.random.default_rng(211)
    crossings = single_row = single_capacity = 0
    for i in range(1000):
        inst = exact_dp_draw(rng, i)
        gain, mass, coef, w, caps, G, X = dp_inputs(inst)
        K, L = coef.shape
        single_row += K == 1
        single_capacity += L == 1
        for rows, suffix in ((range(K - 1, -1, -1), True), (range(K - 1), False)):
            start = int(rng.integers(0, 100))
            got, points = _level_fronts(gain, mass, rows, suffix, start)
            ref, ref_points = level_fronts_reference(gain, mass, rows, suffix, start)
            assert points == ref_points
            got = front_lists(got, suffix)
            assert len(got) == len(ref)
            for n, (got_row, ref_row) in enumerate(zip(got, ref)):
                assert len(got_row) == len(ref_row)
                for got_front, ref_front in zip(got_row, ref_row):
                    if got_front is None:  # the reference's empty state has a bound 0
                        assert ref_front is None or (not suffix and n == 0)
                    else:
                        assert all(map(same_bits, got_front, ref_front))
        got = penalty_candidates(gain, mass, coef, w, caps, G, X, inst.demand_floor)
        ref = penalty_candidates_reference(gain, mass, coef, w, caps, G, X, inst.demand_floor)
        assert same_bits(got[0], ref[0])
        assert got[2:] == ref[2:]  # front points and crossing pairs
        assert len(got[1]) == len(ref[1])
        assert all(map(same_bits, got[1], ref[1]))
        crossings += len(ref[1])
    assert crossings >= 1000 and single_row >= 100 and single_capacity >= 100


def test_crossing_screen_keeps_every_block_the_exact_checks_keep(monkeypatch):
    # tiny, subnormal and uneven weights, with the floor put on a segment edge
    # of one block's theta range (nudged by a few ulps), where the screen's
    # sums and the exact ones round apart; the screen gives the same blocks
    # when it takes one block start a at a time
    rng = np.random.default_rng(223)
    scales = np.array([0.0, 5e-324, 1e-300, 1e-17, 1e-8, 1.0, 3.7])
    kept_total = 0
    for i in range(1000):
        K, L = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        w = rng.choice(scales, (L, K)) * rng.uniform(0.5, 2.0, (L, K))
        w[rng.integers(L), rng.integers(K)] = rng.choice(scales[1:])
        caps = np.cumsum(rng.uniform(0.1, 3.0, L))
        G = np.concatenate([[0.0], caps])
        X = np.minimum(caps[:, None], G[None, :])
        gain = rng.integers(-2, 3, (K, L + 1)).astype(float)
        mass = w.T @ X
        suffix = front_lists(_level_fronts(gain, mass, range(K - 1, -1, -1), True, 0)[0], True)
        suffix.reverse()
        prefix = front_lists(_level_fronts(gain, mass, range(K - 1), False, 0)[0], False)
        live = [
            (a, b, m)
            for a in range(K)
            for b in range(a, K)
            for m in range(L)
            if np.sum(w[m:, a : b + 1]) > 0.0
        ]
        a, b, m = live[rng.integers(len(live))]
        slope = float(np.sum(w[m:, a : b + 1]))
        const = float(np.sum(w[:m, a : b + 1] * caps[:m, None]))
        sP, sQ = prefix[a][m + 1][1], suffix[b + 1][m][1]
        if i % 2:
            D = float(sP[0] + sQ[0]) + const + slope * (G[m] - 1e-12)
        else:
            D = float(sP[-1] + sQ[-1]) + const + slope * (G[m + 1] + 1e-12)
        D *= 1.0 + int(rng.integers(-4, 5)) * np.finfo(float).eps
        with np.errstate(over="ignore"):  # subnormal slopes send theta to inf
            kept = theta_kept_blocks_reference(w, caps, G, D, prefix, suffix)
        # the first and last supply of the fronts before and after each block
        s_before, s_after = (
            np.array([[(f[1][0], f[1][-1]) for f in row] for row in fronts]).transpose(2, 0, 1)
            for fronts in ([prefix[a][1:] for a in range(K)], [suffix[b + 1][:L] for b in range(K)])
        )
        screened = _crossing_screen(w, caps, G, D, s_before, s_after)
        assert set(kept) <= set(screened)
        assert screened == sorted(screened)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_SCREEN_BLOCK", 1)
            assert _crossing_screen(w, caps, G, D, s_before, s_after) == screened
        kept_total += len(kept)
    assert kept_total >= 1000


def test_penalty_candidates_do_not_depend_on_the_chunk_size(monkeypatch):
    # fronts swept one bound at a time, or a few bounds per block, and
    # crossing pairs scored one block, or a few pairs, per chunk give the
    # same bits as the default chunks and as the reference block loop
    rng = np.random.default_rng(211)
    for i in range(300):
        inst = exact_dp_draw(rng, i)
        args = (*dp_inputs(inst), inst.demand_floor)
        default = penalty_candidates(*args)
        ref = penalty_candidates_reference(*args)
        for size in (1, 5, 40):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_SCREEN_BLOCK", size)
                got = penalty_candidates(*args)  # the chunks are read under the patch
            for other in (default, ref):
                assert same_bits(got[0], other[0])
                assert got[2:] == other[2:]
                assert len(got[1]) == len(other[1])
                assert all(map(same_bits, got[1], other[1]))


def test_exact_ranking_does_not_depend_on_the_chunk_size(monkeypatch):
    # the grid front and each chunk of crossings are ranked apart, each by
    # the two einsums and _best_by_key: one crossing, a few or all of them
    # per chunk give the same menu and counts bit for bit
    rng = np.random.default_rng(233)
    for i in range(200):
        inst = exact_dp_draw(rng, i)
        default = solve_multi_reduced(inst)
        for size in (1, 5):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_SCREEN_BLOCK", size)
                got = solve_multi_reduced(inst)
            assert same_bits(got.contract.allocation, default.contract.allocation)
            assert same_bits(got.contract.payment, default.contract.payment)
            assert got.diagnostics == default.diagnostics


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
    with pytest.raises(ValidationError, match="epsilons must be non-empty"):
        relaxed_schedule(RELAX_INSTANCE, epsilons=())


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
        eps: solve_multi_relaxed(RELAX_INSTANCE, epsilon=eps).expected_utility
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
            res = solve_multi_relaxed(inst, epsilon=eps)
            assert res.epsilon == eps
            assert compute_regret(inst.grid, res.contract) <= regret_bound(inst.grid, eps) + 1e-12
            zero_value = provider_expected_utility(inst, Contract.zero(inst.grid))
            assert res.expected_utility >= zero_value - 1e-12
            assert_result_structure(inst, res)


def test_relaxed_close_to_exact_for_tiny_epsilon():
    res = solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-8)
    exact = solve_multi_reduced(RELAX_INSTANCE)
    assert abs(res.expected_utility - exact.expected_utility) <= 1e-4


def test_relaxed_spec_example_two_capacities():
    inst = one_client_instance([1.0], [5.0, 10.0], [[0.5], [0.5]], alpha=2.0)
    res = solve_multi_relaxed(inst, epsilon=1e-4)
    exact = solve_multi_reduced(inst)
    assert abs(res.expected_utility - exact.expected_utility) <= 1e-2
    assert compute_regret(inst.grid, res.contract) <= 1.0 * 1e-2


def test_relaxed_is_deterministic():
    a = solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-3)
    b = solve_multi_relaxed(RELAX_INSTANCE, epsilon=1e-3)
    assert np.array_equal(a.contract.allocation, b.contract.allocation)
    assert np.array_equal(a.contract.payment, b.contract.payment)
    assert a.expected_utility == b.expected_utility
    assert a.diagnostics == b.diagnostics


def test_relaxed_zero_weight_types_still_constrained():
    inst = one_client_instance([1.0, 2.0], [4.0], [[1.0, 0.0]], alpha=3.0)
    res = solve_multi_relaxed(inst, epsilon=1e-4)
    x = res.contract.allocation
    assert x[1, 0] <= x[0, 0] + 1e-12
    report = check_theorem1(inst.grid, res.contract, tol=1e-8)
    assert report.ir and report.resource_feasible


def relaxed_objective(instance, x):
    coef, w = _reduced_coefficients(instance)
    return float(np.sum(coef * x)) + instance.penalty * min(
        0.0, _expected_supply(w, x) - instance.demand_floor
    )


@pytest.mark.parametrize("draw, eps", [(1, 1e-4), (7, 1e-2)])
def test_descent_converges_at_or_above_the_exact_objective(draw, eps):
    # Criterion 4's draws 1 (K = 1, L = 2) and 7 (3 x 3, demand floor in
    # range): a search moving one entry at a time once climbed a tube of
    # width about eps / gap here and stopped far below the exact objective
    rng = np.random.default_rng(20260804)
    inst = [random_instance(rng, max_n=2) for _ in range(draw + 1)][-1]
    res = solve_multi_relaxed(inst, epsilon=eps)
    assert res.diagnostics["converged"]
    exact = solve_multi_reduced(inst).contract.allocation
    assert relaxed_objective(inst, res.contract.allocation) >= relaxed_objective(inst, exact) - 1e-12


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_relaxed_budget_10x10(eps, penalised):
    # Budget: a 10 x 10 relaxed solve finishes in under 1.5 s, the descent
    # stopped by a pass that moved nothing, not by the pass cap
    base = random_instance(np.random.default_rng(1), k=10, l=10, max_n=2)
    full = float(np.sum(AggregateWeights.from_instance(base).weights.T @ base.grid.capacities))
    penalty, demand = (2.0, 0.5 * full) if penalised else (0.0, 0.0)
    inst = MarketInstance(base.grid, base.clients, base.alpha, penalty, demand)
    start = time.perf_counter()
    res = solve_multi_relaxed(inst, epsilon=eps)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"{elapsed:.2f} s"
    assert res.diagnostics["converged"]
    assert res.expected_utility >= solve_multi_reduced(inst).expected_utility - 1e-12
    assert compute_regret(inst.grid, res.contract) <= regret_bound(inst.grid, eps) + 1e-12


def test_relaxed_30x30_converges_within_a_second():
    # A 30 x 30 draw at which a multi-start pattern search stopped 5 of its
    # 6 starts at a 100,000-move cap
    base = random_instance(np.random.default_rng(1), k=30, l=30, max_n=2)
    inst = MarketInstance(base.grid, base.clients, base.alpha, 0.0, 0.0)
    start = time.perf_counter()
    res = solve_multi_relaxed(inst, epsilon=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert res.diagnostics["converged"]
    assert res.diagnostics["passes"] < solver._MAX_PASSES
    assert compute_regret(inst.grid, res.contract) <= regret_bound(inst.grid, 1e-4) + 1e-12


@pytest.mark.parametrize(
    "seed, size, draw, reached",
    [
        # criterion 4's draw 3 (M * D = 0): the last entry must stop where
        # a root meets a bound, y = b + eps / (c - b)
        (20260804, 3, 3, 13.532930934231885),
        # criterion 4's draw 6 (M = 3.30, D = 3.60): single-entry moves
        # alone stop 2.2e-4 below
        (20260804, 3, 6, -1.0149610538623732),
        # a 2 x 3 draw with the floor active: only the direction coef + t*w
        # for a t strictly inside (0, M) lowers the right entries
        (7, 5, 1, -0.7736489492974504),
    ],
)
def test_relaxed_reaches_what_a_pattern_search_reached(seed, size, draw, reached):
    # at eps = 1e-2, the score a multi-start pattern search reached
    rng = np.random.default_rng(seed)
    inst = [random_instance(rng, max_k=size, max_l=size, max_n=2) for _ in range(draw + 1)][-1]
    res = solve_multi_relaxed(inst, epsilon=1e-2)
    assert relaxed_objective(inst, res.contract.allocation) >= reached - 1e-12


def test_solver_payments_are_the_checked_payment_rules_bit_for_bit():
    # the solvers price with the payment kernel and skip the rules' checks:
    # every exact allocation must pass optimal_payment_multi's P1, P2 and P6
    # and every relaxed one each column's column_payments checks, and those
    # rules must return the result's payments exactly
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for i in range(120):
            inst = exact_dp_draw(rng, i)
            free = MarketInstance(inst.grid, inst.clients, inst.alpha, 0.0, 0.0)
            for case in (inst, free):
                res = solve_multi_reduced(case)
                p = optimal_payment_multi(case.grid, res.contract.allocation)
                assert same_bits(p, res.contract.payment)
    rng = np.random.default_rng(227)
    for _ in range(60):
        base = random_instance(rng, max_n=2)
        full = float(np.sum(AggregateWeights.from_instance(base).weights.T @ base.grid.capacities))
        v, caps = base.grid.valuations, base.grid.capacities
        for penalty, demand in ((2.0, 0.5 * full), (0.0, 0.0)):
            inst = MarketInstance(base.grid, base.clients, base.alpha, penalty, demand)
            for eps in (1e-2, 1e-6):
                res = solve_multi_relaxed(inst, epsilon=eps)
                x = res.contract.allocation
                p = np.column_stack([column_payments(v, x[:, l], c) for l, c in enumerate(caps)])
                assert same_bits(p, res.contract.payment)


def random_relaxed_row(rng, caps):
    """A row non-decreasing in capacity and within it, with ties and full entries."""
    r = rng.uniform(0.0, caps[-1], caps.size)
    for l in range(caps.size):
        u = rng.random()
        if u < 0.2:
            r[l] = caps[l]
        elif u < 0.4 and l > 0:
            r[l] = r[l - 1]
    return np.minimum(caps, np.maximum.accumulate(r))


def near(value):
    """value and its two float neighbours: epsilons on either side of a product."""
    return (value, float(np.nextafter(value, 0.0)), float(np.nextafter(value, np.inf)))


def test_per_entry_product_check_matches_pairwise_reference():
    rng = np.random.default_rng(913)
    checked_rows = checked_moves = 0
    for _ in range(300):
        L = int(rng.integers(1, 6))
        caps = np.cumsum(rng.uniform(0.1, 2.0, L))
        row = random_relaxed_row(rng, caps)
        products = (row[-1] - row[:-1]) * (caps[:-1] - row[:-1])
        epsilons = near(float(rng.choice(products))) if L > 1 else (1e-6,)
        for eps in (*epsilons, 1e-12):
            passes = row_products_ok_reference(row.tolist(), caps, eps)
            assert _rows_ok(row[None, :], caps, eps)[0] == passes, (row, caps, eps)
            checked_rows += 1
            if not passes:
                continue
            # rows one entry away, still non-decreasing and within capacity
            for l in range(L):
                lo = row[l - 1] if l > 0 else 0.0
                hi = min(caps[l], row[l + 1] if l + 1 < L else caps[l])
                for cand in (lo, hi, rng.uniform(lo, hi), row[l], *near(float(row[l]))):
                    cand = float(min(max(cand, lo), hi))
                    moved = row.copy()
                    moved[l] = cand
                    worst = float(np.max((moved[-1] - moved[:-1]) * (caps[:-1] - moved[:-1]),
                                         initial=0.0))
                    for move_eps in (eps, *near(worst)):
                        got = _rows_ok(moved[None, :], caps, move_eps)[0]
                        assert got == row_products_ok_reference(moved.tolist(), caps, move_eps)
                        checked_moves += 1
    assert checked_rows > 1000 and checked_moves > 5000


def test_rooted_rows_pass_the_pairwise_reference():
    # rows pass the pairwise check, and an entry with a negative direction
    # sits at its root: one ulp of max(c, y) lower fails
    rng = np.random.default_rng(914)
    rooted = 0
    for _ in range(300):
        L = int(rng.integers(2, 6))
        caps = np.cumsum(rng.uniform(0.1, 2.0, L))
        eps = float(10.0 ** rng.uniform(-12, 0))
        d = rng.choice([-1.0, 0.0, 1.0], L)
        Y = np.concatenate([rng.uniform(0.0, caps[-1], 20), caps])
        X = _rows_at(Y, d, np.zeros(L), caps, caps, eps)
        for row, y in zip(X, Y):
            assert np.all(np.diff(row) >= 0.0) and np.all(row <= caps) and row[-1] == y
            assert row_products_ok_reference(row.tolist(), caps, eps)
            for l in np.flatnonzero((d[:-1] < 0.0) & (row[:-1] > 0.0) & (row[:-1] < y)):
                if l > 0 and row[l] == row[l - 1]:
                    continue  # raised to the running maximum, not at its root
                lower = row.copy()
                lower[l] -= np.spacing(max(caps[l], y))
                assert not row_products_ok_reference(lower.tolist(), caps, eps)
                rooted += 1
    assert rooted > 1000


def test_relaxed_schedule_runs_and_tightens():
    res = relaxed_schedule(RELAX_INSTANCE, epsilons=(1e-2, 1e-4))
    assert res.epsilon == 1e-4
    assert compute_regret(RELAX_INSTANCE.grid, res.contract) <= regret_bound(
        RELAX_INSTANCE.grid, 1e-4
    )


def test_relaxed_schedule_solves_its_warm_start_once(monkeypatch):
    calls = []
    exact_allocation = solver._exact_allocation

    def counted(instance, coef, w):
        calls.append(instance)
        return exact_allocation(instance, coef, w)

    monkeypatch.setattr(solver, "_exact_allocation", counted)
    relaxed_schedule(RELAX_INSTANCE, epsilons=(1e-2, 1e-4, 1e-6))
    assert calls == [RELAX_INSTANCE]


def test_exact_solver_with_zero_weight_items():
    inst = one_client_instance([1.0, 2.0], [4.0], [[1.0, 0.0]], alpha=3.0)
    res = solve_multi_reduced(inst)
    report = check_theorem1(inst.grid, res.contract, tol=1e-8)
    assert report.feasible
    # only the weighted type matters for the objective
    assert res.expected_utility == pytest.approx(
        provider_expected_utility(inst, res.contract)
    )
