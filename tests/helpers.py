"""Shared random generators and reference implementations for the test suite."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from buyback import (
    OPT_OUT,
    AggregateWeights,
    ClientDistribution,
    Contract,
    MarketInstance,
    TypeGrid,
    ValidationError,
    optimal_payment_multi,
)
from buyback.cli import _number
from buyback.feasibility import _truthful_utilities
from buyback.model import check_shapes, provider_expected_utility
from buyback.simulation import (
    _TIE_MODES,
    CHOICE_TOL,
    TIE_TRUTHFUL_FIRST,
    SimulationSummary,
    _choice_tables,
)
from buyback.solver import (
    MAX_CANDIDATES,
    CandidateCountError,
    SolveMethod,
    SolveResult,
    _best_by_key,
    _expected_supply,
    _menu_columns,
    _oracle_axis,
    _reduced_coefficients,
)


def random_grid(rng, max_k=3, max_l=3, integer=False, k=None, l=None) -> TypeGrid:
    K = int(k) if k is not None else int(rng.integers(1, max_k + 1))
    L = int(l) if l is not None else int(rng.integers(1, max_l + 1))
    if integer:
        vals = np.sort(rng.choice(np.arange(1, 7), size=K, replace=False)).astype(float)
        caps = np.sort(rng.choice(np.arange(1, 5), size=L, replace=False)).astype(float)
    else:
        vals = rng.uniform(0.2, 1.0) + np.cumsum(rng.uniform(0.3, 2.0, K))
        caps = rng.uniform(0.5, 2.0) + np.cumsum(rng.uniform(0.5, 3.0, L))
    return TypeGrid(vals, caps)


def random_clients(rng, grid: TypeGrid, n: int) -> tuple[ClientDistribution, ...]:
    L, K = grid.num_capacities, grid.num_valuations
    out = []
    for _ in range(n):
        raw = rng.random((L, K)) ** 2 + 1e-3
        out.append(ClientDistribution(raw / raw.sum()))
    return tuple(out)


def point_mass_clients(rng, grid: TypeGrid, n: int) -> tuple[ClientDistribution, ...]:
    L, K = grid.num_capacities, grid.num_valuations
    out = []
    for _ in range(n):
        probs = np.zeros((L, K))
        probs[rng.integers(L), rng.integers(K)] = 1.0
        out.append(ClientDistribution(probs))
    return tuple(out)


def random_instance(
    rng,
    max_k=3,
    max_l=3,
    max_n=3,
    integer=False,
    k=None,
    l=None,
    point_mass=False,
) -> MarketInstance:
    grid = random_grid(rng, max_k=max_k, max_l=max_l, integer=integer, k=k, l=l)
    n = int(rng.integers(1, max_n + 1))
    clients = (
        point_mass_clients(rng, grid, n) if point_mass else random_clients(rng, grid, n)
    )
    if integer:
        alpha = float(rng.integers(1, 7))
        penalty = float(rng.integers(0, 4))
    else:
        alpha = float(rng.uniform(0.5 * grid.valuations[0], 1.5 * grid.valuations[-1]))
        penalty = float(rng.uniform(0.0, 4.0))
    demand_floor = 0.0
    if rng.random() < 0.7:
        demand_floor = float(rng.uniform(0.0, 1.2 * n * grid.capacities[-1]))
        if integer:
            demand_floor = round(demand_floor, 1)
    return MarketInstance(
        grid=grid, clients=clients, alpha=alpha, penalty=penalty, demand_floor=demand_floor
    )


def random_monotone_y(rng, grid: TypeGrid, min_bottom: float = 0.0) -> np.ndarray:
    """Non-increasing y vector in [min_bottom, c_max], with structural atoms."""
    K = grid.num_valuations
    cmax = float(grid.capacities[-1])
    y = rng.uniform(min_bottom, cmax, K)
    atoms = np.concatenate([grid.capacities, [cmax]])
    for i in range(K):
        if rng.random() < 0.3:
            y[i] = max(min_bottom, float(rng.choice(atoms)))
    return np.sort(y)[::-1]


def greedy_allocation(grid: TypeGrid, y: np.ndarray) -> np.ndarray:
    return np.minimum(grid.capacities[None, :], np.asarray(y, dtype=float)[:, None])


def random_feasible_contract(
    rng, grid: TypeGrid, min_bottom: float = 0.0, pay_shift: bool = False
) -> Contract:
    """Feasible + greedy allocation priced with the optimal payments.

    With ``pay_shift`` a constant is sometimes added to every payment, which
    preserves both IC inequalities (differences are unchanged) and IR.
    """
    x = greedy_allocation(grid, random_monotone_y(rng, grid, min_bottom))
    p = optimal_payment_multi(grid, x)
    if pay_shift and rng.random() < 0.3:
        p = p + rng.uniform(0.0, 1.0)
    return Contract(x, p)


def linear_penalty_regime(rng, instance: MarketInstance, contract: Contract) -> MarketInstance:
    """Same market, demand floor moved where the penalty is linear in supply.

    The analytic expected utility applies min{0, .} to the *expected* supply;
    the mean realized utility averages the min.  The two coincide only when
    the min is linear over the whole realized-supply range: no penalty, a
    zero floor, or a floor above the largest possible supply.
    """
    mode = int(rng.integers(3))
    if mode == 0:
        penalty, demand = 0.0, instance.demand_floor
    elif mode == 1:
        penalty, demand = instance.penalty, 0.0
    else:
        penalty = instance.penalty
        demand = instance.num_clients * float(np.max(contract.allocation)) * 1.05 + 1.0
    return MarketInstance(
        instance.grid, instance.clients, instance.alpha, penalty, demand
    )


def satisfies_greedy_and_feasible(x, caps) -> bool:
    """Resource feasibility plus both resource-greedy clauses, by definition."""
    K, L = x.shape
    for k in range(K):
        for lo in range(L):
            if x[k, lo] > caps[lo]:
                return False
            for hi in range(lo + 1, L):
                if x[k, hi] < x[k, lo]:
                    return False
                if x[k, hi] > x[k, lo] and x[k, lo] != caps[lo]:
                    return False
    return True


def representable_as_min_form(x, caps) -> bool:
    """Whether each row equals min(caps, y) for some scalar y (y = last entry)."""
    K, L = x.shape
    for k in range(K):
        y = x[k, L - 1]
        if any(x[k, l] != min(caps[l], y) for l in range(L)):
            return False
    return True


def perturb_contract(rng, grid: TypeGrid, contract: Contract) -> Contract:
    """One random structured perturbation of a payment or allocation entry."""
    K, L = contract.shape
    x = contract.allocation.copy()
    p = contract.payment.copy()
    k = int(rng.integers(K))
    l = int(rng.integers(L))
    delta = float(rng.uniform(0.05, 0.5))
    kind = rng.choice(["pay_up", "pay_down", "alloc_down", "alloc_up"])
    if kind == "pay_up":
        p[k, l] += delta
    elif kind == "pay_down":
        p[k, l] = max(0.0, p[k, l] - delta)
    elif kind == "alloc_down":
        x[k, l] = max(0.0, x[k, l] - delta)
    else:
        cap = float(grid.capacities[l])
        if K == 1:
            x[k, l] = min(cap, x[k, l] + delta)  # stay within capacity
        else:
            x[k, l] += delta
    return Contract(x, p)


def random_menu(rng, grid: TypeGrid, kind: str) -> Contract:
    """A contract of one of four kinds, for the best-response and regret checks.

    ``feasible`` and ``perturbed`` are priced greedy menus (the second with
    one entry moved); ``integer`` draws small integers, so many items tie;
    ``unaffordable`` puts every item above the smallest capacity, so a type
    with that capacity can only opt out.
    """
    K, L = grid.num_valuations, grid.num_capacities
    if kind in ("feasible", "perturbed"):
        contract = random_feasible_contract(rng, grid, pay_shift=True)
        return perturb_contract(rng, grid, contract) if kind == "perturbed" else contract
    if kind == "integer":
        top = int(grid.capacities[-1]) + 2
        return Contract(rng.integers(0, top, (K, L)), rng.integers(0, 2 * top, (K, L)))
    x = float(grid.capacities[0]) + rng.uniform(0.01, float(grid.capacities[-1]), (K, L))
    return Contract(x, rng.uniform(0.0, 2.0 * float(np.max(x)), (K, L)))


def best_response_reference(
    grid: TypeGrid,
    contract: Contract,
    true_type: tuple[int, int],
    tie_break: str = TIE_TRUTHFUL_FIRST,
    tol: float = CHOICE_TOL,
) -> tuple[int, int] | None:
    """Per-type best response written out on its own (one type at a time).

    Only items whose repurchase amount fits the client's capacity are
    selectable; opting out is always available and worth 0.  Ties within
    ``tol`` go to the truthful item first (then the lexicographically lowest
    item) in ``truthful_first`` mode, or to the highest-payment item in
    ``max_payment`` mode.  A client indifferent between signing and opting
    out signs.
    """
    check_shapes(grid, contract)
    if tie_break not in _TIE_MODES:
        raise ValidationError(f"tie_break must be one of {_TIE_MODES}")
    k, l = true_type
    grid.check_item(k, l)
    cap = float(grid.capacities[l])
    x, p = contract.allocation, contract.payment
    utilities = p - grid.valuations[k] * x
    admissible = x <= cap  # hard restriction, no tolerance

    if np.any(admissible):
        item_best = float(np.max(utilities[admissible]))
    else:
        item_best = -math.inf
    best = max(item_best, 0.0)
    tied = admissible & (utilities >= best - tol)
    if not np.any(tied):
        return OPT_OUT
    if tie_break == TIE_TRUTHFUL_FIRST:
        if tied[k, l]:
            return (k, l)
        k2, l2 = np.argwhere(tied)[0]  # lexicographically lowest (k, l)
        return (int(k2), int(l2))
    pay = np.where(tied, p, -math.inf)
    k2, l2 = np.argwhere(pay == pay.max())[0]
    return (int(k2), int(l2))


def regret_bruteforce(grid: TypeGrid, contract: Contract, types=None) -> float:
    """Largest gain from an affordable misreport, by plain loops.

    ``types`` restricts the true types to these l-major flat indices
    (l * K + k); by default every type counts.  Floored at zero.
    """
    x, p, v, c = contract.allocation, contract.payment, grid.valuations, grid.capacities
    K, L = x.shape
    flat = range(K * L) if types is None else sorted({int(t) for t in np.ravel(types)})
    regret = 0.0
    for t in flat:
        l, k = divmod(t, K)
        truthful = p[k, l] - v[k] * x[k, l]
        for k2 in range(K):
            for l2 in range(L):
                if x[k2, l2] <= c[l]:
                    regret = max(regret, float((p[k2, l2] - v[k] * x[k2, l2]) - truthful))
    return regret


_EVAL_CHUNK = 1 << 18


def _nonincreasing_tuples(values: np.ndarray, count: int):
    """All non-increasing ``count``-tuples drawn from ``values`` (ascending)."""
    if count == 0:
        yield ()
        return
    for combo in itertools.combinations_with_replacement(values[::-1], count):
        yield combo


def _grid_candidates(grid_values: np.ndarray, K: int):
    for combo in itertools.combinations_with_replacement(grid_values[::-1], K):
        yield np.array(combo)


def _crossing_candidates(
    grid_values: np.ndarray,
    caps: np.ndarray,
    w: np.ndarray,
    demand_floor: float,
) -> list[np.ndarray]:
    """Vertices where a block of equal y-coordinates sits on supply == D.

    For each consecutive block [a..b], each capacity segment, and each grid
    assignment of the remaining coordinates, at most one block value makes
    the expected supply hit the demand floor; that value is a candidate.
    """
    K = w.shape[1]
    L = caps.size
    ngrid = grid_values.size  # == L + 1, grid_values[m] == c^m with c^0 = 0
    # H[j, gi] = expected supply contribution of coordinate j held at grid value gi
    H = w.T @ np.minimum(caps[:, None], grid_values[None, :])
    out: list[np.ndarray] = []
    for a in range(K):
        for b in range(a, K):
            block = slice(a, b + 1)
            for m in range(L):
                slope = float(np.sum(w[m:, block]))
                if slope <= 0.0:
                    continue
                const = float(np.sum(w[:m, block] * caps[:m, None]))
                lo_val, hi_val = grid_values[m], grid_values[m + 1]
                for prefix in _nonincreasing_tuples(grid_values[m + 1 :], a):
                    rest_prefix = sum(
                        H[j, m + 1 + int(np.searchsorted(grid_values[m + 1 :], prefix[j]))]
                        for j in range(a)
                    )
                    for suffix in _nonincreasing_tuples(grid_values[: m + 1], K - 1 - b):
                        rest = rest_prefix + sum(
                            H[b + 1 + j, int(np.searchsorted(grid_values, suffix[j]))]
                            for j in range(K - 1 - b)
                        )
                        theta = (demand_floor - rest - const) / slope
                        if lo_val - 1e-12 <= theta <= hi_val + 1e-12:
                            theta = min(max(theta, lo_val), hi_val)
                            y = np.empty(K)
                            y[:a] = prefix
                            y[block] = theta
                            y[b + 1 :] = suffix
                            out.append(y)
    return out


def _count_grid_candidates(K: int, L: int) -> int:
    return math.comb(K + L, K)


def _count_crossing_loops(K: int, L: int) -> int:
    """Innermost iterations of ``_crossing_candidates``, from its loop bounds."""
    return sum(
        math.comb(L - m + a - 1, a) * math.comb(m + K - 1 - b, K - 1 - b)
        for a in range(K)
        for b in range(a, K)
        for m in range(L)
    )


def solve_reduced_enumeration(instance: MarketInstance) -> SolveResult:
    """``solve_multi_reduced`` by enumerating every reduced vertex.

    Every non-increasing tuple of grid levels, plus every demand-floor
    crossing (a block of equal coordinates at the value that puts the
    expected supply on the floor, for every grid assignment of the other
    coordinates), evaluated in chunks and ranked by objective, then supply,
    then the lexicographically larger y.  The reference the exact solver
    is compared against bitwise.
    """
    method = SolveMethod.MULTI_REDUCED_EXACT
    grid = instance.grid
    K, L = grid.num_valuations, grid.num_capacities
    caps = grid.capacities
    coef, w = _reduced_coefficients(instance)
    M, D = instance.penalty, instance.demand_floor

    n_grid = _count_grid_candidates(K, L)
    if n_grid > MAX_CANDIDATES:
        raise CandidateCountError(
            f"exact enumeration needs {n_grid} grid candidates (limit {MAX_CANDIDATES})"
        )
    n_trials = _count_crossing_loops(K, L) if M > 0.0 and D > 0.0 else 0
    if n_grid + n_trials > MAX_CANDIDATES:
        raise CandidateCountError(
            f"exact enumeration needs {n_grid} grid candidates and {n_trials} "
            f"crossing trials (limit {MAX_CANDIDATES})"
        )
    grid_values = np.concatenate([[0.0], caps])
    candidates = list(_grid_candidates(grid_values, K))
    n_cross = 0
    if M > 0.0 and D > 0.0:
        crossings = _crossing_candidates(grid_values, caps, w, D)
        n_cross = len(crossings)
        candidates.extend(crossings)

    best_idx_key = None
    best_y = None
    Y_all = np.array(candidates)
    for start in range(0, Y_all.shape[0], _EVAL_CHUNK):
        Y = Y_all[start : start + _EVAL_CHUNK]
        X = np.minimum(caps[None, None, :], Y[:, :, None])
        lin = np.einsum("ckl,kl->c", X, coef)
        supply = np.einsum("ckl,lk->c", X, w)
        obj = lin + M * np.minimum(0.0, supply - D)
        i, key = _best_by_key(Y, obj, supply)
        if best_idx_key is None or key > best_idx_key:
            best_idx_key = key
            best_y = Y[i]

    x = np.minimum(caps[None, :], best_y[:, None])
    contract = Contract(x, optimal_payment_multi(grid, x))
    supply = _expected_supply(w, x)
    return SolveResult(
        contract=contract,
        expected_utility=provider_expected_utility(instance, contract),
        method=method,
        epsilon=0.0,
        aux_t=min(0.0, supply - D),
        diagnostics={
            "candidates": len(candidates),
            "grid_candidates": n_grid,
            "crossing_candidates": n_cross,
        },
    )


# ---------------------------------------------------------------------------
# Loop and whole-array references for the vectorised market paths: the
# sampler, the streamed simulation, the decomposed audit margins and matrix
# parsing.  The library must match each bit for bit.


def sample_type_indices_reference(instance: MarketInstance, config) -> np.ndarray:
    """(replications, n) flat type indices, l-major, drawn per client."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    R, n = config.replications, instance.num_clients
    u = rng.random((R, n))
    types = np.empty((R, n), dtype=np.intp)
    n_types = instance.grid.num_valuations * instance.grid.num_capacities
    for i, client in enumerate(instance.clients):
        cum = np.cumsum(client.probs.ravel())
        types[:, i] = np.minimum(np.searchsorted(cum, u[:, i], side="right"), n_types - 1)
    return types


def simulate_reference(
    instance: MarketInstance, contract: Contract, config
) -> SimulationSummary:
    """The simulation with all (replications, n) cells drawn at once."""
    check_shapes(instance.grid, contract)
    K, L = instance.grid.num_valuations, instance.grid.num_capacities
    types = sample_type_indices_reference(instance, config)
    chosen_x, chosen_p, codes = _choice_tables(instance, contract, config.tie_break)

    xs = chosen_x[types]  # (R, n)
    ps = chosen_p[types]
    total_x = xs.sum(axis=1)
    total_p = ps.sum(axis=1)
    shortfall = np.minimum(0.0, total_x - instance.demand_floor)
    utility = instance.alpha * total_x - total_p + instance.penalty * shortfall

    R = config.replications
    mean = float(utility.mean())
    std_error = float(utility.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    counts = np.bincount(codes[types].ravel() + 1, minlength=K * L + 1)
    return SimulationSummary(
        mean_utility=mean,
        std_error=std_error,
        mean_total_repurchase=float(total_x.mean()),
        shortfall_frequency=float(np.mean(total_x < instance.demand_floor)),
        item_counts=counts[1:].reshape(K, L),
        opt_out_count=int(counts[0]),
        replications=R,
    )


def greedy_margins_reference(
    grid: TypeGrid, contract: Contract, tol: float
) -> tuple[float, float]:
    x = contract.allocation
    c = grid.capacities
    L = grid.num_capacities
    monotone = 0.0
    maximal = 0.0
    for lo in range(L):
        for hi in range(lo + 1, L):
            diff = x[:, lo] - x[:, hi]  # positive where the bigger capacity gets less
            monotone = max(monotone, float(np.max(diff)))
            strictly_more = x[:, hi] > x[:, lo] + tol
            if np.any(strictly_more):
                gap = np.abs(x[strictly_more, lo] - c[lo])
                maximal = max(maximal, float(np.max(gap)))
    return monotone, maximal


def squeeze_margin_reference(grid: TypeGrid, contract: Contract) -> float:
    # P3: v[p]*(x[p]-x[q]) <= p[p]-p[q] <= v[q]*(x[p]-x[q]) for p < q, columnwise.
    x, p, v = contract.allocation, contract.payment, grid.valuations
    worst = math.inf
    K = grid.num_valuations
    for a in range(K):
        for b in range(a + 1, K):
            dx = x[a, :] - x[b, :]
            dp = p[a, :] - p[b, :]
            worst = min(worst, float(np.min(dp - v[a] * dx)), float(np.min(v[b] * dx - dp)))
    return 0.0 if worst is math.inf else worst


def ic_valuation_margin_reference(grid: TypeGrid, contract: Contract) -> float:
    # Truthful utility beats every same-column item, for every valuation.
    x, p = contract.allocation, contract.payment
    v = grid.valuations
    truth = _truthful_utilities(grid, contract)
    # dev[k, k2, l] = p[k2, l] - v[k] * x[k2, l]
    dev = p[None, :, :] - v[:, None, None] * x[None, :, :]
    slack = truth[:, None, :] - dev  # over deviations k2
    return float(np.min(slack))


def ic_capacity_margin_reference(grid: TypeGrid, contract: Contract, tol: float) -> float:
    # Truthful utility beats every affordable same-valuation item.
    x = contract.allocation
    truth = _truthful_utilities(grid, contract)
    worst = math.inf
    for l in range(grid.num_capacities):
        cap = grid.capacities[l]
        admissible = x <= cap + tol  # (K, L) items affordable at capacity l
        for l2 in range(grid.num_capacities):
            rows = admissible[:, l2]
            if not np.any(rows):
                continue
            slack = truth[rows, l] - truth[rows, l2]
            worst = min(worst, float(np.min(slack)))
    return 0.0 if worst is math.inf else worst


def matrix_reference(value, key: str, rows: int, cols: int) -> np.ndarray:
    """The CLI's matrix parsing, one checked entry at a time."""
    if not isinstance(value, list) or len(value) != rows:
        raise ValidationError(f"'{key}' must be a matrix with {rows} rows")
    out = np.empty((rows, cols))
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"'{key}' row {r} must hold {cols} numbers")
        out[r] = [_number(entry, f"{key}[{r}][{c}]") for c, entry in enumerate(row)]
    return out


# ---------------------------------------------------------------------------
# The brute-force oracle as first written: every lattice point is priced and
# scored by ``_menu_columns`` in chunks.  The library's table-and-walk oracle
# must match it bit for bit, except where two menus' objectives tie exactly
# (``exact_objective``) and rounding orders them differently.


def _monotone_chunks(axis: np.ndarray, K: int, chunk: int = _EVAL_CHUNK):
    B = axis.size
    if K == 1:
        for start in range(0, B, chunk):
            yield axis[start : start + chunk, None]
        return
    if K == 2:
        # pairs (axis[i], axis[j <= i]), emitted in blocks of whole i-rows
        i = 0
        while i < B:
            j = i
            total = 0
            while j < B and (total == 0 or total + j + 1 <= chunk):
                total += j + 1
                j += 1
            counts = np.arange(i + 1, j + 1)
            first = np.repeat(axis[i:j], counts)
            second = np.concatenate([axis[:c] for c in counts])
            yield np.column_stack([first, second])
            i = j
        return
    batch: list[tuple] = []
    for combo in itertools.combinations_with_replacement(axis[::-1], K):
        batch.append(combo)
        if len(batch) >= chunk:
            yield np.array(batch)
            batch = []
    if batch:
        yield np.array(batch)


def oracle_grid_search_reference(instance: MarketInstance, grid_step: float) -> SolveResult:
    """``oracle_grid_search`` as first written, the reference it must match.

    Brute-force maximizer of the expected utility over lattice allocations.
    Enumerates every monotone reduced allocation with y-values on the lattice
    {0, grid_step, 2*grid_step, ...} plus the capacities and the supply/demand
    crossing values, prices each with the optimal payments evaluated in closed
    form, and keeps the best by direct expected-utility evaluation.  Raises
    CandidateCountError when the lattice would exceed the candidate budget.
    """
    if grid_step <= 0.0:
        raise ValidationError(f"grid_step = {grid_step} must be positive")
    grid = instance.grid
    K = grid.num_valuations
    caps = grid.capacities
    v = grid.valuations
    w = AggregateWeights.from_instance(instance).weights
    alpha, M, D = instance.alpha, instance.penalty, instance.demand_floor

    axis = _oracle_axis(instance, grid_step, w)
    count = math.comb(axis.size + K - 1, K)
    if count > MAX_CANDIDATES:
        raise CandidateCountError(
            f"oracle lattice has {count} candidates (limit {MAX_CANDIDATES}); "
            f"increase grid_step"
        )

    best_key = None
    best_y = None
    for Y in _monotone_chunks(axis, K):
        X, P = _menu_columns(Y, caps, v)
        util = np.zeros(Y.shape[0])
        supply = np.zeros(Y.shape[0])
        for k in range(K):
            util += (alpha * X[k] - P[k]) @ w[:, k]
            supply += X[k] @ w[:, k]
        util += M * np.minimum(0.0, supply - D)
        i, key = _best_by_key(Y, util, supply)
        if best_key is None or key > best_key:
            best_key = key
            best_y = Y[i]

    X, P = _menu_columns(best_y[None, :], caps, v)
    x = np.vstack([col[0] for col in X])
    p = np.vstack([col[0] for col in P])
    contract = Contract(x, p)
    supply = _expected_supply(w, x)
    return SolveResult(
        contract=contract,
        expected_utility=provider_expected_utility(instance, contract),
        method=SolveMethod.ORACLE,
        epsilon=0.0,
        aux_t=min(0.0, supply - D),
        diagnostics={"candidates": count, "axis_size": int(axis.size)},
    )


def exact_objective(instance: MarketInstance, y) -> tuple[Fraction, Fraction]:
    """Objective and expected supply of the menu min(c, y) in rational arithmetic.

    The closed-form payments and the penalty evaluated on the exact values of
    the float inputs, so two menus tie here exactly when they tie before
    rounding.
    """
    v = [Fraction(a) for a in instance.grid.valuations.tolist()]
    caps = [Fraction(c) for c in instance.grid.capacities.tolist()]
    w = AggregateWeights.from_instance(instance).weights.tolist()  # (L, K)
    K = len(v)
    alpha, M, D = (Fraction(a) for a in (instance.alpha, instance.penalty, instance.demand_floor))
    util = supply = Fraction(0)
    for l, cap in enumerate(caps):
        x = [min(cap, Fraction(float(yk))) for yk in y]
        for k in range(K):
            p = v[-1] * x[-1] - sum(v[j] * (x[j + 1] - x[j]) for j in range(k, K - 1))
            util += (alpha * x[k] - p) * Fraction(w[l][k])
            supply += x[k] * Fraction(w[l][k])
    return util + M * min(Fraction(0), supply - D), supply
