"""Optimal-allocation solvers for the repurchasing program.

With the optimal payments substituted, the provider's expected utility is
linear in the allocation entries,

    coef[k, l] = w[l, k] * (alpha - v[k]) - (sum_{j < k} w[l, j]) * (v[k] - v[k-1]),

plus the penalty term M * min(0, expected supply - D).  An allocation is
feasible, non-increasing in valuation per column and resource greedy across
capacities exactly when it has the reduced form x[k, l] = min(c[l], y[k])
with c_max >= y[0] >= ... >= y[K-1] >= 0.  In that parameterization the
objective is piecewise linear with kinks only at the capacities and at the
supply-equals-demand-floor hyperplane, so its exact maximum sits at a vertex:
every y[k] at a grid level in {0, c[1], ..., c[L]} except at most one
consecutive block pinned by the demand-floor crossing.  The exact solvers
find the best vertex without listing them: the objective is a sum of per-row
terms over non-increasing levels, so a DP over rows and levels keeps, per
(row, level), the single best suffix when M * D = 0, and otherwise the
Pareto front of (linear objective, supply) pairs, from which the best
crossing of every block is paired up.  The few survivors are ranked by the
full objective.

Three solving routes live here:

* ``solve_single_capacity`` / ``solve_multi_reduced`` — exact, via the
  reduced-form DP above (epsilon = 0, complementarity exact);
* ``solve_multi_relaxed`` — multi-start projected pattern search over the
  full K*L allocation with the bilinear greediness constraint relaxed to
  (x[k,l'] - x[k,l]) * (c[l] - x[k,l]) <= epsilon for all ordered pairs;
* ``oracle_grid_search`` — an independent brute force over a fine lattice of
  reduced allocations, evaluating payments and expected utility from their
  definitions rather than through the coefficient form.  The closed-form
  payments are linear in the allocation, so it prices each row alone once
  per lattice value (per-row tables of utility and supply) and scores every
  monotone lattice point as a sum of table entries, in one walk over the
  top row's index that pairs it with every non-increasing tail of the rows
  below.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    AggregateWeights,
    Contract,
    MarketInstance,
    ValidationError,
    provider_expected_utility,
)
from .payments import column_payments, optimal_payment_multi

#: Hard cap on the oracle's lattice size and on the exact DP's front points
#: plus crossing pairs.
MAX_CANDIDATES = 10_000_000

#: Menus per block when the oracle builds its row tables, and top indices per
#: block of its lattice walk: with K = 1 the lattice is the axis itself.
_ORACLE_BLOCK = 1 << 18


class CandidateCountError(ValidationError):
    """The requested search would exceed the candidate budget."""


class SolveMethod(str, enum.Enum):
    SINGLE_EXACT = "single_exact"
    MULTI_REDUCED_EXACT = "multi_reduced_exact"
    MULTI_RELAXED = "multi_relaxed"
    ORACLE = "oracle"


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A solver's contract plus bookkeeping.

    ``expected_utility`` re-evaluates the returned contract under the
    instance; ``aux_t`` is the linearization variable min(0, supply - D);
    ``epsilon`` is 0 for exact methods.  ``diagnostics`` carries counts:
    candidates re-scored, DP front points and crossing pairs for the exact
    methods, starts and iterations for the relaxed one.
    """

    contract: Contract
    expected_utility: float
    method: SolveMethod
    epsilon: float
    aux_t: float
    diagnostics: dict


def _reduced_coefficients(instance: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    """Objective coefficients (K, L) of each allocation entry, and weights (L, K)."""
    w = AggregateWeights.from_instance(instance).weights
    v = instance.grid.valuations
    wT = w.T.copy()  # (K, L)
    coef = wT * (instance.alpha - v[:, None])
    if v.size > 1:
        below = np.cumsum(wT, axis=0)[:-1, :]  # mass at valuations <= k-1
        coef[1:, :] -= below * np.diff(v)[:, None]
    return coef, w


def _expected_supply(w: np.ndarray, allocation: np.ndarray) -> float:
    return float(np.einsum("kl,lk->", allocation, w))


def _best_by_key(candidates: np.ndarray, objective: np.ndarray, supply: np.ndarray):
    """Index of the best candidate: objective, then supply, then lex-larger y."""
    top = np.flatnonzero(objective == objective.max())
    if top.size > 1:
        s = supply[top]
        top = top[s == s.max()]
    if top.size > 1:
        top = [max(top, key=lambda i: tuple(candidates[i]))]
    i = int(top[0])
    return i, (float(objective[i]), float(supply[i]), tuple(candidates[i]))


def _best_levels(gain: np.ndarray, mass: np.ndarray) -> tuple:
    """The non-increasing level tuple ranked first by (gain, mass, levels).

    Suffix DP over rows: ``best[j]`` is the top-ranked tuple for rows k..K-1
    whose first level is <= j.  Python tuples compare in exactly that order.
    """
    best = [(0.0, 0.0, ())] * gain.shape[1]
    for g_row, s_row in zip(gain.tolist()[::-1], mass.tolist()[::-1]):
        row = []
        for j, (g, s, levels) in enumerate(best):
            here = (g_row[j] + g, s_row[j] + s, (j, *levels))
            row.append(max(row[-1], here) if row else here)
        best = row
    return best[-1][2]


def _pareto_front(g: np.ndarray, s: np.ndarray, levels: np.ndarray):
    """The (g, s) Pareto front of a candidate set, best g first.

    Rows rank by g, then s, then the lexicographically larger level tuple,
    and a row stays when its s beats every higher-ranked row's.
    """
    order = np.lexsort(np.vstack([-levels[:, ::-1].T, -s, -g]))
    ranked = s[order]
    order = order[np.concatenate([[True], ranked[1:] > np.maximum.accumulate(ranked)[:-1]])]
    return g[order], s[order], levels[order]


def _level_fronts(gain, mass, rows, suffix: bool, points: int):
    """Pareto fronts of partial level tuples, per rows taken and level bound.

    Rows are added in the order of ``rows``.  With ``suffix`` each row's
    level is prepended and ``out[n][j]`` holds tuples whose first level is
    <= j; otherwise it is appended and ``out[n][j]`` holds tuples whose last
    level is >= j (j >= 1).  A point is (sum of gain, sum of mass, levels).
    ``points`` counts on from the given total; CandidateCountError is raised
    once it passes MAX_CANDIDATES.
    """
    width = gain.shape[1]
    empty = np.zeros((1, 0), dtype=np.min_scalar_type(-width))
    out = [[(np.zeros(1), np.zeros(1), empty)] * width]
    for k in rows:
        row = [None] * width
        for j in range(width) if suffix else range(width - 1, 0, -1):
            g, s, lev = out[-1][j]
            col = np.full((len(g), 1), j, dtype=lev.dtype)
            stacked = np.hstack([col, lev] if suffix else [lev, col])
            here = (g + gain[k, j], s + mass[k, j], stacked)
            merged = row[j - 1] if suffix else row[j + 1] if j + 1 < width else None
            if merged is not None:
                here = tuple(np.concatenate(pair) for pair in zip(merged, here))
            row[j] = _pareto_front(*here)
            points += len(row[j][0])
            if points > MAX_CANDIDATES:
                raise CandidateCountError(
                    f"exact solve needs more than {MAX_CANDIDATES} front points"
                )
        out.append(row)
    return out, points


def _penalty_candidates(gain, mass, coef, w, caps, G, X, D):
    """Grid vertices and demand-floor crossings that can win when M * D > 0.

    The objective lin + M * min(0, supply - D) grows with both lin and
    supply, so a winning grid tuple, and either side of a winning crossing,
    is on its (lin, supply) Pareto front.  A crossing holds the block
    [a..b] at theta in capacity segment m: the rows before it sit at levels
    >= m+1 and the rows after it at levels <= m, so any prefix pairs with
    any suffix, theta follows from supply == D, and the objective there is
    lin.  Per (a, b, m) the best pair with theta in the segment is kept.
    """
    K, L = coef.shape
    suffix, points = _level_fronts(gain, mass, range(K - 1, -1, -1), True, 0)
    suffix.reverse()  # suffix[k][j]: rows k..K-1, level of row k <= j
    prefix, points = _level_fronts(gain, mass, range(K - 1), False, points)
    # prefix[a][j]: rows 0..a-1, level of row a-1 >= j

    blocks = []
    pairs = 0
    for a in range(K):
        for b in range(a, K):
            for m in range(L):
                slope = float(np.sum(w[m:, a : b + 1]))
                if slope > 0.0:
                    blocks.append((a, b, m, slope))
                    pairs += len(prefix[a][m + 1][0]) * len(suffix[b + 1][m][0])
    if points + pairs > MAX_CANDIDATES:
        raise CandidateCountError(
            f"exact solve needs {points} front points and {pairs} crossing pairs "
            f"(limit {MAX_CANDIDATES})"
        )

    H = w.T @ X  # supplies as the reference enumeration in tests sums them: equal bits
    crossings = []
    for a, b, m, slope in blocks:
        const = float(np.sum(w[:m, a : b + 1] * caps[:m, None]))
        gP, sP, levP = prefix[a][m + 1]
        gQ, sQ, levQ = suffix[b + 1][m]
        # fronts run in increasing s, and theta falls as s rises
        if (D - (sP[0] + sQ[0]) - const) / slope < G[m] - 1e-12:
            continue
        if (D - (sP[-1] + sQ[-1]) - const) / slope > G[m + 1] + 1e-12:
            continue
        theta = (D - (sP[:, None] + sQ[None, :]) - const) / slope
        inside = (theta >= G[m] - 1e-12) & (theta <= G[m + 1] + 1e-12)
        if not inside.any():
            continue
        value = gP[:, None] + gQ[None, :] + float(np.sum(coef[a : b + 1, m:])) * theta
        i, q = np.unravel_index(np.argmax(np.where(inside, value, -np.inf)), value.shape)
        # theta again, the supply summed row by row in y order, so a
        # crossing's coordinates do not depend on how the fronts were built
        rest = sum(H[j, levP[i, j]] for j in range(a))
        rest = rest + sum(H[b + 1 + j, levQ[q, j]] for j in range(K - 1 - b))
        t = (D - rest - const) / slope
        if G[m] - 1e-12 <= t <= G[m + 1] + 1e-12:
            t = min(max(t, G[m]), G[m + 1])
            crossings.append(np.concatenate([G[levP[i]], np.full(b - a + 1, t), G[levQ[q]]]))
    return suffix[0][L][2], crossings, points, pairs


def _solve_exact(instance: MarketInstance, method: SolveMethod) -> SolveResult:
    grid = instance.grid
    K, L = grid.num_valuations, grid.num_capacities
    caps = grid.capacities
    coef, w = _reduced_coefficients(instance)
    M, D = instance.penalty, instance.demand_floor

    G = np.concatenate([[0.0], caps])  # G[j]: the y-value of grid level j
    X = np.minimum(caps[:, None], G[None, :])  # X[l, j]: allocation at level j
    # gain[k, j] and mass[k, j]: linear objective and expected supply of row
    # k at level j, summed over capacities in one fixed order so that levels
    # differing only in zero-weight capacities tie exactly
    gain = np.sum(coef[:, :, None] * X, axis=1)
    mass = np.sum(w.T[:, :, None] * X, axis=1)
    if M > 0.0 and D > 0.0:
        grid_levels, crossings, points, pairs = _penalty_candidates(
            gain, mass, coef, w, caps, G, X, D
        )
    else:  # the objective is lin: one best suffix per (row, level) suffices
        grid_levels, crossings, points, pairs = [_best_levels(gain, mass)], [], K * (L + 1), 0

    # re-score the survivors together: objective, then supply, then lex-larger y
    Y = np.vstack([G[np.asarray(grid_levels, dtype=np.intp)], *crossings])
    Xc = np.minimum(caps[None, None, :], Y[:, :, None])
    lin = np.einsum("ckl,kl->c", Xc, coef)
    supply = np.einsum("ckl,lk->c", Xc, w)
    obj = lin + M * np.minimum(0.0, supply - D)
    best_y = Y[_best_by_key(Y, obj, supply)[0]]

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
            "candidates": len(Y),
            "grid_candidates": len(grid_levels),
            "crossing_candidates": len(crossings),
            "front_points": points,
            "crossing_pairs": pairs,
        },
    )


def solve_single_capacity(instance: MarketInstance) -> SolveResult:
    """Exact optimal contract when every client shares one capacity (L = 1)."""
    if instance.grid.num_capacities != 1:
        raise ValidationError(
            "solve_single_capacity requires L = 1; use solve_multi_reduced instead"
        )
    return _solve_exact(instance, SolveMethod.SINGLE_EXACT)


def solve_multi_reduced(instance: MarketInstance) -> SolveResult:
    """Exact optimal contract over reduced allocations min(capacity, y).

    A DP over rows and grid levels finds the best vertex; ties go to the
    larger supply, then the lexicographically larger y.  Raises
    CandidateCountError when its fronts and crossing pairs would exceed
    MAX_CANDIDATES.
    """
    return _solve_exact(instance, SolveMethod.MULTI_REDUCED_EXACT)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _pwl_crossing_values(seg_weights: np.ndarray, caps: np.ndarray, target: float) -> list[float]:
    """Solve sum_l W[l] * min(c[l], theta) == target for theta in [0, c_max]."""
    out: list[float] = []
    grid_values = np.concatenate([[0.0], caps])
    for m in range(caps.size):
        slope = float(np.sum(seg_weights[m:]))
        const = float(np.sum(seg_weights[:m] * caps[:m]))
        if slope <= 0.0:
            continue
        theta = (target - const) / slope
        if grid_values[m] <= theta <= grid_values[m + 1]:
            out.append(float(theta))
    return out


def _oracle_axis(instance: MarketInstance, grid_step: float, w: np.ndarray) -> np.ndarray:
    caps = instance.grid.capacities
    cmax = float(caps[-1])
    steps = np.arange(0.0, cmax + grid_step * 0.5, grid_step)
    values = [steps, caps]
    if instance.penalty > 0.0 and instance.demand_floor > 0.0:
        D = instance.demand_floor
        K = instance.grid.num_valuations
        full = w.T @ caps  # supply contribution of each coordinate at full recycling
        extra: list[float] = []
        extra += _pwl_crossing_values(np.sum(w, axis=1), caps, D)  # all coords equal
        for k in range(K):
            extra += _pwl_crossing_values(w[:, k], caps, D)  # others idle
            extra += _pwl_crossing_values(w[:, k], caps, D - (float(np.sum(full)) - full[k]))
        if extra:
            values.append(np.array(extra))
    axis = np.unique(np.concatenate(values))
    return axis[(axis >= 0.0) & (axis <= cmax + 1e-12)]


def _menu_columns(Y: np.ndarray, caps: np.ndarray, v: np.ndarray):
    """Per-valuation allocation and payment slices, shape (C, L) each.

    Payments follow the closed form p_k = v_K x_K - sum_{j>=k} v_j
    (x_{j+1} - x_j), accumulated as a suffix sum.
    """
    K = Y.shape[1]
    X = [np.minimum(caps[None, :], Y[:, k, None]) for k in range(K)]
    P = [None] * K
    P[K - 1] = v[K - 1] * X[K - 1]
    tail = 0.0
    for k in range(K - 2, -1, -1):
        tail = tail + v[k] * (X[k + 1] - X[k])
        P[k] = v[K - 1] * X[K - 1] - tail
    return X, P


def _row_tables(axis, caps, v, alpha, w):
    """util[k, i], supply[k, i]: the menu with row k at y = axis[i], the rest at 0."""
    K, B = v.size, axis.size
    one_row = (np.eye(K)[:, None, :] * axis[None, :, None]).reshape(K * B, K)
    util, supply = np.empty(K * B), np.empty(K * B)
    for start in range(0, K * B, _ORACLE_BLOCK):
        part = slice(start, start + _ORACLE_BLOCK)
        X, P = _menu_columns(one_row[part], caps, v)
        util[part] = sum((alpha * X[k] - P[k]) @ w[:, k] for k in range(K))
        supply[part] = sum(X[k] @ w[:, k] for k in range(K))
    return util.reshape(K, B), supply.reshape(K, B)


def _lattice_walk(util, supply, M, D) -> list[int]:
    """Axis indices of the best non-increasing tuple: objective, supply, lex-larger.

    Rows K-1..1 combine into every non-increasing index tail in lexicographic
    order, so the tails under top index i are the first counts[i].  When the
    counts are all equal (K = 1) top indices go _ORACLE_BLOCK at a time.
    """
    K, B = util.shape
    tail_u, tail_s, tail_idx = np.zeros(1), np.zeros(1), np.zeros((1, 0), dtype=np.intp)
    counts = np.ones(B, dtype=np.intp)  # counts[i]: tails with leading index <= i
    for k in range(K - 1, 0, -1):
        lead = np.repeat(np.arange(B), counts)
        pos = np.arange(lead.size) - np.repeat(np.cumsum(counts) - counts, counts)
        tail_u, tail_s = util[k, lead] + tail_u[pos], supply[k, lead] + tail_s[pos]
        tail_idx = np.column_stack([lead, tail_idx[pos]])
        counts = np.cumsum(counts)

    best = (-math.inf,)
    block = _ORACLE_BLOCK if counts[0] == counts[-1] else 1  # else every count differs
    for a in range(0, B, block):
        b, n = min(a + block, B), int(counts[a])
        s = supply[0, a:b, None] + tail_s[:n]
        obj = util[0, a:b, None] + tail_u[:n] + M * np.minimum(0.0, s - D)
        p, key = _best_by_key(np.arange(s.size)[:, None], obj.ravel(), s.ravel())
        best = max(best, (*key[:2], a + p // n, p % n))  # objective, supply, top index, tail
    return [best[2], *tail_idx[best[3]].tolist()]


def oracle_grid_search(instance: MarketInstance, grid_step: float) -> SolveResult:
    """Brute-force maximizer of the expected utility over lattice allocations.

    Enumerates every monotone reduced allocation with y-values on the lattice
    {0, grid_step, 2*grid_step, ...} plus the capacities and the supply/demand
    crossing values, prices each with the optimal payments evaluated in closed
    form, and keeps the best by direct expected-utility evaluation.  Those
    payments are linear in the allocation, so a menu's utility and supply are
    sums over its rows of one-row tables (``_row_tables``), scored in one walk
    over the top row's index (``_lattice_walk``).  Raises CandidateCountError
    when the lattice would exceed the candidate budget, before the axis is
    built when c_max / grid_step alone does.
    """
    if not math.isfinite(grid_step) or grid_step <= 0.0:
        raise ValidationError(f"grid_step = {grid_step} must be positive and finite")
    caps, v = instance.grid.capacities, instance.grid.valuations
    if MAX_CANDIDATES * grid_step <= caps[-1]:  # floor(c_max / step) + 1 axis steps alone
        raise CandidateCountError(
            f"oracle lattice at grid_step = {grid_step} has over {MAX_CANDIDATES} candidates"
        )
    w = AggregateWeights.from_instance(instance).weights
    axis = _oracle_axis(instance, grid_step, w)
    count = math.comb(axis.size + v.size - 1, v.size)
    if count > MAX_CANDIDATES:
        raise CandidateCountError(
            f"oracle lattice has {count} candidates (limit {MAX_CANDIDATES}); "
            f"increase grid_step"
        )

    util, supply = _row_tables(axis, caps, v, instance.alpha, w)
    best_y = axis[_lattice_walk(util, supply, instance.penalty, instance.demand_floor)]
    x, p = (np.vstack([col[0] for col in cols]) for cols in _menu_columns(best_y[None], caps, v))
    contract = Contract(x, p)
    supply = _expected_supply(w, x)
    return SolveResult(
        contract=contract,
        expected_utility=provider_expected_utility(instance, contract),
        method=SolveMethod.ORACLE,
        epsilon=0.0,
        aux_t=min(0.0, supply - instance.demand_floor),
        diagnostics={"candidates": count, "axis_size": int(axis.size)},
    )


# ---------------------------------------------------------------------------
# Relaxed multi-capacity solver
# ---------------------------------------------------------------------------


def _row_products_ok(row: list, caps: np.ndarray, epsilon: float) -> bool:
    L = len(row)
    for l1 in range(L - 1):
        slack = float(caps[l1]) - row[l1]
        for l2 in range(l1 + 1, L):
            if (row[l2] - row[l1]) * slack > epsilon:
                return False
    return True


def _pattern_search(
    x0: np.ndarray,
    coef: np.ndarray,
    w: np.ndarray,
    caps: np.ndarray,
    penalty: float,
    demand_floor: float,
    epsilon: float,
    max_iterations: int,
    min_step: float,
):
    """Feasible coordinate pattern search with step halving.

    Every iterate satisfies the ordering constraints by construction (moves
    are clipped into the box allowed by the neighbors) and the relaxed
    bilinear constraints by rejection.
    """
    K, L = x0.shape
    x = [[float(val) for val in row] for row in x0]
    coef_l = coef.tolist()
    wkl = w.T.tolist()  # wkl[k][l]
    caps_l = [float(c) for c in caps]

    lin = sum(coef_l[k][l] * x[k][l] for k in range(K) for l in range(L))
    supply = sum(wkl[k][l] * x[k][l] for k in range(K) for l in range(L))
    obj = lin + penalty * min(0.0, supply - demand_floor)

    step = caps_l[-1] / 4.0
    iters = 0
    while step >= min_step and iters < max_iterations:
        improved = False
        for k in range(K):
            for l in range(L):
                for delta in (step, -step):
                    iters += 1
                    old = x[k][l]
                    hi = caps_l[l]
                    if k > 0 and x[k - 1][l] < hi:
                        hi = x[k - 1][l]
                    if l + 1 < L and x[k][l + 1] < hi:
                        hi = x[k][l + 1]
                    lo = 0.0
                    if k + 1 < K and x[k + 1][l] > lo:
                        lo = x[k + 1][l]
                    if l > 0 and x[k][l - 1] > lo:
                        lo = x[k][l - 1]
                    cand = old + delta
                    if cand > hi:
                        cand = hi
                    elif cand < lo:
                        cand = lo
                    if cand == old:
                        continue
                    x[k][l] = cand
                    if not _row_products_ok(x[k], caps, epsilon):
                        x[k][l] = old
                        continue
                    d = cand - old
                    new_lin = lin + coef_l[k][l] * d
                    new_supply = supply + wkl[k][l] * d
                    new_obj = new_lin + penalty * min(0.0, new_supply - demand_floor)
                    if new_obj > obj + 1e-12:
                        lin, supply, obj = new_lin, new_supply, new_obj
                        improved = True
                    else:
                        x[k][l] = old
                if iters >= max_iterations:
                    break
            if iters >= max_iterations:
                break
        if not improved:
            step *= 0.5

    x_arr = np.array(x)
    lin = float(np.sum(coef * x_arr))
    supply = _expected_supply(w, x_arr)
    obj = lin + penalty * min(0.0, supply - demand_floor)
    return x_arr, obj, supply, iters


def _feasible_start(x: np.ndarray, caps: np.ndarray, epsilon: float) -> np.ndarray:
    """Repair a warm start so it satisfies the relaxed program's constraints.

    Rows violating the bilinear constraints snap back to min(c, y) form;
    if that breaks the cross-row ordering, the whole matrix is rebuilt from
    its reduced form (products all zero, ordering exact).
    """
    out = x.copy()
    for k in range(x.shape[0]):
        if not _row_products_ok(list(out[k]), caps, epsilon):
            out[k] = np.minimum(caps, out[k, -1])
    if out.shape[0] > 1 and np.any(np.diff(out, axis=0) > 0):
        y = np.minimum.accumulate(x[:, -1])
        out = np.minimum(caps[None, :], y[:, None])
    return out


def _solve_relaxed(
    instance: MarketInstance,
    epsilon: float,
    restarts: int,
    seed: int,
    extra_starts: tuple[np.ndarray, ...] = (),
    max_iterations: int = 100_000,
    min_step: float = 1e-10,
) -> SolveResult:
    grid = instance.grid
    K, L = grid.num_valuations, grid.num_capacities
    caps = grid.capacities
    coef, w = _reduced_coefficients(instance)
    M, D = instance.penalty, instance.demand_floor

    warm = _solve_exact(instance, SolveMethod.MULTI_REDUCED_EXACT)
    starts = [warm.contract.allocation, np.zeros((K, L))]
    starts.extend(_feasible_start(x, caps, epsilon) for x in extra_starts)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        y = np.sort(rng.uniform(0.0, float(caps[-1]), K))[::-1]
        starts.append(np.minimum(caps[None, :], y[:, None]))

    best = None
    best_key = None
    total_iters = 0
    for x0 in starts:
        x, obj, supply, iters = _pattern_search(
            x0, coef, w, caps, M, D, epsilon, max_iterations, min_step
        )
        total_iters += iters
        key = (obj, supply, tuple(x.ravel()))
        if best_key is None or key > best_key:
            best_key = key
            best = (x, supply)

    x, supply = best
    p = np.empty_like(x)
    for l in range(L):
        p[:, l] = column_payments(grid.valuations, x[:, l], float(caps[l]))
    contract = Contract(x, p)
    return SolveResult(
        contract=contract,
        expected_utility=provider_expected_utility(instance, contract),
        method=SolveMethod.MULTI_RELAXED,
        epsilon=epsilon,
        aux_t=min(0.0, supply - D),
        diagnostics={
            "starts": len(starts),
            "iterations": total_iters,
            "restarts": restarts,
            "seed": seed,
        },
    )


def solve_multi_relaxed(
    instance: MarketInstance,
    epsilon: float = 1e-6,
    restarts: int = 4,
    seed: int = 0,
) -> SolveResult:
    """Multi-start local search on the epsilon-relaxed complementarity program.

    Starts from the reduced-exact solution, the zero contract, and
    ``restarts`` random reduced allocations; every iterate stays feasible for
    the relaxed program, so the returned contract's misreport regret is at
    most regret_bound(grid, epsilon).
    """
    if not epsilon < math.inf:
        raise ValidationError(f"epsilon = {epsilon} must be finite")
    if epsilon <= 0.0:
        raise ValidationError(
            f"epsilon = {epsilon} must be positive; use solve_multi_reduced for the "
            "exact complementarity program"
        )
    if restarts < 1:
        raise ValidationError(f"restarts = {restarts} must be >= 1")
    return _solve_relaxed(instance, epsilon, restarts, seed)


def relaxed_schedule(
    instance: MarketInstance,
    epsilons: tuple[float, ...] = (1e-2, 1e-4, 1e-6),
    restarts: int = 4,
    seed: int = 0,
) -> SolveResult:
    """Warm-started decreasing-epsilon sweep for hard instances.

    Each stage seeds the next with its solution (rows projected back to the
    greedy form where the tighter epsilon would reject them); the result is
    the final, smallest-epsilon solve.
    """
    if not epsilons:
        raise ValidationError("epsilons must be non-empty")
    for eps in epsilons:
        if not 0.0 < eps < math.inf:
            raise ValidationError(f"epsilon = {eps} must be positive and finite")
    result = None
    carried: tuple[np.ndarray, ...] = ()
    for eps in epsilons:
        result = _solve_relaxed(instance, eps, restarts, seed, extra_starts=carried)
        carried = (result.contract.allocation,)
    return result
