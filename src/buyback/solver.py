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
crossing of every block is paired up.  A front point keeps its row's level
and a parent pointer, not its level tuple; each DP row ranks its candidates
by a 2-key lexsort on (level, parent rank), sorts once on (-g, -s, -rank),
and reads every level's front off that ranking.  A vectorised screen passes on only
the crossing blocks whose theta range may meet their segment, their pairs
are scored in chunks, and tuples are rebuilt only for each block's winner
and the grid front.  The few survivors are ranked by the full objective.

Three solving routes live here:

* ``solve_single_capacity`` / ``solve_multi_reduced`` — exact, via the
  reduced-form DP above (epsilon = 0, complementarity exact);
* ``solve_multi_relaxed`` — a descent from the exact menu over the full K*L
  allocation with the bilinear greediness constraint relaxed to
  (x[k,l'] - x[k,l]) * (c[l] - x[k,l]) <= epsilon for l < l'; each move
  re-sets one whole row in closed form from its last entry y (every other
  entry at its epsilon root or at min(c, y)) and tries only the finitely
  many y at which the row's objective can peak;
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
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    AggregateWeights,
    Contract,
    MarketInstance,
    ValidationError,
    provider_expected_utility,
)
from .payments import _clamped_payments

#: Hard cap on the oracle's lattice size and on the exact DP's front points
#: plus crossing pairs plus the levels rebuilt for each kept block's winner.
MAX_CANDIDATES = 10_000_000

#: Size of each chunk of the exact solver's array work: products of a block of
#: table rows, (bound, candidate) cells of a front sweep, blocks (a, b, m) of
#: the crossing screen, and pairs, or winners' levels, of the pairing.
_SCREEN_BLOCK = 1 << 16

#: Menus per block when the oracle builds its row tables, and (top index,
#: tail) cells per block of its lattice walk.
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
    methods; passes, moves and whether the descent converged for the
    relaxed one.
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


class _Fronts(NamedTuple):
    """One DP state: the fronts of every level bound, laid end to end.

    Segment i (``g[ends[i]:ends[i + 1]]`` and so on) is one bound's front,
    best g first.  A point's ``level`` is the level its state's row took,
    and ``parent`` indexes the rest of its tuple in the state before; the
    state of no rows has neither.
    """

    g: np.ndarray
    s: np.ndarray
    parent: np.ndarray | None
    level: np.ndarray | None
    ends: np.ndarray


def _level_fronts(gain, mass, rows, suffix: bool, points: int):
    """Pareto fronts of partial level tuples, per rows taken and level bound.

    Rows are added in the order of ``rows``; ``out[n]`` is the state after n
    of them.  With ``suffix`` each row's level is prepended and segment j
    holds tuples whose first level is <= j; otherwise it is appended and
    segment i holds tuples whose last level is >= width-1-i.  A point is
    (sum of gain, sum of mass, levels), and a front runs best g first:
    points rank by g, then s, then the lexicographically larger level tuple,
    and one stays when its s beats every higher-ranked point's.  ``points``
    counts on from the given total; CandidateCountError is raised once it
    passes MAX_CANDIDATES.

    A state stores no level tuples: each point keeps its row's level and a
    parent pointer.  A row's candidates are the points of the state before,
    each extended by its segment's level.  Their tuples are distinct, and a
    2-key sort orders them lexicographically: by level, then parent rank,
    for suffixes and the other way round for prefixes.  That gives each a
    strict rank, and the row sorts once by (-g, -s, -rank).  Bounds are
    taken in order, each adding its level's candidates, and the front at a
    bound is its candidates whose s beats the running maximum of those
    ranked above (the maxima sweep of Kung, Luccio & Preparata, JACM 1975).
    The rank order is strict, so front(A + front(B)) = front(A + B), and
    these are the fronts that merging one level at a time gives.  The sweep
    runs on a (bounds, candidates) mask over blocks of bounds of at most
    _SCREEN_BLOCK cells, each block seeing only the front before it and its
    own candidates.
    """
    width = gain.shape[1]
    levels = np.arange(width) if suffix else np.arange(width - 1, 0, -1)
    levels = levels.astype(np.min_scalar_type(-width))
    n = len(levels)
    out = [_Fronts(np.zeros(n), np.zeros(n), None, None, np.arange(n + 1))]
    rank = np.zeros(n, dtype=np.intp)  # each point's lexicographic rank among its row's tuples
    for k in rows:
        prev = out[-1]
        # the candidates: every point of the state before, extended by its segment's level
        seg = np.repeat(np.arange(n), prev.ends[1:] - prev.ends[:-1])
        col = levels[seg]
        g = prev.g + gain[k, col]
        s = prev.s + mass[k, col]
        order = np.lexsort((rank, seg) if suffix else (col, rank))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        order = np.lexsort((-rank, -s, -g))
        step = max(1, _SCREEN_BLOCK // len(order))
        live = np.zeros(len(order), dtype=bool)  # the last front and the block's candidates
        fronts, sizes = [], []
        for b0 in range(0, n, step):
            b1 = min(b0 + step, n)
            live[prev.ends[b0] : prev.ends[b1]] = True
            cand = order[live[order]]  # by rank
            s_live = s[cand]
            member = seg[cand] < np.arange(b0 + 1, b1 + 1)[:, None]
            best = np.maximum.accumulate(np.where(member, s_live, -np.inf), axis=1)
            member[:, 1:] &= s_live[1:] > best[:, :-1]
            live[cand] = member[-1]
            fronts.append(cand[member.nonzero()[1]])
            sizes.append(member.sum(axis=1))
            points += len(fronts[-1])
            if points > MAX_CANDIDATES:
                raise CandidateCountError(
                    f"exact solve needs more than {MAX_CANDIDATES} front points"
                )
        idx = np.concatenate(fronts)
        ends = np.zeros(n + 1, dtype=np.intp)
        np.concatenate(sizes).cumsum(out=ends[1:])
        out.append(_Fronts(g[idx], s[idx], idx, col[idx], ends))
        rank = rank[idx]
    return out, points


def _read_levels(states, idx, start, suffix: bool, out) -> None:
    """Write the level tuples of the points ``idx`` of ``states[start]`` into ``out``.

    ``start`` is per point, and a point fills only its own rows of ``out``
    (one row of K levels per point).  Each state's level goes to its row,
    and the parent pointer leads to the next state: down the list for
    prefixes, up it for suffixes (the list reversed, so that ``states[k]``
    holds rows k..K-1).
    """
    for t in range(len(states) - 1) if suffix else range(len(states) - 1, 0, -1):
        on = (start <= t) if suffix else (start >= t)
        out[on, t if suffix else t - 1] = states[t].level[idx[on]]
        idx[on] = states[t].parent[idx[on]]


def _crossing_screen(w, caps, G, D, s_before, s_after):
    """(a, b, m) of every crossing block that may hold a crossing, in order.

    ``s_before[:, a, m]`` and ``s_after[:, b, m]`` are the first and last
    supply of the fronts on either side of block [a..b] in capacity segment
    m.  A block holds one only if its slope is positive and its theta range
    meets the segment.  Here every block's slope and constant are summed at
    once in another order.  Every term is non-negative, so a slope is
    positive exactly when the exact one is, and each sum is off by at most
    K*L + K + L unit roundoffs relative to its value.  With x = D less the
    two fronts' supply, theta = (x - const) / slope then moves by at most
    about three times that many roundoffs of (|x| + const) / slope, which
    also bounds |theta| and so the rounding at each threshold.  The slack is
    ten times that, so every block with a theta inside its segment passes.
    """
    K, L = s_before.shape[1], caps.size
    slope_k = np.cumsum(w[::-1], axis=0)[::-1].T  # (K, L): weight at capacities >= m
    const_k = np.zeros((K, L))
    const_k[:, 1:] = np.cumsum(w * caps[:, None], axis=0)[:-1].T  # and below m, times c
    rtol = 16 * (K * L + K + L) * np.finfo(float).eps
    b = np.arange(K)[None, :, None]
    step = max(1, _SCREEN_BLOCK // (K * L))
    blocks = []
    for a0 in range(0, K, step):
        a = np.arange(a0, min(a0 + step, K))[:, None, None]
        slope = np.cumsum(np.where(b >= a, slope_k, 0.0), axis=1)  # [a, b, m]
        const = np.cumsum(np.where(b >= a, const_k, 0.0), axis=1)
        x_lo = D - (s_before[0, a0 : a0 + step, None] + s_after[0])
        x_hi = D - (s_before[1, a0 : a0 + step, None] + s_after[1])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slack = rtol * (np.abs(x_lo) + np.abs(x_hi) + const) / slope
            keep = (slope > 0.0) & (
                (x_lo - const) / slope >= G[:-1] - 1e-12 - slack
            ) & ((x_hi - const) / slope <= G[1:] + 1e-12 + slack)
        i, bi, m = np.nonzero(keep)
        blocks += zip((i + a0).tolist(), bi.tolist(), m.tolist())
    return blocks


def _penalty_candidates(gain, mass, coef, w, caps, G, X, D):
    """Grid vertices and demand-floor crossings that can win when M * D > 0.

    The objective lin + M * min(0, supply - D) grows with both lin and
    supply, so a winning grid tuple, and either side of a winning crossing,
    is on its (lin, supply) Pareto front.  A crossing holds the block
    [a..b] at theta in capacity segment m: the rows before it sit at levels
    >= m+1 and the rows after it at levels <= m, so any prefix pairs with
    any suffix, theta follows from supply == D, and the objective there is
    lin.  Per (a, b, m) the best pair with theta in the segment is kept.
    The blocks that pass ``_crossing_screen`` are paired in chunks of at
    most _SCREEN_BLOCK pairs, each pair's theta and value taken by the same
    operations as one block at a time, and the exact theta test is the
    pairing's own.  Level tuples are read off the parent pointers only for
    each block's winning pair and for the grid front.
    """
    K, L = coef.shape
    suffix, points = _level_fronts(gain, mass, range(K - 1, -1, -1), True, 0)
    suffix.reverse()  # suffix[k]: rows k..K-1, segment j: level of row k <= j
    prefix, points = _level_fronts(gain, mass, range(K - 1), False, points)
    # prefix[a]: rows 0..a-1, segment i: level of row a-1 >= L - i.  Block
    # [a..b] in segment m pairs prefix[a] at levels >= m+1 (its segment
    # L-1-m) with suffix[b+1] at levels <= m (its segment m): each front's
    # start and size as (K, L) arrays
    ends = np.stack([f.ends for f in prefix[:K]])[:, ::-1]
    lo_P, size_P = ends[:, 1:], ends[:, :-1] - ends[:, 1:]
    ends = np.stack([f.ends for f in suffix[1:]])
    lo_Q, size_Q = ends[:, :L], ends[:, 1 : L + 1] - ends[:, :L]

    # a sum of non-negative weights is positive iff one of them is: the first
    # block end b at which [a..b] x [m..L-1] holds a positive weight
    hit = np.logical_or.accumulate(w[::-1] > 0.0, axis=0)[::-1].T  # (K, L)
    first = np.minimum.accumulate(np.where(hit, np.arange(K)[:, None], K)[::-1], axis=0)[::-1]
    size_after = np.zeros((K + 1, L), dtype=np.int64)
    size_after[:K] = np.cumsum(size_Q[::-1], axis=0)[::-1]
    pairs = int(np.sum(size_P * np.take_along_axis(size_after, first, axis=0)))
    if points + pairs > MAX_CANDIDATES:
        raise CandidateCountError(
            f"exact solve needs {points} front points and {pairs} crossing pairs "
            f"(limit {MAX_CANDIDATES})"
        )

    gP, sP, off_P = _end_to_end(prefix[:K])
    gQ, sQ, off_Q = _end_to_end(suffix[1:])
    lo_P, lo_Q = lo_P + off_P[:, None], lo_Q + off_Q[:, None]
    blocks = _crossing_screen(
        w, caps, G, D,
        np.stack([sP[lo_P], sP[lo_P + size_P - 1]]), np.stack([sQ[lo_Q], sQ[lo_Q + size_Q - 1]]),
    )
    if points + pairs + len(blocks) * K > MAX_CANDIDATES:  # each winner's levels: K parent steps
        raise CandidateCountError(
            f"exact solve needs {points} front points, {pairs} crossing pairs and "
            f"{len(blocks)} kept blocks of {K} levels (limit {MAX_CANDIDATES})"
        )
    # per block, slope, constant and coefficient sum, each summed as np.sum
    # sums it one block at a time
    add = np.add.reduce
    slope, const, scale = np.array([
        (add(w[m:, a : b + 1], axis=None), add(w[:m, a : b + 1] * caps[:m, None], axis=None),
         add(coef[a : b + 1, m:], axis=None))
        for a, b, m in blocks
    ]).reshape(-1, 3).T
    a, b, m = np.array(blocks, dtype=np.intp).reshape(-1, 3).T
    lo_G, hi_G = G[m] - 1e-12, G[m + 1] + 1e-12
    lo_P, lo_Q, size_Q = lo_P[a, m], lo_Q[b, m], size_Q[b, m]
    count = size_P[a, m] * size_Q  # pairs per block, row-major over (prefix, suffix)
    end = np.cumsum(count)
    begin = end - count
    H = w.T @ X  # supplies as the reference enumeration in tests sums them: equal bits
    rows = np.arange(K)

    def crossings():  # one array of crossings per chunk of pairs
        start = 0
        while start < len(blocks):
            stop = min(
                max(start + 1, int(np.searchsorted(end, begin[start] + _SCREEN_BLOCK, "right"))),
                start + max(1, _SCREEN_BLOCK // K),  # winners' tuples: at most that many levels
            )
            blk = np.repeat(np.arange(start, stop), count[start:stop])
            i, q = np.divmod(np.arange(begin[start], end[stop - 1]) - begin[blk], size_Q[blk])
            i += lo_P[blk]
            q += lo_Q[blk]
            theta = (D - (sP[i] + sQ[q]) - const[blk]) / slope[blk]
            inside = (theta >= lo_G[blk]) & (theta <= hi_G[blk])
            value = np.where(inside, gP[i] + gQ[q] + scale[blk] * theta, -np.inf)
            # each block's first argmax, as np.argmax takes it, where theta is inside
            heads = begin[start:stop] - begin[start]
            top = np.maximum.reduceat(value, heads)[blk - start]
            pick = np.minimum.reduceat(np.where(value == top, np.arange(len(blk)), len(blk)), heads)
            won = np.flatnonzero(np.logical_or.reduceat(inside, heads))
            pick, n = pick[won], won + start
            levels = np.zeros((len(n), K), dtype=suffix[0].level.dtype)
            _read_levels(prefix, i[pick] - off_P[a[n]], a[n], False, levels)
            _read_levels(suffix, q[pick] - off_Q[b[n]], b[n] + 1, True, levels)
            # theta again, the supply summed row by row in y order, left to right
            # as Python's sum takes it, so that a crossing's coordinates do not
            # depend on how the fronts were built; the zeros padding other rows
            # change no sum but the sign of a zero one, and D > 0 hides that
            supply = H[rows, levels]
            rest = np.where(rows < a[n, None], supply, 0.0).cumsum(axis=1)[:, -1]
            rest = rest + np.where(rows > b[n, None], supply, 0.0).cumsum(axis=1)[:, -1]
            t = (D - rest - const[n]) / slope[n]
            ok = (lo_G[n] <= t) & (t <= hi_G[n])
            t = np.minimum(np.maximum(t, G[m[n]]), G[m[n] + 1])
            block = (rows >= a[n, None]) & (rows <= b[n, None])
            yield np.where(block, t[:, None], G[levels])[ok]
            start = stop

    grid = np.arange(suffix[0].ends[L], suffix[0].ends[L + 1])
    levels = np.zeros((len(grid), K), dtype=suffix[0].level.dtype)
    _read_levels(suffix, grid, np.zeros(len(grid), dtype=np.intp), True, levels)
    return levels, crossings(), points, pairs


def _end_to_end(states):
    """g and s of ``states`` laid end to end, and the offset of each state."""
    off = np.cumsum([0] + [len(f.g) for f in states[:-1]])
    return np.concatenate([f.g for f in states]), np.concatenate([f.s for f in states]), off


def _exact_allocation(instance: MarketInstance, coef: np.ndarray, w: np.ndarray):
    """The DP's winning allocation min(c, y), and its counts for ``diagnostics``."""
    caps = instance.grid.capacities
    M, D = instance.penalty, instance.demand_floor

    G = np.concatenate([[0.0], caps])  # G[j]: the y-value of grid level j
    X = np.minimum(caps[:, None], G[None, :])  # X[l, j]: allocation at level j
    # gain[k, j] and mass[k, j]: linear objective and expected supply of row
    # k at level j, summed over capacities in one fixed order so that levels
    # differing only in zero-weight capacities tie exactly
    gain, mass = np.empty((coef.shape[0], G.size)), np.empty((coef.shape[0], G.size))
    step = max(1, _SCREEN_BLOCK // X.size)  # rows per block of at most _SCREEN_BLOCK products
    for a in range(0, coef.shape[0], step):
        gain[a : a + step] = np.sum(coef[a : a + step, :, None] * X, axis=1)
        mass[a : a + step] = np.sum(w.T[a : a + step, :, None] * X, axis=1)
    if M > 0.0 and D > 0.0:
        grid_levels, chunks, points, pairs = _penalty_candidates(gain, mass, coef, w, caps, G, X, D)
    else:  # the objective is lin: one best suffix per (row, level) suffices
        grid_levels, chunks, points, pairs = [_best_levels(gain, mass)], (), gain.size, 0

    # rank the grid front, then each chunk of crossings, by objective, then
    # supply, then lex-larger y; the first of equal keys stays, as it does in
    # one ranking of all of them
    best, candidates = None, 0
    for Y in itertools.chain([G[np.asarray(grid_levels, dtype=np.intp)]], chunks):
        candidates += len(Y)
        if len(Y):
            Xc = np.minimum(caps[None, None, :], Y[:, :, None])
            supply = np.einsum("ckl,lk->c", Xc, w)
            obj = np.einsum("ckl,kl->c", Xc, coef) + M * np.minimum(0.0, supply - D)
            i, key = _best_by_key(Y, obj, supply)
            if best is None or key > best[0]:
                best = key, Y[i]
    return np.minimum(caps[None, :], best[1][:, None]), {
        "candidates": candidates,
        "grid_candidates": len(grid_levels),
        "crossing_candidates": candidates - len(grid_levels),
        "front_points": points,
        "crossing_pairs": pairs,
    }


def _result(instance, w, x, p, method, epsilon, diagnostics) -> SolveResult:
    """The SolveResult of the priced menu (x, p), re-evaluated under the instance."""
    contract = Contract(x, p)
    return SolveResult(
        contract=contract,
        expected_utility=provider_expected_utility(instance, contract),
        method=method,
        epsilon=epsilon,
        aux_t=min(0.0, _expected_supply(w, x) - instance.demand_floor),
        diagnostics=diagnostics,
    )


def _solve_exact(instance: MarketInstance, method: SolveMethod) -> SolveResult:
    # y is non-increasing in [0, c_max], so x = min(c, y) passes P1, P2 and P6
    coef, w = _reduced_coefficients(instance)
    x, diagnostics = _exact_allocation(instance, coef, w)
    p = _clamped_payments(instance.grid.valuations, x, instance.grid.capacities)
    return _result(instance, w, x, p, method, 0.0, diagnostics)


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
    CandidateCountError when its fronts, crossing pairs and winners' levels
    (kept blocks x K) would exceed MAX_CANDIDATES.
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
    """The sorted distinct lattice values: steps up to c_max, capacities and crossings.

    The steps are already sorted and the other values, all in [0, c_max], are
    few, so these are sorted alone and merged in, each after the steps it
    equals, and the first of every run of equal values stays.
    """
    caps = instance.grid.capacities
    cmax = float(caps[-1])
    steps = np.arange(0.0, cmax + grid_step * 0.5, grid_step)
    steps = steps[: np.searchsorted(steps, cmax + 1e-12, side="right")]
    extra: list[float] = []
    if instance.penalty > 0.0 and instance.demand_floor > 0.0:
        D = instance.demand_floor
        full = w.T @ caps  # supply contribution of each coordinate at full recycling
        extra = _pwl_crossing_values(np.sum(w, axis=1), caps, D)  # all coords equal
        for k in range(w.shape[1]):
            extra += _pwl_crossing_values(w[:, k], caps, D)  # others idle
            extra += _pwl_crossing_values(w[:, k], caps, D - (float(np.sum(full)) - full[k]))
    others = np.sort(np.concatenate([caps, extra]))
    axis = np.insert(steps, np.searchsorted(steps, others, side="right"), others)
    return axis[np.concatenate([[True], axis[1:] != axis[:-1]])]


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
    order, so the tails under top index i are the first counts[i].  Blocks of
    top indices hold at most _ORACLE_BLOCK (index, tail) cells, the tails a
    row does not own masked out.
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
    step = max(1, _ORACLE_BLOCK // int(counts[-1]))
    for a in range(0, B, step):
        n = int(counts[min(a + step, B) - 1])  # the block's last row owns the most tails
        s = supply[0, a : a + step, None] + tail_s[:n]
        obj = util[0, a : a + step, None] + tail_u[:n] + M * np.minimum(0.0, s - D)
        obj[np.arange(n) >= counts[a : a + step, None]] = -math.inf
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
    diagnostics = {"candidates": count, "axis_size": int(axis.size)}
    return _result(instance, w, x, p, SolveMethod.ORACLE, 0.0, diagnostics)


# ---------------------------------------------------------------------------
# Relaxed multi-capacity solver
# ---------------------------------------------------------------------------


#: Passes over the rows the descent may make; a pass that moves no row ends it.
_MAX_PASSES = 100


def _rows_at(Y, d, lo, hi, caps, epsilon):
    """Rows with last entries Y, the other entries set by the direction d.

    An entry with d < 0 sits at its root, the least x >= 0 with (y - x)(c - x)
    <= epsilon: min(c, y) - 2 epsilon / (g + sqrt(g^2 + 4 epsilon)), g = |y - c|,
    raised by ulp(max(c, y)) until the rounded product passes (a step or two).
    Any other entry sits at min(c, y).  Entries are clipped into [lo, hi], the
    neighbouring rows, and raised to the row's running maximum.
    """
    y, c = Y[:, None], caps[:-1]
    top, gap = np.minimum(c, y), np.abs(y - c)
    root = np.maximum(top - 2.0 * epsilon / (gap + np.sqrt(gap * gap + 4.0 * epsilon)), 0.0)
    while np.any(over := (y - root) * (c - root) > epsilon):
        root = np.where(over, np.minimum(root + np.spacing(np.maximum(y, c)), top), root)
    x = np.where(d[:-1] < 0.0, root, top)
    x = np.maximum.accumulate(np.minimum(np.maximum(x, lo[:-1]), hi[:-1]), axis=1)
    return np.hstack([x, y])


def _last_entries(y, d, lo, hi, caps, epsilon):
    """The last entries worth trying for one row, sorted.

    Between breakpoints the row's objective is convex in y (a root is
    concave in y and rooted entries have d < 0), so its best y is an
    interval end, the current y, a kink at a bound b, or a y where a root
    meets b: y = b + epsilon / (c - b).
    """
    b = np.concatenate([lo[:-1], hi[:-1], caps[:-1]])
    gap = caps[:-1][d[:-1] < 0.0] - b[:, None]
    meets = b[:, None] + epsilon / np.where(gap > 0.0, gap, np.nan)
    Y = np.concatenate([[lo[-1], hi[-1], y], b, meets.ravel()])
    return np.unique(Y[(Y >= lo[-1]) & (Y <= hi[-1])])


def _supply_crossing(X, w, target, d, *bounds):
    """Rows at the adjacent floats of y either side of where the supply X @ w reaches target.

    X holds ``_rows_at`` rows in increasing y, and supply rises with y, so
    the bracket narrows 65-fold per step, 64 rows at a time.
    """
    hit = X @ w >= target
    if hit[0] or not hit[-1]:
        return X[:0]
    i = int(np.argmax(hit))
    a, b = X[i - 1, -1], X[i, -1]
    while (Y := np.linspace(a, b, 66)[1:-1])[(Y > a) & (Y < b)].size:
        hit = _rows_at(Y, d, *bounds) @ w >= target
        j = int(np.argmax(hit)) if hit.any() else Y.size
        a, b = (Y[j - 1] if j > 0 else a), (Y[j] if j < Y.size else b)
    return _rows_at(np.array([a, b]), d, *bounds)


def _directions(coef, w, M, D):
    """One row's directions coef + t*w, one per sign pattern over t in [0, M].

    Above the demand floor the objective moves along coef, below it along
    coef + M*w, and at it along coef + t*w, t the floor's multiplier; signs
    change only where t passes some -coef[l] / w[l].
    """
    if M * D <= 0.0:
        return [coef]
    with np.errstate(divide="ignore", invalid="ignore"):
        flips = -coef / w
    return [coef + t * w for t in np.unique([0.0, M, *flips[(flips > 0.0) & (flips < M)]])]


def _rows_ok(X, caps, epsilon):
    """The relaxed row check: each entry's product with its row's last entry <= epsilon.

    Rows are non-decreasing and within capacity, so that product is an
    entry's largest and, rounding being monotone, it decides the pairwise
    constraint (x[l'] - x[l]) * (c[l] - x[l]) <= epsilon bit for bit.
    """
    return np.all((X[:, -1:] - X[:, :-1]) * (caps[:-1] - X[:, :-1]) <= epsilon, axis=1)


def _descent(x, coef, wk, caps, M, D, epsilon):
    """Row moves from x until a pass raises the objective by no more than 1e-12.

    A move re-sets one row as a function of its last entry y (``_rows_at``),
    in every direction of ``_directions``, at every y of ``_last_entries``
    and, when M * D > 0, either side of the y where total supply reaches D.
    The best row that passes ``_rows_ok`` is kept if it improves.  Returns
    x, passes, moves and whether the last pass moved nothing.
    """
    K, L = x.shape
    row_lin, row_s = np.sum(coef * x, axis=1), np.sum(wk * x, axis=1)
    passes = moves = 0
    converged = False
    while not converged and passes < _MAX_PASSES:
        passes += 1
        converged = True
        for k in range(K):
            bounds = (x[k + 1] if k + 1 < K else np.zeros(L), x[k - 1] if k > 0 else caps,
                      caps, epsilon)
            others = np.arange(K) != k
            base_lin, base_s = float(np.sum(row_lin[others])), float(np.sum(row_s[others]))
            rows = []
            for d in _directions(coef[k], wk[k], M, D):
                rows.append(_rows_at(_last_entries(x[k, -1], d, *bounds), d, *bounds))
                if M * D > 0.0:
                    rows.append(_supply_crossing(rows[-1], wk[k], D - base_s, d, *bounds))
            X = np.vstack(rows)
            lin, s = X @ coef[k], X @ wk[k]
            obj = base_lin + lin + M * np.minimum(0.0, base_s + s - D)
            ok = _rows_ok(X, caps, epsilon)
            i = int(np.argmax(np.where(ok, obj, -np.inf)))
            now = base_lin + row_lin[k] + M * min(0.0, base_s + row_s[k] - D)
            if ok[i] and obj[i] > now + 1e-12:
                x[k], row_lin[k], row_s[k] = X[i], lin[i], s[i]
                moves += 1
                converged = False
    return x, passes, moves, converged


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < math.inf:
        raise ValidationError(
            f"epsilon = {epsilon} must be positive and finite; the exact complementarity "
            "program is solve_multi_reduced, or solve --method reduced in the CLI"
        )


def solve_multi_relaxed(instance: MarketInstance, epsilon: float = 1e-6) -> SolveResult:
    """Descent on the epsilon-relaxed complementarity program from the exact menu.

    The relaxed program bounds every entry's product with its row's last
    entry, (y - x[k,l]) * (c[l] - x[k,l]) <= epsilon, and every iterate
    meets it, so the returned contract's misreport regret is at most
    regret_bound(grid, epsilon).  Starting from ``solve_multi_reduced``'s
    menu, whole rows move to closed-form bounds (``_descent``) until a pass
    improves nothing, or after _MAX_PASSES passes; ``diagnostics`` counts
    the passes and moves and says whether it converged.  The search is
    deterministic.
    """
    _check_epsilon(epsilon)
    caps = instance.grid.capacities
    coef, w = _reduced_coefficients(instance)
    M, D = instance.penalty, instance.demand_floor
    x, _ = _exact_allocation(instance, coef, w)
    x, passes, moves, converged = _descent(x, coef, w.T, caps, M, D, epsilon)
    # rows lie between their neighbours and row 0 under c: no column check can fail
    p = _clamped_payments(instance.grid.valuations, x, caps)
    diagnostics = {"passes": passes, "moves": moves, "converged": converged}
    return _result(instance, w, x, p, SolveMethod.MULTI_RELAXED, epsilon, diagnostics)


def relaxed_schedule(
    instance: MarketInstance, epsilons: tuple[float, ...] = (1e-2, 1e-4, 1e-6)
) -> SolveResult:
    """``solve_multi_relaxed`` at the last of a decreasing-epsilon schedule.

    Every epsilon is validated.  The descent starts from the exact menu at
    any epsilon, so the earlier stages have nothing to hand on.
    """
    if not epsilons:
        raise ValidationError("epsilons must be non-empty")
    for eps in epsilons:
        _check_epsilon(eps)
    return solve_multi_relaxed(instance, epsilons[-1])
