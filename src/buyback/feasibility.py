"""Audit engine for contract menus.

Checks a contract against the market's playbook of requirements: resource
feasibility, resource-greedy allocation structure, incentive compatibility
(joint and decomposed into valuation/capacity parts), individual rationality,
the six-property characterization of feasible contracts, and the regret
metric with its square-root bound for relaxed solutions.

Margin conventions (every verdict is read off its margin by one rule):

* resource-side checks (feasibility, greediness, allocation monotonicity;
  the keys in ``_EXCESS_KEYS``) report the largest *excess* in resource
  units; they pass iff the margin is <= tol, and violate by max(margin, 0);
* money-side checks (IC, IR, squeeze) report the smallest *slack* in money
  units; they pass iff the margin is >= -tol, and violate by max(-margin, 0).

Every ``check_*`` raises ValidationError unless tol is finite and >= 0.

Joint IC and regret take each type's best affordable deviation from a prefix
maximum over the items sorted by repurchase amount; the decomposed IC checks
enumerate item pairs on their own, so they cross-check the joint one.  The
enumerations are vectorised (suffix minima and maxima over higher capacities,
masked minima, blocks of item pairs) but never use the prefix maximum.
Rounding is monotone, so ``max_b fl(a - b) = fl(a - min b)`` and every margin
equals the one the pairwise loops give, bit for bit.  The (rows, K*L) tables
are built a block of valuation rows at a time, so an audit needs O(K*L)
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Contract, TypeGrid, ValidationError, check_shapes, check_tol

#: Default absolute tolerance for audit passes.
AUDIT_TOL = 1e-6

#: The checks an audit ranks by violation, in the order ties resolve.
VERDICT_KEYS = ("p1", "p2", "p3", "p4", "p5", "p6", "ic_full", "ir")

# Margins in resource units, passing at <= tol; the others are money-side,
# passing at >= -tol.
_EXCESS_KEYS = ("p1", "p2", "p6", "resource_feasible", "greedy_monotone", "greedy_maximal")

# Cells per block of the (rows, K*L) tables behind the IC checks and regret,
# so an audit's memory stays O(K*L).  Blocks of 2^15 cells (256 KB of floats)
# stay in cache: at K, L in 30..60, blocks of 2^18 cells made regret and the
# simulator's choice tables take twice as long, and 2^16 the audit 1.3 times.
_BLOCK_CELLS = 1 << 15
# Cells per block of the decomposed checks' pair tables (squeeze and capacity IC),
# small enough that their temporaries stay in cache: at 60 x 60, squeeze blocks
# of 2^18 cells took twice as long, and capacity-IC ones raised the peak RSS.
_PAIR_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Verdict of a full contract audit.

    Booleans carry the per-check results; ``margins`` maps each check id to
    its worst margin (see module docstring for sign conventions);
    ``worst_violation`` names the check with the largest violation magnitude
    (("none", 0.0) when everything passes).  ``regret`` is the exact maximum
    misreport gain and ``regret_bound`` the square-root bound for the epsilon
    the caller supplied.
    """

    resource_feasible: bool
    greedy_monotone: bool
    greedy_maximal: bool
    ic_valuation: bool
    ic_capacity: bool
    ic_full: bool
    ir: bool
    p1: bool
    p2: bool
    p3: bool
    p4: bool
    p5: bool
    p6: bool
    margins: dict
    worst_violation: tuple[str, float]
    regret: float
    regret_bound: float

    @property
    def feasible(self) -> bool:
        """The full characterization: all of P1..P6 hold."""
        return self.p1 and self.p2 and self.p3 and self.p4 and self.p5 and self.p6


def _truthful_utilities(grid: TypeGrid, contract: Contract) -> np.ndarray:
    # T[k, l] = p[k, l] - v[k] * x[k, l]
    v = grid.valuations[:, None]
    return contract.payment - v * contract.allocation


def _row_blocks(grid: TypeGrid) -> list[slice]:
    """Valuation rows in blocks of at most _BLOCK_CELLS cells of a (rows, K*L)
    table, or of one row where a row alone is larger."""
    K = grid.num_valuations
    step = max(1, _BLOCK_CELLS // (K * grid.num_capacities))
    return [slice(lo, lo + step) for lo in range(0, K, step)]


def _best_affordable_utility(grid: TypeGrid, contract: Contract, tols: tuple = (0.0,)) -> list:
    """Per tol, best[k, l] = max of p - v[k] * x over items with x <= c[l] + tol, or -inf.

    Sorted by x, the items affordable at a capacity form a prefix: one prefix
    maximum serves every tol.  Rows are independent, so they go in blocks.
    """
    x, p = contract.allocation.ravel(), contract.payment.ravel()
    order = np.argsort(x, kind="stable")
    x, p = x[order], p[order]
    ends = np.searchsorted(x, np.concatenate([grid.capacities + tol for tol in tols]), side="right")
    best = np.empty((grid.num_valuations, ends.size))
    for rows in _row_blocks(grid):
        dev = p - grid.valuations[rows, None] * x  # (rows, K*L), by ascending x
        # Column 0 is the empty prefix: nothing affordable.
        prefix = np.maximum.accumulate(np.insert(dev, 0, -math.inf, axis=1), axis=1)
        best[rows] = prefix[:, ends]
    return np.hsplit(best, len(tols))


def _check_args(grid: TypeGrid, contract: Contract, tol: float) -> None:
    check_shapes(grid, contract)
    check_tol(tol)


def _feasibility_margin(grid: TypeGrid, contract: Contract) -> float:
    return float(np.max(contract.allocation - grid.capacities[None, :]))


def _greedy_margins(grid: TypeGrid, contract: Contract, tol: float) -> tuple[float, float]:
    x = contract.allocation
    c = grid.capacities
    # Least and most each row repurchases at any strictly higher capacity.
    above_min = np.minimum.accumulate(x[:, :0:-1], axis=1)[:, ::-1]
    above_max = np.maximum.accumulate(x[:, :0:-1], axis=1)[:, ::-1]
    # Rounding is monotone, so the largest x[lo] - x[hi] is x[lo] - min x[hi].
    monotone = max(0.0, float(np.max(x[:, :-1] - above_min, initial=-math.inf)))
    strictly_more = above_max > x[:, :-1] + tol
    gap = np.abs(x[:, :-1] - c[:-1])
    maximal = float(np.max(gap, where=strictly_more, initial=0.0))
    return monotone, maximal


def _valuation_monotone_margin(grid: TypeGrid, contract: Contract) -> float:
    # P2: c[l] >= x[0, l] >= ... >= x[K-1, l] >= 0, columnwise.
    x = contract.allocation
    worst = float(np.max(x[0, :] - grid.capacities))
    worst = max(worst, float(np.max(-x)))
    return max(worst, float(np.max(np.diff(x, axis=0), initial=-math.inf)))


def _first_min(blocks) -> float:
    """The least value over the blocks in order, the first of equals (so -0.0 vs
    0.0 ties resolve as ``min`` over a loop does); 0.0 when there is none."""
    worst = min((float(seq[np.argmin(seq)]) for seq in blocks), default=math.inf)
    return 0.0 if worst == math.inf else worst


def _squeeze_margin(grid: TypeGrid, contract: Contract) -> float:
    # P3: v[p]*(x[p]-x[q]) <= p[p]-p[q] <= v[q]*(x[p]-x[q]) for p < q, columnwise.
    x, p, v = contract.allocation, contract.payment, grid.valuations
    a, b = np.triu_indices(grid.num_valuations, 1)  # pairs a < b, a-major
    step = max(1, _PAIR_CELLS // grid.num_capacities)

    def block(pairs: slice) -> np.ndarray:
        dx = x[a[pairs]] - x[b[pairs]]  # (pairs, L)
        dp = p[a[pairs]] - p[b[pairs]]
        low = np.min(dp - v[a[pairs], None] * dx, axis=1)
        high = np.min(v[b[pairs], None] * dx - dp, axis=1)
        return np.column_stack((low, high)).ravel()  # pair order, low before high

    return _first_min(block(slice(lo, lo + step)) for lo in range(0, a.size, step))


def _ic_valuation_margin(grid: TypeGrid, contract: Contract, truth: np.ndarray) -> float:
    # Truthful utility beats every same-column item, for every valuation.
    x, p = contract.allocation, contract.payment
    v = grid.valuations
    # slack[k, k2, l] = truth[k, l] - (p[k2, l] - v[k] * x[k2, l]), a block of k at a time
    return min(
        float(np.min(truth[rows, None, :] - (p[None, :, :] - v[rows, None, None] * x[None, :, :])))
        for rows in _row_blocks(grid)
    )


def _ic_capacity_margin(grid: TypeGrid, contract: Contract, truth: np.ndarray, tol: float) -> float:
    # Truthful utility beats every affordable same-valuation item.
    x, c = contract.allocation, grid.capacities
    step = max(1, _PAIR_CELLS // x.size)

    def block(ls: slice) -> np.ndarray:
        # [l, l2] = min over k of truth[k, l] - truth[k, l2], items affordable at capacity l
        slack = truth.T[ls, :, None] - truth
        affordable = x <= (c[ls] + tol)[:, None, None]
        return np.min(slack, axis=1, where=affordable, initial=math.inf).ravel()  # (l, l2) order

    return _first_min(block(slice(lo, lo + step)) for lo in range(0, c.size, step))


def _ic_full_margin(truth: np.ndarray, best: np.ndarray) -> float:
    worst = float(np.min(truth - best))  # +inf only where nothing is affordable at all
    return 0.0 if worst == math.inf else worst


def _regret(truth: np.ndarray, best: np.ndarray) -> float:
    return max(0.0, float(np.max(best - truth)))


def check_resource_feasibility(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, float]:
    """No item may ask for more than its type's capacity: x[k,l] <= c[l]."""
    _check_args(grid, contract, tol)
    margin = _feasibility_margin(grid, contract)
    return margin <= tol, margin


def check_resource_greedy(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, bool, tuple[float, float]]:
    """Allocation monotone in capacity, and capacity-dominated types fully recycled.

    Returns (monotone ok, maximal-recycling ok, (monotone margin, maximal margin)).
    """
    _check_args(grid, contract, tol)
    monotone, maximal = _greedy_margins(grid, contract, tol)
    return monotone <= tol, maximal <= tol, (monotone, maximal)


def check_ic_full(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, float]:
    """Joint incentive compatibility over all affordable deviations.

    Every true type's truthful utility must beat, within tol, its best
    deviation among the items with x[deviation] <= capacity(true) + tol,
    found as a prefix maximum over the items sorted by x.
    """
    _check_args(grid, contract, tol)
    (best,) = _best_affordable_utility(grid, contract, (tol,))
    margin = _ic_full_margin(_truthful_utilities(grid, contract), best)
    return margin >= -tol, margin


def check_ic_decomposed(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, bool]:
    """The valuation-only and capacity-only incentive constraints."""
    _check_args(grid, contract, tol)
    truth = _truthful_utilities(grid, contract)
    val = _ic_valuation_margin(grid, contract, truth)
    cap = _ic_capacity_margin(grid, contract, truth, tol)
    return val >= -tol, cap >= -tol


def check_ir(grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL) -> tuple[bool, float]:
    """Truthful participation never hurts: p[k,l] - v[k]*x[k,l] >= 0."""
    _check_args(grid, contract, tol)
    margin = float(np.min(_truthful_utilities(grid, contract)))
    return margin >= -tol, margin


def compute_regret(grid: TypeGrid, contract: Contract) -> float:
    """Largest utility gain any type gets from an affordable misreport.

    Maximum over true types and over deviation items whose repurchase
    amount fits the true capacity (weak inequality, no tolerance), floored
    at zero.  Computed exactly, independent of any audit tolerance.
    """
    check_shapes(grid, contract)
    (best,) = _best_affordable_utility(grid, contract)
    return _regret(_truthful_utilities(grid, contract), best)


def regret_bound(grid: TypeGrid, epsilon: float) -> float:
    """Regret cap (sum of valuations) * sqrt(epsilon) for relaxed solutions."""
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError(f"epsilon = {epsilon} must be finite and non-negative")
    return float(np.sum(grid.valuations)) * math.sqrt(epsilon)


def check_theorem1(
    grid: TypeGrid,
    contract: Contract,
    tol: float = AUDIT_TOL,
    epsilon: float = 0.0,
) -> AuditReport:
    """Full audit: the six-property characterization plus independent checks.

    P1 resource feasibility; P2 allocation non-increasing in valuation (and
    within [0, capacity]); P3 squeeze inequality on payment differences; P4
    capacity-side IC; P5 non-negative utility for the top valuation; P6
    resource greediness.  ``ic_full`` and ``ir`` are recomputed from their
    own definitions rather than derived from P1..P6, so the report doubles
    as a test of the characterization itself.  ``epsilon`` only feeds the
    reported regret bound (pass 0 for exact contracts).

    The 13 margins share one table of truthful utilities.  Each verdict, and
    the worst violation (the first of ``VERDICT_KEYS`` with the largest),
    follows from its margin by the module's one rule.
    """
    _check_args(grid, contract, tol)
    truth = _truthful_utilities(grid, contract)
    feas_margin = _feasibility_margin(grid, contract)
    mono_margin, maximal_margin = _greedy_margins(grid, contract, tol)
    ic_cap_margin = _ic_capacity_margin(grid, contract, truth, tol)
    # joint IC at c + tol and regret at c gather from one prefix maximum
    best_at_tol, best_at_cap = _best_affordable_utility(grid, contract, (tol, 0.0))
    margins = {
        "p1": feas_margin,
        "p2": _valuation_monotone_margin(grid, contract),
        "p3": _squeeze_margin(grid, contract),
        "p4": ic_cap_margin,
        "p5": float(np.min(truth[-1, :])),
        "p6": max(mono_margin, maximal_margin),
        "resource_feasible": feas_margin,
        "greedy_monotone": mono_margin,
        "greedy_maximal": maximal_margin,
        "ic_valuation": _ic_valuation_margin(grid, contract, truth),
        "ic_capacity": ic_cap_margin,
        "ic_full": _ic_full_margin(truth, best_at_tol),
        "ir": float(np.min(truth)),
    }
    # max(0.0, nan) is 0.0, so a NaN margin fails its verdict but is never the worst
    violation = {
        key: max(0.0, margins[key] if key in _EXCESS_KEYS else -margins[key])
        for key in VERDICT_KEYS
    }
    worst = max(VERDICT_KEYS, key=violation.get)
    return AuditReport(
        **{key: margin <= tol if key in _EXCESS_KEYS else margin >= -tol
           for key, margin in margins.items()},
        margins=margins,
        worst_violation=(worst, violation[worst]) if violation[worst] > 0.0 else ("none", 0.0),
        regret=_regret(truth, best_at_cap),
        regret_bound=regret_bound(grid, epsilon),
    )
