"""Audit engine for contract menus.

Checks a contract against the market's playbook of requirements: resource
feasibility, resource-greedy allocation structure, incentive compatibility
(joint and decomposed into valuation/capacity parts), individual rationality,
the six-property characterization of feasible contracts, and the regret
metric with its square-root bound for relaxed solutions.

Margin conventions (one number accompanies every boolean verdict):

* resource-side checks (feasibility, greediness, allocation monotonicity)
  report the largest *excess* in resource units; they pass iff the margin
  is <= tol;
* money-side checks (IC, IR, squeeze) report the smallest *slack* in money
  units; they pass iff the margin is >= -tol.

Joint IC and regret take each type's best affordable deviation from a prefix
maximum over the items sorted by repurchase amount; the decomposed IC checks
enumerate item pairs on their own, so they cross-check the joint one.  The
enumerations are vectorised (suffix minima and maxima over higher capacities,
masked minima, one block of pairs per row) but never use the prefix maximum.
Rounding is monotone, so ``max_b fl(a - b) = fl(a - min b)`` and every margin
equals the one the pairwise loops give, bit for bit.  The (rows, K*L) tables
are built a block of valuation rows at a time, so an audit needs O(K*L)
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Contract, TypeGrid, ValidationError, check_shapes

#: Default absolute tolerance for audit passes.
AUDIT_TOL = 1e-6

# Worst-violation keys whose violation is max(margin, 0) (resource units);
# the others are money-side, with violation max(-margin, 0).
_EXCESS_KEYS = ("p1", "p2", "p6")

# Cells per block of the (rows, K*L) tables behind the IC checks and regret,
# so an audit's memory stays O(K*L).
_BLOCK_CELLS = 1 << 18


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
    """Valuation rows in blocks of about _BLOCK_CELLS cells of a (rows, K*L) table."""
    K = grid.num_valuations
    step = max(1, _BLOCK_CELLS // (K * grid.num_capacities))
    return [slice(lo, lo + step) for lo in range(0, K, step)]


def _best_affordable_utility(grid: TypeGrid, contract: Contract, tol: float = 0.0) -> np.ndarray:
    """best[k, l] = max of p - v[k] * x over items with x <= c[l] + tol, or -inf.

    Sorted by x, the items affordable at a capacity form a prefix.  Rows are
    independent, so they are built in blocks.
    """
    x, p = contract.allocation.ravel(), contract.payment.ravel()
    order = np.argsort(x, kind="stable")
    x, p = x[order], p[order]
    ends = np.searchsorted(x, grid.capacities + tol, side="right")
    best = np.empty((grid.num_valuations, grid.num_capacities))
    for rows in _row_blocks(grid):
        dev = p - grid.valuations[rows, None] * x  # (rows, K*L), by ascending x
        # Column 0 is the empty prefix: nothing affordable.
        prefix = np.maximum.accumulate(np.insert(dev, 0, -math.inf, axis=1), axis=1)
        best[rows] = prefix[:, ends]
    return best


def _feasibility_margin(grid: TypeGrid, contract: Contract) -> float:
    return float(np.max(contract.allocation - grid.capacities[None, :]))


def _greedy_margins(grid: TypeGrid, contract: Contract, tol: float) -> tuple[float, float]:
    x = contract.allocation
    c = grid.capacities
    if grid.num_capacities == 1:
        return 0.0, 0.0
    # Least and most each row repurchases at any strictly higher capacity.
    above_min = np.minimum.accumulate(x[:, :0:-1], axis=1)[:, ::-1]
    above_max = np.maximum.accumulate(x[:, :0:-1], axis=1)[:, ::-1]
    # Rounding is monotone, so the largest x[lo] - x[hi] is x[lo] - min x[hi].
    monotone = max(0.0, float(np.max(x[:, :-1] - above_min)))
    strictly_more = above_max > x[:, :-1] + tol
    gap = np.abs(x[:, :-1] - c[:-1])
    maximal = float(np.max(gap, where=strictly_more, initial=0.0))
    return monotone, maximal


def _valuation_monotone_margin(grid: TypeGrid, contract: Contract) -> float:
    # P2: c[l] >= x[0, l] >= ... >= x[K-1, l] >= 0, columnwise.
    x = contract.allocation
    worst = float(np.max(x[0, :] - grid.capacities))
    worst = max(worst, float(np.max(-x)))
    if grid.num_valuations > 1:
        worst = max(worst, float(np.max(np.diff(x, axis=0))))
    return worst


def _squeeze_margin(grid: TypeGrid, contract: Contract) -> float:
    # P3: v[p]*(x[p]-x[q]) <= p[p]-p[q] <= v[q]*(x[p]-x[q]) for p < q, columnwise.
    x, p, v = contract.allocation, contract.payment, grid.valuations
    worst = math.inf
    for a in range(grid.num_valuations - 1):
        dx = x[a] - x[a + 1:]  # (K - a - 1, L): one row per b > a
        dp = p[a] - p[a + 1:]
        low = np.min(dp - v[a] * dx, axis=1)
        high = np.min(v[a + 1:, None] * dx - dp, axis=1)
        # Pair order (b, low before high), so ties keep the first value seen.
        worst = min(worst, *np.column_stack((low, high)).ravel().tolist())
    return 0.0 if worst is math.inf else worst


def _ic_valuation_margin(grid: TypeGrid, contract: Contract) -> float:
    # Truthful utility beats every same-column item, for every valuation.
    x, p = contract.allocation, contract.payment
    v = grid.valuations
    truth = _truthful_utilities(grid, contract)
    # slack[k, k2, l] = truth[k, l] - (p[k2, l] - v[k] * x[k2, l]), a block of k at a time
    return min(
        float(np.min(truth[rows, None, :] - (p[None, :, :] - v[rows, None, None] * x[None, :, :])))
        for rows in _row_blocks(grid)
    )


def _ic_capacity_margin(grid: TypeGrid, contract: Contract, tol: float) -> float:
    # Truthful utility beats every affordable same-valuation item.
    x = contract.allocation
    truth = _truthful_utilities(grid, contract)
    worst = math.inf
    for l, cap in enumerate(grid.capacities):
        # Per l2: min over k of truth[k, l] - truth[k, l2], items affordable at capacity l
        slack = np.min(truth[:, l, None] - truth, axis=0, where=x <= cap + tol, initial=math.inf)
        worst = min(worst, *slack.tolist())  # in l2 order, so ties keep the first value seen
    return 0.0 if worst is math.inf else worst


def _ic_full_margin(grid: TypeGrid, contract: Contract, tol: float) -> float:
    slack = _truthful_utilities(grid, contract) - _best_affordable_utility(grid, contract, tol)
    worst = float(np.min(slack))  # +inf only where nothing is affordable at all
    return 0.0 if worst == math.inf else worst


def _ir_margin(grid: TypeGrid, contract: Contract) -> float:
    return float(np.min(_truthful_utilities(grid, contract)))


def _top_ir_margin(grid: TypeGrid, contract: Contract) -> float:
    return float(np.min(_truthful_utilities(grid, contract)[-1, :]))


def check_resource_feasibility(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, float]:
    """No item may ask for more than its type's capacity: x[k,l] <= c[l]."""
    check_shapes(grid, contract)
    margin = _feasibility_margin(grid, contract)
    return margin <= tol, margin


def check_resource_greedy(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, bool, tuple[float, float]]:
    """Allocation monotone in capacity, and capacity-dominated types fully recycled.

    Returns (monotone ok, maximal-recycling ok, (monotone margin, maximal margin)).
    """
    check_shapes(grid, contract)
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
    check_shapes(grid, contract)
    margin = _ic_full_margin(grid, contract, tol)
    return margin >= -tol, margin


def check_ic_decomposed(
    grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL
) -> tuple[bool, bool]:
    """The valuation-only and capacity-only incentive constraints."""
    check_shapes(grid, contract)
    val = _ic_valuation_margin(grid, contract)
    cap = _ic_capacity_margin(grid, contract, tol)
    return val >= -tol, cap >= -tol


def check_ir(grid: TypeGrid, contract: Contract, tol: float = AUDIT_TOL) -> tuple[bool, float]:
    """Truthful participation never hurts: p[k,l] - v[k]*x[k,l] >= 0."""
    check_shapes(grid, contract)
    margin = _ir_margin(grid, contract)
    return margin >= -tol, margin


def compute_regret(grid: TypeGrid, contract: Contract) -> float:
    """Largest utility gain any type gets from an affordable misreport.

    Maximum over true types and over deviation items whose repurchase
    amount fits the true capacity (weak inequality, no tolerance), floored
    at zero.  Computed exactly, independent of any audit tolerance.
    """
    check_shapes(grid, contract)
    gain = _best_affordable_utility(grid, contract) - _truthful_utilities(grid, contract)
    return max(0.0, float(np.max(gain)))


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
    """
    check_shapes(grid, contract)

    feas_margin = _feasibility_margin(grid, contract)
    mono_margin, maximal_margin = _greedy_margins(grid, contract, tol)
    p2_margin = _valuation_monotone_margin(grid, contract)
    p3_margin = _squeeze_margin(grid, contract)
    ic_val_margin = _ic_valuation_margin(grid, contract)
    ic_cap_margin = _ic_capacity_margin(grid, contract, tol)
    ic_margin = _ic_full_margin(grid, contract, tol)
    ir_margin = _ir_margin(grid, contract)
    p5_margin = _top_ir_margin(grid, contract)

    margins = {
        "p1": feas_margin,
        "p2": p2_margin,
        "p3": p3_margin,
        "p4": ic_cap_margin,
        "p5": p5_margin,
        "p6": max(mono_margin, maximal_margin),
        "resource_feasible": feas_margin,
        "greedy_monotone": mono_margin,
        "greedy_maximal": maximal_margin,
        "ic_valuation": ic_val_margin,
        "ic_capacity": ic_cap_margin,
        "ic_full": ic_margin,
        "ir": ir_margin,
    }

    worst_id, worst_mag = "none", 0.0
    for key in ("p1", "p2", "p3", "p4", "p5", "p6", "ic_full", "ir"):
        margin = margins[key]
        violation = max(margin, 0.0) if key in _EXCESS_KEYS else max(-margin, 0.0)
        if violation > worst_mag:
            worst_id, worst_mag = key, violation

    return AuditReport(
        resource_feasible=feas_margin <= tol,
        greedy_monotone=mono_margin <= tol,
        greedy_maximal=maximal_margin <= tol,
        ic_valuation=ic_val_margin >= -tol,
        ic_capacity=ic_cap_margin >= -tol,
        ic_full=ic_margin >= -tol,
        ir=ir_margin >= -tol,
        p1=feas_margin <= tol,
        p2=p2_margin <= tol,
        p3=p3_margin >= -tol,
        p4=ic_cap_margin >= -tol,
        p5=p5_margin >= -tol,
        p6=mono_margin <= tol and maximal_margin <= tol,
        margins=margins,
        worst_violation=(worst_id, worst_mag),
        regret=compute_regret(grid, contract),
        regret_bound=regret_bound(grid, epsilon),
    )
