"""Provider-optimal payment construction for a given feasible allocation.

Given an allocation that is feasible, non-increasing in valuation and greedy
across capacities, the cheapest payments that keep the menu incentive
compatible and individually rational are fixed: the top valuation is paid
exactly its own value for what it returns, and every lower valuation is paid
by a backward telescoping step that makes it indifferent to the next item up
the menu.  The recursion runs down every capacity column at once, each entry
taking the same float operations as in a column on its own.

Payments are computed by backward recursion rather than the equivalent
closed-form sum to avoid O(K^2) accumulation error; the closed form is kept
as a test oracle.  Every rule refuses a NaN entry and reads P1 and P2 (and
``optimal_payment_multi`` P6) off the audit's tables, ``structure_excess``,
with one slack, CLAMP_TOL: violations within it are clamped away before the
recursion, larger ones raise PreconditionError naming the first offending
entry, and priced_contract returns the clamped allocation.
"""

from __future__ import annotations

import numpy as np

from .feasibility import structure_excess
from .model import Contract, TypeGrid, ValidationError

#: Allocation slack treated as roundoff and clamped before the recursion.
CLAMP_TOL = 1e-9


class PreconditionError(ValidationError):
    """The allocation handed to a payment rule violates its structure."""


def column_payments(
    valuations: np.ndarray, allocation_column: np.ndarray, capacity: float
) -> np.ndarray:
    """Optimal payments for one capacity column.

    Requires ``capacity >= x[0] >= ... >= x[K-1] >= 0`` up to CLAMP_TOL, and
    no NaN; violations within it are clamped to the boundary, larger ones
    raise the PreconditionError of ``optimal_payment_multi``.
    """
    v = np.asarray(valuations, dtype=float)
    x = np.array(allocation_column, dtype=float)
    if x.ndim != 1 or x.shape != v.shape:
        raise PreconditionError(f"allocation column has shape {x.shape}, expected {v.shape}")
    _check_p1_p2(x[:, None], np.array([capacity], dtype=float))
    return _clamped_payments(v, x[:, None], capacity)[:, 0]


def _check_p1_p2(x: np.ndarray, c: np.ndarray) -> tuple:
    """Raise PreconditionError at the first NaN of the (K, L) allocation ``x``,
    else at its first entry past CLAMP_TOL in a P1 or P2 table (over ``c``,
    negative, rising); else return its ``structure_excess`` tables."""
    if np.isnan(x).any():
        k, l = np.argwhere(np.isnan(x))[0]
        raise PreconditionError(f"allocation is NaN at item (k={k}, l={l})")
    tables = structure_excess(x, c, CLAMP_TOL)
    for table, message in zip(tables, (
        lambda k, l: f"P1 violated at item (k={k}, l={l}): x={x[k, l]!r} > c={c[l]!r}",
        lambda k, l: f"P1 violated at item (k={k}, l={l}): x={x[k, l]!r} < 0",
        lambda k, l: f"P2 violated in column l={l}: x[{k + 1}]={x[k + 1, l]!r} > x[{k}]={x[k, l]!r}",
    )):
        if np.any(table > CLAMP_TOL):
            raise PreconditionError(message(*np.argwhere(table > CLAMP_TOL)[0]))
    return tables


def _clamp(x: np.ndarray, capacity) -> np.ndarray:
    """The (K, L) allocation columns ``x``, which passed the checks, as priced.

    Sub-CLAMP_TOL violations are roundoff from relaxed solvers: entries
    strictly outside [0, capacity] are clamped, which leaves -0.0 as np.clip
    does on one column with scalar bounds, and each column is made
    non-increasing.
    """
    x = np.where(x < 0.0, 0.0, x)
    x = np.where(x > capacity, capacity, x)
    np.minimum.accumulate(x, axis=0, out=x)
    return x


def _clamped_payments(v: np.ndarray, x: np.ndarray, capacity) -> np.ndarray:
    """Payments for ``_clamp(x, capacity)``: the backward recursion
    p[k] = p[k+1] - v[k] (x[k+1] - x[k]) runs down all columns at once as one
    sequential subtraction."""
    x = _clamp(x, capacity)
    p = np.empty_like(x)
    steps = v[:-1, None] * np.diff(x, axis=0)
    np.subtract.accumulate(np.concatenate([v[-1] * x[-1:], steps[::-1]]), axis=0, out=p[::-1])
    return p


def optimal_payment_single(grid: TypeGrid, allocation: np.ndarray) -> np.ndarray:
    """Optimal payment column for a single-capacity grid (L = 1)."""
    if grid.num_capacities != 1:
        raise ValidationError(
            f"optimal_payment_single needs a single-capacity grid, got L={grid.num_capacities}"
        )
    return column_payments(grid.valuations, allocation, float(grid.capacities[0]))


def optimal_payment_multi(grid: TypeGrid, allocation: np.ndarray) -> np.ndarray:
    """Optimal payment matrix, applied column by column.

    The allocation must hold no NaN and satisfy resource feasibility (P1),
    be non-increasing in valuation per column (P2) and greedy across
    capacities (P6); violations beyond CLAMP_TOL raise PreconditionError
    naming the property and indices, P6's at its first failing pair.
    """
    x = np.asarray(allocation, dtype=float)
    K, L = grid.num_valuations, grid.num_capacities
    if x.shape != (K, L):
        raise PreconditionError(f"allocation has shape {x.shape}, expected {(K, L)}")
    c = grid.capacities
    *_, drop, unrecycled = _check_p1_p2(x, c)
    failing = (drop > CLAMP_TOL) | (unrecycled > CLAMP_TOL)
    if np.any(failing):  # raise the first failing pair (lo, hi), drops first
        lo = int(np.argmax(np.any(failing, axis=0)))
        head, later = x[:, lo, None], x[:, lo + 1 :]
        drops = head - later
        unrecycled = (later > head + CLAMP_TOL) & (np.abs(head - c[lo]) > CLAMP_TOL)
        dropped = np.any(drops > CLAMP_TOL, axis=0)
        j = int(np.argmax(dropped | np.any(unrecycled, axis=0)))
        k, hi = int(np.argmax(drops[:, j] if dropped[j] else unrecycled[:, j])), lo + 1 + j
        if dropped[j]:
            raise PreconditionError(
                f"P6 violated (capacity monotonicity) in row k={k}: "
                f"x[l={lo}]={x[k, lo]!r} > x[l={hi}]={x[k, hi]!r}"
            )
        raise PreconditionError(
            f"P6 violated (maximal recycling) in row k={k}: "
            f"x[l={hi}]={x[k, hi]!r} > x[l={lo}]={x[k, lo]!r} "
            f"but x[l={lo}] != c={c[lo]!r}"
        )
    return _clamped_payments(grid.valuations, x, c)


def priced_contract(grid: TypeGrid, allocation: np.ndarray) -> Contract:
    """Bundle an allocation, clamped as it was priced, with its optimal payments."""
    p = optimal_payment_multi(grid, allocation)
    return Contract(_clamp(np.asarray(allocation, dtype=float), grid.capacities), p)
