"""Monte Carlo market simulation against a posted contract menu.

Samples client types, plays each client's best response (affordable items
only, opt-out allowed), and aggregates realized provider utility.  Sampling
uses a counter-based generator (Philox keyed by the seed, one uniform per
(replication, client) cell), so results are reproducible and independent of
evaluation order; aggregation is a fixed-order vectorized reduction.

A uniform becomes a type by inverse CDF through a bucketed guide table
(indexed search; Chen & Asau, 1974): the bucket of ``u`` gives the type
directly unless a cumulative probability falls inside that bucket, and only
those cells fall back to a binary search, so every draw equals
``searchsorted(cum, u, side="right")``.  Replications are drawn, looked up
and aggregated in fixed blocks.  Philox fills arrays sequentially and every
per-replication total is a row-local sum, so the blocks change no bit of the
result; what stays resident is the lookup tables, one block of cells, and
16 bytes per replication (its total repurchase and its utility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import _best_affordable_utility, _truthful_utilities
from .model import (
    OPT_OUT,
    Contract,
    MarketInstance,
    TypeGrid,
    ValidationError,
    check_shapes,
)

TIE_TRUTHFUL_FIRST = "truthful_first"
TIE_MAX_PAYMENT = "max_payment"
_TIE_MODES = (TIE_TRUTHFUL_FIRST, TIE_MAX_PAYMENT)

#: Utility gaps below this count as ties when picking a best response.
CHOICE_TOL = 1e-9

# Guide-table buckets: a power of two, so u * _BUCKETS is exact.
_BUCKETS = 1 << 16
# Replications drawn, looked up and aggregated at a time.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, RNG seed, and tie-breaking mode."""

    replications: int
    seed: int = 0
    tie_break: str = TIE_TRUTHFUL_FIRST

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError(f"replications = {self.replications} must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed = {self.seed} must fit in 64 unsigned bits")
        if self.tie_break not in _TIE_MODES:
            raise ValidationError(f"tie_break must be one of {_TIE_MODES}")


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    """Aggregates over all replications.

    ``item_counts[k, l]`` counts selections of item (k, l) across all
    (replication, client) cells; together with ``opt_out_count`` the counts
    sum to replications * n.
    """

    mean_utility: float
    std_error: float
    mean_total_repurchase: float
    shortfall_frequency: float
    item_counts: np.ndarray
    opt_out_count: int
    replications: int


def _choices_at(
    grid: TypeGrid, contract: Contract, ks: np.ndarray, l: int, tie_break: str, tol: float
) -> np.ndarray:
    """Chosen flat item code k2 * L + l2 for valuations ``ks`` at capacity ``l``.

    -1 stands for opt-out.  See ``best_response`` for the choice rules.
    """
    x, p = contract.allocation.ravel(), contract.payment.ravel()
    affordable = x <= grid.capacities[l]  # hard restriction, no tolerance
    # p - v * x, (len(ks), K*L), built in place: fresh arrays this size cost page faults
    utilities = np.multiply.outer(-grid.valuations[ks], x)
    utilities += p
    best = np.maximum(np.max(utilities, axis=1, where=affordable, initial=-math.inf), 0.0)
    tied = utilities >= (best - tol)[:, None]
    tied &= affordable
    if tie_break == TIE_TRUTHFUL_FIRST:
        own = ks * grid.num_capacities + l
        codes = np.where(tied[np.arange(len(ks)), own], own, np.argmax(tied, axis=1))
    else:
        codes = np.argmax(np.where(tied, p, -math.inf), axis=1)
    return np.where(tied.any(axis=1), codes, -1)


def best_response(
    grid: TypeGrid,
    contract: Contract,
    true_type: tuple[int, int],
    tie_break: str = TIE_TRUTHFUL_FIRST,
    tol: float = CHOICE_TOL,
) -> tuple[int, int] | None:
    """Utility-maximizing choice of a client with the given true type.

    Only items whose repurchase amount fits the client's capacity are
    selectable; opting out is always available and worth 0.  Ties within
    ``tol`` go to the truthful item first (then the lexicographically lowest
    item) in ``truthful_first`` mode, or to the highest-payment item (then
    the lexicographically lowest) in ``max_payment`` mode.  A client
    indifferent between signing and opting out signs.
    """
    check_shapes(grid, contract)
    if tie_break not in _TIE_MODES:
        raise ValidationError(f"tie_break must be one of {_TIE_MODES}")
    k, l = true_type
    grid.check_item(k, l)
    code = int(_choices_at(grid, contract, np.array([k]), l, tie_break, tol)[0])
    return OPT_OUT if code < 0 else divmod(code, grid.num_capacities)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """start[b] = #{cum <= b / _BUCKETS} for b in 0.._BUCKETS.

    A cumulative value c counts from bucket edge ceil(c * _BUCKETS) on;
    values above 1 never count.
    """
    first = np.clip(np.ceil(cum * _BUCKETS), 0, _BUCKETS + 1).astype(np.intp)
    return np.cumsum(np.bincount(first, minlength=_BUCKETS + 2)[:-1])


def _lookup(cum: np.ndarray, start: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(searchsorted(cum, u, side="right"), len(cum) - 1) for u in [0, 1)."""
    b = (u * _BUCKETS).astype(np.intp)
    idx = start[b]
    # A bucket with no cumulative value in (b/B, (b+1)/B] maps all of itself
    # to start[b]; the others need the search.
    split = np.flatnonzero(idx != start[b + 1])
    idx[split] = np.searchsorted(cum, u[split], side="right")
    return np.minimum(idx, len(cum) - 1)


def _type_blocks(instance: MarketInstance, config: SimulationConfig):
    """(rows, n) flat type indices, l-major, drawn per client, one block of
    consecutive replications at a time."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    cums = [np.cumsum(client.probs.ravel()) for client in instance.clients]
    tables = [(cum, _guide_table(cum)) for cum in cums]
    for lo in range(0, config.replications, _BLOCK):
        u = rng.random((min(_BLOCK, config.replications - lo), instance.num_clients))
        types = np.empty(u.shape, dtype=np.intp)
        for i, (cum, start) in enumerate(tables):
            types[:, i] = _lookup(cum, start, u[:, i])
        yield types


def _choice_tables(instance: MarketInstance, contract: Contract, tie_break: str):
    """Per-type best-response lookup: chosen x, chosen p, and item code.

    Codes are k * L + l for items, -1 for opt-out; the table index is the
    l-major type index used by the sampler.
    """
    grid = instance.grid
    ks = np.arange(grid.num_valuations)
    codes = np.concatenate([
        _choices_at(grid, contract, ks, l, tie_break, CHOICE_TOL)
        for l in range(grid.num_capacities)
    ])
    # Code -1 picks the appended zero: opting out moves nothing.
    chosen_x = np.append(contract.allocation.ravel(), 0.0)[codes]
    chosen_p = np.append(contract.payment.ravel(), 0.0)[codes]
    return chosen_x, chosen_p, codes


def simulate(
    instance: MarketInstance, contract: Contract, config: SimulationConfig
) -> SimulationSummary:
    """Estimate the provider's utility distribution under best responses."""
    check_shapes(instance.grid, contract)
    K, L = instance.grid.num_valuations, instance.grid.num_capacities
    chosen_x, chosen_p, codes = _choice_tables(instance, contract, config.tie_break)

    R = config.replications
    total_x = np.empty(R)
    utility = np.empty(R)
    type_counts = np.zeros(len(codes), dtype=np.intp)
    for lo, types in zip(range(0, R, _BLOCK), _type_blocks(instance, config)):
        rows = slice(lo, lo + len(types))
        total_x[rows] = chosen_x[types].sum(axis=1)  # row sums: the same bits in any block
        total_p = chosen_p[types].sum(axis=1)
        shortfall = np.minimum(0.0, total_x[rows] - instance.demand_floor)
        utility[rows] = instance.alpha * total_x[rows] - total_p + instance.penalty * shortfall
        type_counts += np.bincount(types.ravel(), minlength=len(codes))

    mean = float(utility.mean())
    std_error = float(utility.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    counts = np.zeros(K * L + 1, dtype=np.intp)
    np.add.at(counts, codes + 1, type_counts)
    return SimulationSummary(
        mean_utility=mean,
        std_error=std_error,
        mean_total_repurchase=float(total_x.mean()),
        shortfall_frequency=float(np.mean(total_x < instance.demand_floor)),
        item_counts=counts[1:].reshape(K, L),
        opt_out_count=int(counts[0]),
        replications=R,
    )


def estimate_misreport_gain(
    instance: MarketInstance, contract: Contract, config: SimulationConfig
) -> float:
    """Largest observed utility gain from misreporting, over sampled types.

    The gain of a sampled type is the best affordable item's utility minus
    the truthful item's, floored at zero — the empirical counterpart of the
    exact regret, which it never exceeds.
    """
    grid = instance.grid
    check_shapes(grid, contract)
    gain = _best_affordable_utility(grid, contract) - _truthful_utilities(grid, contract)
    gain = gain.T.ravel()  # l-major type index
    return max(0.0, *(float(np.max(gain[types])) for types in _type_blocks(instance, config)))
