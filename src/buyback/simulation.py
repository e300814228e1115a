"""Monte Carlo market simulation against a posted contract menu.

Samples client types, plays each client's best response (affordable items
only, opt-out allowed), and aggregates realized provider utility.  Sampling
uses a counter-based generator (Philox keyed by the seed, one uniform per
(replication, client) cell), so results are reproducible and independent of
evaluation order; aggregation is a fixed-order vectorized reduction.
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


def _sample_type_indices(
    instance: MarketInstance, config: SimulationConfig
) -> np.ndarray:
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
    types = _sample_type_indices(instance, config)
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
    types = _sample_type_indices(instance, config)
    return max(0.0, float(np.max(gain.T.ravel()[types])))  # l-major type index
