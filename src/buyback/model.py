"""Domain types for the resource-repurchasing market and the basic utility formulas.

A client's private type is a pair (valuation per resource unit, idle capacity).
The provider posts a contract menu indexed by type; every quantity in this
module is a plain float or a numpy array of floats.  All objects are immutable
after construction and all operations are pure functions, so everything here
is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute tolerance for probability-mass bookkeeping (rows of a client
#: distribution must sum to one within this).
PROB_SUM_TOL = 1e-9

#: Marker for the opt-out choice (equivalent to a null item with x = 0, p = 0).
OPT_OUT = None


class ValidationError(ValueError):
    """An input violates a domain invariant (bad shape, bad index, bad value)."""


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TypeGrid:
    """Sorted valuation and capacity sets defining the contract-item lattice.

    ``valuations`` holds K distinct per-unit values (money per resource unit),
    ``capacities`` holds L distinct idle-capacity levels (resource units).
    Contract items are indexed by pairs (k, l) into these arrays.
    """

    valuations: np.ndarray
    capacities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "valuations", _as_readonly(self.valuations))
        object.__setattr__(self, "capacities", _as_readonly(self.capacities))
        for name, arr in (("valuations", self.valuations), ("capacities", self.capacities)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValidationError(f"{name} must be a non-empty 1-d sequence")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            if arr[0] <= 0.0:
                raise ValidationError(f"{name}[0] = {arr[0]} must be strictly positive")
            bad = np.nonzero(np.diff(arr) <= 0.0)[0]
            if bad.size:
                i = int(bad[0])
                raise ValidationError(
                    f"{name} must be strictly increasing; "
                    f"{name}[{i}] = {arr[i]} >= {name}[{i + 1}] = {arr[i + 1]}"
                )

    @property
    def num_valuations(self) -> int:
        return int(self.valuations.size)

    @property
    def num_capacities(self) -> int:
        return int(self.capacities.size)

    def check_item(self, k: int, l: int) -> None:
        """Raise ValidationError unless (k, l) indexes a contract item."""
        if not (0 <= k < self.num_valuations and 0 <= l < self.num_capacities):
            raise ValidationError(
                f"item index ({k}, {l}) out of range for a "
                f"{self.num_valuations}x{self.num_capacities} grid"
            )


@dataclass(frozen=True, eq=False)
class ClientDistribution:
    """Joint type distribution of one client.

    ``probs[l, k]`` is the probability that the client's type is
    (valuations[k], capacities[l]); rows are capacities, columns valuations.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly(self.probs))
        p = self.probs
        if p.ndim != 2:
            raise ValidationError("probs must be a 2-d matrix (capacities x valuations)")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probs contains non-finite entries")
        if np.any(p < 0.0) or np.any(p > 1.0):
            l, k = np.argwhere((p < 0.0) | (p > 1.0))[0]
            raise ValidationError(f"probs[{l}][{k}] = {p[l, k]} is outside [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probs entries sum to {total!r}, expected 1.0")


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """One repurchasing market: a type grid, n clients, and the price terms.

    ``alpha`` is the rental price the provider earns per reclaimed unit,
    ``penalty`` the per-unit cost of falling short of the release floor
    ``demand_floor``.
    """

    grid: TypeGrid
    clients: tuple[ClientDistribution, ...]
    alpha: float
    penalty: float
    demand_floor: float

    def __post_init__(self):
        object.__setattr__(self, "clients", tuple(self.clients))
        if len(self.clients) < 1:
            raise ValidationError("instance needs at least one client")
        shape = (self.grid.num_capacities, self.grid.num_valuations)
        for i, client in enumerate(self.clients):
            if client.probs.shape != shape:
                raise ValidationError(
                    f"clients[{i}].probs has shape {client.probs.shape}, expected {shape}"
                )
        for name in ("alpha", "penalty", "demand_floor"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValidationError(f"{name} = {value} must be finite")
        if self.alpha <= 0.0:
            raise ValidationError(f"alpha = {self.alpha} must be strictly positive")
        if self.penalty < 0.0:
            raise ValidationError(f"penalty = {self.penalty} must be non-negative")
        if self.demand_floor < 0.0:
            raise ValidationError(f"demand_floor = {self.demand_floor} must be non-negative")

    @property
    def num_clients(self) -> int:
        return len(self.clients)


@dataclass(frozen=True, eq=False)
class Contract:
    """A contract menu: repurchase amounts and payments per type.

    ``allocation[k, l]`` is the recommended repurchase amount for type
    (valuations[k], capacities[l]); ``payment[k, l]`` the money paid for it.
    """

    allocation: np.ndarray
    payment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "allocation", _as_readonly(self.allocation))
        object.__setattr__(self, "payment", _as_readonly(self.payment))
        for name, arr in (("allocation", self.allocation), ("payment", self.payment)):
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-d matrix (valuations x capacities)")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            if np.any(arr < 0.0):
                k, l = np.argwhere(arr < 0.0)[0]
                raise ValidationError(f"{name}[{k}][{l}] = {arr[k, l]} is negative")
        if self.allocation.shape != self.payment.shape:
            raise ValidationError(
                f"allocation shape {self.allocation.shape} != payment shape {self.payment.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.allocation.shape

    @classmethod
    def zero(cls, grid: TypeGrid) -> "Contract":
        """The all-zero menu (every item equivalent to opting out)."""
        shape = (grid.num_valuations, grid.num_capacities)
        return cls(np.zeros(shape), np.zeros(shape))


@dataclass(frozen=True, eq=False)
class AggregateWeights:
    """Expected count of clients per type: ``weights[l, k]`` sums the clients'
    probabilities for type (k, l).  Precomputed once and reused by the solver
    and the expected-utility formula."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_readonly(self.weights))
        if np.any(self.weights < 0.0):
            raise ValidationError("aggregate weights must be non-negative")

    @classmethod
    def from_instance(cls, instance: MarketInstance) -> "AggregateWeights":
        total = np.zeros_like(instance.clients[0].probs)
        for client in instance.clients:
            total = total + client.probs
        return cls(total)


def check_tol(tol: float) -> None:
    """Raise ValidationError unless the tolerance is finite and non-negative."""
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol = {tol} must be finite and non-negative")


def check_shapes(grid: TypeGrid, contract: Contract) -> None:
    """Raise ValidationError unless the contract matches the grid's K x L shape."""
    expected = (grid.num_valuations, grid.num_capacities)
    if contract.shape != expected:
        raise ValidationError(
            f"contract shape {contract.shape} does not match grid shape {expected}"
        )


def client_utility(
    grid: TypeGrid,
    contract: Contract,
    true_valuation: int,
    chosen_item: tuple[int, int] | None,
) -> float:
    """Utility p - v*x of a client with valuation index ``true_valuation`` who
    takes ``chosen_item`` (a (k, l) index pair) or opts out (``None``)."""
    check_shapes(grid, contract)
    if not 0 <= true_valuation < grid.num_valuations:
        raise ValidationError(f"valuation index {true_valuation} out of range")
    if chosen_item is OPT_OUT:
        return 0.0
    k, l = chosen_item
    grid.check_item(k, l)
    v = float(grid.valuations[true_valuation])
    return float(contract.payment[k, l] - v * contract.allocation[k, l])


def provider_expected_utility(instance: MarketInstance, contract: Contract) -> float:
    """Expected provider utility under truthful selection.

    Sums lambda_i[l,k] * (alpha*x[k,l] - p[k,l]) over clients and types, plus
    the penalty term M * min(0, expected total repurchase - demand floor).
    """
    check_shapes(instance.grid, contract)
    margin = instance.alpha * contract.allocation - contract.payment  # (K, L)
    value = 0.0
    supply = 0.0
    for client in instance.clients:
        value += float(np.sum(client.probs * margin.T))
        supply += float(np.sum(client.probs * contract.allocation.T))
    return value + instance.penalty * min(0.0, supply - instance.demand_floor)


def realized_provider_utility(
    instance: MarketInstance,
    contract: Contract,
    chosen_items: list[tuple[int, int] | None],
) -> float:
    """Provider utility for one realized profile of client choices.

    ``chosen_items`` holds one (k, l) pair or ``OPT_OUT`` per client; an
    opt-out contributes x = 0, p = 0.
    """
    check_shapes(instance.grid, contract)
    if len(chosen_items) != instance.num_clients:
        raise ValidationError(
            f"expected {instance.num_clients} choices, got {len(chosen_items)}"
        )
    total_x = 0.0
    total_p = 0.0
    for choice in chosen_items:
        if choice is OPT_OUT:
            continue
        k, l = choice
        instance.grid.check_item(k, l)
        total_x += float(contract.allocation[k, l])
        total_p += float(contract.payment[k, l])
    shortfall = min(0.0, total_x - instance.demand_floor)
    return instance.alpha * total_x - total_p + instance.penalty * shortfall
