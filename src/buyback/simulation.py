"""Monte Carlo market simulation against a posted contract menu.

Samples client types, plays each client's best response (affordable items
only, opt-out allowed), and aggregates realized provider utility.  Sampling
uses a counter-based generator (Philox keyed by the seed, one 64-bit word per
(replication, client) cell, read as the uniform u = (word >> 11) * 2**-53
that ``Generator.random`` makes of it), so results are reproducible and
independent of evaluation order; aggregation is a fixed-order vectorized
reduction.

Best responses are tabulated per type before any draw.  In the default
``truthful_first`` mode most types keep their own item, and whether one does
is read off the prefix maximum over items sorted by repurchase amount that
the regret audit uses: O(K^2 L) work for the whole grid, against O((K L)^2)
for comparing every item.  Only the other types, and every type in
``max_payment`` mode, compare all K*L items.

A word becomes a type by inverse CDF through a bucketed guide table
(indexed search; Chen & Asau, 1974): the word's top 16 bits are u's bucket,
and one gather from a table of 2**16 small integers gives the type of every
draw whose bucket holds no cumulative probability.  Only the other draws
become doubles: a bucket holding one cumulative value settles them by one
compare against it, one holding several by a binary search, so every draw
equals ``searchsorted(cum, u, side="right")`` capped at the last type.
Replications are drawn, looked up and aggregated in blocks of raw words,
regrouped client-major (one row of draws per client): the leaves of
numpy's pairwise tree over the replications (``_leaves``).  Philox hands
out its words in sequence however they are grouped, and each
per-replication total is numpy's pairwise sum over the clients, taken with
whole client rows for terms from one complex table x + 1j p, so one gather
serves both totals and the blocks change no bit of the result.  A block is
released before the next is drawn, once its repurchase sum, one leaf, is
reduced (``_fold`` joins the leaves), so what stays resident is the lookup
tables, one block of cells and 8 bytes per replication: its utility, which
the standard deviation reads again a leaf at a time once the mean is known.
A footprint flat in the replication count would draw every type twice.
"""

from __future__ import annotations

import math
import operator
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
# The most replications drawn and aggregated at a time: blocks are the leaves
# of numpy's pairwise tree over replications (6,248-6,252 rows at 100,000).
_BLOCK = 1 << 13

#: Largest replication count ``SimulationConfig`` takes: 0.8 GB of utilities.
MAX_REPLICATIONS = 10**8


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, RNG seed, and tie-breaking mode."""

    replications: int
    seed: int = 0
    tie_break: str = TIE_TRUTHFUL_FIRST

    def __post_init__(self):
        for name in ("replications", "seed"):  # any integer but a bool, stored as an int
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValidationError(f"{name} = {value!r} must be an integer")
            object.__setattr__(self, name, operator.index(value))
        if self.replications < 1:
            raise ValidationError(f"replications = {self.replications} must be >= 1")
        if self.replications > MAX_REPLICATIONS:
            raise ValidationError(
                f"replications = {self.replications} is over MAX_REPLICATIONS = {MAX_REPLICATIONS}"
            )
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
    grid: TypeGrid, contract: Contract, ks: np.ndarray, l: int, tie_break: str
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
    tied = utilities >= (best - CHOICE_TOL)[:, None]
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
) -> tuple[int, int] | None:
    """Utility-maximizing choice of a client with the given true type.

    Only items whose repurchase amount fits the client's capacity are
    selectable; opting out is always available and worth 0.  Utility gaps
    below ``CHOICE_TOL`` are ties, as in ``simulate``; they go to the
    truthful item first (then the lexicographically lowest item) in
    ``truthful_first`` mode, or to the highest-payment item (then the
    lexicographically lowest) in ``max_payment`` mode.  A client indifferent
    between signing and opting out signs.
    """
    check_shapes(grid, contract)
    if tie_break not in _TIE_MODES:
        raise ValidationError(f"tie_break must be one of {_TIE_MODES}")
    k, l = true_type
    grid.check_item(k, l)
    code = int(_choices_at(grid, contract, np.array([k]), l, tie_break)[0])
    return OPT_OUT if code < 0 else divmod(code, grid.num_capacities)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """table[b] = the type of every u in [b / _BUCKETS, (b + 1) / _BUCKETS),
    or a negative code for a split bucket.

    A cumulative value c counts from bucket edge ceil(c * _BUCKETS) on, and
    type j covers the edges from where cum[j - 1] counts up to where cum[j]
    does; the last type covers the rest, which caps a draw at len(cum) - 1.
    A value that counts from edge b + 1 falls inside bucket b, whose draws
    then need a compare: its entry is -1 - j when cum[j] is the only such
    value, and -len(cum) when there are several.  Entries lie in
    [-len(cum), len(cum)), so the dtype is the narrowest signed integer
    holding -len(cum): one byte up to 128 types, two up to 32,768.
    """
    first = np.clip(np.ceil(cum[:-1] * _BUCKETS), 0, _BUCKETS + 1).astype(np.intp)
    edges = np.diff(first, prepend=0, append=_BUCKETS + 1)
    table = np.repeat(np.arange(len(cum), dtype=np.min_scalar_type(-len(cum))), edges)
    inside = np.flatnonzero((first > 0) & (first <= _BUCKETS))
    split = first[inside] - 1  # nondecreasing, as cum is
    table[split] = -1 - inside
    table[split[1:][split[1:] == split[:-1]]] = -len(cum)  # a bucket met twice
    return table[:_BUCKETS]


def _lookup(cum: np.ndarray, table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """min(searchsorted(cum, u, side="right"), len(cum) - 1) for the doubles
    u = (words >> 11) * 2**-53 that ``Generator.random`` makes of Philox words.

    The bucket of u is its top 16 bits, words >> 48; only the words that land
    in a split bucket become doubles.  Types come in the table's dtype.
    """
    idx = table[(words >> 48).view(np.intp)]
    split = np.flatnonzero(idx < 0)
    u = (words[split] >> 11) * 2.0**-53
    j = -1 - idx[split].astype(np.intp)  # cum[j] is the bucket's one value
    found = j + (u >= cum[j])
    several = np.flatnonzero(j == len(cum) - 1)
    # Without its last value the search stops at len(cum) - 1.
    found[several] = np.searchsorted(cum[:-1], u[several], side="right")
    idx[split] = found
    return idx


def _type_blocks(instance: MarketInstance, config: SimulationConfig):
    """(n, rows) flat type indices, l-major, client-major: row i holds client
    i's draws for one block of consecutive replications, the same as
    ``Generator.random((rows, n))`` would give column i.  The block widths
    are ``_leaves(replications, _BLOCK)``."""
    bitgen = np.random.Philox(key=config.seed)
    cums = [np.cumsum(client.probs.ravel()) for client in instance.clients]
    tables = [_guide_table(cum) for cum in cums]
    for rows in _leaves(config.replications, _BLOCK):
        # Keeps no reference to the block it yields, nor to its words.
        yield _draw_types(bitgen, cums, tables, rows)


def _draw_types(bitgen, cums: list, tables: list, rows: int) -> np.ndarray:
    """The next (n, rows) block of ``_type_blocks``."""
    n = len(cums)
    # Replication-major, as Generator.random((rows, n)) consumes them.
    words = bitgen.random_raw(rows * n).reshape(rows, n).T
    types = np.empty((n, rows), dtype=np.intp)
    for i, (cum, table) in enumerate(zip(cums, tables)):
        types[i] = _lookup(cum, table, words[i])
    return types


def _split(n: int) -> int:
    """Where numpy's pairwise sum splits n terms: near the middle, at a
    multiple of 8."""
    return n // 2 - n // 2 % 8


def _leaves(n: int, cap: int):
    """Sizes, in order, of the subtrees of at most ``cap`` terms that numpy's
    pairwise sum of n terms splits into.  Past ``cap`` terms each is more
    than cap/2 - 8."""
    if n <= cap:
        yield n
    else:
        half = _split(n)
        yield from _leaves(half, cap)
        yield from _leaves(n - half, cap)


def _fold(leaf_sums, n: int, cap: int):
    """numpy's pairwise sum of n terms from the sums of its ``_leaves(n, cap)``
    subtrees, taken from the iterator ``leaf_sums`` in order.  0.0 plus the
    fold of the leaves' ``np.add.reduce`` is the whole array's: a leaf's own
    0.0 start can only turn -0.0 into +0.0, and no nonzero sum tells them
    apart."""
    if n <= cap:
        return next(leaf_sums)
    half = _split(n)
    left = _fold(leaf_sums, half, cap)
    return left + _fold(leaf_sums, n - half, cap)


def _pieces(values: np.ndarray, cap: int):
    """Views of ``values`` along its first axis, one per ``_leaves``."""
    lo = 0
    for size in _leaves(len(values), cap):
        yield values[lo : lo + size]
        lo += size


def _pairwise_sum(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """numpy's pairwise_sum, less its 0.0 start, of the n <= 128 gathered
    rows ``values[rows[i]]``: below 8 terms in sequence, else eight lanes,
    their tree, then the rest in sequence."""
    n = len(rows)
    if n < 8:
        total, end = values[rows[0]], 1
    else:
        end = n - n % 8
        # Eight lanes, lane j summing rows j, j + 8, ... in sequence, then
        # their tree ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)).  One lane at a time,
        # each finished pair joined at once, so at most four rows are live.
        lanes = []
        for j in range(8):
            lane = values[rows[j]]
            for i in range(j + 8, end, 8):
                lane += values[rows[i]]
            lanes.append(lane)
            size = j + 1
            while size % 2 == 0:
                right = lanes.pop()
                lanes[-1] += right
                size //= 2
        (total,) = lanes
    for i in range(end, n):
        total += values[rows[i]]
    return total


def _row_sums(values: np.ndarray, types: np.ndarray) -> np.ndarray:
    """For client-major ``types``, the row sums of the replication-major
    gather, ``values[np.ascontiguousarray(types.T)].sum(axis=1)``, bit for
    bit, one gathered client row at a time.

    numpy sums a row as its identity 0.0 plus the row's pairwise_sum.  The
    same tree with whole client rows for terms skips the per-row call
    overhead of summing many short rows.  For a complex table each add is
    two independent IEEE adds, so the real and imaginary parts each keep
    the tree of their own float table.
    """
    sums = (_pairwise_sum(values, rows) for rows in _pieces(types, 128))
    total = _fold(sums, len(types), 128)
    total += 0.0  # the identity: turns a -0.0 total into 0.0
    return total


def _std(values: np.ndarray, mean: float) -> float:
    """``values.std(ddof=1)`` given ``values.mean()``, bit for bit, squaring
    one leaf of deviations at a time."""
    squares = (np.add.reduce(np.square(piece - mean)) for piece in _pieces(values, _BLOCK))
    return math.sqrt((0.0 + _fold(squares, len(values), _BLOCK)) / (len(values) - 1))


def _choice_tables(instance: MarketInstance, contract: Contract, tie_break: str):
    """Per-type best-response lookup: chosen x, chosen p, and item code.

    Codes are k * L + l for items, -1 for opt-out; the table index is the
    l-major type index used by the sampler.  In ``truthful_first`` mode a
    type keeps its own item exactly when ``_choices_at`` would give it: the
    item is affordable and its utility is at least max(best, 0) - CHOICE_TOL,
    best being the tol-0 prefix maximum ``regret`` uses.  Both sides round
    the same products over the same affordable set and the max is exact, so
    the codes agree bit for bit.  The other types go through ``_choices_at``,
    one capacity at a time.
    """
    grid = instance.grid
    K, L = grid.num_valuations, grid.num_capacities
    x = contract.allocation
    codes = np.arange(K * L).reshape(K, L)  # each type's own item
    keeps_own = np.zeros((K, L), dtype=bool)
    if tie_break == TIE_TRUTHFUL_FIRST:
        (best,) = _best_affordable_utility(grid, contract)
        truth = _truthful_utilities(grid, contract)
        keeps_own = (x <= grid.capacities) & (truth >= np.maximum(best, 0.0) - CHOICE_TOL)
    for l in range(L):
        ks = np.flatnonzero(~keeps_own[:, l])
        if ks.size:
            codes[ks, l] = _choices_at(grid, contract, ks, l, tie_break)
    codes = codes.T.ravel()
    # Code -1 picks the appended zero: opting out moves nothing.
    chosen_x = np.append(x.ravel(), 0.0)[codes]
    chosen_p = np.append(contract.payment.ravel(), 0.0)[codes]
    return chosen_x, chosen_p, codes


def simulate(
    instance: MarketInstance, contract: Contract, config: SimulationConfig
) -> SimulationSummary:
    """Estimate the provider's utility distribution under best responses.

    The README's budgets (e.g. n = 2 on a 150 x 150 grid at 10,000
    replications: under 1 s and 16 MB) hold in ``truthful_first`` mode.
    ``max_payment`` mode compares all K*L items for every type, O((K L)^2)
    work: 3.7-6.0 s and 54.9 MB traced for that 150 x 150 menu on a shared 2-core VM.
    """
    check_shapes(instance.grid, contract)
    K, L = instance.grid.num_valuations, instance.grid.num_capacities
    chosen_x, chosen_p, codes = _choice_tables(instance, contract, config.tie_break)
    chosen = np.empty(len(codes), dtype=complex)  # x + 1j p: one gather for both
    chosen.real, chosen.imag = chosen_x, chosen_p

    R = config.replications
    D = instance.demand_floor
    utility = np.empty(R)
    repurchase = []  # one sum per leaf of numpy's tree over the replications
    shortfalls = 0
    type_counts = np.zeros(len(codes), dtype=np.intp)
    lo = 0
    for types in _type_blocks(instance, config):  # not zip: its tuple would hold a block
        total = _row_sums(chosen, types)  # row sums: the same bits in any block
        type_counts += np.bincount(types.ravel(), minlength=len(codes))
        x = total.real
        repurchase.append(np.add.reduce(x))
        shortfalls += int(np.count_nonzero(x < D))
        shortfall = np.minimum(0.0, x - D)
        utility[lo : lo + len(x)] = instance.alpha * x - total.imag + instance.penalty * shortfall
        lo += len(x)
        del types, total, x, shortfall  # released before the next block is drawn

    mean = utility.mean()
    counts = np.zeros(K * L + 1, dtype=np.intp)
    np.add.at(counts, codes + 1, type_counts)
    return SimulationSummary(
        mean_utility=float(mean),
        std_error=_std(utility, mean) / math.sqrt(R) if R > 1 else 0.0,
        mean_total_repurchase=float((0.0 + _fold(iter(repurchase), R, _BLOCK)) / R),
        shortfall_frequency=shortfalls / R,  # np.mean of the booleans, exactly
        item_counts=counts[1:].reshape(K, L),
        opt_out_count=int(counts[0]),
        replications=R,
    )


def estimate_misreport_gain(
    instance: MarketInstance, contract: Contract, replications: int, seed: int = 0
) -> float:
    """Largest observed utility gain from misreporting, over the types that
    ``simulate`` draws with ``SimulationConfig(replications, seed)``.

    The gain of a sampled type is the best affordable item's utility minus
    the truthful item's, floored at zero — the empirical counterpart of the
    exact regret, which it never exceeds.
    """
    config = SimulationConfig(replications, seed)
    grid = instance.grid
    check_shapes(grid, contract)
    (best,) = _best_affordable_utility(grid, contract)
    gain = (best - _truthful_utilities(grid, contract)).T.ravel()  # l-major type index
    # map, unlike a generator expression, holds no block while the next is drawn.
    return max(0.0, *map(lambda types: float(np.max(gain[types])), _type_blocks(instance, config)))
