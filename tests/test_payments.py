from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from buyback import (
    Contract,
    PreconditionError,
    TypeGrid,
    ValidationError,
    check_ic_full,
    check_ir,
    check_theorem1,
    column_payments,
    optimal_payment_multi,
    optimal_payment_single,
    priced_contract,
)
from buyback.payments import CLAMP_TOL
from helpers import (
    column_payments_reference,
    greedy_allocation,
    optimal_payment_multi_reference,
    random_grid,
    random_monotone_y,
)


def closed_form_column(v, x):
    """Test oracle: the explicit telescoping sum instead of the recursion."""
    K = len(v)
    p = np.empty(K)
    for k in range(K):
        p[k] = v[K - 1] * x[K - 1] - sum(v[j] * (x[j + 1] - x[j]) for j in range(k, K - 1))
    return p


def test_single_item_pays_value():
    grid = TypeGrid([5.0], [10.0])
    assert optimal_payment_single(grid, [10.0]).tolist() == [50.0]


def test_two_type_telescoping():
    grid = TypeGrid([1.0, 2.0], [10.0])
    p = optimal_payment_single(grid, [10.0, 4.0])
    assert p.tolist() == [14.0, 8.0]
    contract = Contract([[10.0], [4.0]], p[:, None])
    assert check_ic_full(grid, contract)[0]
    assert check_ir(grid, contract)[0]


def test_constant_allocation_collapses():
    grid = TypeGrid([1.0, 2.0, 3.0], [10.0])
    p = optimal_payment_single(grid, [6.0, 6.0, 6.0])
    assert p.tolist() == [18.0, 18.0, 18.0]


def test_recursion_matches_closed_form():
    rng = np.random.default_rng(59)
    for _ in range(200):
        grid = random_grid(rng, max_k=5, l=1)
        x = greedy_allocation(grid, random_monotone_y(rng, grid))[:, 0]
        p = optimal_payment_single(grid, x)
        assert p == pytest.approx(closed_form_column(grid.valuations, x), abs=1e-9)


def test_single_requires_single_capacity_grid():
    grid = TypeGrid([1.0], [5.0, 10.0])
    with pytest.raises(Exception):
        optimal_payment_single(grid, [5.0])


def test_single_precondition_errors_name_index():
    grid = TypeGrid([1.0, 2.0], [10.0])
    with pytest.raises(PreconditionError, match=r"x\[1\]"):
        optimal_payment_single(grid, [4.0, 10.0])
    with pytest.raises(PreconditionError, match="k=0"):
        optimal_payment_single(grid, [11.0, 4.0])
    with pytest.raises(PreconditionError, match="k=1"):
        optimal_payment_single(grid, [4.0, -1.0])
    with pytest.raises(PreconditionError, match=r"column has shape \(3,\), expected \(2,\)"):
        optimal_payment_single(grid, [4.0, 4.0, 4.0])


def test_subtolerance_violations_are_clamped():
    grid = TypeGrid([1.0, 2.0], [10.0])
    p = optimal_payment_single(grid, [4.0, 4.0 + 1e-12])
    assert p.tolist() == optimal_payment_single(grid, [4.0, 4.0]).tolist()


def test_multi_identical_columns_replicate_single():
    grid = TypeGrid([1.0, 2.0], [10.0, 12.0])
    single = column_payments(grid.valuations, np.array([10.0, 4.0]), 10.0)
    p = optimal_payment_multi(grid, [[10.0, 10.0], [4.0, 4.0]])
    assert np.array_equal(p[:, 0], single) and np.array_equal(p[:, 1], single)


def test_multi_single_valuation_per_column():
    grid = TypeGrid([3.0], [5.0, 10.0])
    p = optimal_payment_multi(grid, [[5.0, 8.0]])
    assert p.tolist() == [[15.0, 24.0]]
    contract = Contract([[5.0, 8.0]], p)
    assert check_ic_full(grid, contract)[0]


def test_multi_two_by_two_audit_clean():
    # greedy two-column allocation; the full audit passes
    grid = TypeGrid([1.0, 2.0], [5.0, 10.0])
    x = [[5.0, 10.0], [5.0, 5.0]]
    p = optimal_payment_multi(grid, x)
    assert p == pytest.approx(np.array([[10.0, 15.0], [10.0, 10.0]]))
    report = check_theorem1(grid, Contract(np.array(x), p), tol=1e-9)
    assert report.feasible and report.ic_full and report.ir


def test_multi_rejects_capacity_monotonicity_violation():
    # a row that shrinks at the larger capacity is not resource greedy
    grid = TypeGrid([1.0, 2.0], [5.0, 10.0])
    x = [[5.0, 10.0], [5.0, 4.0]]
    with pytest.raises(PreconditionError, match="P6") as raised:
        optimal_payment_multi(grid, x)
    assert str(raised.value) == priced_or_message(optimal_payment_multi_reference, grid, x)
    assert "capacity monotonicity) in row k=1" in str(raised.value)


def test_multi_rejects_p1_and_p2():
    grid = TypeGrid([1.0, 2.0], [5.0, 10.0])
    with pytest.raises(PreconditionError, match="P1"):
        optimal_payment_multi(grid, [[6.0, 6.0], [5.0, 5.0]])
    with pytest.raises(PreconditionError, match="P2"):
        optimal_payment_multi(grid, [[4.0, 4.0], [5.0, 5.0]])
    with pytest.raises(PreconditionError, match=r"allocation has shape \(1, 2\), expected \(2, 2\)"):
        optimal_payment_multi(grid, [[4.0, 4.0]])


def test_multi_restricted_to_one_column_equals_single():
    rng = np.random.default_rng(61)
    for _ in range(100):
        grid = random_grid(rng, max_k=5, l=1)
        x = greedy_allocation(grid, random_monotone_y(rng, grid))
        multi = optimal_payment_multi(grid, x)
        single = optimal_payment_single(grid, x[:, 0])
        assert np.array_equal(multi[:, 0], single)


def test_top_valuation_ir_binds_exactly():
    rng = np.random.default_rng(67)
    for _ in range(100):
        grid = random_grid(rng, max_k=4, max_l=3)
        x = greedy_allocation(grid, random_monotone_y(rng, grid))
        p = optimal_payment_multi(grid, x)
        top = p[-1, :] - grid.valuations[-1] * x[-1, :]
        assert np.all(top == 0.0)


def test_adjacent_indifference():
    rng = np.random.default_rng(71)
    for _ in range(100):
        grid = random_grid(rng, max_k=5, max_l=3)
        x = greedy_allocation(grid, random_monotone_y(rng, grid))
        p = optimal_payment_multi(grid, x)
        for k in range(grid.num_valuations - 1):
            v = grid.valuations[k]
            own = p[k, :] - v * x[k, :]
            next_item = p[k + 1, :] - v * x[k + 1, :]
            assert own == pytest.approx(next_item, abs=1e-9)


def test_payment_minimality_single_entry_perturbations():
    rng = np.random.default_rng(73)
    for _ in range(60):
        grid = random_grid(rng, max_k=4, max_l=3)
        x = greedy_allocation(grid, random_monotone_y(rng, grid, min_bottom=0.3))
        p = optimal_payment_multi(grid, x)
        for delta in (1e-3, 1e-1):
            for k in range(grid.num_valuations):
                for l in range(grid.num_capacities):
                    lowered = p.copy()
                    lowered[k, l] -= delta
                    if lowered[k, l] < 0.0:
                        continue
                    report = check_theorem1(grid, Contract(x, lowered), tol=1e-6)
                    assert not (report.ic_full and report.ir)


def priced_or_message(pay, *args):
    try:
        return pay(*args)
    except PreconditionError as exc:
        return str(exc)


def assert_same_outcome(got, ref):
    if isinstance(ref, str):
        assert got == ref
    else:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # -0.0 included


def test_multi_matches_reference_bitwise():
    # payments, sub-tol clamps and -0.0 entries bit for bit, and every P1,
    # P2 and P6 message word for word on allocations holding several
    # violations, against the pair loop and one recursion per column
    rng = np.random.default_rng(71)
    seen = Counter()
    for i in range(2000):
        grid = random_grid(rng, max_k=6, max_l=6)
        x = greedy_allocation(grid, random_monotone_y(rng, grid))
        K, L = x.shape
        kind = i % 5
        if kind == 1:  # noise within, at and just past the tolerance
            x = x + rng.choice([-1.0, 0.0, 1.0], x.shape) * rng.choice(
                [1e-10, 5e-10, 1e-9, 2e-9], x.shape
            )
        elif kind == 2:
            for _ in range(int(rng.integers(2, 5))):
                x[rng.integers(K), rng.integers(L)] += rng.choice([-1.0, 1.0]) * rng.choice(
                    [1e-8, 0.1, 1.0]
                )
        elif kind == 3:
            x[rng.random(x.shape) < 0.3] = -0.0
            if i % 2:  # NaN passes every check and must hide no violation
                x[rng.integers(K), rng.integers(L)] = np.nan
                x[rng.integers(K), rng.integers(L)] += rng.choice([-1.0, 1.0])
        elif kind == 4:  # shuffled columns or rows break P6 and P2 in many places
            x = x[:, rng.permutation(L)] if i % 2 else x[rng.permutation(K)]
        tol = (1e-9, 0.0, 1e-6)[i % 3]
        ref = priced_or_message(optimal_payment_multi_reference, grid, x, tol)
        assert_same_outcome(priced_or_message(optimal_payment_multi, grid, x, tol), ref)
        seen["priced" if not isinstance(ref, str) else ref.split(" at ")[0].split(" in ")[0]] += 1
    assert seen["priced"] >= 500
    for key in ("P1 violated", "P2 violated", "P6 violated (capacity monotonicity)",
                "P6 violated (maximal recycling)"):
        assert seen[key] >= 50, seen


def test_multi_capacity_message_where_column_rounding_differs():
    # x - c <= tol passes P1, but x > c + tol fails the column's own check:
    # the message is the column's, as when the columns were priced one by one
    grid = TypeGrid([1.0, 2.0], [7.629554372333164])
    x = [[48.34711509793399], [1.0]]
    tol = 40.71756072560082
    ref = priced_or_message(optimal_payment_multi_reference, grid, x, tol)
    assert ref.startswith("allocation exceeds capacity at k=0")
    assert priced_or_message(optimal_payment_multi, grid, x, tol) == ref


def test_column_payments_match_reference_bitwise():
    rng = np.random.default_rng(73)
    for i in range(1000):
        grid = random_grid(rng, max_k=6, l=1)
        cap = float(grid.capacities[0])
        x = greedy_allocation(grid, random_monotone_y(rng, grid))[:, 0]
        x = x + rng.choice([-1.0, 0.0, 1.0], x.shape) * rng.choice([1e-10, 1e-9, 1e-3], x.shape)
        x[rng.random(x.shape) < 0.2] = -0.0
        tol = (1e-9, 0.0, 1e-6)[i % 3]
        ref = priced_or_message(column_payments_reference, grid.valuations, x, cap, tol)
        got = priced_or_message(column_payments, grid.valuations, x, cap, tol)
        assert_same_outcome(got, ref)


BAD_TOLS = (float("nan"), float("inf"), float("-inf"), -1.0)
GRID_L2 = TypeGrid([1.0, 2.0], [1.0, 2.0])
# Each payment rule's payments for a priced greedy allocation, at a given tol.
PAYMENT_RULES = {
    "column_payments": lambda tol: column_payments([1.0, 2.0], [1.0, 0.5], 1.0, tol=tol),
    "optimal_payment_single": lambda tol: optimal_payment_single(
        TypeGrid([1.0, 2.0], [1.0]), [1.0, 0.5], tol=tol
    ),
    "optimal_payment_multi": lambda tol: optimal_payment_multi(
        GRID_L2, [[1.0, 2.0], [0.5, 0.5]], tol=tol
    ),
    "priced_contract": lambda tol: priced_contract(
        GRID_L2, [[1.0, 2.0], [0.5, 0.5]], tol=tol
    ).payment,
}


@pytest.mark.parametrize("rule", PAYMENT_RULES)
def test_payment_rules_reject_a_tol_that_is_not_finite_and_non_negative(rule):
    # A NaN tol passed every precondition and a negative one raised a P1 error
    for tol in BAD_TOLS:
        with pytest.raises(ValidationError, match="must be finite and non-negative"):
            PAYMENT_RULES[rule](tol)
    assert np.array_equal(PAYMENT_RULES[rule](0.0), PAYMENT_RULES[rule](CLAMP_TOL))


def test_nan_tol_no_longer_prices_an_invalid_allocation():
    nan = float("nan")
    with pytest.raises(ValidationError, match="tol = nan"):
        column_payments([1.0, 2.0], [0.5, 9.0], 1.0, tol=nan)  # x = 9 > c = 1
    with pytest.raises(ValidationError, match="tol = nan"):
        optimal_payment_multi(GRID_L2, [[0.5, 2.0], [1.0, 0.0]], tol=nan)  # P2 fails at l = 0
    with pytest.raises(PreconditionError, match="P2 violated"):
        optimal_payment_multi(GRID_L2, [[0.5, 2.0], [1.0, 0.0]])
