from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from buyback import (
    Contract,
    PreconditionError,
    TypeGrid,
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
    # the one P1/P2 check of every payment rule, in its wording
    grid = TypeGrid([1.0, 2.0], [10.0])
    f = np.float64
    for x, message in (
        ([4.0, 10.0], f"P2 violated in column l=0: x[1]={f(10.0)!r} > x[0]={f(4.0)!r}"),
        ([11.0, 4.0], f"P1 violated at item (k=0, l=0): x={f(11.0)!r} > c={f(10.0)!r}"),
        ([4.0, -1.0], f"P1 violated at item (k=1, l=0): x={f(-1.0)!r} < 0"),
        # a NaN is refused ahead of every other check
        ([4.0, np.nan], "allocation is NaN at item (k=1, l=0)"),
        ([np.nan, 11.0], "allocation is NaN at item (k=0, l=0)"),
    ):
        with pytest.raises(PreconditionError) as exc:
            optimal_payment_single(grid, x)
        assert str(exc.value) == message
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
    with pytest.raises(PreconditionError, match="P2 violated"):
        optimal_payment_multi(TypeGrid([1.0, 2.0], [1.0, 2.0]), [[0.5, 2.0], [1.0, 0.0]])
    # a NaN is refused ahead of every other check, here P1 at (0, 0)
    with pytest.raises(PreconditionError, match=r"allocation is NaN at item \(k=1, l=1\)"):
        optimal_payment_multi(grid, [[6.0, 6.0], [5.0, np.nan]])


def test_priced_contract_returns_the_allocation_it_priced():
    # entries within CLAMP_TOL of [0, c] and of a non-increasing column are
    # priced clamped; the contract holds that allocation and audits clean
    grid = TypeGrid([1.0, 2.0], [1.0])
    for x, clamped in (
        ([[1.0], [-1e-10]], [[1.0], [0.0]]),
        ([[1.0 + 5e-10], [0.5]], [[1.0], [0.5]]),
        ([[0.5], [0.5 + 5e-10]], [[0.5], [0.5]]),
    ):
        contract = priced_contract(grid, x)
        assert contract.allocation.tolist() == clamped
        assert np.array_equal(contract.payment, optimal_payment_multi(grid, x))
        report = check_theorem1(grid, contract, tol=0.0)
        assert report.feasible and report.ic_full and report.ir


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
            if i % 2:  # NaN is refused ahead of every check, whatever else breaks
                x[rng.integers(K), rng.integers(L)] = np.nan
                x[rng.integers(K), rng.integers(L)] += rng.choice([-1.0, 1.0])
        elif kind == 4:  # shuffled columns or rows break P6 and P2 in many places
            x = x[:, rng.permutation(L)] if i % 2 else x[rng.permutation(K)]
        ref = priced_or_message(optimal_payment_multi_reference, grid, x, CLAMP_TOL)
        assert_same_outcome(priced_or_message(optimal_payment_multi, grid, x), ref)
        seen["priced" if not isinstance(ref, str) else ref.split(" at ")[0].split(" in ")[0]] += 1
    assert seen["priced"] >= 500
    for key in ("P1 violated", "P2 violated", "P6 violated (capacity monotonicity)",
                "P6 violated (maximal recycling)"):
        assert seen[key] >= 50, seen


def test_column_payments_match_reference_bitwise():
    rng = np.random.default_rng(73)
    for i in range(1000):
        grid = random_grid(rng, max_k=6, l=1)
        cap = float(grid.capacities[0])
        x = greedy_allocation(grid, random_monotone_y(rng, grid))[:, 0]
        x = x + rng.choice([-1.0, 0.0, 1.0], x.shape) * rng.choice([1e-10, 1e-9, 1e-3], x.shape)
        x[rng.random(x.shape) < 0.2] = -0.0
        ref = priced_or_message(optimal_payment_multi_reference, grid, x[:, None], CLAMP_TOL)
        got = priced_or_message(column_payments, grid.valuations, x, cap)
        assert_same_outcome(got, ref if isinstance(ref, str) else ref[:, 0])


# Each payment rule on a greedy allocation it prices, with keyword arguments.
PAYMENT_RULES = {
    "column_payments": lambda **kw: column_payments([1.0, 2.0], [1.0, 0.5], 1.0, **kw),
    "optimal_payment_single": lambda **kw: optimal_payment_single(
        TypeGrid([1.0, 2.0], [1.0]), [1.0, 0.5], **kw
    ),
    "optimal_payment_multi": lambda **kw: optimal_payment_multi(
        TypeGrid([1.0, 2.0], [1.0, 2.0]), [[1.0, 2.0], [0.5, 0.5]], **kw
    ),
    "priced_contract": lambda **kw: priced_contract(
        TypeGrid([1.0, 2.0], [1.0, 2.0]), [[1.0, 2.0], [0.5, 0.5]], **kw
    ),
}


@pytest.mark.parametrize("rule", PAYMENT_RULES)
def test_payment_rules_take_no_tol(rule):
    # every rule allows the one slack CLAMP_TOL and no other
    PAYMENT_RULES[rule]()
    with pytest.raises(TypeError, match="tol"):
        PAYMENT_RULES[rule](tol=CLAMP_TOL)


def test_column_rule_rejects_no_allocation_that_p1_accepts():
    # the column rule runs P1's test x - c > CLAMP_TOL, as optimal_payment_multi
    # does: the same price or message at every magnitude and for x a few ulps
    # either side of c and of c + CLAMP_TOL
    rng = np.random.default_rng(79)
    steps = np.arange(-40, 41)
    edge = 0
    for exponent in range(-300, 301, 5):
        cap = float(rng.uniform(1.0, 10.0)) * 10.0**exponent
        grid = TypeGrid([1.0], [cap])
        for centre in (cap, cap + CLAMP_TOL):
            for x in (np.array([centre]).view(np.int64) + steps).view(float).tolist():
                p1 = priced_or_message(optimal_payment_multi, grid, [[x]])
                column = priced_or_message(column_payments, [1.0], [x], cap)
                assert_same_outcome(column, p1 if isinstance(p1, str) else p1[:, 0])
                # refused although x <= fl(c + CLAMP_TOL): P1's edge, where a
                # test of x > c + CLAMP_TOL would round apart from P1's
                edge += isinstance(p1, str) and x <= cap + CLAMP_TOL
    assert edge > 0


def test_payment_rules_and_the_audit_agree():
    # optimal_payment_multi refuses an allocation exactly when the audit at
    # tol = CLAMP_TOL finds it past P1, P2 or P6: both read one set of tables
    rng = np.random.default_rng(83)
    outcomes = Counter()
    for i in range(1500):
        grid = random_grid(rng, max_k=6, max_l=4, integer=i % 2 == 0)
        K, L = grid.num_valuations, grid.num_capacities
        x = greedy_allocation(grid, random_monotone_y(rng, grid))
        kind = i % 3
        if kind == 0:
            x = rng.uniform(0.0, 1.1 * float(grid.capacities[-1]), (K, L))
        elif kind == 1:
            x = x[:, rng.permutation(L)]
        else:  # noise within, at and just past the tolerance
            noise = rng.choice([-1.0, 0.0, 1.0], x.shape) * rng.choice([5e-10, 1e-9, 2e-9], x.shape)
            x = np.maximum(x + noise, 0.0)
        margins = check_theorem1(grid, Contract(x, np.zeros_like(x)), tol=CLAMP_TOL).margins
        past = any(
            margins[key] > CLAMP_TOL for key in ("p1", "p2", "greedy_monotone", "greedy_maximal")
        )
        refused = isinstance(priced_or_message(optimal_payment_multi, grid, x), str)
        assert refused == past, (grid, x, margins)
        outcomes[kind, refused] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 20, outcomes
