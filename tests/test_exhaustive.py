"""Exhaustive schedule search against direct per-order solves."""

import csv

import numpy as np
import pytest

from aoiplan import (
    BudgetExceededError,
    all_max_updates,
    enumerate_optimal,
    generate_scenario,
    lower_bound,
    per_count_best,
    per_count_floor,
    schedule_count,
    solve_schedule,
    total_candidates,
)
from aoiplan.exhaustive import count_grid, multiset_permutations
from aoiplan.solver import order_floors
from conftest import build_scenario, nonconverged_at


def test_schedule_count_multinomial():
    assert schedule_count([1, 1]) == 2
    assert schedule_count([2, 1]) == 3
    assert schedule_count([2, 2]) == 6
    assert schedule_count([0, 0]) == 1


def test_total_candidates_small_grid():
    assert total_candidates(np.array([1, 1])) == 5


def test_multiset_permutations_enumeration():
    orders = list(multiset_permutations([2, 1]))
    assert len(orders) == 3
    assert set(orders) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_count_grid_covers_box():
    combos = list(count_grid(np.array([1, 2])))
    assert len(combos) == 6
    assert (0, 0) in combos and (1, 2) in combos


def test_budget_guard_raises_before_solving():
    scenario = build_scenario([1, 1])
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_optimal(scenario, budget=3)
    assert "5" in str(exc.value) and "3" in str(exc.value)


def test_budget_guard_stops_at_first_excess(monkeypatch):
    # Budgets [1270, 1407] span 1.8 million count vectors; the guard must
    # refuse after the first running total above the budget, not walk them.
    scenario = generate_scenario(2, seed=0)
    assert list(all_max_updates(scenario)) == [1270, 1407]
    calls = []

    def counted(counts):
        calls.append(counts)
        if len(calls) > 10_000:
            raise AssertionError("budget guard kept counting past the budget")
        return schedule_count(counts)

    monkeypatch.setattr("aoiplan.exhaustive.schedule_count", counted)
    with pytest.raises(BudgetExceededError, match="at least 1001 .* budget is 1000"):
        enumerate_optimal(scenario, budget=1000)


def test_enumeration_matches_direct_solves():
    scenario = build_scenario([1, 1], weights=[0.35, 0.65])
    result = enumerate_optimal(scenario)
    assert result.num_candidates == 5
    assert result.num_solves == 2
    assert result.num_pruned == 2
    direct = {
        order: solve_schedule(scenario, list(order)).objective
        for order in [(), (1,), (2,), (1, 2), (2, 1)]
    }
    best_order = min(direct, key=lambda o: (direct[o], o))
    assert result.best_order == best_order
    assert result.objective == pytest.approx(direct[best_order], rel=1e-9)
    for order, objective in direct.items():
        assert result.objective <= objective + 1e-9


def test_optimum_respects_floor():
    for counts in ([1, 1], [2, 1]):
        scenario = build_scenario(counts)
        result = enumerate_optimal(scenario)
        assert result.objective >= lower_bound(scenario) - 1e-9
        finite = [row[1] for row in result.rows if np.isfinite(row[1])]
        assert result.objective == pytest.approx(min(finite), rel=1e-12)


def test_per_count_table():
    scenario = build_scenario([1, 1])
    table = per_count_best(scenario)
    assert set(table) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    order, objective, status = table[(1, 1)]
    assert sorted(order) == [1, 2]
    assert status == "optimal"
    assert table[(0, 0)][1] == 1.0
    # More updates can only help at the allocation optimum.
    assert objective <= min(table[(1, 0)][1], table[(0, 1)][1]) + 1e-9


def test_table_csv_layout(tmp_path):
    scenario = build_scenario([1, 1])
    result = enumerate_optimal(scenario)
    path = tmp_path / "table.csv"
    result.write_table_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["order", "objective", "status", "kkt_residual"]
    assert len(rows) == 1 + result.num_candidates


def test_enumeration_is_deterministic():
    scenario = build_scenario([2, 1])
    a = enumerate_optimal(scenario)
    b = enumerate_optimal(scenario)
    assert a.best_order == b.best_order
    assert a.objective == b.objective
    assert a.rows == b.rows


def test_nonconverged_solve_never_wins(monkeypatch):
    scenario = build_scenario([1, 1])
    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", nonconverged_at((2, 1)))
    result = enumerate_optimal(scenario)
    assert result.best_order != (2, 1)
    assert result.objective > 0.0
    assert result.best_solution.status == "optimal"
    assert result.per_count[(1, 1)][0] == (1, 2)
    assert result.per_count[(1, 1)][2] == "optimal"
    statuses = {order: status for order, _, status, _ in result.rows}
    assert statuses["2-1"] == "max_iterations"


def test_nonconverged_count_kept_without_rows(monkeypatch):
    scenario = build_scenario([1, 1])
    assert enumerate_optimal(scenario, keep_rows=False).num_nonconverged == 0
    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", nonconverged_at((2, 1)))
    result = enumerate_optimal(scenario, keep_rows=False)
    assert result.rows == []
    assert result.num_nonconverged == 1


@pytest.mark.parametrize(
    "counts, kwargs",
    [
        ([3], {}),
        ([2, 2], {}),
        ([2, 2, 1], {}),
        ([1, 1, 1, 1], {}),
        ([2, 2, 2], {}),
        ([2, 2], {"vmax": 4.0, "horizon": 400.0}),
    ],
)
def test_branch_and_bound_matches_exhaustive_scoring(counts, kwargs):
    scenario = build_scenario(counts, **kwargs)
    result = enumerate_optimal(scenario)
    table = per_count_best(scenario)
    best_order, best_objective, _ = min(table.values(), key=lambda v: (v[1], v[0]))
    assert result.best_order == best_order
    assert result.objective == best_objective
    assert result.best_solution.objective == best_objective
    assert result.num_solves + result.num_pruned == result.num_candidates - 1
    assert result.num_pruned > 0
    for order_str, objective, status, kkt in result.rows:
        if status != "pruned":
            continue
        assert objective == float("inf") and kkt == float("inf")
        # The effective floor is the vector's or the order's own, and
        # order_floors is never below the vector's.
        order = [int(v) for v in order_str.split("-")]
        assert order_floors(scenario, [order])[0] > result.objective
    if kwargs:
        # Slow flight: the winner leaves one update of the budget unused.
        assert result.best_order == (2, 1, 2)
        assert len(result.best_order) < sum(counts)


@pytest.mark.parametrize(
    "counts, kwargs",
    [
        ([2, 2, 1], {}),
        ([2, 2, 2], {}),
        ([3], {}),
        ([2, 2], {"vmax": 4.0, "horizon": 400.0}),
        ([1, 1], {"weights": [0.35, 0.65]}),
        ([2, 1], {"weights": [1.0, 0.0]}),
    ],
)
def test_order_floors_bound_every_optimal_candidate(counts, kwargs):
    scenario = build_scenario(counts, **kwargs)
    unflyable = 0
    for combo in count_grid(all_max_updates(scenario)):
        orders = list(multiset_permutations(combo))
        floors = order_floors(scenario, orders)
        assert np.all(floors >= per_count_floor(scenario, combo))
        for order, floor in zip(orders, floors):
            solution = solve_schedule(scenario, order)
            if solution.status == "optimal":
                # An evenly spaced optimum attains per_count_floor, up to rounding.
                assert solution.objective >= floor - 1e-12
            if floor == np.inf:
                # The travel gaps exceed the horizon: no order can fly them.
                unflyable += 1
                assert solution.status != "optimal"
        if 0.0 in scenario.weights()[np.asarray(combo) > 0]:
            assert np.all(floors[np.isfinite(floors)] == per_count_floor(scenario, combo))
    if "vmax" in kwargs:
        assert unflyable > 0


def test_order_floors_prune_within_a_count_vector():
    result = enumerate_optimal(build_scenario([3, 3, 2]), keep_rows=False)
    assert result.num_solves < 20


def test_every_solve_has_a_floor_within_the_incumbent(monkeypatch):
    # Slow flight: some orders of a vector are solved after an earlier one
    # of the same vector has lowered the incumbent.
    scenario = build_scenario([2, 2], vmax=4.0, horizon=400.0)
    solved = []

    def record(scenario, order, **kwargs):
        solution = solve_schedule(scenario, order, **kwargs)
        solved.append(solution)
        return solution

    monkeypatch.setattr("aoiplan.exhaustive.solve_schedule", record)
    result = enumerate_optimal(scenario)
    incumbent = np.inf
    for solution in solved:
        order = solution.order
        if order:
            combo = tuple(order.count(m + 1) for m in range(scenario.num_nodes))
            orders = list(multiset_permutations(combo))
            floor = order_floors(scenario, orders)[orders.index(order)]
            assert floor <= incumbent, (order, floor, incumbent)
        if solution.status == "optimal":
            incumbent = min(incumbent, solution.objective)
    assert result.num_solves == sum(1 for solution in solved if solution.order)
    assert incumbent == result.objective


def test_order_floors_take_one_count_vector():
    scenario = build_scenario([1, 1])
    assert order_floors(scenario, []).size == 0
    assert order_floors(scenario, [()])[0] == 1.0
    with pytest.raises(ValueError, match="share their per-node counts"):
        order_floors(scenario, [(1,), (2,)])
    with pytest.raises(ValueError, match="share their per-node counts"):
        order_floors(scenario, [(1,), (1, 2)])
