"""Exhaustive schedule search against direct per-order solves."""

import csv
import itertools

import numpy as np
import pytest

from aoiplan import (
    BudgetExceededError,
    ScheduleError,
    all_max_updates,
    energy_budget_constant,
    enumerate_optimal,
    generate_scenario,
    lower_bound,
    per_count_best,
    per_count_floor,
    schedule_count,
    solve_schedule,
    total_candidates,
)
from aoiplan import solver
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


@pytest.mark.parametrize(
    "counts",
    [[2, 1], [0, 0], [3], [0, 2, 1], [2, 2, 1], [1, 1, 1, 1]],
    ids=lambda counts: "-".join(map(str, counts)),
)
def test_multiset_permutations_enumeration(counts):
    rows = multiset_permutations(counts)
    assert rows.shape == (schedule_count(counts), sum(counts))
    assert np.issubdtype(rows.dtype, np.integer)
    symbols = [m + 1 for m, c in enumerate(counts) for _ in range(c)]
    assert set(map(tuple, rows.tolist())) == set(itertools.permutations(symbols))
    # One row per distinct order, in ascending lexicographic order.
    assert list(map(tuple, rows.tolist())) == sorted(set(itertools.permutations(symbols)))


def test_count_grid_covers_box():
    combos = list(count_grid(np.array([1, 2])))
    assert len(combos) == 6
    assert (0, 0) in combos and (1, 2) in combos


def test_budget_guard_raises_before_solving():
    scenario = build_scenario([1, 1])
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_optimal(scenario, budget=3)
    assert "5" in str(exc.value) and "3" in str(exc.value)
    # The exhaustive reference applies the same guard.
    with pytest.raises(BudgetExceededError, match="at least 5 .* budget is 3"):
        per_count_best(scenario, budget=3)


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


def test_row_orders_spell_every_candidate():
    # The reference spells each order on its own, one join per order.
    scenario = build_scenario([2, 2, 1])
    want = [
        "-".join(str(v) for v in order)
        for combo in count_grid(all_max_updates(scenario))
        for order in multiset_permutations(combo).tolist()
    ]
    assert [row[0] for row in enumerate_optimal(scenario).rows] == want


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
    statuses = {order: status for order, _, status, _ in result.rows}
    assert statuses["2-1"] == "max_iterations"
    table = per_count_best(scenario)
    assert table[(1, 1)][0] == (1, 2)
    assert table[(1, 1)][2] == "optimal"


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
        # One active-set pass leaves some orders' free sets unsettled.
        ([2, 2, 2], {"max_passes": 1}),
    ],
)
def test_order_floors_bound_every_optimal_candidate(monkeypatch, counts, kwargs):
    kwargs = dict(kwargs)
    monkeypatch.setattr(solver, "_MAX_PASSES", kwargs.pop("max_passes", solver._MAX_PASSES))
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


def _floor_program(weights, node, gaps):
    """The time-only relaxation of an order as an interior-point program: its
    `_instant_program` with t_(i+1) - t_i >= gaps[i + 1],
    t_i >= gaps[0] + ... + gaps[i] and 1 - t_i >= gaps[i + 1] + ... + gaps[n],
    for the n + 1 leg gaps."""
    program = solver._instant_program(weights, node)
    reached = np.cumsum(gaps[:-1])
    program.g += np.concatenate([gaps[1:-1], reached, gaps.sum() - reached])
    return program


@pytest.mark.parametrize("counts, kwargs", [([2, 2, 1], {}), ([2, 2], {"vmax": 4.0, "horizon": 400.0})])
def test_order_floors_meet_the_interior_point_relaxation(counts, kwargs):
    # The active-set duals are the relaxation's best: each floor is at least
    # the dual value of a tight interior-point solve and at most its primal
    # objective.
    scenario = build_scenario(counts, **kwargs)
    weights = scenario.weights()
    solved = 0
    for combo in count_grid(all_max_updates(scenario)):
        if not any(combo):
            continue
        orders = list(multiset_permutations(combo))
        floors = order_floors(scenario, orders)
        node = np.array(orders) - 1
        budget = [energy_budget_constant(scenario, m, c) for m, c in enumerate(combo)]
        gaps = solver._travel_gaps(scenario, node, np.sqrt(np.maximum(budget, 0.0)))
        n = node.shape[1]
        for row, gap, floor in zip(node, gaps, floors):
            leftover = 1.0 - gap.sum()
            if leftover <= 0.0:
                continue
            program = _floor_program(weights, row, gap)
            start = np.cumsum(gap[:-1]) + leftover * (np.arange(n) + 1.0) / (n + 1.0)
            result = solver._solve_ipm(program, start, 1e-10, 200)
            assert result.status == "optimal"
            p_mat = np.zeros((n, n))
            p_mat[program.P_row, program.P_col] = program.P_val
            v = program.q + program.jac_t_dot(program.G_val, result.lam)
            dual = program.r0 + program.g @ result.lam - 0.5 * v @ np.linalg.solve(p_mat, v)
            assert dual - 1e-12 <= floor <= program.objective(result.z) + 1e-10, (row, floor, dual)
            solved += 1
    assert solved >= 10


def test_failed_active_set_solves_keep_certified_floors(monkeypatch):
    # A pass whose batched solve raises is solved order by order; an order
    # whose own solve raises or is not finite stops at its last finite
    # duals, so its floor stays certified and never rises above the settled
    # one.
    counts = [2, 2, 1]
    scenario = build_scenario(counts)
    orders = list(multiset_permutations(counts))
    settled = order_floors(scenario, orders)
    real_solve = np.linalg.solve
    passes = []

    def solve(a, b):
        out = real_solve(a, b)
        if a.shape[-1] == sum(counts) + 1:
            passes.append(a.ndim)
            if a.ndim == 2 and len(passes) % 2:
                raise np.linalg.LinAlgError("singular matrix")
            if a.ndim == 3 and len(passes) > 1:
                raise np.linalg.LinAlgError("singular matrix")
            if a.ndim == 3:
                out[::4] = np.nan
        return out

    monkeypatch.setattr(np.linalg, "solve", solve)
    floors = order_floors(scenario, orders)
    monkeypatch.undo()
    # The first pass is batched, the second raised and went order by order.
    assert passes[:2] == [3, 3] and 2 in passes
    floor = per_count_floor(scenario, counts)
    assert np.all(floors >= floor)
    assert np.all(floors <= settled + 1e-12)
    # The orders with a non-finite first pass keep the dual value at lam = 0.
    assert np.all(floors[::4] <= floor + 1e-12)
    assert np.any(floors > floor + 1e-3)


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
            orders = list(map(tuple, multiset_permutations(combo).tolist()))
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
    # The array of a vector's orders and the same orders as tuples give the
    # same bits.
    wide = build_scenario([2, 2, 1])
    rows = multiset_permutations([2, 2, 1])
    floors = order_floors(wide, rows)
    assert np.isfinite(floors).any()
    np.testing.assert_array_equal(order_floors(wide, list(map(tuple, rows.tolist()))), floors)
    # Entries are checked as given, before any cast to integers.
    with pytest.raises(ScheduleError, match="must be integers"):
        order_floors(scenario, [(1.5, 2)])
    with pytest.raises(ScheduleError, match="entry 0 outside"):
        order_floors(scenario, [(1, 2), (0, 2)])
    with pytest.raises(ScheduleError, match="entry 3 outside"):
        order_floors(scenario, np.array([[1, 3]]))
