"""Fixed-order trajectory optimization and the independent solution checker."""

from dataclasses import replace

import numpy as np
import pytest

from aoiplan import (
    CoincidentTimesError,
    ScheduleError,
    check_solution,
    energy_budget_constant,
    generate_scenario,
    nwaoi,
    per_count_floor,
    solve_min_speed,
    solve_schedule,
)
from aoiplan.bounds import min_speed_upper_bound
from aoiplan.physics import UpdateTimes, split_by_node
from aoiplan.solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    _check_lagrangian,
    build_time_quadratic,
    node_time_quadratic,
    validate_order,
)
from conftest import build_scenario
from oracle_grid import oracle_objective


def test_node_quadratic_two_updates():
    assert node_time_quadratic(2).tolist() == [[2.0, -1.0], [-1.0, 2.0]]


def test_node_quadratic_three_update_spectrum():
    eigs = np.sort(np.linalg.eigvalsh(node_time_quadratic(3)))
    expected = np.sort([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
    assert np.allclose(eigs, expected, atol=1e-12)


def test_node_quadratic_positive_definite():
    for n in range(1, 8):
        assert np.min(np.linalg.eigvalsh(node_time_quadratic(n))) > 0.0


def test_quadratic_matches_metric():
    # sum of squared gaps = s'Qs - 2*tau*s_last + tau^2 per node.
    scenario = build_scenario([2, 1], weights=[0.3, 0.7])
    horizon = scenario.uav.horizon_s
    weights = scenario.weights()
    rng = np.random.default_rng(11)
    order = [1, 2, 1]
    forms = build_time_quadratic(order, scenario.num_nodes)
    for _ in range(25):
        times = np.sort(rng.uniform(0.0, horizon, len(order)))
        value = 0.0
        for m, (pos, quad) in enumerate(forms):
            if pos.size == 0:
                value += weights[m]
                continue
            s = times[pos]
            value += (
                weights[m]
                * (s @ quad @ s - 2.0 * horizon * s[-1] + horizon**2)
                / horizon**2
            )
        direct = nwaoi(
            scenario, UpdateTimes(split_by_node(order, times, scenario.num_nodes))
        )
        assert value == pytest.approx(direct, abs=1e-12)


def test_validate_order_rejects_bad_entries():
    with pytest.raises(ScheduleError):
        validate_order([0], 2)
    with pytest.raises(ScheduleError):
        validate_order([3], 2)


def test_empty_order_is_do_nothing():
    scenario = build_scenario([1])
    solution = solve_schedule(scenario, [])
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective == 1.0
    assert solution.times_s.size == 0
    assert check_solution(scenario, solution).ok


def test_hover_mission_halves_metric():
    scenario = build_scenario(
        [1], positions=[(500.0, 500.0)], initial=(500.0, 500.0), final=(500.0, 500.0)
    )
    solution = solve_schedule(scenario, [1])
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective == pytest.approx(0.5, abs=1e-9)
    assert solution.times_s[0] == pytest.approx(450.0, abs=1e-3)


def test_unaffordable_count_is_infeasible():
    scenario = build_scenario([1])
    solution = solve_schedule(scenario, [1, 1])
    assert solution.status == STATUS_INFEASIBLE
    assert "cannot afford" in solution.message
    assert solution.objective == np.inf


def test_iteration_cap_reported():
    scenario = build_scenario([1, 2])
    solution = solve_schedule(scenario, [2, 1, 2], max_iters=2)
    assert solution.status != STATUS_OPTIMAL


def test_generous_speed_reaches_per_count_floor():
    scenario = build_scenario([1, 2], vmax=1e6)
    solution = solve_schedule(scenario, [2, 1, 2])
    floor = per_count_floor(scenario, [1, 2])
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective >= floor - 1e-9
    assert solution.objective == pytest.approx(floor, rel=1e-6)


def test_objective_matches_metric_recomputation():
    scenario = build_scenario([2, 1])
    solution = solve_schedule(scenario, [1, 2, 1])
    direct = nwaoi(scenario, solution.update_times(scenario.num_nodes))
    assert solution.objective == pytest.approx(direct, rel=1e-9)


def test_coincident_times_reported():
    scenario = build_scenario(
        [1, 1],
        positions=[(400.0, 400.0), (400.0, 400.0)],
        initial=(400.0, 400.0),
        final=(400.0, 400.0),
    )
    solution = solve_schedule(scenario, [1, 2])
    assert solution.status == STATUS_OPTIMAL
    assert solution.objective == pytest.approx(0.5, abs=1e-6)
    assert solution.coincident_pairs, "both nodes want the midpoint instant"


def _random_instances():
    """25 (scenario, order) pairs with one to three nodes and random geometry."""
    rng = np.random.default_rng(2024)
    for trial in range(25):
        m = 1 + trial % 3
        counts = rng.integers(0, 3, m)
        if counts.sum() == 0:
            counts[rng.integers(0, m)] = 1
        weights = rng.uniform(0.2, 1.0, m)
        scenario = build_scenario(
            counts,
            positions=[tuple(rng.uniform(100.0, 900.0, 2)) for _ in range(m)],
            weights=list(weights / weights.sum()),
            initial=tuple(rng.uniform(0.0, 1000.0, 2)),
            final=tuple(rng.uniform(0.0, 1000.0, 2)),
        )
        order = [mm + 1 for mm in range(m) for _ in range(counts[mm])]
        rng.shuffle(order)
        yield scenario, order


def test_random_instances_pass_independent_checker():
    for scenario, order in _random_instances():
        m = scenario.num_nodes
        solution = solve_schedule(scenario, order)
        assert solution.status == STATUS_OPTIMAL, solution.message
        assert solution.kkt_residual <= 1e-5
        assert np.all(solution.duals >= -1e-8)
        report = check_solution(scenario, solution)
        assert report.ok, report.messages
        direct = nwaoi(scenario, solution.update_times(m))
        assert solution.objective == pytest.approx(direct, rel=1e-9)


def test_objective_convex_along_feasible_times():
    # The metric is a convex quadratic of the merged instants; the solver's
    # reported optimum cannot exceed any interior blend evaluation.
    scenario = build_scenario([2])
    solution = solve_schedule(scenario, [1, 1])
    base = solution.times_s
    other = np.array([200.0, 700.0])
    for alpha in (0.0, 0.25, 0.5, 1.0):
        blend = (1 - alpha) * base + alpha * other
        value = nwaoi(scenario, UpdateTimes([blend]))
        assert solution.objective <= value + 1e-9


def test_solver_matches_lattice_oracle():
    # One node on a line, three updates, generous energy ball: the full
    # continuous optimum is the uniform split, value 1/4.
    scenario = build_scenario(
        [3],
        positions=[(200.0, 0.0)],
        initial=(0.0, 0.0),
        final=(400.0, 0.0),
        vmax=5.0,
    )
    solution = solve_schedule(scenario, [1, 1, 1])
    assert solution.status == STATUS_OPTIMAL
    oracle = oracle_objective(node_x=200.0, span=400.0, v=5.0, tau=900.0, n=3, ball=3200.0)
    assert abs(solution.objective - oracle) <= 0.02 * oracle
    assert solution.objective <= oracle + 1e-6
    assert oracle == pytest.approx(0.25, abs=1e-9)


def test_min_speed_below_closed_form_bound():
    scenario = build_scenario(
        [1, 2],
        positions=[(0.0, 0.0), (300.0, 0.0)],
        initial=(0.0, 0.0),
        final=(300.0, 0.0),
    )
    result = solve_min_speed(scenario)
    assert result.status == STATUS_OPTIMAL
    assert result.speed <= min_speed_upper_bound(scenario) + 1e-9
    assert result.speed > 0.0


def test_min_speed_colocated_is_zero():
    scenario = build_scenario(
        [1, 2],
        positions=[(100.0, 100.0), (100.0, 100.0)],
        initial=(100.0, 100.0),
        final=(100.0, 100.0),
    )
    result = solve_min_speed(scenario)
    assert result.speed <= 1e-6


def test_min_speed_rejects_coincident_schedule():
    with pytest.raises(CoincidentTimesError):
        solve_min_speed(build_scenario([1, 3]))


def test_min_speed_random_instances_within_bound():
    rng = np.random.default_rng(77)
    cases = 0
    while cases < 12:
        counts = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
        if (counts[0] + 1) % (counts[1] + 1) == 0 or (counts[1] + 1) % (
            counts[0] + 1
        ) == 0:
            continue
        scenario = build_scenario(
            counts,
            positions=[tuple(rng.uniform(100.0, 900.0, 2)) for _ in range(2)],
            initial=tuple(rng.uniform(0.0, 1000.0, 2)),
            final=tuple(rng.uniform(0.0, 1000.0, 2)),
        )
        result = solve_min_speed(scenario)
        assert result.status == STATUS_OPTIMAL
        assert result.speed <= min_speed_upper_bound(scenario) + 1e-6
        cases += 1


def test_check_report_document_keys():
    scenario = build_scenario([1])
    report = check_solution(scenario, solve_schedule(scenario, [1]))
    doc = report.to_document()
    for key in ("ok", "feasibility", "stationarity", "complementarity", "dual_feasibility"):
        assert key in doc


# Reference for the checker: the per-row loop evaluation of the scaled
# constraints and objective, and the central-difference Lagrangian gradient
# built on it (exact for these quadratics up to roundoff).


def _loop_constraint_values(scenario, order, z):
    n = len(order)
    horizon = scenario.uav.horizon_s
    r_scale = scenario.coordinate_scale()
    t = z[:n]
    x = z[n : 2 * n]
    y = z[2 * n : 3 * n]
    start = np.asarray(scenario.uav.initial) / r_scale
    end = np.asarray(scenario.uav.final) / r_scale
    xy = scenario.node_xy() / r_scale
    vx = scenario.uav.vmax_x * horizon / r_scale
    vy = scenario.uav.vmax_y * horizon / r_scale

    values = []
    order_arr = np.asarray(order, dtype=int)
    for node_id in sorted(set(order_arr.tolist())):
        m = node_id - 1
        count = int(np.sum(order_arr == node_id))
        c = energy_budget_constant(scenario, m, count) / (r_scale * r_scale)
        pos = np.flatnonzero(order_arr == node_id)
        lhs = float(np.sum((x[pos] - xy[m, 0]) ** 2 + (y[pos] - xy[m, 1]) ** 2))
        values.append((lhs - c) / max(c, 1e-12))

    t_fence = np.concatenate(([0.0], t, [1.0]))
    for coords, w0, w1, vmax in ((x, start[0], end[0], vx), (y, start[1], end[1], vy)):
        fence = np.concatenate(([w0], coords, [w1]))
        scale = max(vmax, 1.0)
        for sign in (1.0, -1.0):
            for leg in range(n + 1):
                dw = fence[leg + 1] - fence[leg]
                dt = t_fence[leg + 1] - t_fence[leg]
                values.append((sign * dw - vmax * dt) / scale)
    for i in range(n - 1):
        values.append(t[i] - t[i + 1])
    for i in range(n):
        values.append(-t[i])
    for i in range(n):
        values.append(t[i] - 1.0)

    weights = scenario.weights()
    obj = 0.0
    for m in range(scenario.num_nodes):
        pos = np.flatnonzero(order_arr == m + 1)
        gaps = np.diff(np.concatenate(([0.0], t[pos], [1.0])))
        obj += weights[m] * float(np.sum(gaps * gaps))
    return np.array(values), obj


def _central_difference_gradient(scenario, order, z, lam, step=1e-5):
    grad = np.zeros(z.size)
    for j in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[j] += step
        zm[j] -= step
        vp, op = _loop_constraint_values(scenario, order, zp)
        vm, om = _loop_constraint_values(scenario, order, zm)
        grad[j] = (op - om) / (2 * step) + float(lam @ (vp - vm)) / (2 * step)
    return grad


def _scaled_point(scenario, solution):
    r_scale = scenario.coordinate_scale()
    return np.concatenate(
        [
            solution.times_s / scenario.uav.horizon_s,
            solution.waypoints_xy[:, 0] / r_scale,
            solution.waypoints_xy[:, 1] / r_scale,
        ]
    )


def test_analytic_checker_matches_loop_reference():
    instances = list(_random_instances())
    instances.append((generate_scenario(3, 3, horizon_s=3600.0), [1, 2, 3] * 40))
    for scenario, order in instances:
        solution = solve_schedule(scenario, order)
        assert solution.status == STATUS_OPTIMAL, solution.message
        z = _scaled_point(scenario, solution)
        values, obj, grad = _check_lagrangian(scenario, solution.order, z, solution.duals)
        ref_values, ref_obj = _loop_constraint_values(scenario, solution.order, z)
        assert values.shape == ref_values.shape
        assert np.max(np.abs(values - ref_values)) <= 1e-12
        assert abs(obj - ref_obj) <= 1e-12
        ref_grad = _central_difference_gradient(scenario, solution.order, z, solution.duals)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-9
        report = check_solution(scenario, solution)
        assert abs(report.stationarity - np.max(np.abs(ref_grad))) <= 1e-9


def _scale_largest_dual(factor):
    def tamper(solution):
        duals = solution.duals.copy()
        duals[np.argmax(duals)] *= factor
        return replace(solution, duals=duals)

    return tamper


def _push_first_waypoint(solution):
    return replace(solution, waypoints_xy=solution.waypoints_xy + [[200.0, 200.0], [0, 0], [0, 0]])


def _swap_first_times(solution):
    return replace(solution, times_s=solution.times_s[[1, 0, 2]])


def _shift_solver_objective(solution):
    return replace(solution, solver_objective=solution.solver_objective + 1e-6)


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (_scale_largest_dual(-1.0), ["dual feasibility violation"]),
        (_scale_largest_dual(10.0), ["stationarity residual"]),
        (_push_first_waypoint, ["scaled constraint violation", "energy_node_1", "energy overdraw"]),
        (_swap_first_times, ["scaled constraint violation", "order_1"]),
        (_shift_solver_objective, ["solver objective mismatch"]),
    ],
    ids=["negative_dual", "scaled_dual", "waypoint_outside_ball", "swapped_times", "solver_objective"],
)
def test_checker_rejects_tampered_solution(tamper, expected):
    # Slow enough that speed rows are active and carry duals near 0.15.
    scenario = build_scenario([2, 1], vmax=2.0)
    solution = solve_schedule(scenario, [1, 2, 1])
    assert check_solution(scenario, solution).ok
    report = check_solution(scenario, tamper(solution))
    assert not report.ok
    text = "; ".join(report.messages)
    for fragment in expected:
        assert fragment in text, text


def test_negative_duals_alone_fail_the_check():
    # Lowering the time_lo and time_hi duals of one update by the same amount
    # leaves the Lagrangian gradient unchanged and raises complementarity by
    # at most delta * max(t, 1 - t), so only the dual sign is out of bounds.
    scenario = build_scenario([2, 1], vmax=2.0)
    solution = solve_schedule(scenario, [1, 2, 1])
    tol = 1e-6
    t = solution.times_s[1] / scenario.uav.horizon_s
    delta = 0.5 * tol * (1.0 + 1.0 / max(t, 1.0 - t))
    duals = solution.duals.copy()
    for label in ("time_lo_2", "time_hi_2"):
        duals[solution.constraint_labels.index(label)] -= delta
    report = check_solution(scenario, replace(solution, duals=duals), tol=tol)
    assert report.stationarity <= tol
    assert report.complementarity <= tol
    assert report.dual_feasibility > tol
    assert not report.ok
    assert len(report.messages) == 1
    assert report.messages[0].startswith("dual feasibility violation")
