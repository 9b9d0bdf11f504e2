"""Fixed-order trajectory optimization and the independent solution checker."""

import itertools
import json
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
from aoiplan import solver
from aoiplan.bounds import all_max_updates
from aoiplan.exhaustive import count_grid, multiset_permutations
from aoiplan.physics import UpdateTimes, split_by_node
from aoiplan.solver import (
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    CheckReport,
    _check_lagrangian,
    _schedule_program,
    _solve_ipm,
    order_floors,
    validate_order,
)
from conftest import build_scenario
from oracle_grid import oracle_objective


def test_quadratic_matches_metric():
    # The program's objective at scaled instants is the metric of those instants.
    scenario = build_scenario([2, 2, 1], weights=[0.2, 0.3, 0.5])
    horizon = scenario.uav.horizon_s
    rng = np.random.default_rng(11)
    for order in ([1], [2, 1], [1, 2, 1], [3, 1, 2, 2, 1], [1, 1, 2, 3, 2]):
        program = _schedule_program(scenario, tuple(order))
        for _ in range(10):
            times = np.sort(rng.uniform(0.0, horizon, len(order)))
            z = np.concatenate([times / horizon, rng.uniform(0.0, 1.0, 2 * len(order))])
            direct = nwaoi(
                scenario, UpdateTimes(split_by_node(order, times, scenario.num_nodes))
            )
            assert program.objective(z) == pytest.approx(direct, abs=1e-12)


def test_validate_order_rejects_bad_entries():
    with pytest.raises(ScheduleError):
        validate_order([0], 2)
    with pytest.raises(ScheduleError):
        validate_order([3], 2)
    for entry in (1.5, float("nan"), float("inf"), "x", None):
        with pytest.raises(ScheduleError, match="visit order entries must be integers"):
            validate_order([entry], 2)


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


def test_min_speed_of_empty_schedule_and_its_document():
    # No battery pays for one update, so the full-budget schedule is empty.
    empty = solve_min_speed(build_scenario([0, 0]))
    assert empty.to_document() == {
        "status": "optimal", "speed": 0.0, "times_s": [], "order": [],
        "waypoints_xy": [], "kkt_residual": 0.0, "iterations": 0,
    }
    result = solve_min_speed(
        build_scenario([1, 2], positions=[(0.0, 0.0), (300.0, 0.0)], initial=(0.0, 0.0), final=(300.0, 0.0))
    )
    doc = result.to_document()
    assert doc["order"] == [2, 1, 2] and doc["speed"] == result.speed
    assert doc["times_s"] == result.times_s.tolist()
    assert doc["waypoints_xy"] == result.waypoints_xy.tolist()
    assert (doc["status"], doc["iterations"]) == (result.status, result.iterations)


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


# Status, iteration count, speed and waypoints of solve_min_speed on the
# worked example and a two-node instance, as the hand-written minimum-speed
# program gave them. With margin 0.0 every budget lands on its boundary and
# every waypoint is pinned over its node.
_WORKED = dict(
    counts=[1, 2], positions=[(0.0, 0.0), (300.0, 0.0)], initial=(0.0, 0.0), final=(300.0, 0.0)
)
_TWO_ONE = dict(counts=[2, 1], positions=[(200.0, 700.0), (650.0, 150.0)])
_MIN_SPEED_REFERENCE = [
    (
        _WORKED,
        12,
        1.356209767832429,
        [[260.00000191745295, 0.0], [56.5685405774768, 0.0], [260.00000191744607, 0.0]],
    ),
    (dict(_WORKED, margin=0.0), 11, 2.0000000468602264, [[300.0, 0.0], [0.0, 0.0], [300.0, 0.0]]),
    (
        dict(_WORKED, margin=1e-12),
        155,
        1.9999990896241553,
        [[299.99994343589276, 0.0], [7.999410910150074e-05, 0.0], [299.99994343589265, 0.0]],
    ),
    (
        _TWO_ONE,
        20,
        3.0228764945845232,
        [
            [200.00009787801633, 660.0000041640267],
            [649.9998613249497, 206.56853833723196],
            [200.00010100199245, 660.000004164003],
        ],
    ),
    (
        dict(_TWO_ONE, margin=0.0),
        12,
        3.6666667015655863,
        [[200.0, 700.0], [650.0, 150.0], [200.0, 700.0]],
    ),
]


@pytest.mark.parametrize(
    "kwargs, iterations, speed, waypoints",
    _MIN_SPEED_REFERENCE,
    ids=["worked", "worked_pinned", "worked_margin_1e-12", "two_one", "two_one_pinned"],
)
def test_min_speed_follows_reference(kwargs, iterations, speed, waypoints):
    scenario = build_scenario(**kwargs)
    result = solve_min_speed(scenario)
    assert result.status == STATUS_OPTIMAL
    assert result.iterations == iterations
    assert abs(result.speed - speed) <= 1e-9 * speed
    assert np.max(np.abs(result.waypoints_xy - waypoints)) <= 1e-6
    if kwargs.get("margin") == 0.0:
        on_node = scenario.node_xy()[np.asarray(result.order) - 1]
        assert np.array_equal(result.waypoints_xy, on_node)


def test_check_report_document_keys():
    scenario = build_scenario([1])
    report = check_solution(scenario, solve_schedule(scenario, [1]))
    doc = report.to_document()
    for key in ("ok", "feasibility", "stationarity", "complementarity", "dual_feasibility"):
        assert key in doc


def test_unverified_check_report_document_is_strict_json():
    doc = CheckReport(messages=["x"]).to_document()
    json.dumps(doc, allow_nan=False)
    assert doc["ok"] is False and doc["feasibility"] is None and doc["messages"] == ["x"]


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


def test_phase1_stopped_short_is_not_infeasible():
    # Phase I needs more than three iterations to reach the interior here.
    scenario = build_scenario([1, 1, 1])
    solution = solve_schedule(scenario, (1, 2, 3), max_iters=3)
    assert solution.status == STATUS_MAX_ITERATIONS
    assert (solution.iterations, solution.used_phase1) == (3, True)
    assert solution.message == "no convergence within 3 iterations"
    assert solution.times_s.size == 0 and solution.constraint_labels == []
    assert not check_solution(scenario, solution).ok
    assert solve_schedule(scenario, (1, 2, 3)).status == STATUS_OPTIMAL


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


# ---------------------------------------------------------------------------
# Sparse program assembly against the dense and row-by-row references
# ---------------------------------------------------------------------------


def _dense(rows, cols, vals, shape):
    """The matrix whose nonzeros are (rows, cols, vals), repeats summed."""
    out = np.zeros(shape)
    np.add.at(out, (rows, cols), vals)
    return out


def _dense_g(program):
    return _dense(
        program.G_row, program.G_col, program.G_val, (program.num_cons, program.num_vars)
    )


def _balls(program):
    """One (row, variables, centres, coefficient) tuple per energy ball."""
    out = []
    for row in np.unique(program.ball_row):
        sel = program.ball_row == row
        coef = program.ball_coef[sel]
        assert np.all(coef == coef[0])
        out.append((int(row), program.ball_var[sel], program.ball_center[sel], float(coef[0])))
    return out


def _ball_loop_values(program, z):
    f = _dense_g(program) @ z + program.g
    for row, idx, center, coef in _balls(program):
        d = z[idx] - center
        f[row] += coef * float(d @ d)
    return f


def _ball_loop_jacobian(program, z):
    jac = _dense_g(program)
    for row, idx, center, coef in _balls(program):
        jac[row, idx] += 2.0 * coef * (z[idx] - center)
    return jac


def _dense_newton_matrix(program, jac, lam, weights):
    h = _dense(program.P_row, program.P_col, program.P_val, (program.num_vars,) * 2)
    for row, idx, center, coef in _balls(program):
        h[idx, idx] += 2.0 * coef * lam[row]
    return h + (jac.T * weights) @ jac


def _rowwise_constraints(scenario, order):
    """G, g, labels and balls as the row-by-row schedule builder made them."""
    n = len(order)
    horizon = scenario.uav.horizon_s
    r_scale = scenario.coordinate_scale()
    xy = scenario.node_xy() / r_scale
    start = np.asarray(scenario.uav.initial) / r_scale
    end = np.asarray(scenario.uav.final) / r_scale
    vx = scenario.uav.vmax_x * horizon / r_scale
    vy = scenario.uav.vmax_y * horizon / r_scale
    nv = 3 * n
    t_idx = np.arange(n)
    x_idx = n + np.arange(n)
    y_idx = 2 * n + np.arange(n)
    order_arr = np.asarray(order, dtype=int)
    rows_g, offs, balls, labels = [], [], [], []

    def add_row(label):
        rows_g.append(np.zeros(nv))
        offs.append(0.0)
        labels.append(label)
        return len(rows_g) - 1

    for node_id in sorted(set(order)):
        m = node_id - 1
        pos = np.flatnonzero(order_arr == node_id)
        c = energy_budget_constant(scenario, m, pos.size) / (r_scale * r_scale)
        idx = np.concatenate([x_idx[pos], y_idx[pos]])
        center = np.concatenate([np.full(pos.size, xy[m, 0]), np.full(pos.size, xy[m, 1])])
        row = add_row(f"energy_node_{m + 1}")
        scale = max(c, 1e-12)
        offs[row] = -c / scale
        balls.append((row, idx, center, 1.0 / scale))

    for axis, w_idx, w0, w1, vmax in (("x", x_idx, start[0], end[0], vx), ("y", y_idx, start[1], end[1], vy)):
        scale = max(vmax, 1.0)
        for sign, tag in ((1.0, "pos"), (-1.0, "neg")):
            for leg in range(n + 1):
                row = add_row(f"speed_{axis}_{tag}_leg_{leg}")
                vec = rows_g[row]
                off = 0.0
                if leg == 0:
                    vec[w_idx[0]] = sign / scale
                    off += -sign * w0 / scale
                    vec[t_idx[0]] += -vmax / scale
                elif leg == n:
                    vec[w_idx[n - 1]] = -sign / scale
                    off += sign * w1 / scale
                    vec[t_idx[n - 1]] += vmax / scale
                    off += -vmax / scale
                else:
                    vec[w_idx[leg]] = sign / scale
                    vec[w_idx[leg - 1]] = -sign / scale
                    vec[t_idx[leg]] += -vmax / scale
                    vec[t_idx[leg - 1]] += vmax / scale
                offs[row] = off

    for i in range(n - 1):
        row = add_row(f"order_{i + 1}")
        rows_g[row][t_idx[i]] = 1.0
        rows_g[row][t_idx[i + 1]] = -1.0
    for i in range(n):
        row = add_row(f"time_lo_{i + 1}")
        rows_g[row][t_idx[i]] = -1.0
    for i in range(n):
        row = add_row(f"time_hi_{i + 1}")
        rows_g[row][t_idx[i]] = 1.0
        offs[row] = -1.0
    return np.vstack(rows_g), np.array(offs), labels, balls


def _assembly_cases():
    """(scenario, order) pairs: the random instances, every [2,2,2] order of
    length 4 or more, and a 120-update round robin."""
    cases = list(_random_instances())
    scenario = build_scenario([2, 2, 2])
    for combo in count_grid(all_max_updates(scenario)):
        if sum(combo) >= 4:
            cases += [(scenario, list(order)) for order in multiset_permutations(combo)]
    cases.append((generate_scenario(3, 3, horizon_s=3600.0), [1, 2, 3] * 40))
    return cases


def test_schedule_builder_matches_rowwise_reference():
    for scenario, order in _assembly_cases():
        program = _schedule_program(scenario, tuple(order))
        g_mat, g_vec, labels, balls = _rowwise_constraints(scenario, order)
        assert np.array_equal(_dense_g(program), g_mat)
        assert np.array_equal(program.g, g_vec)
        assert solver._row_labels(tuple(order)) == labels
        new_balls = _balls(program)
        assert len(new_balls) == len(balls)
        for (row, idx, center, coef), (row_r, idx_r, center_r, coef_r) in zip(new_balls, balls):
            assert row == row_r and coef == coef_r
            # Entries may come in another order within a ball.
            assert sorted(zip(idx.tolist(), center.tolist())) == sorted(zip(idx_r.tolist(), center_r.tolist()))


def _captured_programs(monkeypatch, run):
    """Every (program, start, result) that ``run`` hands to the IPM."""
    seen = []

    def capture(program, z0, *args, **kwargs):
        result = _solve_ipm(program, z0, *args, **kwargs)
        seen.append((program, z0, result))
        return result

    monkeypatch.setattr(solver, "_solve_ipm", capture)
    run()
    monkeypatch.undo()
    return seen


def _points(program, z0, result):
    """The start with its initial duals and the returned primal-dual pair."""
    f0 = program.constraint_values(z0)
    return [(z0, 1.0 / np.maximum(-f0, 1e-8)), (result.z, result.lam)]


def _kind(program):
    if program.r0 == 1.0:
        return "schedule"
    return "phase1" if np.all(_dense_g(program)[:, -1] == -1.0) else "min_speed"


def _newton_programs(monkeypatch):
    cases = _assembly_cases()
    cases = cases[:-1:4] + cases[-1:]

    def run():
        for scenario, order in cases:
            solve_schedule(scenario, order)
        solve_min_speed(
            build_scenario([1, 2], positions=[(0.0, 0.0), (300.0, 0.0)], initial=(0.0, 0.0), final=(300.0, 0.0))
        )
        solve_min_speed(build_scenario([2, 1], positions=[(200.0, 700.0), (650.0, 150.0)]))

    return _captured_programs(monkeypatch, run)


def test_vectorised_constraints_match_ball_loop(monkeypatch):
    seen = _newton_programs(monkeypatch)
    rng = np.random.default_rng(5)
    for program, z0, result in seen:
        shape = (program.num_cons, program.num_vars)
        for z, _ in _points(program, z0, result):
            values = program.constraint_values(z)
            ref = _ball_loop_values(program, z)
            assert np.max(np.abs(values - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            jac = program.jacobian(z)
            ref_jac = _ball_loop_jacobian(program, z)
            rows = np.concatenate([program.G_row, program.ball_row])
            cols = np.concatenate([program.G_col, program.ball_var])
            assert np.array_equal(_dense(rows, cols, jac, shape), ref_jac)
            v = rng.normal(size=program.num_cons)
            dz = rng.normal(size=program.num_vars)
            products = [
                (program.jac_t_dot(jac, v), ref_jac.T @ v),
                (program.jac_dot(jac, dz), ref_jac @ dz),
            ]
            for got, want in products:
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_newton_matrix_matches_dense_product(monkeypatch):
    seen = _newton_programs(monkeypatch)
    assert {_kind(program) for program, _, _ in seen} == {"schedule", "phase1", "min_speed"}
    assert max(program.num_vars for program, _, _ in seen) == 361
    for program, z0, result in seen:
        for z, lam in _points(program, z0, result):
            weights = lam / -program.constraint_values(z)
            ref = _dense_newton_matrix(program, _ball_loop_jacobian(program, z), lam, weights)
            got = program.newton_matrix(program.jacobian(z), lam, weights)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# Status and iteration count of every [2, 2] candidate, and its objective, as
# the dense Newton assembly gave them; the sparse one follows the same iterates.
_TWO_TWO_REFERENCE = [
    ((), 0, 1.0),
    ((2,), 11, 0.75),
    ((2, 2), 14, 0.6666666666666666),
    ((1,), 15, 0.75),
    ((1, 2), 11, 0.5000482311365662),
    ((2, 1), 18, 0.5000481768097295),
    ((1, 2, 2), 22, 0.43023082961737164),
    ((2, 1, 2), 16, 0.41666666666677443),
    ((2, 2, 1), 21, 0.43023083315292177),
    ((1, 1), 15, 0.6666666666666666),
    ((1, 1, 2), 22, 0.43023084766331127),
    ((1, 2, 1), 15, 0.4166666666667733),
    ((2, 1, 1), 22, 0.4302308337267676),
    ((1, 1, 2, 2), 22, 0.37825626416525854),
    ((1, 2, 1, 2), 25, 0.3334344788265304),
    ((1, 2, 2, 1), 24, 0.33363676853801316),
    ((2, 1, 1, 2), 24, 0.3336367708116228),
    ((2, 1, 2, 1), 24, 0.33343447878687443),
    ((2, 2, 1, 1), 24, 0.3782562621144531),
]


def test_two_two_candidates_follow_reference_iterates():
    scenario = build_scenario([2, 2])
    orders = [o for c in count_grid(all_max_updates(scenario)) for o in multiset_permutations(c)]
    assert orders == [order for order, _, _ in _TWO_TWO_REFERENCE]
    for order, iterations, objective in _TWO_TWO_REFERENCE:
        solution = solve_schedule(scenario, order)
        assert solution.status == STATUS_OPTIMAL, order
        assert solution.iterations == iterations, order
        assert abs(solution.objective - objective) <= 1e-12, order


# Iteration count and objective of round robins over three nodes, as the
# dense constraint matrix gave them; the sparse one follows the same iterates.
_ROUND_ROBIN_REFERENCE = [
    (3, 30, 21, 0.09090929966229999),
    (3, 60, 23, 0.04761920411375834),
    (3, 120, 21, 0.024390472380267817),
    (4, 30, 13, 0.09090945773451566),
    (4, 60, 14, 0.04761921605607291),
    (4, 120, 22, 0.024390390259560794),
    (5, 30, 19, 0.09090940989611739),
    (5, 60, 22, 0.04761918518665931),
    (5, 120, 24, 0.024390443404075174),
]


def test_round_robins_follow_reference_iterates():
    for seed, n, iterations, objective in _ROUND_ROBIN_REFERENCE:
        scenario = generate_scenario(3, seed, horizon_s=3600.0)
        solution = solve_schedule(scenario, [1, 2, 3] * (n // 3))
        assert solution.status == STATUS_OPTIMAL, (seed, n)
        assert solution.iterations == iterations, (seed, n)
        assert abs(solution.objective - objective) <= 1e-12, (seed, n)


def _reference_solve_ipm(program, z0, tol, max_iters, stop_below=None):
    """The scalar interior-point loop before it was trimmed: the phase-I stop
    test on the objective, the ratio test over boolean gathers, both checks
    on every backtracking trial and the KKT residual formed every iteration."""
    z = z0.copy()
    f = program.constraint_values(z)
    if np.any(f >= 0.0):
        raise ValueError("interior-point start must be strictly feasible")
    lam = 1.0 / np.maximum(-f, 1e-8)
    m = program.num_cons
    jac = program.jacobian(z)
    r_dual = program.objective_grad(z) + program.jac_t_dot(jac, lam)
    status = STATUS_MAX_ITERATIONS
    message = ""
    iterations = 0
    kkt = np.inf
    for it in range(max_iters):
        iterations = it + 1
        eta = -float(f @ lam)
        t_bar = solver._MU * m / max(eta, 1e-300)
        r_cent = -lam * f - 1.0 / t_bar
        res_norm = np.sqrt(float(r_dual @ r_dual) + float(r_cent @ r_cent))
        dual_inf = float(np.abs(r_dual).max())
        kkt = max(dual_inf, float(np.abs(lam * f).max()))
        if dual_inf <= tol and eta <= tol:
            status = STATUS_OPTIMAL
            break
        if stop_below is not None and program.objective(z)[0] < stop_below:
            status = STATUS_OPTIMAL
            break
        weights = lam / (-f)
        m_red = program.newton_matrix(jac, lam, weights)[0]
        rhs = -(r_dual + program.jac_t_dot(jac, r_cent / f))
        dz = solver._newton_step(m_red, rhs)
        if dz is None:
            message = f"Newton step not finite after ridge retries at iteration {iterations}"
            break
        dlam = (r_cent - lam * program.jac_dot(jac, dz)) / f
        step = 1.0
        neg = dlam < 0.0
        if neg.any():
            step = min(1.0, 0.99 * float((-lam[neg] / dlam[neg]).min()))
        feasible = False
        for trial in range(80):
            z_new = z + step * dz
            f_new = program.constraint_values(z_new)
            if (f_new < 0.0).all():
                feasible = trial == 0 or not (z_new == z).all()
                break
            step *= solver._LS_BETA
        if not feasible:
            message = f"line search found no strictly feasible step at iteration {iterations}"
            break
        accepted = False
        for trial in range(80):
            if trial:
                z_new = z + step * dz
                f_new = program.constraint_values(z_new)
            lam_new = lam + step * dlam
            if (f_new < 0.0).all() and (lam_new > 0.0).all():
                jac_new = program.jacobian(z_new)
                rd_new = program.objective_grad(z_new) + program.jac_t_dot(jac_new, lam_new)
                rc_new = -lam_new * f_new - 1.0 / t_bar
                new_norm = np.sqrt(float(rd_new @ rd_new) + float(rc_new @ rc_new))
                if new_norm <= (1.0 - solver._LS_ALPHA * step) * res_norm + 1e-14:
                    accepted = trial == 0 or not (z_new == z).all()
                    break
            step *= solver._LS_BETA
        if not accepted:
            message = f"line search found no residual decrease at iteration {iterations}"
            break
        z, lam, f, jac, r_dual = z_new, lam_new, f_new, jac_new, rd_new
    else:
        message = f"no convergence within {max_iters} iterations"
    return solver._IpmResult(
        z=z, lam=lam, status=status, iterations=iterations, kkt_residual=kkt, message=message
    )


def test_scalar_loop_equals_reference_loop(monkeypatch):
    seen = []

    def capture(program, z0, *args):
        result = _solve_ipm(program, z0, *args)
        seen.append((program, z0, args, result))
        return result

    monkeypatch.setattr(solver, "_solve_ipm", capture)
    scenario = build_scenario([2, 2, 2])
    for combo in count_grid(all_max_updates(scenario)):
        for order in multiset_permutations(combo):
            solve_schedule(scenario, order)
    solve_schedule(generate_scenario(3, 3, horizon_s=3600.0), [1, 2, 3] * 10)
    solve_min_speed(
        build_scenario([1, 2], positions=[(0.0, 0.0), (300.0, 0.0)], initial=(0.0, 0.0), final=(300.0, 0.0))
    )
    solve_min_speed(build_scenario([2, 1], positions=[(200.0, 700.0), (650.0, 150.0)]))
    monkeypatch.undo()
    kinds = [(_kind(program), len(args) > 2 and args[2] is not None) for program, _, args, _ in seen]
    assert {("schedule", False), ("phase1", True), ("min_speed", False)} == set(kinds)
    assert kinds.count(("phase1", True)) >= 100
    # Stops at the iteration limit, and the failures of the stop-reason tests.
    cases = [(program, z0, (args[0], 3) + args[2:]) for program, z0, args, _ in seen[::10]]
    programs, starts, patched = _mixed_programs()
    for i, (program, z0) in enumerate(zip(programs, starts)):
        if i in patched:
            program = replace(program)
            setattr(program, *patched[i])
        cases += [(program, z0, (1e-6, max_iters)) for max_iters in (3, 200)]
    messages = set()
    for program, z0, args in cases:
        seen.append((program, z0, args, _solve_ipm(program, z0, *args)))
    for program, z0, args, got in seen:
        want = _reference_solve_ipm(program, z0, *args)
        assert (got.status, got.iterations, got.message) == (want.status, want.iterations, want.message)
        for a, b in ((got.z, want.z), (got.lam, want.lam), (got.kkt_residual, want.kkt_residual)):
            assert np.array_equal(a, b, equal_nan=True)
        messages.add(got.message.split(" at ")[0].split(" within ")[0])
    assert messages == {
        "", "no convergence", "Newton step not finite after ridge retries",
        "line search found no strictly feasible step", "line search found no residual decrease",
    }


# ---------------------------------------------------------------------------
# Stop reasons
# ---------------------------------------------------------------------------


def _feasible_program():
    # Each waypoint over its own node, which is the centre of its ball.
    scenario = build_scenario([1, 1], vmax=1e3)
    program = _schedule_program(scenario, (1, 2))
    xy = scenario.node_xy() / scenario.coordinate_scale()
    z0 = np.concatenate([[1.0 / 3.0, 2.0 / 3.0], xy[:, 0], xy[:, 1]])
    assert np.all(program.constraint_values(z0) < 0.0)
    return program, z0


def test_jacobian_reuses_ball_offsets_only_at_the_same_point():
    program, z0 = _feasible_program()
    z1 = z0 + 0.01
    fresh = program.jacobian(z1.copy())
    program.constraint_values(z0)
    assert np.array_equal(program.jacobian(z1), fresh)
    program.constraint_values(z1)
    assert np.array_equal(program.jacobian(z1), fresh)
    assert not np.array_equal(program.jacobian(z0), fresh)


def test_nan_objective_stops_with_reason():
    program, z0 = _feasible_program()
    program.q[0] = np.nan
    result = _solve_ipm(program, z0, 1e-6, 50)
    assert result.status == STATUS_MAX_ITERATIONS
    assert result.iterations == 1
    assert result.message == "Newton step not finite after ridge retries at iteration 1"


def test_solve_schedule_reports_stop_reason(monkeypatch):
    def nan_program(scenario, order):
        program = _schedule_program(scenario, order)
        program.q[0] = np.nan
        return program

    monkeypatch.setattr(solver, "_schedule_program", nan_program)
    solution = solve_schedule(build_scenario([1, 1], vmax=1e3), [1, 2])
    assert solution.status == STATUS_MAX_ITERATIONS
    assert "Newton step not finite after ridge retries at iteration 1" in solution.message


def test_failed_line_searches_stop_with_reason():
    # Only the start evaluates as it should; every trial point looks bad.
    program, z0 = _feasible_program()
    f0 = program.constraint_values(z0)
    values = itertools.chain([f0], itertools.repeat(np.ones_like(f0)))
    program.constraint_values = lambda z: next(values)
    result = _solve_ipm(program, z0, 1e-6, 50)
    assert result.status == STATUS_MAX_ITERATIONS
    assert result.message == "line search found no strictly feasible step at iteration 1"

    program, z0 = _feasible_program()
    g0 = program.objective_grad(z0)
    grads = itertools.chain([g0], itertools.repeat(g0 + 1e6))
    program.objective_grad = lambda z: next(grads)
    result = _solve_ipm(program, z0, 1e-6, 50)
    assert result.status == STATUS_MAX_ITERATIONS
    assert result.message == "line search found no residual decrease at iteration 1"


def test_zero_length_steps_stop_with_reason():
    # The start is the only point that evaluates well, so every cut step
    # fails until one is too short to move z at all.
    program, z0 = _feasible_program()
    f0 = program.constraint_values(z0)
    ones = np.ones_like(f0)
    program.constraint_values = lambda z: f0 if np.array_equal(z, z0) else ones
    result = _solve_ipm(program, z0, 1e-6, 50)
    assert result.status == STATUS_MAX_ITERATIONS
    assert result.iterations == 1
    assert result.message == "line search found no strictly feasible step at iteration 1"

    program, z0 = _feasible_program()
    g0 = program.objective_grad(z0)
    program.objective_grad = lambda z: g0 if np.array_equal(z, z0) else g0 + 1e6
    result = _solve_ipm(program, z0, 1e-6, 50)
    assert result.status == STATUS_MAX_ITERATIONS
    assert result.iterations == 1
    assert result.message == "line search found no residual decrease at iteration 1"


def test_iteration_limit_reason():
    program, z0 = _feasible_program()
    result = _solve_ipm(program, z0, 1e-6, 3)
    assert result.status == STATUS_MAX_ITERATIONS
    assert result.iterations == 3
    assert result.message == "no convergence within 3 iterations"
    assert _solve_ipm(program, z0, 1e-6, 200).message == ""


# ---------------------------------------------------------------------------
# Stacked solves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stack_size", [1, 7])
def test_stacked_results_do_not_depend_on_stack_size(monkeypatch, stack_size):
    # 30 floor programs: one stack of all, or chunks down to the scalar loop.
    scenario = build_scenario([2, 2, 1])
    orders = list(multiset_permutations([2, 2, 1]))
    want = order_floors(scenario, orders)
    assert np.isfinite(want).all() and want.size == 30
    monkeypatch.setattr(solver, "STACK_SIZE", stack_size)
    np.testing.assert_array_equal(order_floors(scenario, orders), want)


def _evaluates_only_at(program, points, method):
    """``method`` of ``program`` as a function that gives its true value at
    each of ``points`` and a bad one elsewhere: every constraint positive, or
    a gradient 1e6 too large."""
    goods = [getattr(program, method)(point) for point in points]
    bad = np.ones_like(goods[0]) if method == "constraint_values" else goods[0] + 1e6

    def evaluate(z):
        return next((good for point, good in zip(points, goods) if np.array_equal(z, point)), bad)

    return evaluate


def _mixed_programs():
    """Healthy programs next to ones that fail: a NaN in q, a column nothing
    touches (a singular Newton matrix every iteration, which only a ridge
    solves), two that evaluate well only at their start, a slower one that
    evaluates well only at its first 12 iterates, so it fails at iteration
    13, after the healthy ones have converged at iteration 12, and a NaN
    ball centre, which makes its Newton matrix NaN."""
    program, z0 = _feasible_program()
    other = _schedule_program(build_scenario([1, 1], vmax=1e3), (2, 1))
    z_other = z0[[0, 1, 3, 2, 5, 4]]
    nan_q = replace(program, q=program.q.copy())
    nan_q.q[0] = np.nan
    untouched = program.G_col == 5
    singular = replace(
        program,
        G_val=np.where(untouched, 0.0, program.G_val),
        ball_coef=np.where(program.ball_var == 5, 0.0, program.ball_coef),
    )
    slow = replace(program, q=100.0 * program.q, P_val=100.0 * program.P_val)
    iterates = [z0] + [_solve_ipm(slow, z0, 1e-6, k).z for k in range(1, 13)]
    nan_ball = replace(program, ball_center=program.ball_center.copy())
    nan_ball.ball_center[0] = np.nan
    programs = [program, nan_q, other, singular, replace(program), replace(program), slow, nan_ball]
    starts = [z0, z0, z_other, z0, z0, z0, z0, z0]
    patched = {4: (program, [z0], "constraint_values"), 5: (program, [z0], "objective_grad"),
               6: (slow, iterates, "constraint_values")}
    return programs, starts, {
        i: (method, _evaluates_only_at(p, points, method)) for i, (p, points, method) in patched.items()
    }


_MIXED_FAILURES = {
    1: "Newton step not finite after ridge retries at iteration 1",
    4: "line search found no strictly feasible step at iteration 1",
    5: "line search found no residual decrease at iteration 1",
    6: "line search found no strictly feasible step at iteration 13",
    7: "Newton step not finite after ridge retries at iteration 1",
}


# Without the singular program, the stacked solve itself succeeds and the
# NaN programs' steps come out not finite; with it, the stacked solve raises
# and the matrices that can be solved, a NaN one among them, are solved again.
# In "all-fail" every problem stops at iteration 1 and the loop must end with
# no problem left; in "fail-after-healthy" the failing one outlives a healthy
# one and then stops alone.
@pytest.mark.parametrize(
    "members",
    [range(8), [0, 1, 2, 4, 5, 7], [1, 4], [4, 5], [0, 6], [6, 2, 3]],
    ids=["all", "no-singular", "all-fail", "all-fail-line-search", "fail-after-healthy",
         "fail-after-singular"],
)
def test_mixed_stack_matches_each_program_alone(monkeypatch, members):
    programs, starts, patched = _mixed_programs()
    programs = [programs[i] for i in members]
    starts = [starts[i] for i in members]
    patched = {list(members).index(i): patch for i, patch in patched.items() if i in members}
    real_stack = solver._stack

    def stack(members):
        out = real_stack(members)
        for i, (method, evaluate) in patched.items():
            slot = next((b for b, p in enumerate(members) if p is programs[i]), None)
            if slot is None:
                continue
            original = getattr(out, method)

            def stacked(z, slot=slot, evaluate=evaluate, original=original):
                values = original(z).reshape(len(members), -1)
                values[slot] = evaluate(z.reshape(len(members), -1)[slot])
                return values.ravel()

            setattr(out, method, stacked)
        return out

    singles = []
    for i, program in enumerate(programs):
        single = replace(program)
        if i in patched:
            setattr(single, *patched[i])
        singles.append(single)
    monkeypatch.setattr(solver, "_stack", stack)
    for max_iters in (3, 200):
        stacked = solver._solve_ipm_stack(programs, np.stack(starts), 1e-6, max_iters)
        alone = [_solve_ipm(p, z0, 1e-6, max_iters) for p, z0 in zip(singles, starts)]
        for got, want in zip(stacked, alone):
            assert (got.status, got.iterations, got.message) == (want.status, want.iterations, want.message)
            for a, b in ((got.z, want.z), (got.lam, want.lam), (got.kkt_residual, want.kkt_residual)):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        for i, result in zip(members, stacked):
            want = _MIXED_FAILURES.get(i, "")
            if max_iters == 3 and i in (0, 2, 3, 6):
                want = "no convergence within 3 iterations"
            assert result.message == want, i


def test_singular_stack_member_alone_takes_the_ridge_rule(monkeypatch):
    # The batched solve raises for the singular matrix; only that problem
    # goes through the scalar ridge rule, once per iteration that needs a
    # step, and the others keep the batched solve.
    programs, starts, _ = _mixed_programs()
    members = [programs[i] for i in (0, 2, 3)]
    calls = []
    real_step = solver._newton_step

    def newton_step(m_red, rhs):
        calls.append(m_red)
        return real_step(m_red, rhs)

    monkeypatch.setattr(solver, "_newton_step", newton_step)
    results = solver._solve_ipm_stack(members, np.stack([starts[i] for i in (0, 2, 3)]), 1e-6, 200)
    assert [r.status for r in results] == [STATUS_OPTIMAL] * 3
    assert len(calls) == results[2].iterations - 1
    assert all(not m[5].any() and not m[:, 5].any() for m in calls)


def test_singular_stack_member_needs_ridge():
    programs, starts, _ = _mixed_programs()
    singular = programs[3]
    f = singular.constraint_values(starts[3])
    lam = 1.0 / -f
    matrix = singular.newton_matrix(singular.jacobian(starts[3]), lam, lam / -f)[0]
    assert not matrix[5].any() and not matrix[:, 5].any()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(matrix, np.ones(6))
