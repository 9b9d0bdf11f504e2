"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints one ACCEPTANCE line (visible with -s or on failure) and
asserts it. Tolerances are pinned inline next to each check.
"""

import sys

import numpy as np

from aoiplan import (
    AutoencoderConfig,
    ChannelParams,
    DqnConfig,
    Node,
    Scenario,
    ScheduleEnv,
    UavParams,
    UpdateTimes,
    autoencoder_search,
    autoencoder_train,
    collect_states,
    dqn_train,
    dqn_train_task,
    enumerate_optimal,
    greedy_evaluate,
    lower_bound,
    min_speed_upper_bound,
    nwaoi,
    solve_min_speed,
    solve_schedule,
    split_by_node,
    weight_based_rollout,
)
from aoiplan.bounds import all_max_updates, uniform_schedule
from aoiplan.nnet import DenseNet, LstmCell, gradient_check
from aoiplan.solver import STATUS_OPTIMAL, check_solution
from conftest import build_scenario
from oracle_grid import oracle_objective


def verdict(num, description, failures):
    ok = not failures
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()
    assert ok, line + "; first failures: " + "; ".join(failures[:5])


def random_positions(rng, count, low=100.0, high=900.0):
    return [tuple(rng.uniform(low, high, 2)) for _ in range(count)]


# ---------------------------------------------------------------------------
# 1. Uniform full-budget schedule attains the closed-form floor.
# ---------------------------------------------------------------------------


def test_criterion_01_uniform_schedule_attains_floor():
    failures = []
    rng = np.random.default_rng(1)
    for i in range(200):
        m = 1 + i % 4
        counts = [int(v) for v in rng.integers(0, 4, m)]
        scenario = build_scenario(
            counts,
            positions=random_positions(rng, m),
            weights=[float(v) for v in rng.uniform(0.1, 1.0, m)],
        )
        times, order = uniform_schedule(scenario)
        per_node = split_by_node(order, times, m)
        metric = nwaoi(scenario, UpdateTimes(per_node))
        floor = lower_bound(scenario)
        if abs(metric - floor) > 1e-12:
            failures.append(f"scenario {i}: |{metric} - {floor}| > 1e-12")
    for j in range(15):
        m = 1 + j % 2
        counts = [int(v) for v in rng.integers(0, 3, m)]
        scenario = build_scenario(counts, positions=random_positions(rng, m))
        best = enumerate_optimal(scenario, keep_rows=False).objective
        floor = lower_bound(scenario)
        if best < floor - 1e-9:
            failures.append(f"enumeration {j}: optimum {best} beat floor {floor}")
    verdict(
        1,
        "evenly spaced full-budget updates hit the analytic floor to 1e-12; "
        "200 scenarios + 15 enumerated optima never beat it",
        failures,
    )


# ---------------------------------------------------------------------------
# 2. Hover instance spacing and objective match the closed form.
# ---------------------------------------------------------------------------


def test_criterion_02_hover_spacing_closed_form():
    failures = []
    horizon = 900.0
    for n in range(1, 7):
        scenario = build_scenario(
            [n],
            positions=[(500.0, 500.0)],
            initial=(500.0, 500.0),
            final=(500.0, 500.0),
            vmax=1e6,
            horizon=horizon,
        )
        solution = solve_schedule(scenario, [1] * n)
        if solution.status != STATUS_OPTIMAL:
            failures.append(f"n={n}: status {solution.status}")
            continue
        expected = np.arange(1, n + 1) * horizon / (n + 1)
        worst = float(np.max(np.abs(solution.times_s - expected)))
        if worst > 1e-4 * horizon:
            failures.append(f"n={n}: time deviation {worst:.3g}")
        if abs(solution.objective - 1.0 / (n + 1)) > 1e-6:
            failures.append(f"n={n}: objective {solution.objective}")
    verdict(
        2,
        "co-located hover schedules space updates at i*T/(n+1) (1e-4*T) with "
        "metric 1/(n+1) (1e-6) for n=1..6",
        failures,
    )


# ---------------------------------------------------------------------------
# 3. Independent solution checker and brute-force lattice oracle.
# ---------------------------------------------------------------------------


def test_criterion_03_solver_certification():
    failures = []
    rng = np.random.default_rng(7)
    for k in range(100):
        m = 1 + k % 3
        counts = [int(v) for v in rng.integers(0, 3, m)]
        if sum(counts) == 0:
            counts[int(rng.integers(0, m))] = 1 + int(rng.integers(0, 2))
        scenario = build_scenario(
            counts,
            positions=random_positions(rng, m),
            weights=[float(v) for v in rng.uniform(0.2, 1.0, m)],
            initial=tuple(rng.uniform(0, 1000, 2)),
            final=tuple(rng.uniform(0, 1000, 2)),
        )
        order = [node + 1 for node, c in enumerate(counts) for _ in range(c)]
        rng.shuffle(order)
        solution = solve_schedule(scenario, order)
        if solution.status != STATUS_OPTIMAL:
            failures.append(f"instance {k}: status {solution.status}")
            continue
        report = check_solution(scenario, solution, tol=1e-6)
        if not report.ok:
            failures.append(f"instance {k}: checker said {report.messages}")

    oracle_cases = [
        # (node_x, span, vmax, updates)
        (200.0, 400.0, 5.0, 3),
        (150.0, 300.0, 2.0, 2),
        (100.0, 200.0, 0.6, 1),
    ]
    for node_x, span, vmax, n in oracle_cases:
        scenario = build_scenario(
            [n],
            positions=[(node_x, 0.0)],
            initial=(0.0, 0.0),
            final=(span, 0.0),
            vmax=vmax,
        )
        solution = solve_schedule(scenario, [1] * n)
        oracle = oracle_objective(node_x, span, vmax, 900.0, n, 0.5 * 80.0**2)
        if solution.status != STATUS_OPTIMAL:
            failures.append(f"oracle case v={vmax}: status {solution.status}")
        elif solution.objective > oracle * 1.02 + 1e-12:
            failures.append(
                f"oracle case v={vmax}: solver {solution.objective} vs grid {oracle}"
            )
    verdict(
        3,
        "independent KKT/constraint checker passes at tol 1e-6 on 100 random "
        "instances; 1-node solves beat the 5 m lattice oracle within 2%",
        failures,
    )


# ---------------------------------------------------------------------------
# 4. Sufficient-speed bound dominates the solved minimal speed.
# ---------------------------------------------------------------------------


def spacing_compatible(counts):
    # Pairwise coprime budget-plus-one values keep every merged instant
    # distinct (plain non-division still lets e.g. 2/4 == 3/6 collide),
    # which is the regime where the sufficient-speed formula is defined.
    for i, a in enumerate(counts):
        for b in counts[i + 1 :]:
            if np.gcd(a + 1, b + 1) != 1:
                return False
    return True


def test_criterion_04_min_speed_bound_dominates():
    failures = []
    worked = build_scenario(
        [1, 2],
        positions=[(0.0, 0.0), (300.0, 0.0)],
        initial=(0.0, 0.0),
        final=(300.0, 0.0),
    )
    bound = min_speed_upper_bound(worked)
    if bound != 2.0:
        failures.append(f"worked example bound {bound!r} is not exactly 2.0")
    solved = solve_min_speed(worked)
    if solved.speed > bound + 1e-6:
        failures.append(f"worked example solved speed {solved.speed} above bound")

    rng = np.random.default_rng(11)
    done = 0
    while done < 100:
        m = 1 + int(rng.integers(0, 3))
        counts = [int(v) for v in rng.integers(1, 7, m)]
        if not spacing_compatible(counts):
            continue
        scenario = build_scenario(
            counts,
            positions=random_positions(rng, m),
            initial=tuple(rng.uniform(0, 1000, 2)),
            final=tuple(rng.uniform(0, 1000, 2)),
        )
        cap = min_speed_upper_bound(scenario)
        speed = solve_min_speed(scenario).speed
        if speed > cap + 1e-6:
            failures.append(f"instance {done}: speed {speed} above bound {cap}")
        done += 1
    verdict(
        4,
        "solved minimal speed never exceeds the closed-form sufficient speed "
        "on 100 divisor-compatible instances; worked example bound is exactly 2",
        failures,
    )


# ---------------------------------------------------------------------------
# 5. Update-count trade-off: finite speed bends the curve inward.
# ---------------------------------------------------------------------------


def far_node_scenario(vmax):
    return Scenario(
        nodes=[Node(x=1000.0, y=1000.0, battery_j=1.0, weight=1.0)],
        channel=ChannelParams(beta0=7.86e-6),
        uav=UavParams(
            initial=(0.0, 0.0),
            final=(0.0, 0.0),
            altitude_m=80.0,
            vmax_x=vmax,
            vmax_y=vmax,
            horizon_s=120.0,
        ),
    )


def test_criterion_05_update_count_tradeoff():
    failures = []
    budget = int(all_max_updates(far_node_scenario(25.0))[0])
    if budget != 12:
        failures.append(f"hover budget {budget} != 12 at 1 J")

    def curve(vmax):
        out = []
        for n in range(budget + 1):
            solution = solve_schedule(far_node_scenario(vmax), [1] * n)
            if solution.status != STATUS_OPTIMAL:
                failures.append(f"vmax={vmax} n={n}: status {solution.status}")
                return None
            out.append(solution.objective)
        return out

    finite = curve(25.0)
    if finite is not None:
        argmin = int(np.argmin(finite))
        if not 0 < argmin < budget:
            failures.append(f"finite-speed argmin {argmin} not interior")
    fast = curve(1e6)
    if fast is not None:
        argmin = int(np.argmin(fast))
        if argmin != budget:
            failures.append(f"unlimited-speed argmin {argmin} != {budget}")
        elif abs(fast[budget] - 1.0 / (budget + 1)) > 1e-6:
            failures.append(f"unlimited-speed optimum {fast[budget]} != 1/13")
    verdict(
        5,
        "with a 12-update budget on a distant node, 25 m/s flight puts the "
        "best update count strictly inside (0, 12) while unlimited speed "
        "uses all 12 at metric 1/13 (1e-6)",
        failures,
    )


# ---------------------------------------------------------------------------
# 6. Episode rewards telescope to the final schedule metric.
# ---------------------------------------------------------------------------


def test_criterion_06_rewards_telescope():
    failures = []
    scenarios = [
        build_scenario([1, 1]),
        build_scenario([2, 1], weights=[0.3, 0.7]),
        build_scenario(
            [1, 2],
            positions=[(0.0, 0.0), (300.0, 0.0)],
            initial=(0.0, 0.0),
            final=(300.0, 0.0),
        ),
    ]
    rng = np.random.default_rng(17)
    recomputed = {}
    rollouts_each = [334, 333, 333]
    for scenario, rollouts in zip(scenarios, rollouts_each):
        env = ScheduleEnv(scenario)
        for _ in range(rollouts):
            env.reset()
            total = 0.0
            while not env.done:
                total += env.step(int(rng.integers(0, env.num_actions))).reward
            key = (id(scenario), env.order)
            if key not in recomputed:
                recomputed[key] = solve_schedule(scenario, list(env.order)).objective
            if abs((1.0 - total) - recomputed[key]) > 1e-12:
                failures.append(
                    f"order {env.order}: 1-return {1.0 - total} vs {recomputed[key]}"
                )
    verdict(
        6,
        "1 minus the summed rewards of 1000 random episodes equals the freshly "
        "re-solved metric of the final schedule to 1e-12",
        failures,
    )


# ---------------------------------------------------------------------------
# 7. Backpropagation matches central finite differences.
# ---------------------------------------------------------------------------


def test_criterion_07_gradient_fidelity():
    failures = []
    rng = np.random.default_rng(13)
    smooth = ["identity", "sigmoid", "tanh"]
    for i in range(25):
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        acts = [smooth[int(rng.integers(0, 3))] for _ in range(depth)]
        net = DenseNet.init(sizes, acts, rng)
        xs = rng.normal(size=(3, sizes[0]))
        target = rng.normal(size=(3, sizes[-1]))

        def loss_fn(flat, net=net, xs=xs, target=target):
            net.set_flat(flat)
            return float(np.sum((net.forward(xs) - target) ** 2))

        def grad_fn(flat, net=net, xs=xs, target=target):
            net.set_flat(flat)
            out, cache = net.forward_cached(xs)
            dws, dbs, _ = net.backward(cache, 2.0 * (out - target))
            return net.grads_flat(dws, dbs)

        worst = gradient_check(loss_fn, grad_fn, net.params_flat(), rng)
        if worst > 1e-5:
            failures.append(f"dense config {i}: rel error {worst:.2e}")

    for i in range(25):
        d_in = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        cell = LstmCell.init(d_in, k, rng)
        xs = rng.normal(size=(5, d_in))
        target = rng.normal(size=(5, k))

        def loss_fn(flat, cell=cell, xs=xs, target=target):
            cell.set_flat(flat)
            hs, _, _ = cell.seq_forward(xs)
            return float(np.sum((hs[1:] - target) ** 2))

        def grad_fn(flat, cell=cell, xs=xs, target=target):
            cell.set_flat(flat)
            hs, cs, gates = cell.seq_forward(xs)
            dwg, dbg, _, _, _ = cell.seq_backward(
                xs, hs, cs, gates, 2.0 * (hs[1:] - target), np.zeros(k), np.zeros(k)
            )
            return np.concatenate([dwg.ravel(), dbg.ravel()])

        worst = gradient_check(loss_fn, grad_fn, cell.params_flat(), rng)
        if worst > 1e-5:
            failures.append(f"lstm config {i}: rel error {worst:.2e}")
    verdict(
        7,
        "analytic gradients of 25 dense and 25 five-step recurrent "
        "configurations agree with central differences to 1e-5",
        failures,
    )


# ---------------------------------------------------------------------------
# 8. Value learning reaches the value-iteration fixed point.
# ---------------------------------------------------------------------------


class ChainTask:
    """Two observable states; gamma=1 value iteration gives Q(s0)=(0.2, 0.8)
    and Q(s1)=(0.1, 0.3)."""

    num_actions = 2

    def __init__(self):
        self._at_second = False

    def reset(self):
        self._at_second = False
        return np.array([1.0, 0.0])

    def step(self, action):
        if not self._at_second:
            if action == 0:
                return np.array([1.0, 0.0]), 0.2, True
            self._at_second = True
            return np.array([0.0, 1.0]), 0.5, False
        if action == 0:
            return np.array([0.0, 1.0]), 0.1, True
        return np.array([0.0, 1.0]), 0.3, True


def test_criterion_08_tabular_limit_matches_value_iteration():
    failures = []
    config = DqnConfig(
        hidden_sizes=(),
        lr=0.1,
        batch_size=32,
        epsilon_end=0.5,
        grad_steps_per_episode=4,
    )
    net, _ = dqn_train_task(ChainTask(), config, episodes=400, seed=0)
    q0 = net.forward(np.array([1.0, 0.0]))
    q1 = net.forward(np.array([0.0, 1.0]))
    for name, got, want in (("Q(s0)", q0, [0.2, 0.8]), ("Q(s1)", q1, [0.1, 0.3])):
        if not np.allclose(got, want, atol=1e-3):
            failures.append(f"{name} = {got} != {want}")
    verdict(
        8,
        "on a handmade 2-state task the learned action values match value "
        "iteration within 1e-3",
        failures,
    )


# ---------------------------------------------------------------------------
# 9. Trained planner beats the weight baseline and nearly matches search.
# ---------------------------------------------------------------------------


def test_criterion_09_learning_beats_baseline():
    failures = []
    config = DqnConfig(
        hidden_sizes=(64,),
        lr=0.05,
        optimizer="sgd",
        batch_size=64,
        epsilon_end=0.15,
        grad_steps_per_episode=8,
    )
    for label, scenario in (
        ("one node", build_scenario([3])),
        ("two nodes", build_scenario([2, 2])),
    ):
        optimum = enumerate_optimal(scenario, keep_rows=False).objective
        env = ScheduleEnv(scenario)
        baseline = float(
            np.mean(
                [weight_based_rollout(env, s)[1] for s in range(300)]
            )
        )
        for seed in (0, 1, 2):
            agent, _ = dqn_train(ScheduleEnv(scenario), config, episodes=600, seed=seed)
            _, metric = greedy_evaluate(agent, ScheduleEnv(scenario))
            if metric > baseline + 1e-12:
                failures.append(f"{label} seed {seed}: {metric} above baseline {baseline}")
            if metric > 1.05 * optimum:
                failures.append(f"{label} seed {seed}: {metric} > 1.05 * {optimum}")
    verdict(
        9,
        "greedy planner after 600 episodes is at or below the weight-policy "
        "mean and within 5% of the enumerated optimum, 3 seeds x 2 instances",
        failures,
    )


# ---------------------------------------------------------------------------
# 10. State autoencoder: overfit floor and searched size quality.
# ---------------------------------------------------------------------------


def test_criterion_10_autoencoder_quality():
    failures = []
    scenario = build_scenario([1, 1])
    singleton = [collect_states(ScheduleEnv(scenario), episodes=1, seed=3)[-1]]
    config = AutoencoderConfig(state_size=8, lr=0.02, epochs=400, batch="stochastic")
    result = autoencoder_train(scenario, singleton, config, seed=0)
    if result.test_mse >= 1e-3:
        failures.append(f"singleton overfit MSE {result.test_mse:.3g} >= 1e-3")

    wide = build_scenario([1, 2])
    corpus = collect_states(ScheduleEnv(wide), episodes=160, seed=0)
    if len(corpus) < 500:
        failures.append(f"corpus holds only {len(corpus)} states")
    search = autoencoder_search(
        wide,
        corpus,
        [2, 8, 16],
        config=AutoencoderConfig(epochs=15, lr=0.01),
        seed=0,
    )
    if search.results[search.best_size] > search.results[2]:
        failures.append(
            f"searched size {search.best_size} MSE {search.results[search.best_size]:.3g} "
            f"above smallest-size MSE {search.results[2]:.3g}"
        )
    verdict(
        10,
        "singleton corpus overfits below 1e-3 MSE; on a 500-state corpus the "
        "searched state size reconstructs at least as well as the smallest",
        failures,
    )


# ---------------------------------------------------------------------------
# 11. Qualitative trends of the enumerated optimum across mission axes.
# ---------------------------------------------------------------------------


def test_criterion_11_trend_suite():
    failures = []
    seeds = range(20)

    def optimum(scenario):
        return enumerate_optimal(scenario, keep_rows=False).objective

    def check_axis(name, values, build, direction):
        table = np.empty((len(seeds), len(values)))
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(1000 + seed)
            positions = random_positions(rng, 3)
            for col, value in enumerate(values):
                table[row, col] = optimum(build(positions, value))
        for col in range(len(values) - 1):
            diffs = direction * (table[:, col + 1] - table[:, col])
            slack = float(diffs.std(ddof=1) / np.sqrt(len(seeds)))
            if float(diffs.mean()) > slack:
                failures.append(
                    f"{name} {values[col]}->{values[col + 1]}: mean change "
                    f"{direction * diffs.mean():+.3g} breaks the trend (se {slack:.3g})"
                )

    check_axis(
        "horizon",
        [600.0, 900.0, 1200.0],
        lambda pos, v: build_scenario([1, 1], positions=pos[:2], horizon=v),
        direction=1.0,
    )
    check_axis(
        "speed",
        [10.0, 25.0, 50.0],
        lambda pos, v: build_scenario([1, 1], positions=pos[:2], vmax=v),
        direction=1.0,
    )
    check_axis(
        "energy",
        [1.0, 1.3, 1.7],
        lambda pos, v: build_scenario([2, 2], positions=pos[:2], margin=2.5 * v - 2.0),
        direction=1.0,
    )
    check_axis(
        "nodes",
        [1, 2, 3],
        lambda pos, v: build_scenario([2] * v, positions=pos[:v]),
        direction=-1.0,
    )
    verdict(
        11,
        "enumerated optimum is nonincreasing in horizon, speed, and energy and "
        "nondecreasing in node count over 3-point sweeps x 20 seeds (1 se slack)",
        failures,
    )
