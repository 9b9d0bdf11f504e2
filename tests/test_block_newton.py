"""The block-banded Newton step of long programs against the dense solve."""

from dataclasses import replace

import numpy as np
import pytest

from aoiplan import check_solution, generate_scenario, solve_min_speed, solve_schedule
from aoiplan import solver
from aoiplan.solver import STATUS_OPTIMAL, _solve_ipm
from conftest import build_scenario


def _to_blocks(dense, bs):
    """The (blocks, 3, bs, bs) storage of a block-tridiagonal matrix."""
    nblk = dense.shape[0] // bs
    mat = np.zeros((nblk, 3, bs, bs))
    for i in range(nblk):
        for band in range(3):
            j = i + band - 1
            if 0 <= j < nblk:
                mat[i, band] = dense[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs]
    return mat


def _random_system(rng, nblk, bs, k, nbord):
    """A positive definite banded-plus-low-rank matrix with a border, in
    block storage and dense, and a right-hand side."""
    n = nblk * bs
    # Rows supported on a window of bs columns give a band of half-width < bs.
    jac = np.zeros((3 * n, n))
    for r in range(3 * n):
        lo = rng.integers(0, n - bs + 1)
        jac[r, lo : lo + bs] = rng.normal(size=bs) * (rng.random(size=bs) < 0.5)
    band = jac.T @ (rng.uniform(1e-3, 1e3, 3 * n)[:, None] * jac) + 1e-3 * np.eye(n)
    low = rng.normal(size=(n, k)) * (rng.random(size=(n, k)) < 0.3)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, k)
    border = rng.normal(size=(n, nbord))
    inner = band + (low * weights) @ low.T
    corner = border.T @ np.linalg.solve(inner, border) + np.eye(nbord)
    full = np.block([[inner, border], [border.T, corner]])
    rhs = rng.normal(size=n + nbord)
    cols = np.column_stack([rhs[:n], low, border])
    return _to_blocks(band, bs), cols, weights, corner, rhs, full


@pytest.mark.parametrize("nbord", [0, 1])
@pytest.mark.parametrize("nblk, bs, k", [(20, 9, 3), (13, 9, 2), (7, 12, 4), (40, 9, 3)])
def test_block_solve_matches_dense_solve(nblk, bs, k, nbord):
    rng = np.random.default_rng(nblk * 100 + bs + k + nbord)
    for _ in range(3):
        mat, cols, weights, corner, rhs, full = _random_system(rng, nblk, bs, k, nbord)
        x, s = solver._block_solve(mat, cols, weights, corner, rhs[cols.shape[0] :])
        want = np.linalg.solve(full, rhs)
        got = np.concatenate([x, s])
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def _captured(monkeypatch, scenario, order):
    """(program, start, result) of every IPM run of the schedule solve of
    ``order``, or of the minimum-speed solve when ``order`` is None."""
    seen = []

    def capture(program, z0, *args, **kwargs):
        result = _solve_ipm(program, z0, *args, **kwargs)
        seen.append((program, z0, result))
        return result

    monkeypatch.setattr(solver, "_solve_ipm", capture)
    run = solve_schedule if order is not None else lambda sc, _: solve_min_speed(sc)
    run(scenario, order)
    monkeypatch.setattr(solver, "_solve_ipm", _solve_ipm)
    return seen


def _newton_system(program, z, lam):
    """The weights and right-hand side `_solve_ipm` forms at (z, lam)."""
    f = program.constraint_values(z)
    jac = program.jacobian(z)
    t_bar = solver._MU * program.num_cons / -float(f @ lam)
    r_cent = -lam * f - 1.0 / t_bar
    r_dual = program.objective_grad(z) + program.jac_t_dot(jac, lam)
    rhs = -(r_dual + program.jac_t_dot(jac, r_cent / f))
    return jac, lam / -f, rhs


# Round robins of length n, and full-budget schedules of about n updates for
# the minimum-speed program (counts + 1 pairwise coprime, so no two evenly
# spaced instants meet).
_LONG = {
    60: ([1, 2, 3] * 20, [18, 20, 22]),
    120: ([1, 2, 3] * 40, [40, 36, 44]),
    240: ([1, 2, 3] * 80, [78, 82, 80]),
}


@pytest.mark.parametrize("n", sorted(_LONG))
def test_block_step_matches_dense_step(monkeypatch, n):
    order, counts = _LONG[n]
    # Every program gets a layout here, also where the dense solve is faster.
    monkeypatch.setattr(solver, "_MIN_BLOCKS", 1)
    schedule = _captured(monkeypatch, generate_scenario(3, 3, horizon_s=3600.0), order)
    min_speed = _captured(monkeypatch, build_scenario(counts, horizon=3600.0), None)
    # Phase I (its slack borders the band), the main phase (no border) and
    # the minimum-speed program (its speed borders the band).
    assert [p.num_vars - p.layout.num_banded for p, _, _ in schedule + min_speed] == [1, 0, 1]
    declined = []
    for kind, (program, z0, result) in zip(["phase1", "main", "min_speed"], schedule + min_speed):
        assert result.status == STATUS_OPTIMAL
        f0 = program.constraint_values(z0)
        for at, z, lam in (("start", z0, 1.0 / np.maximum(-f0, 1e-8)), ("end", result.z, result.lam)):
            jac, weights, rhs = _newton_system(program, z, lam)
            got = solver._block_step(program, jac, lam, weights, rhs)
            want = solver._newton_step(program.newton_matrix(jac, lam, weights), rhs)
            if got is None:
                declined.append((kind, at))
            else:
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (kind, at)
    # Only the minimum-speed program at its optimum, where barrier weights
    # reach 1e16, may leave its step to the dense solve.
    assert declined in ([], [("min_speed", "end")])


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_long_round_robins_follow_dense_path(monkeypatch, seed):
    scenario = generate_scenario(3, seed, horizon_s=3600.0)
    order = [1, 2, 3] * 80
    got = solve_schedule(scenario, order)
    monkeypatch.setattr(solver, "_block_layout", lambda program, key: None)
    want = solve_schedule(scenario, order)
    assert got.status == want.status == STATUS_OPTIMAL
    assert got.iterations == want.iterations
    assert abs(got.objective - want.objective) <= 1e-9


def test_long_order_with_a_wide_band_takes_the_dense_step():
    # The objective's squared gap between node 1's two updates couples the
    # first and the last update time: the order is long enough for the block
    # step, but its band is too wide to cut into enough blocks.
    scenario = build_scenario([2, 59], horizon=3600.0)
    order = (1,) + (2,) * 59 + (1,)
    assert 3 * len(order) >= solver._MIN_BLOCKS * solver._BLOCK_VARS
    assert solver._schedule_program(scenario, order).layout is None
    solution = solve_schedule(scenario, order)
    assert (solution.status, solution.iterations) == (STATUS_OPTIMAL, 30)
    assert check_solution(scenario, solution).ok


def _failing_programs():
    """A 60-update round robin with a column nothing touches, which makes a
    block singular, and with a NaN ball centre, which makes every block NaN."""
    scenario = generate_scenario(3, 3, horizon_s=3600.0)
    program = solver._schedule_program(scenario, tuple([1, 2, 3] * 20))
    z0 = solver._straight_start(scenario, 60)
    column = program.num_vars // 3 + 30
    singular = replace(
        program,
        G_val=np.where(program.G_col == column, 0.0, program.G_val),
        ball_coef=np.where(program.ball_var == column, 0.0, program.ball_coef),
    )
    nan_ball = replace(program, ball_center=program.ball_center.copy())
    nan_ball.ball_center[0] = np.nan
    return {"singular": singular, "nan": nan_ball}, z0


@pytest.mark.parametrize("case", ["singular", "nan"])
def test_failed_block_step_takes_the_dense_ridge_rule(case):
    programs, z0 = _failing_programs()
    program = programs[case]
    assert program.layout is not None
    z = np.append(z0, 2.0 * float(program.constraint_values(z0).max()) + 1.0)
    phase1 = solver._phase1_program(program)
    f = phase1.constraint_values(z)
    lam = -1.0 / f
    jac, weights, rhs = _newton_system(phase1, z, lam)
    assert solver._block_step(phase1, jac, lam, weights, rhs) is None
    dense = replace(phase1, layout=None)
    for max_iters in (3, 200):
        got = _solve_ipm(phase1, z, 1e-6, max_iters, -solver._STRICT_MARGIN)
        want = _solve_ipm(dense, z, 1e-6, max_iters, -solver._STRICT_MARGIN)
        assert (got.status, got.iterations, got.message) == (want.status, want.iterations, want.message)
        assert np.array_equal(got.z, want.z, equal_nan=True)
        assert np.array_equal(got.lam, want.lam, equal_nan=True)
    if case == "nan":
        assert got.message == "Newton step not finite after ridge retries at iteration 1"
