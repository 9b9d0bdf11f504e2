"""Trajectory optimization for a fixed visit order.

Given the order in which nodes upload, the remaining problem (choose the
update instants and the hover points) is convex: a quadratic age objective
under per-node energy balls, per-axis speed couplings, ordering, and box
constraints. A primal-dual interior-point method solves it directly; a
phase-I program finds a strictly interior start when the straight-run
initial guess is not one.

The same machinery also solves the minimum-cruise-speed program over the
fixed evenly spaced full-budget schedule (linear objective in the speed
variable).

A program keeps its objective's P and its linear constraint rows only as
(row, column, value) nonzeros. Constraint values, Jacobian products and the
Newton matrix are each a gather over those nonzeros and one `np.bincount`.
A long schedule's Newton system is solved by its structure, a block band
plus one rank-1 term per energy ball (see `_block_step`); any other is
assembled nv x nv and solved dense.

There is one interior-point loop, `_solve_ipm`, and every full solve
(`solve_schedule`, phase I included, and `solve_min_speed`) runs it on one
program. The certified floors of `order_floors` need no primal point: they
are Lagrangian dual values of a time-only relaxation, whose best duals a
batched primal-dual active-set method finds for every order of a count
vector at once.

Everything inside the solver runs in nondimensional units: times divided
by the horizon, coordinates by the scenario's length scale, and each
constraint by a characteristic magnitude. Reported duals and the KKT
residual refer to that scaled canonical form, which `check_solution`
rebuilds independently from the scenario, differentiating its own
constraint formulas analytically rather than reusing the solver's matrices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .bounds import all_max_updates, min_speed_upper_bound, per_count_floor, uniform_schedule
from .errors import ScheduleError
from .physics import UpdateTimes, energy_budget_constant, nwaoi, split_by_node
from .scenario import Scenario, result_document

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITERATIONS = "max_iterations"

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200

_MU = 10.0
_LS_ALPHA = 0.01
_LS_BETA = 0.5
_STRICT_MARGIN = 1e-7


def _order_rows(orders: np.ndarray | Sequence[Sequence[int]], num_nodes: int) -> np.ndarray:
    """Equal-length visit orders as the rows of an integer array of 1-based
    node indices. Entries are checked as given, since a cast to int would
    truncate 1.5 to 1: ScheduleError for an entry that is not an integer or
    not a node, ValueError for orders of unequal lengths."""
    try:
        rows = np.array(orders)
    except ValueError:
        raise ValueError("orders must share their per-node counts") from None
    kind = rows.dtype.kind
    if rows.ndim != 2 or kind not in "iuf" or not np.all(np.isfinite(rows) & (rows == np.trunc(rows))):
        raise ScheduleError("visit order entries must be integers")
    outside = rows[(rows < 1) | (rows > num_nodes)]
    if outside.size:
        raise ScheduleError(f"visit order entry {int(outside[0])} outside [1, {num_nodes}]")
    return rows.astype(int)


def validate_order(order: Sequence[int], num_nodes: int) -> tuple[int, ...]:
    """Normalize a visit order to a tuple of 1-based node indices."""
    return tuple(_order_rows([order], num_nodes)[0].tolist())


# ---------------------------------------------------------------------------
# Canonical scaled program construction
# ---------------------------------------------------------------------------


@dataclass
class _Program:
    """minimize 0.5 z'Pz + q'z + r0  s.t.  Gz + g + balls(z) <= 0.

    P and G are kept as their nonzeros alone: entry e puts G_val[e] at row
    G_row[e], column G_col[e], and likewise for P. Energy-ball entry e adds
    ball_coef[e] * (z[ball_var[e]] - ball_center[e])**2 to constraint row
    ball_row[e]. The constraint Jacobian has one nonzero per G entry and then
    one per ball entry; `jacobian` returns their values at a point. The pairs
    of Jacobian nonzeros that share a row, which assemble the Newton matrix,
    are found when it is first needed. A long program carries a
    ``layout``, and `_solve_ipm` then takes its Newton steps by
    `_block_step`.
    """

    P_row: np.ndarray
    P_col: np.ndarray
    P_val: np.ndarray
    q: np.ndarray
    r0: float
    G_row: np.ndarray
    G_col: np.ndarray
    G_val: np.ndarray
    g: np.ndarray
    ball_row: np.ndarray
    ball_var: np.ndarray
    ball_center: np.ndarray
    ball_coef: np.ndarray
    layout: _BlockLayout | None = field(default=None, repr=False, compare=False)
    _jac_row: np.ndarray = field(init=False, repr=False)
    _jac_col: np.ndarray = field(init=False, repr=False)
    _two_coef: np.ndarray = field(init=False, repr=False)
    _offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._jac_row = np.concatenate([self.G_row, self.ball_row])
        self._jac_col = np.concatenate([self.G_col, self.ball_var])
        self._two_coef = 2.0 * self.ball_coef
        self._offsets = (None, None)

    @cached_property
    def _newton_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # Every ordered pair (a, b) of Jacobian nonzeros that share a row r
        # adds w_r * J_a * J_b to entry (col_a, col_b) of J'WJ. The pairs are
        # followed by the diagonal entries that carry the ball curvature and
        # then by P. Indices are into the flattened nv x nv matrix.
        nv = self.num_vars
        rows, cols = self._jac_row, self._jac_col
        a, b = _row_pairs(rows, self.g.size)
        flat = np.concatenate(
            [cols[a] * nv + cols[b], self.ball_var * (nv + 1), self.P_row * nv + self.P_col]
        )
        return a, b, rows[a], flat

    @property
    def num_vars(self) -> int:
        return self.q.size

    @property
    def num_cons(self) -> int:
        return self.g.size

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        d = z[self.ball_var] - self.ball_center
        self._offsets = (z, d)
        terms = np.concatenate([self.G_val * z[self.G_col], self.ball_coef * d * d])
        return np.bincount(self._jac_row, weights=terms, minlength=self.g.size) + self.g

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Values of the Jacobian nonzeros at z. The ball offsets are reused
        when z is the array `constraint_values` last evaluated."""
        at, d = self._offsets
        if at is not z:
            d = z[self.ball_var] - self.ball_center
        return np.concatenate([self.G_val, self._two_coef * d])

    def jac_t_dot(self, jac: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J'v for the Jacobian values ``jac``."""
        return np.bincount(self._jac_col, weights=jac * v[self._jac_row], minlength=self.q.size)

    def jac_dot(self, jac: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """J dz for the Jacobian values ``jac``."""
        return np.bincount(self._jac_row, weights=jac * dz[self._jac_col], minlength=self.g.size)

    def p_dot(self, z: np.ndarray) -> np.ndarray:
        return np.bincount(self.P_row, weights=self.P_val * z[self.P_col], minlength=self.q.size)

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        return self.p_dot(z) + self.q

    def objective(self, z: np.ndarray) -> float:
        """z'(0.5 Pz + q) + r0."""
        half = 0.5 * (self.objective_grad(z) + self.q)
        return float((z * half).sum() + self.r0)

    def newton_matrix(self, jac: np.ndarray, lam: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """P + sum_r lam_r * Hess(f_r) + J' diag(weights) J, where ``jac``
        holds the Jacobian values at the point that lam and weights belong
        to."""
        nv = self.num_vars
        pair_a, pair_b, pair_row, flat = self._newton_pairs
        scaled = np.concatenate(
            [
                jac[pair_a] * jac[pair_b] * weights[pair_row],
                self._two_coef * lam[self.ball_row],
                self.P_val,
            ]
        )
        return np.bincount(flat, weights=scaled, minlength=nv * nv).reshape(nv, nv)


def _row_pairs(rows: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (a, b) of entries that share their row, itself
    included: sorted by row, a row's entries are contiguous, and partner b
    runs over them."""
    by_row = np.argsort(rows, kind="stable")
    per_row = np.bincount(rows, minlength=num_rows)
    reps = per_row[rows[by_row]]
    a = np.repeat(by_row, reps)
    first = np.cumsum(per_row) - per_row
    b = by_row[first[rows[a]] + np.arange(a.size) - np.repeat(np.cumsum(reps) - reps, reps)]
    return a, b


@dataclass
class _IpmResult:
    z: np.ndarray
    lam: np.ndarray
    status: str
    iterations: int
    kkt_residual: float
    message: str = ""


def _newton_step(m_red: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve m_red dz = rhs; while that fails or is not finite, retry with a
    ridge that starts at 1e-10 of the largest entry and grows 100-fold. None
    when six tries give no finite step."""
    ridge = 0.0
    for _ in range(6):
        try:
            shifted = m_red if ridge == 0.0 else m_red + ridge * np.eye(rhs.size)
            dz = np.linalg.solve(shifted, rhs)
        except np.linalg.LinAlgError:
            dz = None
        if dz is not None and np.isfinite(dz).all():
            return dz
        ridge = max(ridge * 100.0, 1e-10 * max(1.0, float(np.max(np.abs(m_red)))))
    return None


# ---------------------------------------------------------------------------
# Block-banded Newton steps for long programs
# ---------------------------------------------------------------------------
#
# Ordered by update, the variables of a long schedule couple only near
# neighbours: a leg ties update i to update i + 1, and P ties consecutive
# visits of one node. Without its energy-ball rows the Newton matrix is then
# block tridiagonal. Each ball row adds a rank-1 term over its node's
# waypoints, and a column outside the band (phase I's slack, the speed of the
# minimum-speed program) borders the matrix. Block elimination with the
# right-hand side, the ball gradients and the border columns as extra columns,
# then a Woodbury solve of k + border unknowns, gives the Newton step with no
# nv x nv array.

# Fewest variables in one diagonal block, and fewest blocks for which the
# block solve is faster than the dense one.
_BLOCK_VARS = 9
_MIN_BLOCKS = 19
# Cyclic reduction stops at a system this small and solves it dense.
_DENSE_VARS = 48
# A block solution is accepted when its residual is at most this fraction of
# the right-hand side, after at most _REFINE_PASSES correction passes that
# each at least halve it; otherwise the dense solve takes the step.
_RESIDUAL_TOL = 1e-10
_REFINE_PASSES = 6


@dataclass(frozen=True)
class _BlockLayout:
    """Where a program's Newton matrix goes in block-tridiagonal storage.

    Columns below ``num_banded`` are banded; column c sits at position
    ``pos[c]`` of the band, which is cut into ``num_blocks`` blocks of
    ``block`` positions, the last padded with an identity. The storage is
    (num_blocks, 3, block, block): the coupling of each block to the one
    before it, the block itself and its coupling to the one after it.
    ``flat`` sends there, in this order, the products of the pairs
    (``pair_a``, ``pair_b``) of G entries on banded columns that share a
    row, ``pair_row``, the ball curvature and P's entries; P comes last so
    that a program without P, phase I, uses the prefix. The layout holds
    positions only, no values. The ball rows are the first rows, their
    variables are banded and they hold no G entry on a banded column. Phase
    I shares the layout of its program: its G entries start with the
    program's, and its slack column borders the band.
    """

    num_banded: int
    pos: np.ndarray
    block: int
    num_blocks: int
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_row: np.ndarray
    flat: np.ndarray
    ball_pos: np.ndarray


def _block_layout(program: _Program, key: np.ndarray) -> _BlockLayout | None:
    """The layout of ``program`` whose first key.size columns form the band
    in ascending ``key``; None when it has fewer than _MIN_BLOCKS blocks, and
    the dense solve is the faster one."""
    nb = key.size
    if nb < _MIN_BLOCKS * _BLOCK_VARS:
        return None
    pos = np.empty(nb, dtype=np.intp)
    pos[np.argsort(key, kind="stable")] = np.arange(nb)
    banded = np.flatnonzero(program.G_col < nb)
    rows = program.G_row[banded]
    a, b = _row_pairs(rows, program.num_cons)
    p, q = pos[program.G_col[banded[a]]], pos[program.G_col[banded[b]]]
    p_p, p_q = pos[program.P_row], pos[program.P_col]
    bw = max(int(np.abs(p - q).max()), int(np.abs(p_p - p_q).max(initial=0)))
    bs = max(_BLOCK_VARS, bw)
    num_blocks = -(-nb // bs)
    if num_blocks < _MIN_BLOCKS:
        return None
    ball_pos = pos[program.ball_var]
    ends = np.concatenate([p, ball_pos, p_p]), np.concatenate([q, ball_pos, p_q])
    i, j = ends[0] // bs, ends[1] // bs
    flat = ((i * 3 + j - i + 1) * bs + ends[0] % bs) * bs + ends[1] % bs
    return _BlockLayout(nb, pos, bs, num_blocks, banded[a], banded[b], rows[a], flat, ball_pos)


def _block_step(
    program: _Program, jac: np.ndarray, lam: np.ndarray, weights: np.ndarray, rhs: np.ndarray
) -> np.ndarray | None:
    """The Newton step of ``program`` by its layout's structure; None when a
    block is singular or the residual stays above its tolerance, as it does
    for a step that is not finite."""
    lay = program.layout
    nb, bs, nblk = lay.num_banded, lay.block, lay.num_blocks
    nv = program.num_vars
    k = int(program.ball_row.max(initial=-1)) + 1
    g_val = program.G_val
    vals = np.concatenate(
        [g_val[lay.pair_a] * g_val[lay.pair_b] * weights[lay.pair_row],
         program._two_coef * lam[program.ball_row], program.P_val]
    )
    mat = np.bincount(lay.flat[: vals.size], weights=vals, minlength=nblk * 3 * bs * bs)
    mat = mat.reshape(nblk, 3, bs, bs)
    pad = np.arange(nb - (nblk - 1) * bs, bs)
    mat[-1, 1, pad, pad] = 1.0

    # Columns: the right-hand side, the ball gradients, the border columns.
    nbord = nv - nb
    cols = np.zeros((nblk * bs, 1 + k + nbord))
    cols[lay.pos, 0] = rhs[:nb]
    cols[lay.ball_pos, 1 + program.ball_row] = jac[program.G_val.size :]
    corner = np.empty((nbord, nbord))
    for j in range(nbord):
        unit = np.zeros(nv)
        unit[nb + j] = 1.0
        col = program.p_dot(unit) + program.jac_t_dot(jac, weights * program.jac_dot(jac, unit))
        cols[lay.pos, 1 + k + j] = col[:nb]
        corner[:, j] = col[nb:]

    try:
        with np.errstate(all="ignore"):
            solved, s = _block_solve(mat, cols, weights[:k], corner, rhs[nb:])
    except np.linalg.LinAlgError:
        return None
    dz = np.empty(nv)
    dz[:nb] = solved[lay.pos]
    dz[nb:] = s
    return dz


def _block_solve(
    mat: np.ndarray, cols: np.ndarray, weights: np.ndarray, corner: np.ndarray, rhs_border: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve [[A + U diag(weights) U', C], [C', corner]] [x; s] = [r; rhs_border]
    for A block tridiagonal in ``mat`` (see `_BlockLayout`) and ``cols`` =
    [r | U | C]. Raises LinAlgError when a block is singular or the residual
    stays above _RESIDUAL_TOL of the right-hand side.

    A is factored by block cyclic reduction. The k ball unknowns W U'x and
    the border unknowns s then make a small system (Woodbury). Residual
    correction passes with the same factors follow while the residual is
    above tolerance."""
    nblk, _, bs, _ = mat.shape
    k = weights.size
    # Scaled to a unit diagonal, D A D, which keeps the elimination without
    # pivoting accurate when the barrier weights differ by many orders.
    scale = 1.0 / np.sqrt(np.diagonal(mat[:, 1], axis1=1, axis2=2))
    beside = np.ones((nblk, 3, bs))
    beside[1:, 0] = scale[:-1]
    beside[:, 1] = scale
    beside[:-1, 2] = scale[1:]
    scaled = mat * scale[:, None, :, None] * beside[:, :, None, :]
    factors = _cyclic_factor(scaled[:, 0], scaled[:, 1], scaled[:, 2])
    scale = scale[:, :, None]

    def band_solve(rhs: np.ndarray) -> np.ndarray:
        return (_cyclic_solve(factors, rhs.reshape(nblk, bs, -1) * scale) * scale).reshape(rhs.shape)

    low = cols[:, 1:]
    solved = band_solve(cols)
    x, x_low = solved[:, 0], solved[:, 1:]
    small = low.T @ x_low
    small[:k, :k] += np.diag(1.0 / weights)
    small[k:, k:] -= corner
    small = np.linalg.inv(small)

    def woodbury(x_r: np.ndarray, r_border: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = low.T @ x_r
        t[k:] -= r_border
        s = small @ t
        return x_r - x_low @ s, s[k:]

    x, s = woodbury(x, rhs_border)
    rhs = np.concatenate([cols[:, 0], rhs_border])
    tol = _RESIDUAL_TOL * np.abs(rhs).max()
    last = np.inf
    for _ in range(_REFINE_PASSES + 1):
        xb = x.reshape(nblk, bs, 1)
        ax = mat[:, 1] @ xb
        ax[1:] += mat[1:, 0] @ xb[:-1]
        ax[:-1] += mat[:-1, 2] @ xb[1:]
        t = low.T @ x
        res = rhs - np.concatenate(
            [ax.ravel() + low @ np.concatenate([weights * t[:k], s]), t[k:] + corner @ s]
        )
        size = np.abs(res).max()
        if size <= tol:
            return x, s
        # A pass that does not halve the residual has met rounding level.
        if not size < 0.5 * last:
            break
        last = size
        dx, ds = woodbury(band_solve(res[: x.size]), res[x.size :])
        x, s = x + dx, s + ds
    raise np.linalg.LinAlgError("block solve residual stays above its tolerance")


def _cyclic_factor(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """Block cyclic reduction of the block-tridiagonal matrix with rows
    lower[i], diag[i], upper[i] at block columns i - 1, i, i + 1.

    The odd blocks are eliminated in one batch, which leaves a
    block-tridiagonal matrix of the even ones, and so on until it is small
    enough to solve dense. For a positive definite matrix each reduced
    matrix is a Schur complement, so no pivoting between blocks is needed.
    Each level keeps (inv, alpha, beta, left, right) for `_cyclic_solve`."""
    levels = []
    num, bs, _ = diag.shape
    while num * bs > _DENSE_VARS:
        n_odd = num // 2
        n_left = num - n_odd - 1
        # Odd block i: X[i] = inv B[i] - alpha X[i-1] - beta X[i+1].
        inv = np.linalg.inv(diag[1::2])
        alpha, beta = inv @ lower[1::2], inv @ upper[1::2]
        # Even block j: the even blocks j - 2 and j + 2 become its neighbours.
        left, right = lower[2::2], upper[0 : 2 * n_odd : 2]
        red_diag = diag[0::2].copy()
        red_diag[:n_odd] -= right @ alpha
        red_diag[1:] -= left @ beta[:n_left]
        red_lower = np.zeros_like(red_diag)
        red_lower[1:] = -(left @ alpha[:n_left])
        red_upper = np.zeros_like(red_diag)
        red_upper[:n_odd] = -(right @ beta)
        levels.append((inv, alpha, beta[:n_left], left, right))
        lower, diag, upper = red_lower, red_diag, red_upper
        num = diag.shape[0]
    # Row i's blocks sit at block columns i - 1, i, i + 1 of a matrix with one
    # block of padding on either side.
    full = np.zeros((num, bs, num + 2, bs))
    at = np.arange(num)[:, None]
    full[at, :, at + np.arange(3)] = np.stack([lower, diag, upper], axis=1)
    return levels, full.reshape(num * bs, -1)[:, bs:-bs]


def _cyclic_solve(factors: tuple[list[tuple[np.ndarray, ...]], np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """X with A X = rhs for the factors of A from `_cyclic_factor`; rhs and
    X are (blocks, block size, columns)."""
    levels, base = factors
    gammas = []
    for inv, _, _, left, right in levels:
        gamma = inv @ rhs[1::2]
        red = rhs[0::2].copy()
        red[: gamma.shape[0]] -= right @ gamma
        red[1:] -= left @ gamma[: left.shape[0]]
        gammas.append(gamma)
        rhs = red
    x = np.linalg.solve(base, rhs.reshape(base.shape[0], -1)).reshape(rhs.shape)
    for (_, alpha, beta, _, _), gamma in zip(reversed(levels), reversed(gammas)):
        odd = gamma - alpha @ x[: gamma.shape[0]]
        odd[: beta.shape[0]] -= beta @ x[1:]
        out = np.empty((x.shape[0] + odd.shape[0],) + x.shape[1:])
        out[0::2] = x
        out[1::2] = odd
        x = out
    return x


def _solve_ipm(
    program: _Program,
    z0: np.ndarray,
    tol: float,
    max_iters: int,
    stop_below: float | None = None,
) -> _IpmResult:
    """Primal-dual interior-point iteration from a strictly feasible start.

    ``stop_below`` lets phase I stop as soon as its slack, the last variable
    and its whole objective, sinks under a threshold. A result that is not
    optimal says in ``message`` why the iteration stopped.
    """
    z = z0.copy()
    f = program.constraint_values(z)
    if np.any(f >= 0.0):
        raise ValueError("interior-point start must be strictly feasible")
    lam = 1.0 / np.maximum(-f, 1e-8)
    m = program.g.size
    # The constraint values, Jacobian and dual residual at the current point;
    # after the first iteration they come from the accepted line-search trial.
    jac = program.jacobian(z)
    r_dual = program.objective_grad(z) + program.jac_t_dot(jac, lam)

    status = STATUS_MAX_ITERATIONS
    message = ""
    iterations = 0
    dual_inf, lam_k, f_k = math.inf, lam, f
    for it in range(max_iters):
        iterations = it + 1
        eta = -float(f @ lam)
        t_bar = _MU * m / max(eta, 1e-300)
        r_cent = -lam * f - 1.0 / t_bar
        res_norm = math.sqrt(float(r_dual @ r_dual) + float(r_cent @ r_cent))

        # The KKT residual of the last iterate examined is formed after the loop.
        dual_inf, lam_k, f_k = float(np.abs(r_dual).max()), lam, f
        if dual_inf <= tol and eta <= tol:
            status = STATUS_OPTIMAL
            break
        if stop_below is not None and z[-1] < stop_below:
            status = STATUS_OPTIMAL
            break

        weights = lam / (-f)
        rhs = -(r_dual + program.jac_t_dot(jac, r_cent / f))
        dz = None if program.layout is None else _block_step(program, jac, lam, weights, rhs)
        if dz is None:
            dz = _newton_step(program.newton_matrix(jac, lam, weights), rhs)
        if dz is None:
            message = f"Newton step not finite after ridge retries at iteration {iterations}"
            break
        dlam = (r_cent - lam * program.jac_dot(jac, dz)) / f

        neg = dlam < 0.0
        step = min(1.0, 0.99 * float(np.where(neg, lam / np.where(neg, -dlam, 1.0), np.inf).min()))
        # Stay strictly inside the constraint set. Both searches below refuse
        # a cut step that is too short to move z: it would count as progress.
        feasible = False
        for trial in range(80):
            z_new = z + step * dz
            f_new = program.constraint_values(z_new)
            if f_new.max() < 0.0:
                feasible = trial == 0 or not (z_new == z).all()
                break
            step *= _LS_BETA
        if not feasible:
            message = f"line search found no strictly feasible step at iteration {iterations}"
            break
        # Backtrack on the combined residual; the first trial is the point
        # the feasibility search just found strictly feasible.
        accepted = False
        for trial in range(80):
            if trial:
                z_new = z + step * dz
                f_new = program.constraint_values(z_new)
            lam_new = lam + step * dlam
            if (trial == 0 or f_new.max() < 0.0) and lam_new.min() > 0.0:
                jac_new = program.jacobian(z_new)
                rd_new = program.objective_grad(z_new) + program.jac_t_dot(jac_new, lam_new)
                rc_new = -lam_new * f_new - 1.0 / t_bar
                new_norm = math.sqrt(float(rd_new @ rd_new) + float(rc_new @ rc_new))
                if new_norm <= (1.0 - _LS_ALPHA * step) * res_norm + 1e-14:
                    accepted = trial == 0 or not (z_new == z).all()
                    break
            step *= _LS_BETA
        if not accepted:
            message = f"line search found no residual decrease at iteration {iterations}"
            break
        z, lam, f, jac, r_dual = z_new, lam_new, f_new, jac_new, rd_new
    else:
        message = f"no convergence within {max_iters} iterations"

    kkt = max(dual_inf, float(np.abs(lam_k * f_k).max()))
    return _IpmResult(
        z=z, lam=lam, status=status, iterations=iterations, kkt_residual=kkt, message=message
    )


_NO_ENTRIES = np.zeros(0, dtype=np.intp)


def _phase1_program(program: _Program) -> _Program:
    """Minimize the worst scaled violation s over (z, s): each row gets -s."""
    n = program.num_vars
    m = program.num_cons
    return replace(
        program,
        P_row=_NO_ENTRIES,
        P_col=_NO_ENTRIES,
        P_val=np.zeros(0),
        q=np.concatenate([np.zeros(n), [1.0]]),
        r0=0.0,
        G_row=np.concatenate([program.G_row, np.arange(m)]),
        G_col=np.concatenate([program.G_col, np.full(m, n)]),
        G_val=np.concatenate([program.G_val, -np.ones(m)]),
    )


# ---------------------------------------------------------------------------
# Fixed-order trajectory program
# ---------------------------------------------------------------------------


@dataclass
class TrajectorySolution:
    """Result of optimizing update instants and hover points for one order.

    The defaults describe a solution without a trajectory.
    """

    status: str
    order: tuple[int, ...]
    times_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    waypoints_xy: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    objective: float = math.inf
    solver_objective: float = math.inf
    kkt_residual: float = math.inf
    iterations: int = 0
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    coincident_pairs: list[tuple[int, int]] = field(default_factory=list)
    used_phase1: bool = False
    message: str = ""

    @property
    def constraint_labels(self) -> list[str]:
        """The name of each constraint row ``duals`` belongs to; empty
        when there are no duals."""
        return _row_labels(self.order) if self.duals.size else []

    def update_times(self, num_nodes: int) -> UpdateTimes:
        return UpdateTimes(split_by_node(list(self.order), self.times_s, num_nodes))

    def to_document(self) -> dict[str, Any]:
        return result_document(self, omit=("duals",))

    def write_trajectory_csv(self, path: str | Path, scenario: Scenario) -> None:
        """Waypoint table including both mission endpoints."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "x_m", "y_m", "node"])
            writer.writerow(
                ["0", f"{scenario.uav.initial[0]:.10g}", f"{scenario.uav.initial[1]:.10g}", ""]
            )
            for i in range(self.times_s.size):
                writer.writerow(
                    [
                        f"{self.times_s[i]:.10g}",
                        f"{self.waypoints_xy[i, 0]:.10g}",
                        f"{self.waypoints_xy[i, 1]:.10g}",
                        int(self.order[i]),
                    ]
                )
            writer.writerow(
                [
                    f"{scenario.uav.horizon_s:.10g}",
                    f"{scenario.uav.final[0]:.10g}",
                    f"{scenario.uav.final[1]:.10g}",
                    "",
                ]
            )


def _ball_and_leg_rows(
    order: Sequence[int],
    xy: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    budgets: dict[int, float],
    ball_floor: float,
    leg_scale: tuple[float, float],
    x_col: int,
    num_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Energy-ball and speed-leg rows of the schedule and minimum-speed
    programs, the first rows of both; the caller adds its own speed
    allowance to the leg rows and its further rows.

    Waypoint i's x and y are columns x_col + i and x_col + n + i. One ball per
    node in ``budgets`` (ascending) holds the x and then the y coordinates of
    that node's updates, divided by max(budget, ball_floor). Then come speed
    legs 0..n for x then y, the positive sign before the negative, each
    divided by its axis's ``leg_scale``; start and end points sit in g.
    Returns the nonzeros (rows, cols, vals) of G in these rows, g with
    ``num_rows`` entries and (ball_row, ball_var, ball_center, ball_coef).
    """
    n = len(order)
    nodes = sorted(budgets)
    k = len(nodes)
    g_vec = np.zeros(num_rows)
    x_idx = x_col + np.arange(n)
    y_idx = x_idx + n

    c_scaled = np.array([budgets[m] for m in nodes])
    ball_scale = np.maximum(c_scaled, ball_floor)
    g_vec[:k] = -c_scaled / ball_scale
    node = np.asarray(order, dtype=int) - 1
    ball_of = np.full(len(xy), -1)
    ball_of[nodes] = np.arange(k)
    slot = ball_of[node]
    in_ball = slot >= 0
    node = node[in_ball]
    ball_row = np.concatenate([slot[in_ball], slot[in_ball]])
    ball_var = np.concatenate([x_idx[in_ball], y_idx[in_ball]])
    ball_center = np.concatenate([xy[node, 0], xy[node, 1]])
    ball_coef = (1.0 / ball_scale)[ball_row]

    # Blocks x pos, x neg, y pos, y neg of legs 0..n, one row per block and
    # leg. Leg l flies from waypoint l - 1 (the start for l = 0) to waypoint
    # l (the end for l = n): legs 0..n-1 hold their far waypoint, legs 1..n
    # their near one.
    axis = [0, 0, 1, 1]
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    scale = np.asarray(leg_scale)[axis]
    first = k + (n + 1) * np.arange(4)
    far = (first[:, None] + np.arange(n)).ravel()
    cols = np.concatenate([x_idx, x_idx, y_idx, y_idx])
    vals = np.repeat(sign / scale, n)
    g_vec[first] = -sign * start[axis] / scale
    g_vec[first + n] = sign * end[axis] / scale

    return (
        np.concatenate([far, far + 1]),
        np.concatenate([cols, cols]),
        np.concatenate([vals, -vals]),
        g_vec,
        (ball_row, ball_var, ball_center, ball_coef),
    )


def _instant_objective(weights: np.ndarray, node: np.ndarray) -> tuple:
    """NWAoI over the instants of updates of the 0-based nodes ``node``, in
    units of the horizon, under node weights ``weights``, as 0.5 t'Pt + q't
    + r0: P's nonzeros (rows, cols, vals), q and r0. ``node`` is one order,
    or a stack (orders, n) of orders that share their per-node counts, and
    the arrays then carry the stack's leading axis."""
    n = node.shape[-1]
    # A node's squared gaps between its instants s, fenced by 0 and 1, sum to
    # s'Qs - 2 s_last + 1, with Q tridiagonal: 2 on the diagonal, -1 between
    # the node's consecutive updates a and b. The weighted 1s sum to r0 = 1.
    # Every order of a stack sorts to the same nodes, so one mask serves all.
    w = weights[node]
    by_node = np.argsort(node, axis=-1, kind="stable")
    ranked = np.sort(node.reshape(-1, n)[0])
    same = ranked[1:] == ranked[:-1]
    a, b = by_node[..., :-1][..., same], by_node[..., 1:][..., same]
    last = by_node[..., np.append(~same, True)]
    q_vec = np.zeros(node.shape)
    np.put_along_axis(q_vec, last, -2.0 * np.take_along_axis(w, last, axis=-1), axis=-1)
    t_idx = np.broadcast_to(np.arange(n), node.shape)
    pair = -2.0 * np.take_along_axis(w, a, axis=-1)
    rows, cols = np.concatenate([t_idx, a, b], axis=-1), np.concatenate([t_idx, b, a], axis=-1)
    return rows, cols, np.concatenate([4.0 * w, pair, pair], axis=-1), q_vec, 1.0


def _instant_program(weights: np.ndarray, node: np.ndarray) -> _Program:
    """The update instants' part of the fixed-order program: NWAoI over the
    n instants (`_instant_objective`) under the ordering rows
    t_i - t_(i+1) <= 0 and then the time rows -t_i <= 0 and t_i - 1 <= 0.
    `_schedule_program` adds the hover points to it."""
    n = node.size
    t_idx = np.arange(n)
    # Ordering t_i - t_(i+1), time_lo -t_i and time_hi t_i - 1.
    ordering = t_idx[:-1]
    time_lo = n - 1 + t_idx
    time_hi = time_lo + n
    g_vec = np.zeros(3 * n - 1)
    g_vec[time_hi] = -1.0
    ones = np.ones(n)
    return _Program(
        *_instant_objective(weights, node),
        np.concatenate([ordering, ordering, time_lo, time_hi]),
        np.concatenate([t_idx[:-1], t_idx[1:], t_idx, t_idx]),
        np.concatenate([ones[1:], -ones[1:], -ones, ones]),
        g_vec,
        _NO_ENTRIES,
        _NO_ENTRIES,
        np.zeros(0),
        np.zeros(0),
    )


def _schedule_program(scenario: Scenario, order: tuple[int, ...]) -> _Program | str:
    """Build the scaled fixed-order program. Its columns are the n update
    instants, then the waypoints' x, then their y. Returns an error message
    string when some node cannot afford its update count."""
    n = len(order)
    m_nodes = scenario.num_nodes
    horizon = scenario.uav.horizon_s
    r_scale = scenario.coordinate_scale()
    xy = scenario.node_xy() / r_scale
    start = np.asarray(scenario.uav.initial) / r_scale
    end = np.asarray(scenario.uav.final) / r_scale
    vx = scenario.uav.vmax_x * horizon / r_scale
    vy = scenario.uav.vmax_y * horizon / r_scale

    node = np.asarray(order, dtype=int) - 1
    counts = np.bincount(node, minlength=m_nodes)
    budgets = {}
    for m in range(m_nodes):
        if counts[m] == 0:
            continue
        c = energy_budget_constant(scenario, m, int(counts[m]))
        if c < 0.0:
            return (
                f"node {m + 1} cannot afford {int(counts[m])} updates; "
                f"energy budget constant is {c:.6g}"
            )
        budgets[m] = c / (r_scale * r_scale)

    # Rows: the energy balls and speed legs, then the instants' rows.
    instants = _instant_program(scenario.weights(), node)
    t_idx = np.arange(n)
    k = len(budgets)
    legs = n + 1
    row = k + 4 * legs
    rows, cols, vals, g_vec, balls = _ball_and_leg_rows(
        order, xy, start, end, budgets, ball_floor=1e-12, leg_scale=(max(vx, 1.0), max(vy, 1.0)),
        x_col=n, num_rows=row + 3 * n - 1,
    )
    # Each leg may cover at most vmax times its duration t_l - t_(l-1).
    vmax = np.array([vx, vx, vy, vy])
    allowance = vmax / np.maximum(vmax, 1.0)
    first = k + legs * np.arange(4)
    g_vec[first + n] -= allowance
    far = (first[:, None] + t_idx).ravel()
    t_far = np.tile(t_idx, 4)
    allowance = np.repeat(allowance, n)
    g_vec[row:] = instants.g

    program = _Program(
        instants.P_row,
        instants.P_col,
        instants.P_val,
        np.concatenate([instants.q, np.zeros(2 * n)]),
        instants.r0,
        np.concatenate([rows, far, far + 1, instants.G_row + row]),
        np.concatenate([cols, t_far, t_far, instants.G_col]),
        np.concatenate([vals, -allowance, allowance, instants.G_val]),
        g_vec,
        *balls,
    )
    # The band runs t_i, x_i, y_i update by update.
    program.layout = _block_layout(program, np.tile(3 * t_idx, 3) + np.repeat(np.arange(3), n))
    return program


def solve_schedule(
    scenario: Scenario,
    order: Sequence[int],
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> TrajectorySolution:
    """Optimize update instants and hover points for a fixed visit order.

    Returns the age metric, the trajectory, scaled duals, and the final
    KKT residual. An empty order is the do-nothing mission with metric
    exactly 1. Orders whose per-node counts exceed the energy budget, or
    whose constraint set has no interior, come back with status
    'infeasible'. A solve that stops short of convergence comes back as
    'max_iterations' and says why in ``message``.

    The interior-point iteration starts on the straight run from start to
    end; when that start is not strictly interior, a phase-I program first
    looks for one.
    """
    order = validate_order(order, scenario.num_nodes)
    scenario.validate()
    if not order:
        return TrajectorySolution(
            STATUS_OPTIMAL, order, objective=1.0, solver_objective=1.0, kkt_residual=0.0
        )
    program = _schedule_program(scenario, order)
    if isinstance(program, str):
        return TrajectorySolution(STATUS_INFEASIBLE, order, message=program)
    n = len(order)
    z0 = _straight_start(scenario, n)
    worst = float(np.max(program.constraint_values(z0)))
    used_phase1 = worst >= -_STRICT_MARGIN
    phase1_iters = 0
    if used_phase1:
        # Phase I starts its slack at 2 max(f) + 1, which keeps the worst
        # row's slack comparable to the others; max(f) + 1 leaves it
        # absurdly uncentered and the iteration crawls.
        phase1 = _solve_ipm(
            _phase1_program(program), np.append(z0, 2.0 * worst + 1.0), tol, max_iters, -_STRICT_MARGIN
        )
        z0 = phase1.z[:-1]
        phase1_iters = phase1.iterations
        interior = phase1.z[-1] < -_STRICT_MARGIN and np.all(program.constraint_values(z0) < 0.0)
        if not interior and phase1.status == STATUS_OPTIMAL:
            return TrajectorySolution(
                STATUS_INFEASIBLE,
                order,
                message="no strictly interior trajectory exists "
                f"(best scaled violation {phase1.z[-1]:.3g})",
            )
        if not interior:  # Phase I stopped short, so an interior point may still exist.
            return TrajectorySolution(
                STATUS_MAX_ITERATIONS,
                order,
                iterations=phase1_iters,
                used_phase1=True,
                message=phase1.message,
            )

    result = _solve_ipm(program, z0, tol, max_iters)
    horizon = scenario.uav.horizon_s
    t, x, y = result.z.reshape(3, n)
    times = t * horizon
    per_node = split_by_node(list(order), times, scenario.num_nodes)
    # A duality gap of tol blurs each instant by about sqrt(tol)*horizon,
    # so gaps below that are numerically a single instant.
    coincident = [
        (i + 1, i + 2)
        for i in range(n - 1)
        if times[i + 1] - times[i] <= math.sqrt(tol) * horizon
    ]
    return TrajectorySolution(
        status=result.status,
        order=order,
        times_s=times,
        waypoints_xy=np.column_stack([x, y]) * scenario.coordinate_scale(),
        objective=nwaoi(scenario, UpdateTimes(per_node)),
        solver_objective=program.objective(result.z),
        kkt_residual=result.kkt_residual,
        iterations=result.iterations + phase1_iters,
        duals=result.lam,
        coincident_pairs=coincident,
        used_phase1=used_phase1,
        message=result.message,
    )


def _straight_start(scenario: Scenario, n: int) -> np.ndarray:
    """The scaled start on the straight run from start to end, at evenly
    spaced instants."""
    r_scale = scenario.coordinate_scale()
    start = np.asarray(scenario.uav.initial) / r_scale
    end = np.asarray(scenario.uav.final) / r_scale
    frac = (np.arange(n) + 1.0) / (n + 1.0)
    return np.concatenate([frac, (start[:, None] + (end - start)[:, None] * frac).ravel()])


# ---------------------------------------------------------------------------
# Certified floors of fixed orders
# ---------------------------------------------------------------------------


def _travel_gaps(scenario: Scenario, node: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Least duration of each leg, in units of the horizon, for rows of
    0-based nodes ``node``; radii[m] bounds how far node m's hover points lie
    from it. Legs 0..n run from the start point to the end point, which have
    radius 0, and each takes the larger of its per-axis bounds
    max(0, |centre gap| - r_a - r_b) / vmax."""
    num = node.shape[0]
    uav = scenario.uav
    points = np.concatenate(
        [np.broadcast_to(uav.initial, (num, 1, 2)), scenario.node_xy()[node],
         np.broadcast_to(uav.final, (num, 1, 2))],
        axis=1,
    )
    reach = np.pad(radii[node], ((0, 0), (1, 1)))
    span = np.abs(np.diff(points, axis=1)) - (reach[:, :-1] + reach[:, 1:])[:, :, None]
    vmax = np.array([uav.vmax_x, uav.vmax_y])
    return (np.maximum(span, 0.0) / vmax).max(axis=2) / uav.horizon_s


# Most active-set passes `order_floors` takes; an order whose free set still
# changes after them keeps the dual value of its last duals.
_MAX_PASSES = 30


def order_floors(scenario: Scenario, orders: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """Certified lower bound on the objective of each order; the orders
    share their per-node counts.

    ``orders`` is an (orders, n) array such as `multiset_permutations` gives,
    or any sequence of equal-length orders, checked once by `_order_rows`.

    The bound drops the hover points. Node m's hover points lie within
    r_m = sqrt(`energy_budget_constant`) of it, so each leg lasts at least
    its `_travel_gaps` entry, and NWAoI over the instants (`_instant_objective`)
    is bounded under the n + 1 chain rows Gt + g <= 0: t_1 >= gap_0,
    t_(i+1) - t_i >= gap_i and 1 - t_n >= gap_n. Any duals lam >= 0 bound it
    from below by the dual value d(lam) = r0 + g'lam - 0.5 v'P^-1 v, with
    v = q + G'lam (Boyd and Vandenberghe, Convex Optimization, 2004, ch. 5).
    The best duals minimize 0.5 lam'H lam + c'lam over lam >= 0, with
    H = G P^-1 G' and c = G P^-1 q - g. The primal-dual active-set method
    (Hintermueller, Ito and Kunisch, SIAM J. Optim., 2002) finds them for
    all orders at once in at most _MAX_PASSES batched solves; an order whose
    solve fails stops at its last finite duals. The floor is the larger of
    `per_count_floor` and d(max(lam, 0)). When the gaps sum above the
    horizon the order cannot be flown and its floor is +inf. When they fill
    it exactly, or a node of the order has weight 0 (P is then singular),
    the floor is `per_count_floor`.
    """
    if len(orders) == 0:
        return np.zeros(0)
    node = _order_rows(orders, scenario.num_nodes) - 1
    if np.any(np.sort(node, axis=1) != np.sort(node[0])):
        raise ValueError("orders must share their per-node counts")
    counts = np.bincount(node[0], minlength=scenario.num_nodes)
    floors = np.full(len(node), per_count_floor(scenario, counts))
    n = node.shape[1]
    if n == 0:
        return floors
    budget = [energy_budget_constant(scenario, m, int(c)) for m, c in enumerate(counts)]
    gaps = _travel_gaps(scenario, node, np.sqrt(np.maximum(budget, 0.0)))
    leftover = 1.0 - gaps.sum(axis=1)
    floors[leftover < 0.0] = math.inf
    weights = scenario.weights()
    live = np.flatnonzero(leftover > 0.0)
    num = live.size
    if num == 0 or np.any(weights[counts > 0] == 0.0):
        return floors
    p_row, p_col, p_val, q, r0 = _instant_objective(weights, node[live])
    p_mat = np.zeros((num, n, n))
    p_mat[np.arange(num)[:, None], p_row, p_col] = p_val
    g = gaps[live]
    g[:, -1] -= 1.0
    # G' is the n x (n + 1) difference matrix, and G x = -diff of x padded
    # with a 0 on either side.
    g_t = np.broadcast_to(np.diff(np.eye(n + 1), axis=0), (num, n, n + 1))
    solved = np.linalg.solve(p_mat, np.concatenate([g_t, q[:, :, None]], axis=2))
    g_solved = -np.diff(solved, axis=1, prepend=0.0, append=0.0)
    h, c = g_solved[:, :, :-1], g_solved[:, :, -1] - g

    # A pass fixes lam = 0 on the rows off the free set and solves
    # H_FF lam_F = -c_F; the next free set is lam - mu > 0, with mu = H lam + c
    # the multipliers of lam >= 0 (0 on the free rows).
    lam = np.zeros((num, n + 1))
    free = c < 0.0
    todo = np.arange(num)
    eye = np.eye(n + 1)
    for _ in range(_MAX_PASSES):
        if todo.size == 0:
            break
        f = free[todo]
        mat = np.where(f[:, :, None] & f[:, None, :], h[todo], eye)
        rhs = np.where(f, -c[todo], 0.0)[:, :, None]
        try:
            step = np.linalg.solve(mat, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # Solved one by one, a singular order fails alone.
            step = np.full(f.shape, np.nan)
            for i in range(todo.size):
                try:
                    step[i] = np.linalg.solve(mat[i], rhs[i])[:, 0]
                except np.linalg.LinAlgError:
                    pass
        ok = np.isfinite(step).all(axis=1)
        rows, f, step = todo[ok], f[ok], step[ok]
        mu = np.where(f, 0.0, (h[rows] * step[:, None, :]).sum(axis=2) + c[rows])
        lam[rows] = step
        free[rows] = step - mu > 0.0
        todo = rows[(free[rows] != f).any(axis=1)]

    lam = np.maximum(lam, 0.0)
    v = q + np.diff(lam, axis=1)
    x = np.linalg.solve(p_mat, v[:, :, None])[:, :, 0]
    dual = r0 + (g * lam).sum(axis=1) - 0.5 * (v * x).sum(axis=1)
    floors[live] = np.fmax(floors[live], dual)
    return floors


# ---------------------------------------------------------------------------
# Minimum cruise speed over the fixed full-budget schedule
# ---------------------------------------------------------------------------


@dataclass
class MinSpeedSolution:
    """Smallest symmetric per-axis speed limit that flies the full-budget
    evenly spaced schedule."""

    status: str
    speed: float
    times_s: np.ndarray
    order: tuple[int, ...]
    waypoints_xy: np.ndarray
    kkt_residual: float
    iterations: int

    def to_document(self) -> dict[str, Any]:
        return result_document(self)


def solve_min_speed(
    scenario: Scenario,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> MinSpeedSolution:
    """Minimize the speed limit needed to fly the evenly spaced full-budget
    schedule, choosing hover points freely within each node's energy ball.

    Raises CoincidentTimesError when two merged updates share an instant;
    no finite speed orders the visits in that case.
    """
    scenario.validate()
    times, order = uniform_schedule(scenario)
    n = times.size
    if n == 0:
        return MinSpeedSolution(
            status=STATUS_OPTIMAL,
            speed=0.0,
            times_s=times,
            order=tuple(),
            waypoints_xy=np.zeros((0, 2)),
            kkt_residual=0.0,
            iterations=0,
        )
    # The closed-form bound raises CoincidentTimesError; flying straight
    # from node to node, it also sets the starting speed.
    v_need = min_speed_upper_bound(scenario)

    horizon = scenario.uav.horizon_s
    r_scale = scenario.coordinate_scale()
    xy = scenario.node_xy() / r_scale
    start = np.asarray(scenario.uav.initial) / r_scale
    end = np.asarray(scenario.uav.final) / r_scale
    counts = all_max_updates(scenario)

    # Nodes whose budget lands exactly on the boundary must hover overhead;
    # their waypoints stay constants instead of giving the ball an empty
    # interior.
    budgets = {}
    for m in np.flatnonzero(counts):
        c = energy_budget_constant(scenario, int(m), int(counts[m])) / (r_scale * r_scale)
        if c > 1e-16:
            budgets[int(m)] = c

    # Columns: x of every update, y of every update, then the speed v.
    k = len(budgets)
    nv = 2 * n + 1
    num_rows = k + 4 * (n + 1) + 1
    rows, cols, vals, g_vec, balls = _ball_and_leg_rows(
        order, xy, start, end, budgets, ball_floor=0.0, leg_scale=(1.0, 1.0),
        x_col=0, num_rows=num_rows,
    )
    # Each leg may cover at most v times its duration.
    dt = np.diff(np.concatenate(([0.0], times / horizon, [1.0])))
    rows = np.concatenate([rows, np.arange(k, num_rows)])
    cols = np.concatenate([cols, np.full(num_rows - k, nv - 1)])
    vals = np.concatenate([vals, np.tile(-dt, 4), [-1.0]])

    # Start over the nodes, faster than the bound; pinned waypoints keep
    # that position and their entries move into g.
    node = order - 1
    v0 = v_need * horizon / r_scale * 1.5 + 0.1
    z_full = np.concatenate([xy[node, 0], xy[node, 1], [v0]])
    free = np.ones(nv, dtype=bool)
    free[:-1] = np.tile(np.isin(node, list(budgets)), 2)
    pinned = ~free[cols]
    g_vec += np.bincount(
        rows[pinned], weights=vals[pinned] * z_full[cols[pinned]], minlength=num_rows
    )
    column = np.cumsum(free) - 1
    nf = int(free.sum())
    ball_row, ball_var, ball_center, ball_coef = balls
    program = _Program(
        P_row=_NO_ENTRIES,
        P_col=_NO_ENTRIES,
        P_val=np.zeros(0),
        q=np.concatenate([np.zeros(nf - 1), [1.0]]),
        r0=0.0,
        G_row=rows[~pinned],
        G_col=column[cols[~pinned]],
        G_val=vals[~pinned],
        g=g_vec,
        ball_row=ball_row,
        ball_var=column[ball_var],
        ball_center=ball_center,
        ball_coef=ball_coef,
    )
    # The band runs x_i, y_i update by update; v borders it.
    key = np.arange(2 * n) % n * 2 + np.arange(2 * n) // n
    program.layout = _block_layout(program, key[free[:-1]])

    result = _solve_ipm(program, z_full[free], tol, max_iters)

    z_full[free] = result.z
    waypoints = np.column_stack([z_full[:n], z_full[n:-1]]) * r_scale
    return MinSpeedSolution(
        status=result.status,
        speed=float(z_full[-1]) * r_scale / horizon,
        times_s=times,
        order=tuple(int(v) for v in order),
        waypoints_xy=waypoints,
        kkt_residual=result.kkt_residual,
        iterations=result.iterations,
    )


# ---------------------------------------------------------------------------
# Independent solution checker
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of re-verifying a returned trajectory from first principles.

    The defaults describe a check that could not be made.
    """

    ok: bool = False
    feasibility: float = math.inf
    stationarity: float = math.inf
    complementarity: float = math.inf
    dual_feasibility: float = math.inf
    objective_gap: float = math.inf
    energy_rel_violation: float = math.inf
    speed_abs_violation: float = math.inf
    messages: list[str] = field(default_factory=list)

    def to_document(self) -> dict[str, Any]:
        return result_document(self)


def _check_lagrangian(
    scenario: Scenario,
    order: tuple[int, ...],
    z: np.ndarray,
    lam: np.ndarray | None = None,
) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Fresh evaluation of the scaled constraint vector, the objective and,
    when duals are given, the gradient of objective + lam'(constraints).

    Deliberately rebuilt from the scenario here rather than reusing the
    solver's matrices, so checker and solver can disagree. Rows come in the
    order `_row_labels` names them, which the solver's programs follow. The
    gradient is the exact derivative of these formulas.
    """
    n = len(order)
    horizon = scenario.uav.horizon_s
    r_scale = scenario.coordinate_scale()
    t = z[:n]
    x = z[n : 2 * n]
    y = z[2 * n : 3 * n]
    xy = scenario.node_xy() / r_scale
    vmax = np.array([scenario.uav.vmax_x, scenario.uav.vmax_y])[:, None] * horizon / r_scale
    node = np.asarray(order, dtype=int) - 1

    counts = np.bincount(node, minlength=scenario.num_nodes)
    scheduled = np.flatnonzero(counts)
    slot = (np.cumsum(counts > 0) - 1)[node]
    c = np.array(
        [energy_budget_constant(scenario, int(m), int(counts[m])) for m in scheduled]
    ) / (r_scale * r_scale)
    ball_scale = np.maximum(c, 1e-12)
    dx = x - xy[node, 0]
    dy = y - xy[node, 1]
    lhs = np.bincount(slot, weights=dx * dx + dy * dy, minlength=scheduled.size)

    start = np.asarray(scenario.uav.initial) / r_scale
    end = np.asarray(scenario.uav.final) / r_scale
    fence_w = np.vstack([np.concatenate(([start[k]], w, [end[k]])) for k, w in enumerate((x, y))])
    dw = np.diff(fence_w, axis=1)
    dt = np.diff(np.concatenate(([0.0], t, [1.0])))
    speed_scale = np.maximum(vmax, 1.0)
    speed = np.stack([dw - vmax * dt, -dw - vmax * dt], axis=1) / speed_scale[:, None]
    values = np.concatenate(
        [(lhs - c) / ball_scale, speed.ravel(), t[:-1] - t[1:], -t, t - 1.0]
    )

    # Each node's gaps between consecutive instants, fenced by 0 and 1; a
    # node that never updates keeps the single gap 1.
    by_node = np.argsort(node, kind="stable")
    node_s = node[by_node]
    t_s = t[by_node]
    first = np.concatenate(([True], node_s[1:] != node_s[:-1]))
    last = np.concatenate((first[1:], [True]))
    gap_in = t_s - np.where(first, 0.0, np.roll(t_s, 1))
    gap_out = np.where(last, 1.0, np.roll(t_s, -1)) - t_s
    weights = scenario.weights()
    per_node = np.ones(scenario.num_nodes)
    per_node[scheduled] = (
        np.bincount(node_s, weights=gap_in * gap_in, minlength=scenario.num_nodes)[scheduled]
        + gap_out[last] ** 2
    )
    obj = float(weights @ per_node)
    if lam is None:
        return values, obj, None

    k = scheduled.size
    lam_ball = lam[:k]
    lam_speed = lam[k : k + 4 * (n + 1)].reshape(2, 2, n + 1)
    lam_order, lam_lo, lam_hi = np.split(lam[k + 4 * (n + 1) :], [n - 1, 2 * n - 1])

    grad_t = np.empty(n)
    grad_t[by_node] = 2.0 * weights[node_s] * (gap_in - gap_out)
    ball = 2.0 * lam_ball[slot] / ball_scale[slot]
    # Leg l moves with fence points l and l + 1, so each waypoint and instant
    # collects the difference of its two neighbouring legs' multipliers.
    along = (lam_speed[:, 0] - lam_speed[:, 1]) / speed_scale
    against = vmax * (lam_speed[:, 0] + lam_speed[:, 1]) / speed_scale
    grad_t += np.diff(against.sum(axis=0)) + lam_hi - lam_lo
    grad_t[:-1] += lam_order
    grad_t[1:] -= lam_order
    grad_x = ball * dx - np.diff(along[0])
    grad_y = ball * dy - np.diff(along[1])
    return values, obj, np.concatenate([grad_t, grad_x, grad_y])


def _row_labels(order: tuple[int, ...]) -> list[str]:
    """Names of the constraint rows of ``order``'s schedule program: one
    energy ball per scheduled node (ascending), speed legs 0..n for x then
    y with the positive sign before the negative, ordering, time_lo,
    time_hi."""
    n = len(order)
    labels = [f"energy_node_{m}" for m in sorted(set(order))]
    labels += [
        f"speed_{axis}_{tag}_leg_{leg}"
        for axis in "xy"
        for tag in ("pos", "neg")
        for leg in range(n + 1)
    ]
    labels += [f"order_{i}" for i in range(1, n)]
    labels += [f"time_lo_{i}" for i in range(1, n + 1)]
    labels += [f"time_hi_{i}" for i in range(1, n + 1)]
    return labels


def check_solution(
    scenario: Scenario,
    solution: TrajectorySolution,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Re-verify feasibility, stationarity, complementarity and dual
    feasibility of a returned trajectory without trusting the solver's
    internal state.

    Constraint values come from formulas rewritten here; the Lagrangian
    gradient is the analytic derivative of those same formulas. Raw-unit
    energy and speed margins are reported as well, and `ok` requires every
    check, including agreement with both reported objectives.
    """
    msgs: list[str] = []
    order = solution.order
    n = len(order)
    horizon = scenario.uav.horizon_s
    r_scale = scenario.coordinate_scale()

    if solution.times_s.size != n:
        return CheckReport(messages=[f"solution is {solution.status}; nothing to verify"])
    if n == 0:
        gap = abs(solution.objective - 1.0)
        return CheckReport(
            ok=gap <= 1e-12,
            feasibility=0.0,
            stationarity=0.0,
            complementarity=0.0,
            dual_feasibility=0.0,
            objective_gap=gap,
            energy_rel_violation=0.0,
            speed_abs_violation=0.0,
        )

    z = np.concatenate(
        [
            solution.times_s / horizon,
            solution.waypoints_xy[:, 0] / r_scale,
            solution.waypoints_xy[:, 1] / r_scale,
        ]
    )
    values, _, _ = _check_lagrangian(scenario, order, z)
    feasibility = float(np.max(values))
    if feasibility > tol:
        worst = np.argsort(-values, kind="stable")[: min(3, int(np.sum(values > tol)))]
        labels = _row_labels(order)
        names = ", ".join(labels[row] for row in worst)
        msgs.append(f"scaled constraint violation {feasibility:.3g} (worst rows: {names})")

    lam = solution.duals
    if lam.size != values.size:
        return CheckReport(feasibility=feasibility, messages=["dual vector length mismatch"])

    _, obj_scaled, lagr_grad = _check_lagrangian(scenario, order, z, lam)
    stationarity = float(np.max(np.abs(lagr_grad)))
    if stationarity > tol:
        msgs.append(f"stationarity residual {stationarity:.3g}")

    complementarity = float(np.max(np.abs(lam * values)))
    if complementarity > tol:
        msgs.append(f"complementarity residual {complementarity:.3g}")

    dual_feasibility = max(0.0, -float(np.min(lam)))
    if dual_feasibility > tol:
        worst = _row_labels(order)[int(np.argmin(lam))]
        msgs.append(f"dual feasibility violation {dual_feasibility:.3g} at {worst}")

    recomputed = nwaoi(scenario, solution.update_times(scenario.num_nodes))
    # obj_scaled already includes the never-updating contribution of each
    # node because the fence spans the whole scaled horizon.
    objective_gap = abs(obj_scaled - recomputed)
    objective_tol = 1e-9 * max(1.0, abs(recomputed))
    gap_vs_reported = abs(recomputed - solution.objective)
    if gap_vs_reported > objective_tol:
        msgs.append(f"objective mismatch {gap_vs_reported:.3g}")
    solver_gap = abs(solution.solver_objective - recomputed)
    if solver_gap > objective_tol:
        msgs.append(f"solver objective mismatch {solver_gap:.3g}")

    # Raw-unit margins.
    node = np.asarray(order, dtype=int) - 1
    scheduled = np.flatnonzero(np.bincount(node, minlength=scenario.num_nodes))
    ch = scenario.channel
    snr_gap = 2.0 ** (ch.packet_bits / ch.bandwidth_hz) - 1.0
    node_xy = scenario.node_xy()
    dx = solution.waypoints_xy[:, 0] - node_xy[node, 0]
    dy = solution.waypoints_xy[:, 1] - node_xy[node, 1]
    d2 = scenario.uav.altitude_m**2 + dx * dx + dy * dy
    spent = np.bincount(
        node, weights=ch.noise_power_w * snr_gap * d2 / ch.beta0, minlength=scenario.num_nodes
    )
    battery = scenario.batteries()
    energy_rel = max(
        0.0, float(np.max((spent[scheduled] - battery[scheduled]) / battery[scheduled]))
    )
    if energy_rel > 1e-9:
        msgs.append(f"energy overdraw {energy_rel:.3g} relative")

    fence_t = np.concatenate(([0.0], solution.times_s, [horizon]))
    fence_xy = np.vstack([scenario.uav.initial, solution.waypoints_xy, scenario.uav.final])
    excess = np.abs(np.diff(fence_xy, axis=0)) - np.outer(
        np.diff(fence_t), [scenario.uav.vmax_x, scenario.uav.vmax_y]
    )
    speed_abs = max(0.0, float(np.max(excess)))
    if speed_abs > 1e-6:
        msgs.append(f"speed excess {speed_abs:.3g} m")

    ok = (
        feasibility <= tol
        and stationarity <= tol
        and complementarity <= tol
        and dual_feasibility <= tol
        and gap_vs_reported <= objective_tol
        and solver_gap <= objective_tol
        and energy_rel <= 1e-9
        and speed_abs <= 1e-6
    )
    return CheckReport(
        ok=ok,
        feasibility=feasibility,
        stationarity=stationarity,
        complementarity=complementarity,
        dual_feasibility=dual_feasibility,
        objective_gap=objective_gap,
        energy_rel_violation=energy_rel,
        speed_abs_violation=speed_abs,
        messages=msgs,
    )
