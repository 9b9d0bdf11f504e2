"""Exhaustive search over visit orders.

The number of distinct visit orders for a given per-node update allocation
is the multinomial coefficient, and the grid of allocations is bounded by
each node's energy budget, so small instances can be enumerated exactly.
A count vector's orders are the rows of one integer array, in
lexicographic order (`multiset_permutations`). Search is branch and bound
(Land and Doig 1960) at two levels. A count vector whose per-count floor
exceeds the best objective found is skipped whole. Inside a vector that
survives, each order gets a certified floor of its own (`order_floors`:
the dual value of a time-only relaxation, with the duals of all the
vector's orders found by one batched active-set solve). The orders are
then solved one at a time by `solve_schedule`, lowest floor first, until
the next floor is above the incumbent. `per_count_best` solves every
candidate in a loop of its own, as the reference the branch and bound is
checked against. A budget guard refuses enumerations with more candidate
orders than allowed, counting those it would skip.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .bounds import all_max_updates, per_count_floor
from .errors import BudgetExceededError
from .scenario import Scenario, result_document
from .solver import (
    DEFAULT_TOL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    TrajectorySolution,
    order_floors,
    solve_schedule,
)

DEFAULT_BUDGET = 100_000
STATUS_PRUNED = "pruned"


def schedule_count(counts: Sequence[int]) -> int:
    """Number of distinct visit orders with counts[m] updates for node m.

    Exact arbitrary-precision arithmetic; the result easily exceeds 64-bit
    range for realistic budgets.
    """
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    total = sum(counts)
    result = math.factorial(total)
    for c in counts:
        result //= math.factorial(c)
    return result


def count_grid(max_counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All per-node count vectors within the budget, ascending lexicographic."""
    return itertools.product(*[range(int(c) + 1) for c in max_counts])


def total_candidates(max_counts: Sequence[int]) -> int:
    """Exact number of candidate orders the enumeration would score."""
    return sum(schedule_count(combo) for combo in count_grid(max_counts))


def multiset_permutations(counts: Sequence[int]) -> np.ndarray:
    """Distinct orders of the multiset {m+1 repeated counts[m] times}, as the
    rows of one (orders, sum(counts)) integer array, ascending lexicographic:
    each step extends every row by each node it has updates left for, row by
    row and node by node, so the rows stay sorted."""
    left = np.array([counts], dtype=int)
    orders = np.zeros((1, 0), dtype=int)
    for _ in range(int(left.clip(0).sum())):
        row, node = np.nonzero(left > 0)
        orders = np.column_stack([orders[row], node + 1])
        left = left[row]
        left[np.arange(row.size), node] -= 1
    return orders


@dataclass
class EnumerationResult:
    """Best order found by exact search, with the full scoring table.

    ``num_solves`` counts the non-empty orders solved, one `solve_schedule`
    each, and ``num_pruned`` the orders skipped because their count vector's
    floor or their own floor exceeded the incumbent; the empty order is
    always scored, so the two add up to ``num_candidates - 1``.
    ``num_nonconverged`` counts the candidates whose solve ended neither
    optimal nor infeasible; it is kept whether or not the rows are.
    """

    best_order: tuple[int, ...]
    best_solution: TrajectorySolution
    objective: float
    num_candidates: int
    num_solves: int
    num_pruned: int
    num_nonconverged: int
    rows: list[tuple[str, float, str, float]] = field(default_factory=list)

    def to_document(self) -> dict[str, Any]:
        return result_document(self, omit=("num_nonconverged", "rows"))

    def write_table_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["order", "objective", "status", "kkt_residual"])
            for order_str, objective, status, kkt in self.rows:
                writer.writerow(
                    [
                        order_str,
                        "" if math.isinf(objective) else f"{objective:.12g}",
                        status,
                        "" if math.isinf(kkt) else f"{kkt:.3g}",
                    ]
                )


def _count_vectors(scenario: Scenario, budget: int) -> tuple[list[tuple[int, ...]], int]:
    """The scenario's count grid and its number of candidate orders. Raises
    BudgetExceededError at the first vector that takes the running total of
    candidates above ``budget``, before anything is solved."""
    scenario.validate()
    combos: list[tuple[int, ...]] = []
    required = 0
    for combo in count_grid(all_max_updates(scenario)):
        required += schedule_count(combo)
        if required > budget:
            raise BudgetExceededError(required, budget)
        combos.append(combo)
    return combos, required


def enumerate_optimal(
    scenario: Scenario,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
    keep_rows: bool = True,
) -> EnumerationResult:
    """Best trajectory over every admissible visit order, by branch and bound.

    Count vectors are visited by ascending ``per_count_floor`` (then
    lexicographically), and a vector whose floor is strictly above the
    objective of the best ``optimal`` solve so far is skipped unsolved.
    Inside a visited vector, the rows of ``multiset_permutations`` are
    solved one at a time by ascending (``order_floors``, order), and the
    first order whose floor is infinite or strictly above the incumbent,
    which each solve may lower, ends the vector; it and the orders after it
    are skipped. Skipped orders' rows carry status ``pruned``. Every order
    scores at least its floor, so the winner is the one `per_count_best`
    would pick, and ties within solver accuracy are still solved. Only
    solves with status ``optimal`` can win; the rows keep every solved
    candidate's real status, in count-grid order. Ties on the objective
    break toward the lexicographically smallest order. Raises
    BudgetExceededError up front when the candidate count, pruned ones
    included, exceeds ``budget``; nothing is solved in that case, and the
    error reports the count reached when the guard stopped.
    """
    combos, required = _count_vectors(scenario, budget)
    floor = {combo: per_count_floor(scenario, combo) for combo in combos}
    best_key: tuple[float, tuple[int, ...]] | None = None
    best_solution: TrajectorySolution | None = None
    rows_of: dict[tuple[int, ...], list[tuple[str, float, str, float]]] = {}
    num_solves = 0
    num_pruned = 0
    num_nonconverged = 0

    for combo in sorted(combos, key=lambda combo: (floor[combo], combo)):
        orders = multiset_permutations(combo)
        # Every order with these counts scores at least the vector's floor,
        # and each at least its own, so none whose floor is above the
        # incumbent can win. The empty order needs no real solve and is
        # always scored.
        if not any(combo):
            order_floor, visit = [-math.inf], [0]
        elif best_key is not None and floor[combo] > best_key[0]:
            order_floor, visit = [], []
        else:
            order_floor = order_floors(scenario, orders)
            visit = np.argsort(order_floor, kind="stable").tolist()
        solved: dict[int, TrajectorySolution] = {}
        for i in visit:
            # Floors ascend, so the first order that cannot win ends the
            # vector; each solve may lower the incumbent for the next.
            if order_floor[i] == math.inf or best_key is not None and order_floor[i] > best_key[0]:
                break
            order = tuple(orders[i].tolist())
            solution = solved[i] = solve_schedule(scenario, order, tol=tol)
            if order:
                num_solves += 1
            if solution.status not in (STATUS_OPTIMAL, STATUS_INFEASIBLE):
                num_nonconverged += 1
            key = (solution.objective, order)
            if solution.status == STATUS_OPTIMAL and (best_key is None or key < best_key):
                best_key, best_solution = key, solution
        num_pruned += len(orders) - len(solved)
        if keep_rows:
            # Every order of the vector has the same length: one format for all.
            order_format = "-".join(["%d"] * orders.shape[1])
            rows_of[combo] = [
                (order_format % tuple(order), math.inf, STATUS_PRUNED, math.inf)
                if i not in solved
                else (order_format % tuple(order), solved[i].objective, solved[i].status, solved[i].kkt_residual)
                for i, order in enumerate(orders.tolist())
            ]

    if best_solution is None or best_key is None:
        raise RuntimeError("no optimal candidate; even the empty order failed")
    return EnumerationResult(
        best_order=best_key[1],
        best_solution=best_solution,
        objective=best_key[0],
        num_candidates=required,
        num_solves=num_solves,
        num_pruned=num_pruned,
        num_nonconverged=num_nonconverged,
        rows=[row for combo in combos for row in rows_of.get(combo, [])],
    )


def per_count_best(
    scenario: Scenario,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> dict[tuple[int, ...], tuple[tuple[int, ...], float, str]]:
    """Best order and objective for each per-node update allocation: every
    candidate is solved, in a loop that shares nothing with the branch and
    bound of `enumerate_optimal`, which it checks. Ties break toward the
    lexicographically smallest order; a vector with no optimal solve has no
    entry."""
    table: dict[tuple[int, ...], tuple[tuple[int, ...], float, str]] = {}
    for combo in _count_vectors(scenario, budget)[0]:
        orders = map(tuple, multiset_permutations(combo).tolist())
        solutions = [solve_schedule(scenario, order, tol=tol) for order in orders]
        optimal = [(s.objective, s.order) for s in solutions if s.status == STATUS_OPTIMAL]
        if optimal:
            objective, order = min(optimal)
            table[combo] = (order, objective, STATUS_OPTIMAL)
    return table
