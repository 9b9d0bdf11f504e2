"""Exhaustive search over visit orders.

The number of distinct visit orders for a given per-node update allocation
is the multinomial coefficient, and the grid of allocations is bounded by
each node's energy budget, so small instances can be enumerated exactly.
Search is branch and bound (Land and Doig 1960) at two levels. A count
vector whose per-count floor exceeds the best objective found is skipped
whole. Inside a vector that survives, each order gets a certified floor of
its own (`order_floors`, all orders as one stacked solve). The orders are
then solved one at a time by `solve_schedule`, lowest floor first, until
the next floor is above the incumbent. A budget guard refuses enumerations
with more candidate orders than allowed, counting those it would skip.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

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


def multiset_permutations(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct orders of the multiset {m+1 repeated counts[m] times},
    in ascending lexicographic order."""
    symbols = [m + 1 for m, c in enumerate(counts) for _ in range(int(c))]
    if not symbols:
        yield tuple()
        return
    remaining = {m + 1: int(c) for m, c in enumerate(counts) if c > 0}
    total = len(symbols)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for sym in sorted(remaining):
            if remaining[sym] == 0:
                continue
            remaining[sym] -= 1
            prefix.append(sym)
            yield from rec()
            prefix.pop()
            remaining[sym] += 1

    yield from rec()


@dataclass
class EnumerationResult:
    """Best order found by exact search, with the full scoring table.

    ``num_solves`` counts the non-empty orders solved, one `solve_schedule`
    each, and ``num_pruned`` the orders skipped because their count vector's
    floor or their own floor exceeded the incumbent; the empty order is
    always scored, so the two add up to ``num_candidates - 1``.
    ``per_count`` holds, for each count vector with an optimal solve, its
    best solved order; under pruning that need not be the vector's best
    order (`per_count_best` scores them all).
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
    per_count: dict[tuple[int, ...], tuple[tuple[int, ...], float, str]]
    rows: list[tuple[str, float, str, float]] = field(default_factory=list)

    def to_document(self) -> dict[str, Any]:
        return result_document(self, omit=("num_nonconverged", "per_count", "rows"))

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


def _order_str(order: tuple[int, ...]) -> str:
    return "-".join(str(v) for v in order)


def _search(
    scenario: Scenario,
    budget: int,
    tol: float,
    keep_rows: bool,
    prune: bool,
) -> EnumerationResult:
    """Score the candidates of every count vector; with ``prune``, visit the
    vectors by ascending floor and skip the vectors and orders whose floor
    exceeds the incumbent's objective. The budget guard stops counting at the
    first vector that takes the running total above the budget."""
    scenario.validate()
    combos: list[tuple[int, ...]] = []
    required = 0
    for combo in count_grid(all_max_updates(scenario)):
        required += schedule_count(combo)
        if required > budget:
            raise BudgetExceededError(required, budget)
        combos.append(combo)

    floor = {combo: per_count_floor(scenario, combo) for combo in combos}
    visit = sorted(combos, key=lambda combo: (floor[combo], combo)) if prune else combos
    best_key: tuple[float, tuple[int, ...]] | None = None
    best_solution: TrajectorySolution | None = None
    per_count: dict[tuple[int, ...], tuple[tuple[int, ...], float, str]] = {}
    rows_of: dict[tuple[int, ...], list[tuple[str, float, str, float]]] = {}
    num_solves = 0
    num_pruned = 0
    num_nonconverged = 0

    for combo in visit:
        orders = list(multiset_permutations(combo))
        # Every order with these counts scores at least the vector's floor,
        # and each at least its own, so none whose floor is above the
        # incumbent can win. The empty order needs no real solve and is
        # always scored.
        bounded = prune and any(combo)
        if bounded and best_key is not None and floor[combo] > best_key[0]:
            pending = []
        elif bounded:
            order_floor = dict(zip(orders, order_floors(scenario, orders, tol=tol)))
            pending = sorted(orders, key=lambda order: (order_floor[order], order))
        else:
            pending = orders
        solved: dict[tuple[int, ...], TrajectorySolution] = {}
        count_best: tuple[float, tuple[int, ...]] | None = None
        for order in pending:
            # Floors ascend, so the first order that cannot win ends the
            # vector; each solve may lower the incumbent for the next.
            if bounded and (
                order_floor[order] == math.inf
                or best_key is not None and order_floor[order] > best_key[0]
            ):
                break
            solution = solve_schedule(scenario, order, tol=tol)
            solved[order] = solution
            if len(order) > 0:
                num_solves += 1
            if solution.status not in (STATUS_OPTIMAL, STATUS_INFEASIBLE):
                num_nonconverged += 1
            key = (solution.objective, order)
            if solution.status == STATUS_OPTIMAL:
                if best_key is None or key < best_key:
                    best_key = key
                    best_solution = solution
                if count_best is None or key < count_best:
                    count_best = key
        num_pruned += len(orders) - len(solved)
        if count_best is not None:
            per_count[combo] = (count_best[1], count_best[0], STATUS_OPTIMAL)
        if keep_rows:
            rows_of[combo] = [
                (_order_str(order), math.inf, STATUS_PRUNED, math.inf)
                if order not in solved
                else (_order_str(order), solved[order].objective, solved[order].status,
                      solved[order].kkt_residual)
                for order in orders
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
        per_count=per_count,
        rows=[row for combo in combos for row in rows_of.get(combo, [])],
    )


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
    Inside a visited vector, orders are solved one at a time by ascending
    (``order_floors``, order), and the first order whose floor is infinite
    or strictly above the incumbent, which each solve may lower, ends the
    vector; it and the orders after it are skipped. Skipped orders' rows
    carry status ``pruned``. Every order scores at least its floor, so the
    winner is the one exhaustive scoring would pick, and ties within solver
    accuracy are still solved. Only solves with status
    ``optimal`` can win; the rows keep every solved candidate's real status,
    in count-grid order. Ties on the objective break toward the
    lexicographically smallest order. Raises BudgetExceededError up front
    when the candidate count, pruned ones included, exceeds ``budget``;
    nothing is solved in that case, and the error reports the count reached
    when the guard stopped.
    """
    return _search(scenario, budget, tol, keep_rows, prune=True)


def per_count_best(
    scenario: Scenario,
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> dict[tuple[int, ...], tuple[tuple[int, ...], float, str]]:
    """Best order and objective for each per-node update allocation.

    Scores every candidate: no vector is pruned."""
    return _search(scenario, budget, tol, keep_rows=False, prune=False).per_count
