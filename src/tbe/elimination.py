"""Exact minimization of a pairwise cost function network by min-sum
(bucket) elimination.

A ``PairwiseNetwork`` has variables with finite domains, cost tables on
one variable or on two, and a constant.  Its minimum is a min-sum
problem that variable elimination solves in time and memory exponential
only in the width of the elimination order (Bertelè & Brioschi,
*Nonserial Dynamic Programming*, 1972; Dechter, Artif. Intell. 113,
1999):

* ``elimination_order`` picks the order on the interaction graph by
  minimum fill, the lowest variable on ties, and gives each variable's
  neighbours at its turn; networks on one graph share one order;
* ``Elimination`` sums each variable's bucket (the tables and messages
  whose earliest-eliminated variable it is) and minimizes the variable
  out, leaving a message to a later bucket;
* the messages make the bound of every partial assignment, taken in
  reverse order, exact: it is the least value of any completion.  So
  ``Elimination.within`` lists every assignment under a threshold
  branch by branch, never entering a branch that holds none;
* ``first`` picks one minimizer, the first in a given order of the
  variables, off that list, or, when the list would be too long, by
  holding one variable at a time.

The one capacity limit is the largest table built, ``MAX_TABLE_ENTRIES``
(2^24) entries: a bucket, checked on the order before any table exists,
and the list of assignments, checked as it grows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import CapacityError

__all__ = ["MAX_TABLE_ENTRIES", "PairwiseNetwork", "elimination_order", "network_order", "Elimination", "lowest", "first"]

MAX_TABLE_ENTRIES = 1 << 24

# Bounds and direct sums add the same tables in different orders, so
# they differ by rounding: a search widens its threshold by this share
# of the network's scale, and the answer is read off the direct sums.
ROUNDING_SLACK = 2.0**-30


@dataclass(frozen=True, eq=False)
class PairwiseNetwork:
    """Variables ``0 .. len(domains) - 1`` with ``domains[v]`` values
    each, ``unary[v]`` a table over variable v, and each ``(i, j,
    table)`` of ``pairwise`` a ``(domains[i], domains[j])`` table over i
    and j (i < j).  The value of an assignment is ``constant`` plus one
    entry of every table."""

    domains: tuple[int, ...]
    constant: float
    unary: tuple[np.ndarray, ...]
    pairwise: tuple[tuple[int, int, np.ndarray], ...]

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Value of each row of an (m, variables) array of assignments,
        as one direct sum in a fixed order: the constant, the unary
        tables by variable, then the pairwise tables in order."""
        total = np.full(len(rows), self.constant)
        for v, table in enumerate(self.unary):
            total += table[rows[:, v]]
        for i, j, table in self.pairwise:
            total += table[rows[:, i], rows[:, j]]
        return total

    def fixed(self, v: int, x: int) -> PairwiseNetwork:
        """This network with variable v held at value x: its domain is
        that one value, and each table on it becomes a table on the
        other variable, or joins the constant."""
        domains, unary = list(self.domains), list(self.unary)
        domains[v], unary[v] = 1, np.zeros(1)
        pairwise = []
        for i, j, table in self.pairwise:
            if i == v:
                unary[j] = unary[j] + table[x]
            elif j == v:
                unary[i] = unary[i] + table[:, x]
            else:
                pairwise.append((i, j, table))
        return PairwiseNetwork(tuple(domains), self.constant + float(self.unary[v][x]), tuple(unary), tuple(pairwise))

    def scale(self) -> float:
        """|constant| plus the largest |entry| of every table: a bound on
        every value and on every partial sum of one."""
        tables = [*self.unary, *(t for _, _, t in self.pairwise)]
        return abs(self.constant) + sum(float(np.abs(t).max(initial=0.0)) for t in tables)


Steps = Sequence[tuple[int, tuple[int, ...]]]


def elimination_order(num_vars: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, tuple[int, ...]]]:
    """Greedy minimum-fill order on the graph of ``edges``: each step
    eliminates the variable whose neighbours miss the fewest edges among
    themselves (the lowest variable on ties), joins them, and records
    the variable with its neighbours, ascending."""
    adjacent = [set() for _ in range(num_vars)]
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)

    def fill(v: int) -> int:
        return sum(b not in adjacent[a] for a, b in combinations(adjacent[v], 2))

    fills = {v: fill(v) for v in range(num_vars)}
    # every variable left has its (fill, variable) on the heap; an entry
    # whose fill has changed since, or whose variable is gone, is skipped
    heap = [(f, v) for v, f in fills.items()]
    heapq.heapify(heap)
    steps = []
    while fills:
        f, v = heapq.heappop(heap)
        if fills.get(v) != f:
            continue
        neighbours = adjacent[v]
        steps.append((v, tuple(sorted(neighbours))))
        for u in neighbours:
            adjacent[u] |= neighbours - {u}
            adjacent[u].discard(v)
        del fills[v]
        # only a neighbour, or a neighbour's neighbour, sees its fill change
        for u in set().union(neighbours, *(adjacent[u] for u in neighbours)):
            fills[u] = fill(u)
            heapq.heappush(heap, (fills[u], u))
    return steps


def network_order(network: PairwiseNetwork) -> list[tuple[int, tuple[int, ...]]]:
    """``elimination_order`` on the graph of a network's pairwise tables."""
    return elimination_order(len(network.domains), [(i, j) for i, j, _ in network.pairwise])


@dataclass(frozen=True)
class _Bucket:
    var: int
    neighbours: tuple[int, ...]
    tables: list[tuple[tuple[int, ...], np.ndarray]]  # (scope, ascending, with var; table)
    message: np.ndarray  # over neighbours


class Elimination:
    """One min-sum pass over a network.

    ``minimum`` is the least value, summed in elimination order.  Only
    the tables placed in each bucket and the message it leaves are
    kept, not the bucket sums, so besides the messages the largest array
    alive at once is one bucket.  Raises ``CapacityError`` naming the width when a bucket
    would exceed ``MAX_TABLE_ENTRIES`` entries, before any is built.
    ``steps`` is the network's ``elimination_order``, given when another
    network on the same graph has it already.
    """

    def __init__(self, network: PairwiseNetwork, steps: Steps | None = None) -> None:
        domains = network.domains
        if steps is None:
            steps = network_order(network)
        for v, neighbours in steps:
            entries = math.prod(domains[u] for u in (v, *neighbours))
            if entries > MAX_TABLE_ENTRIES:
                raise CapacityError(
                    f"min-sum elimination width {len(neighbours)}: eliminating variable {v} with "
                    f"{list(neighbours)} needs a table of {entries} entries, over the 2^24 cap"
                )
        turn = {v: k for k, (v, _) in enumerate(steps)}
        placed: list[list[tuple[tuple[int, ...], np.ndarray]]] = [[] for _ in domains]

        def place(scope: tuple[int, ...], table: np.ndarray) -> None:
            placed[min(scope, key=turn.__getitem__)].append((scope, table))

        for v, table in enumerate(network.unary):
            place((v,), table)
        for i, j, table in network.pairwise:
            place((i, j), table)

        self.domains = domains
        self.minimum = network.constant
        self.buckets: list[_Bucket] = []
        for v, neighbours in steps:
            axes = tuple(sorted((v, *neighbours)))
            # the sum grows from the unary table, a table at a time, to
            # the whole bucket, so the early additions are small
            total = 0.0
            for scope, table in placed[v]:
                total = total + table.reshape([domains[u] if u in scope else 1 for u in axes])
            message = total.min(axis=axes.index(v))
            del total
            if neighbours:
                place(neighbours, message)
            else:
                self.minimum += float(message)
            self.buckets.append(_Bucket(v, neighbours, placed[v], message))

    def within(self, threshold: float) -> tuple[np.ndarray, float]:
        """Every assignment whose bound is at most ``threshold``, as rows
        of values in no set order, and the least bound of the others
        (inf when there are none).

        Variables are assigned in reverse elimination order.  A partial
        assignment's bound is the least value of its completions: taking
        the next variable swaps that variable's message for its bucket
        sum at each of its values."""
        rows = np.zeros((1, len(self.domains)), dtype=np.intp)
        bounds = np.array([self.minimum])
        beyond = math.inf
        for b in reversed(self.buckets):
            size = self.domains[b.var]
            if size * len(rows) > MAX_TABLE_ENTRIES:
                raise self._crowded(threshold)
            values = np.arange(size)[:, None]
            step = bounds - b.message[tuple(rows[:, u] for u in b.neighbours)]
            for scope, table in b.tables:
                step = step + table[tuple(values if u == b.var else rows[:, u] for u in scope)]
            keep = step <= threshold
            if not keep.all():
                beyond = min(beyond, float(step[~keep].min()))
            chosen, parent = np.nonzero(keep)
            if len(chosen) * len(self.domains) > MAX_TABLE_ENTRIES:
                raise self._crowded(threshold)
            rows = rows[parent]
            rows[:, b.var] = chosen
            bounds = step[chosen, parent]
        return rows, beyond

    def _crowded(self, threshold: float) -> CapacityError:
        return CapacityError(
            f"listing the assignments within {threshold - self.minimum!r} of the minimum "
            "needs a table of more than 2^24 entries"
        )


def lowest(
    network: PairwiseNetwork, radius: float, gap: bool = False, steps: Steps | None = None
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Every assignment whose direct value (``PairwiseNetwork.values``)
    is within ``radius`` of the least direct value, as rows in no set
    order, and those values; with ``gap``, also the least direct value
    above that radius (inf when none is), else None.

    The search runs on the elimination bounds with a threshold widened
    by ``ROUNDING_SLACK`` of the scale, so rounding cannot drop an
    assignment.  When an assignment beyond it could undercut the next
    value found, a second search reaches just past the least bound
    beyond the first.  ``steps`` is as for ``Elimination``."""
    elim = Elimination(network, steps)
    slack = ROUNDING_SLACK * network.scale()
    rows, beyond = elim.within(elim.minimum + radius + slack)
    values = network.values(rows)
    least = float(values.min())
    tied = values <= least + radius
    if not gap:
        return rows[tied], values[tied], None
    above = values[~tied]
    if beyond < math.inf and not (above.size and above.min() <= beyond - slack):
        more = network.values(elim.within(beyond + slack)[0])
        above = more[more > least + radius]
    return rows[tied], values[tied], float(above.min()) if above.size else math.inf


def first(network: PairwiseNetwork, priority: Sequence[int], steps: Steps | None = None) -> np.ndarray:
    """A minimizer as a row of values: of the assignments with the least
    direct value (``PairwiseNetwork.values``), the first in the
    lexicographic order of the variables of ``priority``, most
    significant first, and their values ascending.

    It is picked from the listing of ``lowest``.  When the assignments
    within its slack of the minimum are too many to list, as on a
    plateau, it is found without the listing: each variable in turn is
    held at its first value whose held network's minimum stays within
    the slack, one elimination per value tried, and the answer is then
    the first of the assignments within the slack.  ``steps`` is as for
    ``Elimination``."""
    elim = Elimination(network, steps)
    threshold = elim.minimum + ROUNDING_SLACK * network.scale()
    try:
        rows = elim.within(threshold)[0]
    except CapacityError:  # the bucket widths passed, so the listing is what overflowed
        return _descend(network, priority, threshold)
    values = network.values(rows)
    tied = rows[values == values.min()].tolist()
    return np.array(min(tied, key=lambda row: [row[v] for v in priority]), dtype=np.intp)


def _descend(network: PairwiseNetwork, priority: Sequence[int], threshold: float) -> np.ndarray:
    row = np.zeros(len(network.domains), dtype=np.intp)
    for v in priority:
        minima = []
        for x in range(network.domains[v]):
            minima.append(Elimination(network.fixed(v, x)).minimum)
            if minima[-1] <= threshold:
                break
        # when rounding leaves every value above the threshold, the least
        row[v] = np.argmin(minima)
        network = network.fixed(v, int(row[v]))
    return row
