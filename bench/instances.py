"""Seeded CFN instances for the benchmark workloads.

Plain numpy and json only: nothing here imports ``tbe``, so the
oracles built on these tables are independent of the code under test.
The same seed always gives the same instance, and each instance family
draws from its own stream, so two families never share numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class Instance:
    """A CFN held as dense numpy tables, choices 0-based.

    ``unary[i][c]`` is the unary cost of choice c of variable i and
    ``pairs`` holds ``(i, j, table)`` with ``table[ci, cj]`` for i < j.
    ``known_optimum`` is the exact minimum when the generator fixes it
    by construction (a planted instance), otherwise None.
    """

    cards: tuple[int, ...]
    unary: tuple[np.ndarray, ...]
    pairs: tuple[tuple[int, int, np.ndarray], ...]
    known_optimum: float | None = None

    @property
    def num_variables(self) -> int:
        return len(self.cards)

    def cfn_json(self) -> str:
        """CFN-JSON text; floats round-trip exactly through repr."""
        doc = {
            "variables": [{"name": f"v{i}", "cardinality": d} for i, d in enumerate(self.cards)],
            "unary": [{"var": i, "costs": t.tolist()} for i, t in enumerate(self.unary)],
            "pairwise": [{"vars": [i, j], "costs": t.reshape(-1).tolist()} for i, j, t in self.pairs],
        }
        return json.dumps(doc, indent=2) + "\n"

    def values(self, choices: np.ndarray) -> np.ndarray:
        """Total cost of each row of an (m, n) array of 0-based choices."""
        choices = np.asarray(choices, dtype=np.int64)
        total = np.zeros(choices.shape[0])
        for i, table in enumerate(self.unary):
            total += table[choices[:, i]]
        for i, j, table in self.pairs:
            total += table[choices[:, i], choices[:, j]]
        return total

    def spread(self) -> float:
        """Sum over all tables of max - min: the scale of ``opt_gap``."""
        return float(
            sum(np.ptp(t) for t in self.unary) + sum(np.ptp(t) for _, _, t in self.pairs)
        )

    def num_assignments(self) -> int:
        return int(np.prod(self.cards, dtype=object))

    def exact_optimum(self) -> float:
        """Minimum over every assignment by broadcast table sums."""
        if self.known_optimum is not None:
            return self.known_optimum
        n = self.num_variables
        total = np.zeros(self.cards)
        for i, table in enumerate(self.unary):
            shape = [1] * n
            shape[i] = self.cards[i]
            total += table.reshape(shape)
        for i, j, table in self.pairs:
            shape = [1] * n
            shape[i] = self.cards[i]
            shape[j] = self.cards[j]
            total += table.reshape(shape)
        return float(total.min())

    def sample_choices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` uniformly drawn valid assignments, 0-based."""
        return np.stack([rng.integers(0, d, size=count) for d in self.cards], axis=1)


def _gaussian_complete(rng: np.random.Generator, n: int, card: int) -> Instance:
    unary = tuple(rng.standard_normal(card) for _ in range(n))
    pairs = tuple((i, j, rng.standard_normal((card, card))) for i, j in combinations(range(n), 2))
    return Instance(cards=(card,) * n, unary=unary, pairs=pairs)


def wide(seed: int) -> Instance:
    """8 variables of cardinality 32 on the complete graph, N(0,1) costs."""
    return _gaussian_complete(np.random.default_rng([seed, 1]), 8, 32)


def dense(seed: int) -> Instance:
    """6 variables of cardinality 8 on the complete graph, N(0,1) costs."""
    return _gaussian_complete(np.random.default_rng([seed, 3]), 6, 8)


SPARSE_VARIABLES = 20
SPARSE_CARD = 8
SPARSE_EDGE_SHARE = 0.3


def sparse_planted(seed: int) -> Instance:
    """20 variables of cardinality 8 with a planted zero optimum.

    Exactly round(0.3 * 190) = 57 of the variable pairs carry a table,
    drawn uniformly without replacement (a fixed edge count keeps the
    work per op the same from seed to seed).  Costs are uniform in
    [0, 1) except that every entry at the planted assignment is 0, so
    the optimum is 0 without enumeration.
    """
    rng = np.random.default_rng([seed, 2])
    n, card = SPARSE_VARIABLES, SPARSE_CARD
    planted = rng.integers(0, card, size=n)
    all_pairs = list(combinations(range(n), 2))
    count = round(SPARSE_EDGE_SHARE * len(all_pairs))
    picked = sorted(rng.choice(len(all_pairs), size=count, replace=False))
    unary = []
    for i in range(n):
        table = rng.random(card)
        table[planted[i]] = 0.0
        unary.append(table)
    pairs = []
    for k in picked:
        i, j = all_pairs[k]
        table = rng.random((card, card))
        table[planted[i], planted[j]] = 0.0
        pairs.append((i, j, table))
    return Instance(
        cards=(card,) * n, unary=tuple(unary), pairs=tuple(pairs), known_optimum=0.0
    )
