"""Reduction of high-degree polynomials to quadratic form.

Works in the 0/1 basis, where the product substitution y = b_i * b_j
has the classic penalty gadget
M * (b_i b_j - 2 b_i y - 2 b_j y + 3 y), which is zero exactly when
the ancilla agrees with the product and at least M otherwise.  Pairs
are chosen greedily by frequency across the remaining high-degree
monomials (Boros & Gruber's greedy pair substitution).  The pair
counts are kept incrementally in a lazy max-heap, so a substitution
costs work in proportion to the monomials it rewrites, not a recount
of every pair.  The penalty weight comes from the l1 norm of the cost
coefficients, which substitution never changes, so it is computed
once; it keeps every intermediate model min-equivalent to its
predecessor.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .polynomial import BinaryPolynomial, IsingPolynomial, qubits_of
from .walsh import leakage_transform, to_01_basis

__all__ = ["QuboModel", "quadratize", "resolve_ancillas", "qubo_json"]


@dataclass(frozen=True)
class QuboModel:
    """A degree <= 2 polynomial over original variables plus ancillas.

    Terms are stored in the 0/1 basis over the combined variable space
    (originals first).  Each ancilla records the variable pair whose
    product it stands for; parents always precede their ancilla, so
    ancilla values can be resolved left to right.
    """

    num_original_qubits: int
    num_ancilla_qubits: int
    terms: dict[int, float]
    ancilla_defs: tuple[tuple[int, tuple[int, int]], ...]
    penalty_weight: float

    def __post_init__(self) -> None:
        for s in self.terms:
            if s.bit_count() > 2:
                raise ValueError("quadratized model contains a term of degree > 2")
        for a, (p, q) in self.ancilla_defs:
            if p >= a or q >= a:
                raise ValueError("ancilla parents must precede the ancilla")

    @property
    def num_vars(self) -> int:
        return self.num_original_qubits + self.num_ancilla_qubits

    def to_ising(self) -> IsingPolynomial:
        """Spin-basis view over originals plus ancillas."""
        return leakage_transform(BinaryPolynomial(self.num_vars, dict(self.terms)))

    @cached_property
    def term_order(self) -> tuple[int, ...]:
        """Term keys ordered by (degree, mask), sorted once per instance."""
        return tuple(sorted(self.terms, key=lambda s: (s.bit_count(), s)))

    def evaluate_bits(self, bits: int) -> float:
        total = 0.0
        for s in self.term_order:
            if s & ~bits == 0:
                total += self.terms[s]
        return total


def quadratize(poly: IsingPolynomial) -> QuboModel:
    """Reduce a spin polynomial to a quadratic 0/1 model.

    Degree <= 2 inputs pass through with zero ancillas.  For every
    assignment of the original variables, the minimum of the result
    over ancilla values equals the input value, attained exactly where
    each ancilla equals its parents' product.

    Each substitution takes the variable pair held by the most
    monomials of degree > 2, ties going to the smallest ``(i, j)``.
    The pair counts are built once and then kept up to date: a
    substitution touches only the monomials holding its pair, and a
    lazy max-heap keyed ``(-count, i, j)`` finds the next pair, its
    stale entries dropped when they reach the top.

    The penalty weight is 1 plus twice the l1 norm of the cost
    coefficients, over the transformed cost polynomial alone.  A
    substitution renames monomials to keys holding the fresh ancilla, so
    no two cost terms ever merge and the norm never changes: it is
    computed once, at the first substitution.  One inconsistent ancilla
    then costs more than any value swing the cost part can produce.
    (Folding the gadget terms themselves into the norm would inflate the
    weight geometrically per ancilla and wreck float precision.)

    The ancillas need no budget: a substitution lowers by one the degree
    of every monomial holding its pair, and at least one such monomial
    has degree > 2, so there are at most as many ancillas as the sum of
    (degree - 2) over the input's monomials of degree > 2.
    """
    base = to_01_basis(poly)
    # cost monomials by position; a substitution renames keys in place,
    # so the final terms keep the input's order
    keys = list(base.terms)
    n = poly.num_qubits
    # pair -> positions of the degree > 2 monomials holding it; the
    # pair's count is the size of its set
    holders: dict[tuple[int, int], set[int]] = {}
    for pos, s in enumerate(keys):
        if s.bit_count() > 2:
            for pair in combinations(qubits_of(s), 2):
                holders.setdefault(pair, set()).add(pos)
    heap = [(-len(h), *pair) for pair, h in holders.items()]
    heapq.heapify(heap)
    gadgets: dict[int, float] = {}
    ancilla_defs: list[tuple[int, tuple[int, int]]] = []
    penalty = 0.0

    while heap:
        neg_count, i, j = heap[0]
        if len(holders.get((i, j), ())) != -neg_count:
            heapq.heappop(heap)
            continue
        if not ancilla_defs:
            penalty = 1.0 + 2.0 * sum(abs(c) for s, c in base.terms.items() if s)
        y = n + len(ancilla_defs)
        ancilla_defs.append((y, (i, j)))

        pair_mask = (1 << i) | (1 << j)
        changed = set()
        for pos in list(holders[(i, j)]):
            s = keys[pos]
            for pair in combinations(qubits_of(s), 2):
                holders[pair].discard(pos)
                changed.add(pair)
            s = (s & ~pair_mask) | (1 << y)
            keys[pos] = s
            if s.bit_count() > 2:
                for pair in combinations(qubits_of(s), 2):
                    holders.setdefault(pair, set()).add(pos)
                    changed.add(pair)
        for pair in changed:
            if holders[pair]:
                heapq.heappush(heap, (-len(holders[pair]), *pair))
            else:
                del holders[pair]
        for key, coeff in (
            (pair_mask, penalty),
            ((1 << i) | (1 << y), -2.0 * penalty),
            ((1 << j) | (1 << y), -2.0 * penalty),
            (1 << y, 3.0 * penalty),
        ):
            gadgets[key] = gadgets.get(key, 0.0) + coeff

    terms = dict(zip(keys, base.terms.values()))
    for s, c in gadgets.items():
        terms[s] = terms.get(s, 0.0) + c
    return QuboModel(
        num_original_qubits=n,
        num_ancilla_qubits=len(ancilla_defs),
        terms=terms,
        ancilla_defs=tuple(ancilla_defs),
        penalty_weight=penalty,
    )


def resolve_ancillas(model: QuboModel, original_bits: int) -> int:
    """Complete an original-variable assignment with the consistent
    ancilla values (each the product of its parents)."""
    bits = original_bits
    for a, (p, q) in model.ancilla_defs:
        if (bits >> p) & 1 and (bits >> q) & 1:
            bits |= 1 << a
    return bits


def qubo_json(model: QuboModel) -> str:
    linear = []
    quadratic = []
    constant = 0.0
    for s in model.term_order:
        c = model.terms[s]
        k = s.bit_count()
        if k == 0:
            constant = c
        elif k == 1:
            linear.append({"i": s.bit_length() - 1, "coeff": c})
        else:
            lo = (s & -s).bit_length() - 1
            hi = s.bit_length() - 1
            quadratic.append({"i": lo, "j": hi, "coeff": c})
    doc = {
        "num_qubits": model.num_original_qubits,
        "num_ancillas": model.num_ancilla_qubits,
        "constant": constant,
        "linear": linear,
        "quadratic": quadratic,
        "ancillas": [{"index": a, "parents": [p, q]} for a, (p, q) in model.ancilla_defs],
        "penalty": model.penalty_weight,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
