"""Reduction of high-degree polynomials to quadratic form.

Works in the 0/1 basis, where the product substitution y = b_i * b_j
has the classic penalty gadget
M * (b_i b_j - 2 b_i y - 2 b_j y + 3 y), which is zero exactly when
the ancilla agrees with the product and at least M otherwise.  Pairs
are chosen greedily by frequency across the remaining high-degree
monomials; the penalty weight is recomputed at each substitution from
the current l1 coefficient norm, which keeps every intermediate model
min-equivalent to its predecessor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError
from .polynomial import MAX_QUBITS, BinaryPolynomial, IsingPolynomial
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

    def as_binary_polynomial(self) -> BinaryPolynomial:
        return BinaryPolynomial(self.num_vars, dict(self.terms))

    def to_ising(self) -> IsingPolynomial:
        """Spin-basis view over originals plus ancillas."""
        if self.num_vars > MAX_QUBITS:
            raise CapacityError(
                f"{self.num_vars} combined variables exceed the {MAX_QUBITS}-qubit spin view"
            )
        return leakage_transform(self.as_binary_polynomial())

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


def quadratize(poly: IsingPolynomial, max_ancillas: int = 4096) -> QuboModel:
    """Reduce a spin polynomial to a quadratic 0/1 model.

    Degree <= 2 inputs pass through with zero ancillas.  For every
    assignment of the original variables, the minimum of the result
    over ancilla values equals the input value, attained exactly where
    each ancilla equals its parents' product.

    The penalty weight is 1 plus twice the l1 norm of the cost
    coefficients at substitution time, measured over the transformed
    cost polynomial alone: substitution only merges coefficients, so
    this norm never grows, and one inconsistent ancilla already costs
    more than any value swing the cost part can produce.  (Folding the
    gadget terms themselves into the norm would inflate the weight
    geometrically per ancilla and wreck float precision.)
    """
    base = to_01_basis(poly)
    cost = dict(base.terms)
    gadgets: dict[int, float] = {}
    n = poly.num_qubits
    next_var = n
    ancilla_defs: list[tuple[int, tuple[int, int]]] = []
    max_penalty = 0.0

    while True:
        high = [s for s in cost if s.bit_count() > 2]
        if not high:
            break
        counts: dict[tuple[int, int], int] = {}
        for s in high:
            qubits = [q for q in range(next_var) if (s >> q) & 1]
            for a in range(len(qubits)):
                for b in range(a + 1, len(qubits)):
                    pair = (qubits[a], qubits[b])
                    counts[pair] = counts.get(pair, 0) + 1
        top = max(counts.values())
        i, j = min(p for p, c in counts.items() if c == top)

        if len(ancilla_defs) >= max_ancillas:
            raise CapacityError(f"ancilla budget {max_ancillas} exceeded")
        penalty = 1.0 + 2.0 * sum(abs(c) for s, c in cost.items() if s)
        max_penalty = max(max_penalty, penalty)
        y = next_var
        next_var += 1
        ancilla_defs.append((y, (i, j)))

        pair_mask = (1 << i) | (1 << j)
        replaced: dict[int, float] = {}
        for s, c in cost.items():
            if s.bit_count() > 2 and s & pair_mask == pair_mask:
                s = (s & ~pair_mask) | (1 << y)
            replaced[s] = replaced.get(s, 0.0) + c
        cost = replaced
        for key, coeff in (
            (pair_mask, penalty),
            ((1 << i) | (1 << y), -2.0 * penalty),
            ((1 << j) | (1 << y), -2.0 * penalty),
            (1 << y, 3.0 * penalty),
        ):
            gadgets[key] = gadgets.get(key, 0.0) + coeff

    terms = dict(cost)
    for s, c in gadgets.items():
        terms[s] = terms.get(s, 0.0) + c
    return QuboModel(
        num_original_qubits=n,
        num_ancilla_qubits=len(ancilla_defs),
        terms=terms,
        ancilla_defs=tuple(ancilla_defs),
        penalty_weight=max_penalty,
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
    return json.dumps(doc, indent=2) + "\n"
