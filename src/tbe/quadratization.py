"""Reduction of high-degree polynomials to quadratic form.

Works in the 0/1 basis, where the product substitution y = b_i * b_j
has the classic penalty gadget
M * (b_i b_j - 2 b_i y - 2 b_j y + 3 y), which is zero exactly when
the ancilla agrees with the product and at least M otherwise.  Pairs
are chosen greedily by frequency across the remaining high-degree
monomials (Boros & Gruber's greedy pair substitution).  Each monomial
of degree > 2 is the ascending list of its variables, and the pair
counts are sorted pair codes kept exact from substitution to
substitution: a substitution reads and rewrites only the lists holding
its pair and changes only the counts of pairs with one of its three
variables, so no pair is recounted and memory follows the held pairs.
The penalty weight comes from the l1 norm of the cost coefficients,
which substitution never changes, so it is computed once; it keeps
every intermediate model min-equivalent to its predecessor.  The result
is a ``QuboModel``: the 0/1-basis polynomial type, ``BinaryPolynomial``,
with the ancilla definitions and the penalty, checked once as it is
built, so every value it writes is finite.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .polynomial import BinaryPolynomial, IsingPolynomial, _arrays, check_distinct, check_terms, first_appearance_groups
from .polynomial import float_texts, held_qubits, json_list_end, json_objects, key_lists, narrow, padded_rows
from .polynomial import take_terms, unpadded
from .walsh import leakage_transform, to_01_basis

__all__ = ["QuboModel", "quadratize", "resolve_ancillas", "qubo_json"]


class QuboModel(BinaryPolynomial):
    """A degree <= 2 polynomial over original variables plus ancillas:
    a ``BinaryPolynomial`` over both (originals first) that keeps its
    zero coefficients, in (degree, mask) order, the order ``qubo_json``
    writes.  Each ancilla records the variable pair whose product it
    stands for; the k-th ancilla is variable ``num_original_qubits + k``
    and its parents precede it, so ancilla values can be resolved left
    to right.  Every model, from a mapping, from qubit lists
    (``from_lists``), unpickled or quadratized, is built by ``_build``.
    """

    num_original_qubits: int
    num_ancilla_qubits: int
    ancilla_defs: tuple[tuple[int, tuple[int, int]], ...]
    penalty_weight: float

    def __init__(self, num_original_qubits: int, num_ancilla_qubits: int, terms: Mapping[int, float],
                 ancilla_defs: tuple[tuple[int, tuple[int, int]], ...], penalty_weight: float) -> None:
        if num_ancilla_qubits != len(ancilla_defs):
            raise ValueError(f"{num_ancilla_qubits} ancillas but {len(ancilla_defs)} definitions")
        keys = key_lists(list(terms), num_original_qubits + num_ancilla_qubits)
        self._build(num_original_qubits, ancilla_defs, penalty_weight, *keys, np.fromiter(terms.values(), float))

    @classmethod
    def from_lists(cls, num_original_qubits: int, ancilla_defs, penalty_weight: float, qubits, offsets, coeffs):
        """The model with distinct keys given as qubit lists (``qubits``
        split at ``offsets``), in any order; a repeated key is a
        ``ValueError``."""
        arrays = _arrays(qubits, offsets, coeffs)
        return cls.__new__(cls)._build(num_original_qubits, ancilla_defs, penalty_weight, *arrays)

    def _build(self, n: int, ancilla_defs, penalty_weight: float, qubits: np.ndarray, offsets: np.ndarray,
               coeffs: np.ndarray):
        """Check the model (a finite penalty, ``check_terms``, degree <= 2,
        each ancilla after its two distinct parents, and a finite l1 norm,
        which bounds every coefficient of ``to_ising``), sort the keys by
        (degree, mask) with one ``np.lexsort`` over their rows of two
        qubits, check that none repeats (``check_distinct``) and set the
        fields; returns self."""
        ancilla_defs, penalty_weight = tuple(ancilla_defs), float(penalty_weight)
        if not np.isfinite(penalty_weight):
            raise ValueError(f"non-finite penalty weight {penalty_weight}")
        check_terms(n + len(ancilla_defs), qubits, offsets, coeffs)
        degrees = np.diff(offsets)
        if degrees.max(initial=0) > 2:
            raise ValueError("quadratized model contains a term of degree > 2")
        for k, (a, (p, q)) in enumerate(ancilla_defs):
            if not (a == n + k and 0 <= p < a and 0 <= q < a and p != q):
                raise ValueError(
                    f"ancilla {k} must be variable {n + k}, after its two distinct parents: got {a} of {(p, q)}"
                )
        with np.errstate(over="ignore"):
            norm = np.sum(np.abs(coeffs))
        if not np.isfinite(norm):
            raise ValueError("the couplings' l1 norm overflows a float")
        # a mask compares from its highest qubit down: a row's second
        # column, then its first, with the pad (-1) below every qubit
        rows = padded_rows(qubits, offsets, 2)
        order = np.lexsort((*narrow(rows + 1).T, narrow(degrees)))
        rows = rows[order]
        check_distinct(rows)
        qubits, offsets = unpadded(rows)
        return self._set(num_vars=n + len(ancilla_defs), num_original_qubits=n, num_ancilla_qubits=len(ancilla_defs),
                         ancilla_defs=ancilla_defs, penalty_weight=penalty_weight, qubits=qubits, offsets=offsets,
                         coeffs=coeffs[order])

    def __reduce__(self):
        return QuboModel.from_lists, (self.num_original_qubits, self.ancilla_defs, self.penalty_weight,
                                      self.qubits, self.offsets, self.coeffs)

    def __repr__(self) -> str:
        return (f"QuboModel({self.num_original_qubits}, {self.num_ancilla_qubits}, {dict(self.terms)!r}, "
                f"{self.ancilla_defs!r}, {self.penalty_weight!r})")

    def to_ising(self) -> IsingPolynomial:
        """Spin-basis view over originals plus ancillas."""
        return leakage_transform(self)


def quadratize(poly: IsingPolynomial) -> QuboModel:
    """Reduce a spin polynomial to a quadratic 0/1 model.

    Degree <= 2 inputs pass through with zero ancillas.  For every
    assignment of the original variables, the minimum of the result
    over ancilla values equals the input value, attained exactly where
    each ancilla equals its parents' product.

    Each substitution takes the variable pair held by the most
    monomials of degree > 2, ties going to the smallest ``(i, j)``.
    Those monomials are ascending variable lists with exact pair counts
    (``_Monomials``), and a substitution reads and rewrites only the
    lists holding its pair.  The model's keys are built once, as rows of
    two qubits, from the final lists and the ancilla definitions.

    The penalty weight is 1 plus twice the l1 norm of the cost
    coefficients, over the transformed cost polynomial alone, summed in
    the order of ``to_01_basis``.  A substitution renames monomials to
    keys holding the fresh ancilla, so no two cost terms ever merge and
    the norm never changes: it is computed once, at the first
    substitution.  One inconsistent ancilla then costs more than any
    value swing the cost part can produce.  (Folding the gadget terms
    themselves into the norm would inflate the weight geometrically per
    ancilla and wreck float precision.)

    The ancillas need no budget: a substitution lowers by one the degree
    of every monomial holding its pair, and at least one such monomial
    has degree > 2, so there are at most as many ancillas as the sum of
    (degree - 2) over the input's monomials of degree > 2.

    The gadget terms add up per key in ancilla order, and each sum adds
    onto its key's cost term: cost + (g1 + g2 + ...).  A penalty or sum
    past the float range raises ``ValueError`` naming it (``QuboModel``).
    """
    n = poly.num_qubits
    poly01 = to_01_basis(poly)
    coeffs = poly01.coeffs
    degrees = np.diff(poly01.offsets)
    high = np.flatnonzero(degrees > 2)
    monomials = _Monomials(*take_terms(poly01.qubits, poly01.offsets, high), n)
    ancilla_defs: list[tuple[int, tuple[int, int]]] = []
    penalty = 0.0

    while (pair := monomials.top_pair()) is not None:
        i, j = pair
        if not ancilla_defs:
            penalty = 1.0 + 2.0 * sum(np.abs(coeffs[degrees > 0]).tolist())
        y = n + len(ancilla_defs)
        ancilla_defs.append((y, (i, j)))
        monomials.substitute(i, j, y)

    # each monomial of degree > 2 ends as {c, y}, the first two of its list
    cost = padded_rows(poly01.qubits, poly01.offsets, 2)
    cost[high] = monomials.rows[:, :2].reshape(-1, 2)
    # per ancilla y with parents (i, j): {i, j}, {i, y}, {j, y} and {y}
    y, i, j = np.array([(a, p, q) for a, (p, q) in ancilla_defs], np.int64).reshape(-1, 3).T
    gadget = np.stack([i, j, i, y, j, y, y, np.full_like(y, -1)], axis=1).reshape(-1, 2)

    ids, first = first_appearance_groups(gadget)
    with np.errstate(over="ignore"):  # an infinite sum is refused by QuboModel, naming its key
        gadget_sums = np.bincount(ids, weights=np.tile([1.0, -2.0, -2.0, 3.0], len(y)) * penalty)
    keys = np.concatenate([cost, gadget[first]])
    ids, first = first_appearance_groups(keys)
    sums = np.bincount(ids, weights=np.concatenate([coeffs, gadget_sums]))
    return QuboModel.from_lists(n, ancilla_defs, penalty, *unpadded(keys[first]), sums)


class _Monomials:
    """The monomials of degree > 2 under greedy pair substitution.

    ``rows[r]`` is monomial r's variables in ascending order, padded with
    ``pad``, which is above every variable an ancilla can be.  A row
    that falls to degree 2 stays as it is but leaves ``live``, so only
    rows of degree > 2 are ever counted or rewritten.  ``holders[v]``
    lists the rows that have held v, a superset of those that do.  The
    pairs a < b of the live rows are ``codes``, a * (pad + 1) + b in
    ascending order, and ``counts`` how many live rows hold each.
    """

    def __init__(self, variables: np.ndarray, offsets: np.ndarray, n: int) -> None:
        """Monomials over ``n`` variables, each of degree > 2, given as
        qubit lists (``variables`` split at ``offsets``)."""
        degrees = np.diff(offsets)
        self.pad = n + int(np.sum(degrees - 2))
        row, _ = held_qubits(variables, offsets)
        self.rows = padded_rows(variables, offsets, degrees.max(initial=0))
        self.rows[self.rows < 0] = self.pad
        self.live = np.ones(len(degrees), bool)
        by_variable = row[np.argsort(variables, kind="stable")]
        ends = np.cumsum(np.bincount(variables, minlength=n)).tolist()
        self.holders = [by_variable[start:end] for start, end in zip([0, *ends], ends)]
        first, second = np.triu_indices(self.rows.shape[1], 1)
        first, second = self.rows[:, first], self.rows[:, second]
        held = second < self.pad
        self.codes, self.counts = np.unique(first[held] * (self.pad + 1) + second[held], return_counts=True)

    def top_pair(self) -> tuple[int, int] | None:
        """The pair held most often, the smallest on a tie, which is the
        first ``argmax`` of the counts; None when no pair is held."""
        if self.counts.size and self.counts[top := self.counts.argmax()]:
            return divmod(int(self.codes[top]), self.pad + 1)
        return None

    def substitute(self, i: int, j: int, y: int) -> None:
        """Replace the pair (i, j) by y, the largest variable so far, in
        every live row holding both.

        Each other variable c of such a row loses its pairs (c, i) and
        (c, j), the row loses (i, j), and if the row stays above degree
        2 it gains (c, y); no other count changes.  A row of degree 3
        falls to degree 2, {c, y}, and leaves ``live``."""
        rows, pad, step = self.rows, self.pad, self.pad + 1
        rival = min(self.holders[i], self.holders[j], key=len)
        rival = rival[self.live[rival]]
        block = rows[rival]
        holds = (block == i).any(axis=1) & (block == j).any(axis=1)
        hit, block = rival[holds], block[holds]
        block[block == i] = y
        block[block == j] = pad
        others = block < y
        degrees = others.sum(axis=1)
        c = block[others]
        lost = np.bincount(c, minlength=y)
        c_lost = np.flatnonzero(lost)
        ends = np.array([i, j])
        codes = np.minimum(c_lost[:, None], ends) * step + np.maximum(c_lost[:, None], ends)
        at = np.searchsorted(self.codes, np.append(codes, i * step + j))
        self.counts[at] -= np.append(lost[c_lost].repeat(2), len(hit))

        block.sort(axis=1)
        rows[hit] = block
        stays = degrees > 1
        self.live[hit] = stays
        self.holders.append(hit[stays])
        if stays.any():
            gained = np.bincount(c[stays.repeat(degrees)], minlength=y)
            c_gained = np.flatnonzero(gained)
            at = np.searchsorted(self.codes, c_gained * step + y)
            self.codes = np.insert(self.codes, at, c_gained * step + y)
            self.counts = np.insert(self.counts, at, gained[c_gained])


def resolve_ancillas(model: QuboModel, original_bits: int) -> int:
    """Complete an original-variable assignment with the consistent
    ancilla values (each the product of its parents)."""
    bits = original_bits
    for a, (p, q) in model.ancilla_defs:
        if (bits >> p) & 1 and (bits >> q) & 1:
            bits |= 1 << a
    return bits


def qubo_json(model: QuboModel) -> str:
    """Serialize to QUBO-JSON: the constant, the linear and quadratic
    couplings in stored order, the ancilla definitions and the penalty.

    Writes the text ``json.dumps(doc, indent=2, allow_nan=False) + "\n"``
    would give for the document ``{"num_qubits", "num_ancillas",
    "constant", "linear": [{"i", "coeff"}, ...], "quadratic": [{"i",
    "j", "coeff"}, ...], "ancillas": [{"index", "parents"}, ...],
    "penalty"}``, but directly, as ``hubo_to_json`` does, every coupling
    formatted by one ``float_texts`` call.  An absent constant is written
    ``0.0``.  The stored qubits, term by term, are each linear term's
    ``i``, then each quadratic term's ``i`` and ``j``.
    """
    constants, linears = np.searchsorted(np.diff(model.offsets), (1, 2)).tolist()
    names = np.array([str(v) for v in range(model.num_vars)], dtype=object)
    qubits = names[model.qubits].tolist()
    texts = float_texts(model.coeffs)
    constant = texts[0] if constants else "0.0"
    ends = qubits[linears - constants :]
    ancillas = [str(v) for a, (p, q) in model.ancilla_defs for v in (a, p, q)]
    linear = json_objects(
        ('\n      "i": ', ',\n      "coeff": '), (qubits[: linears - constants], texts[constants:linears])
    )
    quadratic = json_objects(
        ('\n      "i": ', ',\n      "j": ', ',\n      "coeff": '), (ends[::2], ends[1::2], texts[linears:])
    )
    parents = json_objects(
        ('\n      "index": ', ',\n      "parents": [\n        ', ',\n        ', '\n      ]'),
        (ancillas[0::3], ancillas[1::3], ancillas[2::3]),
    )
    return "".join(
        [
            f'{{\n  "num_qubits": {model.num_original_qubits},\n'
            f'  "num_ancillas": {model.num_ancilla_qubits},\n'
            f'  "constant": {constant},\n  "linear": [',
            *linear,
            json_list_end(linears - constants),
            ',\n  "quadratic": [',
            *quadratic,
            json_list_end(len(texts) - linears),
            ',\n  "ancillas": [',
            *parents,
            json_list_end(len(model.ancilla_defs)),
            f',\n  "penalty": {model.penalty_weight!r}\n}}\n',
        ]
    )
