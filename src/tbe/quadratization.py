"""Reduction of high-degree polynomials to quadratic form.

Works in the 0/1 basis, where the product substitution y = b_i * b_j
has the classic penalty gadget
M * (b_i b_j - 2 b_i y - 2 b_j y + 3 y), which is zero exactly when
the ancilla agrees with the product and at least M otherwise.  Pairs
are chosen greedily by frequency across the remaining high-degree
monomials (Boros & Gruber's greedy pair substitution).  The monomials
of degree > 2 are rows of a 0/1 incidence matrix, and the pair counts
a symmetric matrix kept exact from substitution to substitution: a
substitution reads and rewrites only the rows holding its pair, and
its count changes are three rows and columns of the matrix, so no
pair is recounted.  The penalty weight comes from the l1 norm of the
cost coefficients, which substitution never changes, so it is
computed once; it keeps every intermediate model min-equivalent to its
predecessor.  The result is a ``QuboModel``: the 0/1-basis polynomial
type, ``BinaryPolynomial``, with the ancilla definitions and the
penalty, checked once as it is built, so every value it writes is
finite.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .polynomial import BinaryPolynomial, IsingPolynomial, bit_octets, check_distinct, check_terms
from .polynomial import first_appearance_groups, held_qubits, json_list_end, json_objects, key_octets
from .polynomial import octet_bits, octet_degrees
from .walsh import leakage_transform, to_01_basis

__all__ = ["QuboModel", "quadratize", "resolve_ancillas", "qubo_json"]


class QuboModel(BinaryPolynomial):
    """A degree <= 2 polynomial over original variables plus ancillas:
    a ``BinaryPolynomial`` over both (originals first) that keeps its
    zero coefficients, in (degree, mask) order, the order ``qubo_json``
    writes.  Each ancilla records the variable pair whose product it
    stands for; the k-th ancilla is variable ``num_original_qubits + k``
    and its parents precede it, so ancilla values can be resolved left
    to right.  Every model, from a mapping, from key bytes
    (``from_octets``), unpickled or quadratized, is built by ``_build``.
    """

    num_original_qubits: int
    num_ancilla_qubits: int
    ancilla_defs: tuple[tuple[int, tuple[int, int]], ...]
    penalty_weight: float

    def __init__(self, num_original_qubits: int, num_ancilla_qubits: int, terms: Mapping[int, float],
                 ancilla_defs: tuple[tuple[int, tuple[int, int]], ...], penalty_weight: float) -> None:
        if num_ancilla_qubits != len(ancilla_defs):
            raise ValueError(f"{num_ancilla_qubits} ancillas but {len(ancilla_defs)} definitions")
        octets = key_octets(list(terms), num_original_qubits + num_ancilla_qubits)
        self._build(num_original_qubits, ancilla_defs, penalty_weight, octets, np.fromiter(terms.values(), float))

    @classmethod
    def from_octets(cls, num_original_qubits: int, ancilla_defs, penalty_weight: float, octets, coeffs) -> "QuboModel":
        """The model with distinct keys given as rows of little-endian
        bytes, in any order; a repeated key is a ``ValueError``."""
        octets, coeffs = np.asarray(octets, np.uint8), np.asarray(coeffs, float)
        return cls.__new__(cls)._build(num_original_qubits, ancilla_defs, penalty_weight, octets, coeffs)

    def _build(self, n: int, ancilla_defs, penalty_weight: float, octets: np.ndarray, coeffs: np.ndarray):
        """Check the model (a finite penalty, ``check_terms``, degree <= 2,
        each ancilla after its two distinct parents, and a finite l1 norm,
        which bounds every coefficient of ``to_ising``), sort the keys by
        (degree, mask) with one ``np.lexsort``, check that none repeats
        (``check_distinct``) and set the fields; returns self."""
        ancilla_defs, penalty_weight = tuple(ancilla_defs), float(penalty_weight)
        if not np.isfinite(penalty_weight):
            raise ValueError(f"non-finite penalty weight {penalty_weight}")
        check_terms(n + len(ancilla_defs), octets, coeffs)
        degrees = octet_degrees(octets)
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
        order = np.lexsort((*octets.T, degrees))
        octets = octets[order]
        check_distinct(octets)
        return self._set(num_vars=n + len(ancilla_defs), num_original_qubits=n, num_ancilla_qubits=len(ancilla_defs),
                         ancilla_defs=ancilla_defs, penalty_weight=penalty_weight, octets=octets,
                         coeffs=coeffs[order])

    def __reduce__(self):
        return QuboModel.from_octets, (self.num_original_qubits, self.ancilla_defs, self.penalty_weight,
                                       self.octets, self.coeffs)

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
    Those monomials and their exact pair counts are matrices
    (``_Incidence``), and a substitution reads and rewrites only the
    monomials holding its pair.

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
    octets, coeffs = poly01.octets, poly01.coeffs
    bits = octet_bits(octets, n)
    high = bits.sum(axis=1) > 2
    incidence = _Incidence(bits[high])
    ancilla_defs: list[tuple[int, tuple[int, int]]] = []
    penalty = 0.0

    while (pair := incidence.top_pair()) is not None:
        i, j = pair
        if not ancilla_defs:
            penalty = 1.0 + 2.0 * sum(np.abs(coeffs[octets.any(axis=1)]).tolist())
        y = n + len(ancilla_defs)
        ancilla_defs.append((y, (i, j)))
        incidence.substitute(i, j, y)

    # each monomial of degree > 2 ends as {c, y}, in its row of the incidence
    width = n + len(ancilla_defs)
    cost = np.zeros((len(coeffs), width), bool)
    cost[:, :n] = bits
    cost[high] = incidence.rows[:, :width]
    # per ancilla y with parents (i, j): {i, j}, {i, y}, {j, y} and {y, y} = {y}
    y, i, j = np.array([(a, p, q) for a, (p, q) in ancilla_defs], np.intp).reshape(-1, 3).T
    gadget = np.zeros((4 * len(y), width), bool)
    gadget[np.arange(len(gadget)).repeat(2), np.stack([i, j, i, y, j, y, y, y], axis=1).ravel()] = True
    cost, gadget = (bit_octets(rows) for rows in (cost, gadget))

    ids, first = first_appearance_groups(gadget)
    with np.errstate(over="ignore"):  # an infinite sum is refused by QuboModel, naming its key
        gadget_sums = np.bincount(ids, weights=np.tile([1.0, -2.0, -2.0, 3.0], len(y)) * penalty)
    keys = np.concatenate([cost, gadget[first]])
    ids, first = first_appearance_groups(keys)
    sums = np.bincount(ids, weights=np.concatenate([coeffs, gadget_sums]))
    return QuboModel.from_octets(n, ancilla_defs, penalty, keys[first], sums)


def _pair_counts(rows: np.ndarray) -> np.ndarray:
    """``counts[a, b]``: how many rows of the boolean matrix hold both a
    and b, with a zero diagonal.  Rows are taken a degree at a time:
    the d columns of each row, in increasing order, give its d(d-1)/2
    pairs a < b, and one ``bincount`` tallies them exactly."""
    n = rows.shape[1]
    degrees = rows.sum(axis=1)
    upper = np.zeros(n * n, np.int64)
    for d in np.unique(degrees[degrees > 1]).tolist():
        cols = np.nonzero(rows[degrees == d])[1].reshape(-1, d)
        a, b = np.triu_indices(d, 1)
        upper += np.bincount((cols[:, a] * n + cols[:, b]).ravel(), minlength=n * n)
    upper = upper.reshape(n, n)
    return upper + upper.T


class _Incidence:
    """The monomials of degree > 2 under greedy pair substitution.

    ``rows`` is a boolean matrix, one row per monomial and one column per
    variable, its ancilla columns growing by doubling.  A row that falls
    to degree 2 stays as it is but leaves ``active``, so only rows of
    degree > 2 are ever counted or rewritten.  ``counts[a, b]`` is the
    number of active rows holding both a and b (zero on the diagonal);
    ``row_max`` and ``row_argmax`` are each count row's largest entry
    and the first column holding it.
    """

    def __init__(self, rows: np.ndarray) -> None:
        count, n = rows.shape
        width = max(8, 2 * n)
        self.rows = np.zeros((count, width), bool)
        self.rows[:, :n] = rows
        self.active = np.ones(count, bool)
        self.counts = np.zeros((width, width), np.int64)
        self.counts[:n, :n] = _pair_counts(rows)
        self.row_max = self.counts.max(axis=1)
        self.row_argmax = self.counts.argmax(axis=1)

    def top_pair(self) -> tuple[int, int] | None:
        """The pair held most often, the smallest on a tie; None when no
        pair is held.  That is the row-major ``argmax`` of ``counts``:
        the first count row whose maximum is the largest, at that row's
        first column holding it (i < j, since the counts are
        symmetric)."""
        i = int(self.row_max.argmax())
        if self.row_max[i] == 0:
            return None
        return i, int(self.row_argmax[i])

    def substitute(self, i: int, j: int, y: int) -> None:
        """Replace the pair (i, j) by the fresh variable y in every
        active row holding both.

        Of a rewritten row's pairs, only those with i, j or y change: it
        loses (i, j) and (i, c), (j, c) for each of its other variables
        c, and if it stays above degree 2 it gains (y, c).  A row of
        degree 3 falls to degree 2, {c, y}, and leaves ``active``."""
        if y == self.rows.shape[1]:
            self._grow()
        rows = self.rows
        hit = np.flatnonzero(rows[:, i] & rows[:, j] & self.active)
        block = rows[hit, : y + 1]
        block[:, i] = False
        block[:, j] = False
        stays = block.sum(axis=1) > 1
        others = block.sum(axis=0, dtype=np.int64)
        kept = block[stays].sum(axis=0, dtype=np.int64)
        counts = self.counts[: y + 1, : y + 1]
        for v in (i, j):
            counts[v] -= others
            counts[:, v] -= others
        counts[y] += kept
        counts[:, y] += kept
        counts[i, j] -= len(hit)
        counts[j, i] -= len(hit)

        rows[hit, i] = False
        rows[hit, j] = False
        rows[hit, y] = True
        self.active[hit[~stays]] = False

        # the count rows that changed: i, j, y and every c beside them
        touched = np.append(np.flatnonzero(others), (i, j, y))
        part = self.counts[touched]
        self.row_max[touched] = part.max(axis=1)
        self.row_argmax[touched] = part.argmax(axis=1)

    def _grow(self) -> None:
        count, width = self.rows.shape
        rows = np.zeros((count, 2 * width), bool)
        rows[:, :width] = self.rows
        counts = np.zeros((2 * width, 2 * width), np.int64)
        counts[:width, :width] = self.counts
        self.rows, self.counts = rows, counts
        self.row_max = np.concatenate([self.row_max, np.zeros(width, np.int64)])
        self.row_argmax = np.concatenate([self.row_argmax, np.zeros(width, np.intp)])


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
    "penalty"}``, but directly, as ``hubo_to_json`` does.  An absent
    constant is written ``0.0``.  The key bytes' set bits, row by row,
    are each linear term's ``i``, then each quadratic term's ``i`` and ``j``.
    """
    constants, linears = np.searchsorted(octet_degrees(model.octets), (1, 2)).tolist()
    names = np.array([str(v) for v in range(model.num_vars)], dtype=object)
    qubits = names[held_qubits(model.octets)[1]].tolist()
    texts = list(map(float.__repr__, model.coeffs.tolist()))
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
