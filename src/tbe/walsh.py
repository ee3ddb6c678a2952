"""Walsh-Hadamard analysis on the spin hypercube.

Value tables are indexed by configuration mask: index bit ``q`` set
means coordinate ``q`` is at spin -1 (the ``b = (1 - z) / 2`` map).
Walsh coefficient vectors use the same indexing, with index ``T`` read
as a subset mask.  The forward transform uses the expectation
normalization, so coefficients are directly comparable to sparse
polynomial couplings.  The basis changes between spin and 0/1
variables (``to_01_basis``, ``leakage_transform``) expand each monomial
over its subsets on qubit lists, one degree slice at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .polynomial import BinaryPolynomial, IsingPolynomial, first_appearance_groups, unpadded

__all__ = [
    "fwht",
    "synthesize_values",
    "leakage_transform",
    "to_01_basis",
    "SmoothnessReport",
    "smoothness_report",
    "subset_degrees",
    "squared_mass_by_degree",
]

MAX_TRANSFORM_DIM = 26


def fwht(values, normalize: bool = True) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis: of a length-2^D
    value table, or of each table in a stack of them.

    With ``normalize`` (the default) returns the coefficient table
    f_hat(T) = 2^-D * sum_z f(z) * chi_T(z); without it returns the raw
    butterfly output, which applied twice gives 2^D times the input.
    Each table of a stack goes through the same butterfly, in the same
    order, as it would alone, so its coefficients are the same bits.
    """
    out = np.array(values, dtype=float)
    if out.ndim == 0:
        raise ValueError("expected a value table or a stack of them")
    shape = out.shape
    size = shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    dim = size.bit_length() - 1
    if dim > MAX_TRANSFORM_DIM:
        raise CapacityError(f"transform dimension {dim} exceeds cap {MAX_TRANSFORM_DIM}")
    h = 1
    while h < size:
        out = out.reshape(-1, 2, h)
        a = out[:, 0, :]
        b = out[:, 1, :]
        total = a + b
        np.subtract(a, b, out=b)
        a[...] = total
        h *= 2
    out = out.reshape(shape)
    if normalize:
        out /= size
    return out


def synthesize_values(coefficients) -> np.ndarray:
    """Inverse of ``fwht``: pointwise values from a coefficient table,
    or from each table of a stack along the last axis."""
    return fwht(coefficients, normalize=False)


def leakage_transform(poly01: BinaryPolynomial) -> IsingPolynomial:
    """Convert a 0/1-basis polynomial to its spin-basis equivalent.

    b = (1 - z) / 2 turns c * b_S into the sum over the subsets t of S
    of c * (-1)^|t| / 2^|S| * z_t, so a degree-k term spreads mass
    across all degrees 0..k.  Runs per monomial in O(2^|S|), with no
    full-lattice table (``_change_basis``), over the terms in canonical
    order.  Coefficients at most 1e-14 of the largest are dropped first,
    as ``BinaryPolynomial`` does; a ``QuboModel`` keeps its zeros.
    """
    # an IsingPolynomial of the same terms holds them in canonical order
    terms = IsingPolynomial.from_lists(poly01.num_vars, poly01.qubits, poly01.offsets, poly01.coeffs)
    keys, sums = _change_basis(terms, lambda d: (-1.0) ** np.arange(d + 1) / 2.0**d)
    return IsingPolynomial.from_lists(poly01.num_vars, *unpadded(keys), sums)


def to_01_basis(poly: IsingPolynomial) -> BinaryPolynomial:
    """Inverse substitution z = 1 - 2b; round trip with
    ``leakage_transform`` is the identity.

    z = 1 - 2b turns the spin monomial c * z_S into the sum over the
    subsets t of S of c * (-2)^|t| * b_t (``_change_basis``), so the
    terms are in its order of first appearance.  A sum past the float
    range is infinite, which ``BinaryPolynomial`` refuses with a
    ``ValueError``.
    """
    with np.errstate(over="ignore"):
        keys, sums = _change_basis(poly, lambda d: (-2.0) ** np.arange(d + 1))
    return BinaryPolynomial.from_lists(poly.num_qubits, *unpadded(keys), sums)


def _change_basis(poly: IsingPolynomial, factors) -> tuple[np.ndarray, np.ndarray]:
    """Expand each term c * x_S into c * factors(|S|)[|t|] * x_t over the
    subsets t of S; the basis change both ways.  Returns the distinct
    keys, as rows of qubits padded with -1, in order of first appearance
    (term order, then a term's subsets by descending mask: the walk
    ``t = (t - 1) & S``) and their sums.  Each degree-d slice
    (``degree_rows``) expands at once (``_subset_expansion``); the keys
    so far are padded to d qubits, and the slice's subsets add onto their
    sums one by one (``np.bincount``), in term order."""
    keys = np.zeros((0, 0), np.int64)
    sums = np.zeros(0)
    for d in range(poly.degree + 1):
        a, b = poly.degree_starts[d : d + 2]
        subsets, contributions = _subset_expansion(poly.degree_rows(d), poly.coeffs[a:b], factors(d))
        # the keys so far come first, so they keep their places
        keys = np.concatenate([np.pad(keys, ((0, 0), (0, d - keys.shape[1])), constant_values=-1), subsets])
        ids, first = first_appearance_groups(keys)
        sums = np.bincount(ids, weights=np.concatenate([sums, contributions]))
        keys = keys[first]
    # astype: with no terms at all, bincount returns integers
    return keys, sums.astype(float)


def _subset_expansion(rows: np.ndarray, coeffs: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of each key (a row of d ascending qubits), 2^d rows
    of d qubits padded with -1 per key, by descending mask, and
    ``coeff * scale[|subset|]`` for each: one gather of each row's
    qubits, and of a -1, by ``subset_members``."""
    count, d = rows.shape
    subsets = np.append(rows, np.full((count, 1), -1), axis=1)[:, subset_members(d)[::-1]]
    per_subset = scale[subset_degrees(d)[::-1]]
    return subsets.reshape(count << d, d), (coeffs[:, None] * per_subset).reshape(-1)


@dataclass(frozen=True)
class SmoothnessReport:
    """Discrete smoothness of one value table.

    ``lipschitz[k]`` is the worst sup-norm over all order-(k+1) mixed
    half-difference derivatives (index 0 is order 1).  The two tail
    identity vectors are computed by independent routes (binomial-
    weighted spectral powers vs derivative mean squares from one pass
    over the table) and must agree; ``tail_bound`` dominates both.
    """

    dim: int
    per_degree_power: tuple[float, ...]
    lipschitz: tuple[float, ...]
    tail_identity_lhs: tuple[float, ...]
    tail_identity_rhs: tuple[float, ...]
    tail_bound: tuple[float, ...]
    geometric_ratio: float | None


def smoothness_report(values) -> SmoothnessReport:
    """Derivative-based smoothness diagnostics for one cost table.

    The report pairs each order k with the identity
    sum_{j>=k} C(j,k) P_j  ==  sum_{|S|=k} mean-square(D_S f)
    and with the cap C(D,k) * L_k^2, where L_k is the order-k
    Lipschitz constant.  No pass/fail verdict is attached; the fitted
    geometric ratio of successive L_k values is reported for judging
    decay by inspection.

    One pass over the axes (``_half_differences``) gives the 3^D
    entries D_S f(x) over every S and every x outside S.  L_k is the
    largest |entry| of order k; the right side sums their squares over
    2^(D-k), as D_S f is constant along S.  The high half of the bits
    expands a few low-half columns at a time, so memory stays near
    2^(D/2) * 3^(D/2) entries.
    """
    table = np.asarray(values, dtype=float)
    size = table.size
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    dim = size.bit_length() - 1
    if dim > 16:
        raise CapacityError(f"smoothness scan over dimension {dim} exceeds cap 16")

    coeffs = fwht(table)
    powers = squared_mass_by_degree(coeffs[None], subset_degrees(dim), dim)[0].tolist()

    # per order k: the largest |D_S f| and the sum of squares over |S| = k
    peaks = [0.0] * (dim + 1)
    squares = [0.0] * (dim + 1)
    low = dim // 2
    columns = 128  # low-half columns expanded over the high half at once
    for k, block in enumerate(_half_differences(table.reshape(size, 1), low)):
        for start in range(0, block.shape[1], columns):
            for j, part in enumerate(_half_differences(block[:, start : start + columns], dim - low), start=k):
                peaks[j] = max(peaks[j], float(np.max(np.abs(part))))
                squares[j] += float(np.sum(part * part))
    lipschitz = peaks[1:]
    rhs = [squares[k] / 2.0 ** (dim - k) for k in range(1, dim + 1)]

    lhs = [
        sum(math.comb(j, k) * powers[j] for j in range(k, dim + 1))
        for k in range(1, dim + 1)
    ]
    bound = [math.comb(dim, k) * lipschitz[k - 1] ** 2 for k in range(1, dim + 1)]

    ratios = [
        lipschitz[k] / lipschitz[k - 1]
        for k in range(1, len(lipschitz))
        if lipschitz[k - 1] > 0 and lipschitz[k] > 0
    ]
    geometric = math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else None

    return SmoothnessReport(
        dim=dim,
        per_degree_power=tuple(powers),
        lipschitz=tuple(lipschitz),
        tail_identity_lhs=tuple(lhs),
        tail_identity_rhs=tuple(rhs),
        tail_bound=tuple(bound),
        geometric_ratio=geometric,
    )


def _half_differences(block: np.ndarray, bits: int) -> list[np.ndarray]:
    """Mixed half-differences of ``block`` along the lowest ``bits`` bits
    of its row index, by order: each bit, lowest first, turns every row
    pair (a0, a1) into a0, a1 and (a0 - a1) / 2, one order higher."""
    orders = [block]
    for _ in range(bits):
        pairs = [a.reshape(len(a) // 2, 2, -1) for a in orders]
        none = np.empty((len(pairs[0]), 0))
        kept = [p.reshape(len(p), -1) for p in pairs]
        halves = [(p[:, 0] - p[:, 1]) / 2 for p in pairs]
        orders = [np.hstack(parts) for parts in zip(kept + [none], [none] + halves)]
    return orders


def subset_members(width: int) -> np.ndarray:
    """(2^width x width) matrix whose row t holds the positions of the
    set bits of subset mask t, ascending, padded with -1."""
    bits = np.arange(1 << width)[:, None] >> np.arange(width) & 1
    members = np.argsort(1 - bits, axis=1, kind="stable")
    members[np.arange(width) >= bits.sum(axis=1)[:, None]] = -1
    return members


def subset_degrees(width: int) -> np.ndarray:
    """Degree (popcount) of each subset mask 0 .. 2^width - 1."""
    degrees = np.zeros(1 << width, dtype=np.intp)
    for b in range(width):
        degrees[1 << b : 2 << b] = degrees[: 1 << b] + 1
    return degrees


def squared_mass_by_degree(stack: np.ndarray, degrees: np.ndarray, top: int) -> np.ndarray:
    """Squared coefficients summed per degree 0 .. top, for each table of
    ``stack`` (its leading axis), as the rows of one (tables x top + 1)
    array.  ``degrees`` has one table's shape, and one ``np.bincount``
    adds each table's squares to its own bins in row-major order.
    Squares are ``c**2``, as the spectrum CSV always had: ``float_power``
    calls the same libm ``pow`` that ``c**2`` does, while ``np.square``
    and ``np.power`` compute ``c * c``, which can differ in the last bit."""
    count = len(stack)
    squares = np.float_power(stack.ravel(), 2.0)
    bins = np.arange(count)[:, None] * (top + 1) + degrees.reshape(1, -1)
    # astype: with no coefficients, bincount returns integer zeros
    return np.bincount(bins.ravel(), weights=squares, minlength=count * (top + 1)).astype(float).reshape(count, top + 1)
