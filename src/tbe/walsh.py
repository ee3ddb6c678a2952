"""Walsh-Hadamard analysis on the spin hypercube.

Value tables are indexed by configuration mask: index bit ``q`` set
means coordinate ``q`` is at spin -1 (the ``b = (1 - z) / 2`` map).
Walsh coefficient vectors use the same indexing, with index ``T`` read
as a subset mask.  The forward transform uses the expectation
normalization, so coefficients are directly comparable to sparse
polynomial couplings.  The basis changes between spin and 0/1
variables (``to_01_basis``, ``leakage_transform``) expand each monomial
over its subsets on key-byte arrays, one degree slice at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .polynomial import BinaryPolynomial, IsingPolynomial, _canonical_order, first_appearance_groups
from .polynomial import active_incidence, octet_degrees, octet_width, significant

__all__ = [
    "fwht",
    "synthesize_values",
    "leakage_transform",
    "to_01_basis",
    "discrete_derivative",
    "pointwise_derivative_values",
    "SmoothnessReport",
    "smoothness_report",
    "subset_degrees",
    "squared_mass_by_degree",
]

MAX_TRANSFORM_DIM = 26


def fwht(values, normalize: bool = True) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^D value table.

    With ``normalize`` (the default) returns the coefficient table
    f_hat(T) = 2^-D * sum_z f(z) * chi_T(z); without it returns the raw
    butterfly output, which applied twice gives 2^D times the input.
    """
    out = np.array(values, dtype=float)
    size = out.size
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    dim = size.bit_length() - 1
    if dim > MAX_TRANSFORM_DIM:
        raise CapacityError(f"transform dimension {dim} exceeds cap {MAX_TRANSFORM_DIM}")
    if out.ndim != 1:
        raise ValueError("expected a flat value table")
    h = 1
    while h < size:
        out = out.reshape(-1, 2, h)
        a = out[:, 0, :]
        b = out[:, 1, :]
        total = a + b
        np.subtract(a, b, out=b)
        a[...] = total
        h *= 2
    out = out.reshape(size)
    if normalize:
        out /= size
    return out


def synthesize_values(coefficients) -> np.ndarray:
    """Inverse of ``fwht``: pointwise values from a coefficient table."""
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
    keep = significant(np.abs(poly01.coeffs))
    octets, coeffs = poly01.octets[keep], poly01.coeffs[keep]
    order, _ = _canonical_order(octets)
    keys, sums = _change_basis(
        octets[order], coeffs[order], poly01.num_vars, lambda d: (-1.0) ** np.arange(d + 1) / 2.0**d
    )
    return IsingPolynomial.from_octets(poly01.num_vars, keys, sums)


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
        keys, sums = _change_basis(poly.octets, poly.coeffs, poly.num_qubits, lambda d: (-2.0) ** np.arange(d + 1))
    return BinaryPolynomial.from_octets(poly.num_qubits, keys, sums)


def _change_basis(octets: np.ndarray, coeffs: np.ndarray, n: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """Expand each term c * x_S (keys in rows of little-endian bytes,
    ordered by degree) into c * factors(|S|)[|t|] * x_t over the subsets
    t of S; the basis change both ways.  Returns the distinct keys in
    order of first appearance (term order, then a term's subsets by
    descending mask: the walk ``t = (t - 1) & S``) and their sums.  Each
    degree slice expands at once (``_subset_expansion``) and adds onto
    the sums so far one by one (``np.bincount``), in term order."""
    degrees = octet_degrees(octets)
    starts = np.searchsorted(degrees, np.arange(degrees.max(initial=0) + 2))
    keys = np.zeros((0, octet_width(n)), np.uint8)
    sums = np.zeros(0)
    for d, (a, b) in enumerate(zip(starts, starts[1:])):
        subsets, contributions = _subset_expansion(octets[a:b], coeffs[a:b], d, factors(d))
        # the keys so far come first, so they keep their places
        keys = np.concatenate([keys, subsets])
        ids, first = first_appearance_groups(keys)
        sums = np.bincount(ids, weights=np.concatenate([sums, contributions]))
        keys = keys[first]
    # astype: with no terms at all, bincount returns integers
    return keys, sums.astype(float)


def _subset_expansion(
    octets: np.ndarray, coeffs: np.ndarray, d: int, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of each degree-``d`` key, 2^d rows of key bytes per
    key by descending mask, and ``coeff * scale[|subset|]`` for each.

    A subset's bytes are the OR of the one-hot byte rows of its qubits;
    the subsets of a key's first b + 1 qubits are those of its first b
    with and without qubit b."""
    count, width = octets.shape
    active, bits = active_incidence(octets)
    qubits = active[np.nonzero(bits)[1]].reshape(count, d)
    one_hot = np.zeros((count, d, width), np.uint8)
    one_hot[np.arange(count)[:, None], np.arange(d), qubits >> 3] = 1 << (qubits & 7)
    subsets = np.zeros((count, 1 << d, width), np.uint8)
    for b in range(d):
        np.bitwise_or(subsets[:, : 1 << b], one_hot[:, b, None], out=subsets[:, 1 << b : 2 << b])
    per_subset = scale[subset_degrees(d)[::-1]]
    return subsets[:, ::-1].reshape(count << d, width), (coeffs[:, None] * per_subset).reshape(-1)


def discrete_derivative(poly: IsingPolynomial, subset: int) -> IsingPolynomial:
    """Mixed half-difference derivative along the coordinates in ``subset``.

    Acts on monomials by dropping ``subset`` from every term containing
    it and annihilating the rest.
    """
    terms = {
        t & ~subset: c for t, c in poly.terms.items() if t & subset == subset
    }
    return IsingPolynomial(poly.num_qubits, terms)


def pointwise_derivative_values(values: np.ndarray, subset: int) -> np.ndarray:
    """Iterated half-differences of a value table along ``subset``.

    Independent of the spectral route: operates directly on the 2^D
    table, one coordinate at a time.  The result is constant along the
    differentiated coordinates.
    """
    out = np.array(values, dtype=float)
    size = out.size
    q = 0
    rem = subset
    while rem:
        if rem & 1:
            step = 1 << q
            idx = np.arange(size)
            plus = out[idx & ~step]
            minus = out[idx | step]
            out = (plus - minus) / 2.0
        rem >>= 1
        q += 1
    return out


@dataclass(frozen=True)
class SmoothnessReport:
    """Discrete smoothness of one value table.

    ``lipschitz[k]`` is the worst sup-norm over all order-(k+1) mixed
    half-difference derivatives (index 0 is order 1).  The two tail
    identity vectors are computed by independent routes (binomial-
    weighted spectral powers vs pointwise derivative norms) and must
    agree; ``tail_bound`` dominates both.
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
    """
    table = np.asarray(values, dtype=float)
    size = table.size
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    dim = size.bit_length() - 1
    if dim > 16:
        raise CapacityError(f"smoothness scan over dimension {dim} exceeds cap 16")

    coeffs = fwht(table)
    powers = squared_mass_by_degree(coeffs, subset_degrees(dim), dim)

    # index k - 1 holds order k; each order's subsets come by ascending mask
    lipschitz = [0.0] * dim
    rhs = [0.0] * dim
    for subset in range(1, size):
        deriv = pointwise_derivative_values(table, subset)
        k = subset.bit_count() - 1
        lipschitz[k] = max(lipschitz[k], float(np.max(np.abs(deriv))))
        rhs[k] += float(np.mean(deriv * deriv))

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


def subset_degrees(width: int) -> np.ndarray:
    """Degree (popcount) of each subset mask 0 .. 2^width - 1."""
    degrees = np.zeros(1 << width, dtype=np.intp)
    for b in range(width):
        degrees[1 << b : 2 << b] = degrees[: 1 << b] + 1
    return degrees


def squared_mass_by_degree(coeffs: np.ndarray, degrees: np.ndarray, top: int) -> tuple[float, ...]:
    """Squared ``coeffs`` summed per degree 0 .. top, each bin added in
    row-major order.  Squares are ``c**2`` (libm pow, which can differ
    from ``c * c`` in the last bit), as the spectrum CSV always had."""
    squares = [c**2 for c in coeffs.ravel().tolist()]
    # astype: with no coefficients, bincount returns integer zeros
    return tuple(np.bincount(degrees.ravel(), weights=squares, minlength=top + 1).astype(float).tolist())
