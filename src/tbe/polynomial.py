"""Sparse multilinear polynomials over spin and binary variables.

A monomial is a set of variables.  Where it leaves the stored arrays it
is a Python-int subset bitmask (a key): bit ``q`` of a key means the
monomial contains variable ``q``.  Spin configurations are likewise
passed around as masks, with bit ``q`` set when spin ``q`` equals -1
(so mask 0 is the all-plus configuration).  This matches the bit/spin
convention ``z = 1 - 2b`` used by the encoder.

Stored terms are three read-only arrays: term t's qubits, ascending,
are ``qubits[offsets[t] : offsets[t + 1]]`` and its coupling is
``coeffs[t]``, so memory follows the (term, qubit) pairs the terms hold
(``held_qubits``, which the flip kernels read), however many qubits
there are.  A spin polynomial keeps its terms in canonical (degree,
qubit list) order, the order HUBO-JSON is written in, and records where
each degree starts, so a degree cut is a slice of the arrays.  Every
stored type passes one check of the arrays (``check_terms``).  A
``{key: coupling}`` mapping is built only when a caller reads
``terms``.  Keys and masks are Python ints wherever they leave the
arrays, so nothing here has a qubit cap; a polynomial enumerated whole
(``verify.dense_values``) is capped at 24 qubits, the 2^24 entries of
an exact landscape's table.

HUBO-JSON is written directly, each term's qubit list and coupling
formatted once between fixed pieces of text (``json_objects``), so the
text of a truncation, a prefix of the terms, is a prefix of the same
pieces (``hubo_texts``).  Couplings are written as ``float.__repr__``
writes them, all of a polynomial's in one native call (``float_texts``).
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
import orjson

from .errors import CapacityError, CfnFormatError
from .json_reader import read_json

__all__ = [
    "MAX_ABS_COST",
    "IsingPolynomial",
    "BinaryPolynomial",
    "mask_to_string",
    "hubo_to_json",
    "hubo_from_json",
]

RELATIVE_PRUNE_TOL = 1e-14

MAX_ABS_COST = 1e100
"""Largest |cost| of a CFN table and |coefficient| of a HUBO-JSON term, B.
A coupling, penalty weight (policy or quadratization) or l1 norm derived
from these sums under 2^64 terms (the 2^24 enumerated states included),
each under 2^64 B, so is under 2^128 B ~ 3.4e138; a squared sum
(certificate, spectrum) is under 2^64 (2^128 B)^2 ~ 2e296 < 1.8e308."""

_SPIN_SIGNS = str.maketrans("01", "+-")


def mask_to_string(mask: int, n: int) -> str:
    """Render a spin configuration as a '+'/'-' string, qubit 0 first.

    Bits of ``mask`` at or above ``n`` are ignored."""
    return format(mask, f"0{n}b")[::-1][:n].translate(_SPIN_SIGNS)


def significant(magnitudes: np.ndarray, largest: float | None = None) -> np.ndarray:
    """Which magnitudes exceed 1e-14 of the largest: of ``magnitudes``,
    or ``largest`` when they are one part of a larger set."""
    if largest is None:
        largest = magnitudes.max(initial=0.0)
    return magnitudes > RELATIVE_PRUNE_TOL * largest


def key_lists(keys: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit lists of keys over ``n`` qubits, as ``qubits`` and
    ``offsets`` (see the module docstring), raising ``ValueError``
    naming the first key outside ``[0, 2^n)``."""
    if keys and (min(keys) < 0 or max(keys).bit_length() > n):
        bad = next(s for s in keys if s < 0 or s.bit_length() > n)
        raise ValueError(f"term key {bad:#x} references qubits outside [0, {n})")
    qubits, offsets = [], [0]
    for key in keys:
        while key:
            low = key & -key
            qubits.append(low.bit_length() - 1)
            key ^= low
        offsets.append(len(qubits))
    return np.array(qubits, np.int64), np.array(offsets, np.int64)


def list_keys(qubits: np.ndarray, offsets: np.ndarray) -> list[int]:
    """The keys of qubit lists, as Python ints; the inverse of ``key_lists``."""
    flat, bounds = qubits.tolist(), offsets.tolist()
    return [sum(map((1).__lshift__, flat[a:b])) for a, b in zip(bounds, bounds[1:])]


def _key_name(qubits: np.ndarray, offsets: np.ndarray, t: int) -> str:
    """Key t for a message: its hex mask, or its qubit list when that is
    no set of qubits (a negative or repeated entry)."""
    listed = qubits[offsets[t] : offsets[t + 1]].tolist()
    if min(listed, default=0) < 0 or len(set(listed)) < len(listed):
        return f"with qubits {listed}"
    return f"{sum(1 << q for q in listed):#x}"


def check_terms(n: int, qubits: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray) -> None:
    """The one check of stored terms: raise ``ValueError`` unless
    ``offsets`` splits ``qubits`` into one key per coefficient, every
    key lists distinct qubits of ``[0, n)`` in ascending order and every
    coefficient is finite.  The message names the first bad key, and its
    coefficient.  That no key repeats is checked where the keys are
    sorted (``check_distinct``)."""
    if n < 0:
        raise ValueError(f"variable count {n} is negative")
    split = coeffs.ndim == qubits.ndim == 1 and offsets.shape == (len(coeffs) + 1,)
    if not (split and offsets[0] == 0 and offsets[-1] == len(qubits) and (np.diff(offsets) >= 0).all()):
        raise ValueError(f"{len(qubits)} qubits split at {offsets.shape} offsets do not match {len(coeffs)} couplings")
    term, _ = held_qubits(qubits, offsets)
    unordered = np.append(False, (qubits[1:] <= qubits[:-1]) & (term[1:] == term[:-1]))
    for bad, problem in (
        ((qubits < 0) | (qubits >= n), f"references qubits outside [0, {n})"),
        (unordered, "does not list distinct qubits in ascending order"),
    ):
        if bad.any():
            raise ValueError(f"term key {_key_name(qubits, offsets, term[bad.argmax()])} {problem}")
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise ValueError(f"non-finite coupling {float(coeffs[bad[0]])} at key {_key_name(qubits, offsets, bad[0])}")


def narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative integers in the smallest unsigned type that holds
    them: numpy's stable sorts, ``np.lexsort`` among them, take a radix
    sort on 8- and 16-bit keys."""
    return values.astype(np.min_scalar_type(int(values.max(initial=0))))


def check_distinct(rows: np.ndarray) -> None:
    """Raise ``ValueError`` naming a key that two adjacent rows share:
    the keys, as rows of qubits (padded with -1), must be sorted so that
    equal ones meet."""
    same = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
    if same.size:
        raise ValueError(f"term key {_key_name(*unpadded(rows[same[:1]]), 0)} is repeated")


def held_qubits(qubits: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (term, qubit) pairs of qubit lists: each term's index once per
    qubit it holds, and ``qubits`` itself, key-major with the qubits
    ascending within a key."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)), qubits


def take_terms(qubits: np.ndarray, offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The qubit lists of terms ``rows`` (an index array), in that order,
    as new arrays."""
    degrees = np.diff(offsets)[rows]
    taken = np.cumsum(np.append(0, degrees))
    # pair p of the result is pair p - taken[k] of term rows[k]
    shift = np.repeat(offsets[:-1][rows] - taken[:-1], degrees)
    return qubits[np.arange(taken[-1]) + shift], taken


def padded_rows(qubits: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """(terms x width) matrix whose row t holds the first ``width``
    qubits of key t, ascending, padded with -1: for keys of bounded
    degree, where equal keys are equal rows."""
    term, _ = held_qubits(qubits, offsets)
    slot = np.arange(len(qubits)) - offsets[term]
    kept = slot < width
    rows = np.full((len(offsets) - 1, width), -1, np.int64)
    rows[term[kept], slot[kept]] = qubits[kept]
    return rows


def unpadded(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The qubit lists of rows padded with -1; the inverse of ``padded_rows``."""
    held = rows >= 0
    return rows[held], np.cumsum(np.append(0, held.sum(axis=1)))


class StoredTerms:
    """Immutable terms in read-only arrays: the keys as qubit lists
    (``qubits`` and ``offsets``) and float64 ``coeffs``, term for term.
    ``terms`` is the same as a read-only ``{key: coefficient}`` mapping,
    built on first read.  Fields are set once, by ``_set``; instances are
    equal when the fields ``__reduce__`` rebuilds them from are."""

    qubits: np.ndarray
    offsets: np.ndarray
    coeffs: np.ndarray
    __hash__ = None

    def _set(self, **fields):
        for name in ("qubits", "offsets", "coeffs"):
            fields[name].flags.writeable = False
        self.__dict__.update(fields)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self.__reduce__()[1], other.__reduce__()[1])
        )

    @property
    def degree(self) -> int:
        """Largest monomial size among stored terms (0 for constants)."""
        return int(np.diff(self.offsets).max(initial=0))

    @cached_property
    def terms(self) -> Mapping[int, float]:
        """The stored terms as a read-only ``{key: coefficient}`` mapping."""
        return MappingProxyType(dict(zip(list_keys(self.qubits, self.offsets), self.coeffs.tolist())))


def _arrays(qubits, offsets, coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.asarray(qubits, np.int64), np.asarray(offsets, np.int64), np.asarray(coeffs, float)


class IsingPolynomial(StoredTerms):
    """A real polynomial in +/-1 spin variables, stored sparsely.

    Built from a ``{key: coupling}`` mapping, or from qubit lists with
    ``from_lists``.  Zero couplings (below 1e-14 of the largest
    magnitude) are dropped, and the rest are stored in canonical order,
    by (degree, qubit list):

    * ``qubits`` and ``offsets``: read-only int64, term t's qubits
      ascending in ``qubits[offsets[t] : offsets[t + 1]]``;
    * ``coeffs``: read-only float64 couplings, term for term;
    * ``degree_starts[d]``: the first term of degree >= d, for d = 0 ..
      degree + 1, so the degree-d terms are ``degree_starts[d] :
      degree_starts[d + 1]``.

    ``terms`` is the same content as a read-only ``{key: coupling}``
    mapping in that order (``StoredTerms``).  Every reduction over
    the terms walks the stored order, so floating-point sums are
    reproducible run to run.  Instances are immutable and safe to share.
    """

    num_qubits: int
    degree_starts: tuple[int, ...]

    def __init__(self, num_qubits: int, terms: Mapping[int, float] | None = None) -> None:
        terms = {} if terms is None else terms
        qubits, offsets = key_lists(list(terms), num_qubits)
        _canonicalize(self, num_qubits, qubits, offsets, np.fromiter(terms.values(), float))

    @classmethod
    def from_lists(cls, num_qubits: int, qubits, offsets, coeffs) -> "IsingPolynomial":
        """The polynomial with distinct keys given as qubit lists
        (``qubits`` split at ``offsets``) and their couplings, in any
        order; a repeated key is a ``ValueError``."""
        return _canonicalize(cls.__new__(cls), num_qubits, *_arrays(qubits, offsets, coeffs))

    def __reduce__(self):
        return _stored, (self.num_qubits, self.qubits, self.offsets, self.coeffs, self.degree_starts)

    def __repr__(self) -> str:
        return f"IsingPolynomial(num_qubits={self.num_qubits}, terms={dict(self.terms)!r})"

    @property
    def constant(self) -> float:
        return float(self.coeffs[0]) if self.degree_starts[1] else 0.0

    def num_terms(self) -> int:
        return len(self.coeffs)

    def between_degrees(self, low: int, high: int) -> "IsingPolynomial":
        """The stored terms of degree ``low`` to ``high`` (0 <= low):
        a slice of the arrays, so nothing is sorted again and nothing
        newly pruned, since a subset's largest magnitude is at most the
        whole's."""
        starts = self.degree_starts
        top = len(starts) - 1
        first = starts[min(low, top)]
        stop = max(first, starts[min(high + 1, top)])
        kept = [min(max(s, first), stop) - first for s in starts]
        # the slice's degree is its highest nonempty one
        degree = max((d for d in range(top) if kept[d] < kept[d + 1]), default=0)
        offsets = self.offsets[first : stop + 1]
        qubits = self.qubits[offsets[0] : offsets[-1]]
        return _stored(self.num_qubits, qubits, offsets - offsets[0], self.coeffs[first:stop], kept[: degree + 2])

    def degree_rows(self, d: int) -> np.ndarray:
        """The stored terms of degree ``d`` as the rows of a (count x d)
        view of ``qubits``."""
        a, b = self.degree_starts[d : d + 2]
        return self.qubits[self.offsets[a] : self.offsets[b]].reshape(b - a, d)

    def evaluate_mask(self, mask: int) -> float:
        if not (0 <= mask < (1 << self.num_qubits)):
            raise ValueError("configuration mask out of range")
        total = 0.0
        for s, c in self.terms.items():
            total += c if (s & mask).bit_count() % 2 == 0 else -c
        return total


def _stored(n: int, qubits: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray, degree_starts) -> IsingPolynomial:
    """A new polynomial over arrays already in canonical form."""
    return IsingPolynomial.__new__(IsingPolynomial)._set(
        num_qubits=n, qubits=qubits, offsets=offsets, coeffs=coeffs, degree_starts=tuple(degree_starts)
    )


def _canonicalize(
    poly: IsingPolynomial, n: int, qubits: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray
) -> IsingPolynomial:
    """Store distinct keys (qubit lists) and their couplings in ``poly``,
    in canonical form.

    Checks the arrays (``check_terms``), sorts them and checks that no
    key repeats (``_canonical_order``), drops the insignificant couplings
    and records where each degree starts.
    """
    check_terms(n, qubits, offsets, coeffs)
    order = _canonical_order(qubits, offsets)
    order = order[significant(np.abs(coeffs[order]))]
    # fancy indexing copies, so the stored arrays never alias the caller's
    qubits, offsets = take_terms(qubits, offsets, order)
    degrees = np.diff(offsets)
    starts = np.searchsorted(degrees, np.arange(degrees.max(initial=0) + 2))
    return poly._set(
        num_qubits=n, qubits=qubits, offsets=offsets, coeffs=coeffs[order], degree_starts=tuple(starts.tolist())
    )


def _canonical_order(qubits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The terms that sort keys, given as qubit lists, by (degree,
    ascending qubit list), raising ``ValueError`` on a repeated key.

    The keys of each degree d are gathered into a (count x d) matrix and
    sorted by one ``np.lexsort`` over its columns, the first column
    deciding first; equal keys are then adjacent rows
    (``check_distinct``).  Memory follows the held pairs, and the sort
    keys are ``narrow``."""
    degrees = np.diff(offsets)
    by_degree = np.argsort(narrow(degrees), kind="stable")
    bounds = np.searchsorted(degrees[by_degree], np.arange(degrees.max(initial=0) + 2))
    qubits = narrow(qubits)
    parts = []
    for d, (a, b) in enumerate(zip(bounds, bounds[1:])):
        terms = by_degree[a:b]
        rows = qubits[offsets[terms][:, None] + np.arange(d)]
        order = np.lexsort(rows.T[::-1]) if d else np.arange(b - a)
        check_distinct(rows[order])
        parts.append(terms[order])
    return np.concatenate(parts)


class BinaryPolynomial(StoredTerms):
    """A real polynomial in 0/1 variables, stored sparsely: built from a
    ``{key: coefficient}`` mapping, or from qubit lists with
    ``from_lists``, and kept in the order given as read-only qubit lists
    and float64 coefficients (``StoredTerms``).  Coefficients at most
    1e-14 of the largest magnitude are dropped."""

    num_vars: int

    def __init__(self, num_vars: int, terms: Mapping[int, float] | None = None) -> None:
        terms = {} if terms is None else terms
        self._prune(num_vars, *key_lists(list(terms), num_vars), np.fromiter(terms.values(), float))

    @classmethod
    def from_lists(cls, num_vars: int, qubits, offsets, coeffs) -> "BinaryPolynomial":
        """The polynomial with distinct keys given as qubit lists
        (``qubits`` split at ``offsets``) and their coefficients, kept in
        that order; a repeated key is a ``ValueError``."""
        return cls.__new__(cls)._prune(num_vars, *_arrays(qubits, offsets, coeffs))

    def _prune(self, n: int, qubits: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray) -> "BinaryPolynomial":
        check_terms(n, qubits, offsets, coeffs)
        _canonical_order(qubits, offsets)
        keep = np.flatnonzero(significant(np.abs(coeffs)))
        # fancy indexing copies, so the stored arrays never alias the caller's
        qubits, offsets = take_terms(qubits, offsets, keep)
        return self._set(num_vars=n, qubits=qubits, offsets=offsets, coeffs=coeffs[keep])

    def __reduce__(self):
        return BinaryPolynomial.from_lists, (self.num_vars, self.qubits, self.offsets, self.coeffs)

    def __repr__(self) -> str:
        return f"BinaryPolynomial(num_vars={self.num_vars}, terms={dict(self.terms)!r})"

    def evaluate_bits(self, bits: int) -> float:
        """Value at the configuration whose set bits are the 1-valued
        variables, summed in stored order.  A monomial contributes unless
        it uses a 0 variable."""
        total = 0.0
        for s, c in self.terms.items():
            if s & ~bits == 0:
                total += c
        return total


def mask_octets(masks: Sequence[int], width: int) -> np.ndarray:
    """(len(masks) x width) uint8 matrix of masks below ``2^(8 width)``:
    row t is ``masks[t]`` in little-endian bytes, so column b holds
    qubits 8b to 8b + 7."""
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    return np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)


def random_masks(rng: np.random.Generator, n: int, size: int | None = None):
    """Uniform masks over ``n`` qubits as Python ints (a list when ``size``
    is given), drawn a 64-bit word at a time from the low word, each word
    for every mask in turn (up to 64 qubits, the one draw ``rng.integers(0,
    1 << n, size)`` makes); the full words are one draw, linear in n."""
    count = 1 if size is None else size
    full, rest = divmod(n, 64)
    words = rng.integers(0, (1 << 64) - 1, size=(full, count), dtype=np.uint64, endpoint=True)
    tops = rng.integers(0, (1 << rest) - 1, size=count, dtype=np.uint64, endpoint=True).tolist() if rest else [0] * count
    data, step = words.T.astype("<u8").tobytes(), 8 * full
    masks = [int.from_bytes(data[r * step : (r + 1) * step], "little") | top << 64 * full for r, top in enumerate(tops)]
    return masks[0] if size is None else masks


def mask_bits(masks, n: int) -> np.ndarray:
    """Boolean (len(masks) x n) matrix of a sequence of masks below
    ``2^n``: entry (t, q) is bit q of ``masks[t]``."""
    return octet_bits(mask_octets(masks, (n + 7) // 8), n)


def octet_bits(octets: np.ndarray, n: int) -> np.ndarray:
    """Boolean (rows x n) matrix of masks over ``n`` qubits given as rows
    of little-endian bytes: entry (t, q) is bit q of mask t."""
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def bit_octets(bits: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix in little-endian bytes; the inverse
    of ``octet_bits``."""
    return np.packbits(bits, axis=1, bitorder="little")


def pack_masks(bits: np.ndarray) -> list[int]:
    """The masks whose bits are the rows of a boolean matrix; the
    inverse of ``mask_bits``."""
    octets = bit_octets(bits)
    if not octets.shape[1]:
        return [0] * len(octets)
    width, data = octets.shape[1], octets.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def characters(qubits: np.ndarray, offsets: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """(len(masks) x keys) matrix of each key's character at each mask:
    -1.0 where they share an odd number of qubits, else 1.0, read off
    the held qubits, one XOR reduction per key that holds one."""
    width = max(int(qubits.max(initial=-1)) + 1, max(masks, default=0).bit_length())
    shared = mask_bits(masks, width)[:, qubits]
    holding = np.flatnonzero(np.diff(offsets))
    odd = np.zeros((len(masks), len(offsets) - 1), bool)
    odd[:, holding] = np.bitwise_xor.reduceat(shared, offsets[holding], axis=1)
    return np.where(odd, -1.0, 1.0)


def first_appearance_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows: each row's group id, groups numbered in order of
    first appearance, and the row where each group first appears.

    The rows (keys padded with -1, so equal keys are equal rows; at least
    one column is compared) are sorted with the stable ``np.lexsort``, so
    a group's first sorted row is its first appearance.  ``np.bincount``
    over the ids then adds each group's weights one by one, in row
    order."""
    count = len(rows)
    if not rows.shape[1]:
        rows = np.zeros((count, 1), np.int64)
    order = np.lexsort(narrow(rows + 1).T)
    ranked = rows[order]
    starts = np.ones(count, bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]
    rank = np.empty(len(first), np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(count, np.intp)
    ids[order] = rank[np.cumsum(starts) - 1]
    return ids, np.sort(first)


def hubo_to_json(poly: IsingPolynomial) -> str:
    """Serialize to HUBO-JSON, terms in their stored (canonical) order.

    Writes the text ``json.dumps(doc, indent=2) + "\n"`` would give for
    the document ``{"num_qubits": n, "terms": [{"qubits": [...],
    "coeff": c}, ...]}``, but directly: with an indent, ``json`` always
    falls back to its pure-Python encoder, which is the slow part of a
    multi-megabyte export.  The text is joined once from fixed pieces
    and each term's qubit list and coupling (``hubo_texts``).
    """
    return hubo_texts(poly, [poly.num_terms()])[0]


def hubo_texts(poly: IsingPolynomial, counts: Sequence[int]) -> list[str]:
    """For each t in ``counts``, in that order, the HUBO-JSON text of
    ``poly``'s first t terms: ``hubo_to_json`` of the polynomial of
    those terms.  A truncation keeps a prefix of the stored terms, so a
    polynomial's text and its truncations' share one formatting of each
    term.

    Each term's qubit list comes from the stored qubit lists
    (``_qubit_lists``) and its coupling, a finite float, is written as
    ``json`` writes it (``float_texts``, one call for all of them); both
    are formatted once, into one flat list of pieces (``json_objects``),
    and each text is joined from a prefix of that list.
    """
    pieces = json_objects(
        ('\n      "qubits": [', '\n      ],\n      "coeff": '),
        (_qubit_lists(poly), float_texts(poly.coeffs)),
    )
    if poly.degree_starts[1]:
        # the constant is the first term, and its qubit list is empty
        pieces[2] = '],\n      "coeff": '
    header = f'{{\n  "num_qubits": {poly.num_qubits},\n  "terms": ['
    return ["".join([header, *pieces[: 4 * t], json_list_end(t), "\n}\n"]) for t in counts]


def float_texts(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each float64 of a 1-d array: for a finite
    float, the text ``json`` writes.

    One ``orjson.dumps`` call formats the whole array with the shortest
    digits that round-trip, as ``repr`` does, several times faster than
    ``repr`` one float at a time.  Its notation is ``repr``'s wherever
    ``repr`` writes no exponent, for 1e-4 <= |x| < 1e16: bounds that
    are exact, since a shortest repr never crosses a float.  The other
    floats keep ``float.__repr__``: ``1e+16`` and ``1e-05`` where
    ``orjson`` writes ``1e16`` and ``0.00001``, the non-finite, which it
    writes ``null``, and zeros.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    others = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))
    for i, x in zip(others.tolist(), values[others].tolist()):
        texts[i] = float.__repr__(x)
    return texts


def _qubit_lists(poly: IsingPolynomial) -> list[str]:
    """Each term's qubit indices as indented HUBO-JSON text, each index
    after a newline and every one but the first after its comma.  Each
    held qubit's two texts are formatted once; a degree slice
    (``degree_rows``) gathers them a column at a time and joins them per
    term."""
    held = np.flatnonzero(np.bincount(poly.qubits)).tolist()
    first, later = np.empty((2, poly.num_qubits), object)
    first[held] = [f"\n        {q}" for q in held]
    later[held] = [f",\n        {q}" for q in held]
    texts = [""] * poly.degree_starts[1]
    for d in range(1, poly.degree + 1):
        rows = poly.degree_rows(d)
        texts += map("".join, zip(first[rows[:, 0]].tolist(), *(later[column].tolist() for column in rows.T[1:])))
    return texts


def json_objects(fixed: Sequence[str], fields: Sequence[Sequence[str]]) -> list[str]:
    """A top-level field's list of objects as ``json.dumps(indent=2)``
    writes it after the ``[``, in pieces, without the end
    (``json_list_end``).  Object t is ``fixed[0] + fields[0][t] +
    fixed[1] + fields[1][t] + ...``, then ``fixed[-1]`` if there is one
    more fixed text than fields, and the opening piece carries the
    separator from the object before.  The list is filled a slice per
    piece, so the first t objects are the first t * (len(fixed) +
    len(fields)) pieces."""
    count, width = len(fields[0]), len(fixed) + len(fields)
    pieces = [""] * (count * width)
    pieces[0::width] = ["\n    },\n    {" + fixed[0]] * count
    for k, text in enumerate(fixed[1:], 1):
        pieces[2 * k :: width] = [text] * count
    for k, field in enumerate(fields):
        pieces[2 * k + 1 :: width] = field
    if count:
        pieces[0] = "\n    {" + fixed[0]
    return pieces


def json_list_end(count: int) -> str:
    """The text that ends a top-level field's list of ``count`` objects."""
    return "\n    }\n  ]" if count else "]"


def hubo_from_json(data: bytes | str) -> IsingPolynomial:
    """Parse HUBO-JSON into a polynomial; repeated monomials add up.

    Raises CfnFormatError naming the field, and the term index, on
    invalid JSON, a missing or mistyped field, a non-finite coefficient,
    a coefficient, or a running sum of a repeated monomial's, above
    ``MAX_ABS_COST`` in magnitude, or a qubit that is negative, out of
    range or repeated within its term (z * z = 1, so a repeat cannot
    stand for a power), and CapacityError on a qubit past 2^63 - 1; every
    refusal is decided on ``json``'s reading (``json_reader.read_json``).
    Memory follows the listed qubits, not ``num_qubits``.
    """
    return read_json(data, _build_hubo, "invalid JSON")


def _build_hubo(doc) -> IsingPolynomial:
    """The polynomial a parsed HUBO-JSON document describes."""
    if not isinstance(doc, dict):
        raise CfnFormatError("top-level value must be an object")
    n = doc.get("num_qubits")
    if not is_int(n) or n < 0:
        raise CfnFormatError("num_qubits must be a non-negative integer")
    entries = doc.get("terms")
    if not isinstance(entries, list):
        raise CfnFormatError("missing field: terms (a list of term objects)")
    terms: dict[tuple[int, ...], float] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "qubits" not in entry or "coeff" not in entry:
            raise CfnFormatError(f"terms[{k}] must be an object with qubits and coeff")
        key = qubit_key(entry["qubits"], n, f"terms[{k}].qubits")
        coeff = finite_float(entry["coeff"])
        if coeff is None:
            raise CfnFormatError(f"terms[{k}].coeff must be a finite number")
        if abs(coeff) > MAX_ABS_COST:
            raise CfnFormatError(f"terms[{k}].coeff: {coeff!r} exceeds {MAX_ABS_COST:g} in magnitude")
        total = terms.get(key, 0.0) + coeff
        if abs(total) > MAX_ABS_COST:
            raise CfnFormatError(
                f"terms[{k}].coeff: the repeated monomial's coefficients sum to {total!r}, "
                f"which exceeds {MAX_ABS_COST:g} in magnitude"
            )
        terms[key] = total
    qubits = [q for key in terms for q in key]
    return IsingPolynomial.from_lists(n, qubits, np.cumsum([0, *map(len, terms)]), list(terms.values()))


def qubit_key(qubits, n: int, where: str) -> tuple[int, ...]:
    """The qubits of a JSON qubit list, ascending.

    Raises CfnFormatError naming ``where`` unless ``qubits`` is a list
    of integers (not booleans) in ``[0, n)`` with none repeated, and
    CapacityError past 2^63 - 1, the largest index a stored list holds.
    """
    if not isinstance(qubits, list) or not all(is_int(q) for q in qubits):
        raise CfnFormatError(f"{where} must be a list of qubit indices")
    seen = set()
    for q in qubits:
        if not 0 <= q < n:
            raise CfnFormatError(f"{where}: qubit {q} is outside [0, {n})")
        if q >> 63:
            raise CapacityError(f"{where}: qubit {q} is past 2^63 - 1, the largest stored qubit index")
        if q in seen:
            raise CfnFormatError(f"{where}: qubit {q} is repeated")
        seen.add(q)
    return tuple(sorted(qubits))


def is_int(value) -> bool:
    """An int that is not a bool, as JSON readers must check."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite_float(value) -> float | None:
    """``value`` as a float if it is a finite JSON number (not a
    boolean), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = float(value)
    except OverflowError:
        return None
    return out if math.isfinite(out) else None
