"""Sparse multilinear polynomials over spin and binary variables.

Monomials are keyed by subset bitmasks: bit ``q`` of a key means the
monomial contains variable ``q``.  Spin configurations are likewise
passed around as masks, with bit ``q`` set when spin ``q`` equals -1
(so mask 0 is the all-plus configuration).  This matches the bit/spin
convention ``z = 1 - 2b`` used by the encoder.

A spin polynomial stores its terms as two read-only arrays in
canonical (degree, qubit list) order, the order HUBO-JSON is written
in: the keys as rows of little-endian bytes (``octets``) and the
couplings as float64 (``coeffs``).  It records where each degree
starts, so a degree cut is a slice of both.  The encoder builds the
arrays directly; a ``{key: coupling}`` mapping is built only when a
caller reads ``terms``.  A 0/1-basis polynomial (``BinaryPolynomial``,
and ``QuboModel`` built on it) stores the same two arrays, and every
stored type passes one check of them (``check_terms``).

The flip kernels read the (term, qubit) pairs of the nonzero key bytes
(``held_qubits``), so their memory follows the held pairs.  Keys and
masks are Python ints wherever they leave the arrays, so nothing here
has a qubit cap; a polynomial enumerated whole (``verify.dense_values``)
is capped at 24 qubits, the 2^24 entries of an exact landscape's table.

HUBO-JSON is written directly, each term's qubit list and coupling
formatted once between fixed pieces of text (``json_objects``), so the
text of a truncation, a prefix of the terms, is a prefix of the same
pieces (``hubo_texts``).
"""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import CfnFormatError

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

# per byte value: its bits reversed (bit 0 to bit 7), and its popcount
_REVERSED_BYTE = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)
_BYTE_DEGREE = np.array([v.bit_count() for v in range(256)], dtype=np.uint8)
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


def octet_width(num_qubits: int) -> int:
    """Bytes per key over ``num_qubits`` qubits."""
    return (num_qubits + 7) // 8


def key_octets(keys: Sequence[int], n: int) -> np.ndarray:
    """``mask_octets`` of keys over ``n`` qubits, raising ``ValueError``
    naming the first key outside ``[0, 2^n)``."""
    if keys and (min(keys) < 0 or max(keys).bit_length() > n):
        raise _outside(next(s for s in keys if s < 0 or s.bit_length() > n), n)
    return mask_octets(keys, octet_width(n))


def check_terms(n: int, octets: np.ndarray, coeffs: np.ndarray) -> None:
    """The one check of stored terms: raise ``ValueError`` unless
    ``octets`` holds one key per coefficient in rows of ``ceil(n / 8)``
    little-endian bytes, every key lies in ``[0, 2^n)`` and every
    coefficient is finite.  The message names the first bad key, and its
    coefficient.  That no key repeats is checked where the keys are
    sorted (``check_distinct``)."""
    if n < 0:
        raise ValueError(f"variable count {n} is negative")
    if coeffs.ndim != 1 or octets.shape != (len(coeffs), octet_width(n)):
        raise ValueError(f"key bytes of shape {octets.shape} do not match {len(coeffs)} couplings over {n} qubits")
    if n % 8 and len(octets):
        beyond = np.flatnonzero(octets[:, -1] >> (n % 8))
        if beyond.size:
            raise _outside(octet_keys(octets[beyond[:1]])[0], n)
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise ValueError(f"non-finite coupling {float(coeffs[bad[0]])} at key {octet_keys(octets[bad[:1]])[0]:#x}")


def check_distinct(rows: np.ndarray) -> None:
    """Raise ``ValueError`` naming a key that two adjacent rows share:
    the keys, as rows of bytes, must be sorted so that equal ones meet.
    Each row is compared as one opaque value of its bytes (with no
    bytes, every key is 0), which is faster than a reduction along it."""
    width = rows.shape[1]
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel() if width else np.zeros(len(rows))
    same = np.flatnonzero(keys[1:] == keys[:-1])
    if same.size:
        raise ValueError(f"term key {octet_keys(rows[same[:1]])[0]:#x} is repeated")


def _outside(key: int, n: int) -> ValueError:
    return ValueError(f"term key {key:#x} references qubits outside [0, {n})")


class StoredTerms:
    """Immutable terms in read-only arrays: keys in rows of little-endian
    bytes (``octets``) and float64 ``coeffs``, row for row.  ``terms`` is
    the same as a read-only ``{key: coefficient}`` mapping, built on first
    read.  Fields are set once, by ``_set``; instances are equal when the
    fields ``__reduce__`` rebuilds them from are."""

    octets: np.ndarray
    coeffs: np.ndarray
    __hash__ = None

    def _set(self, **fields):
        fields["octets"].flags.writeable = False
        fields["coeffs"].flags.writeable = False
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

    @cached_property
    def terms(self) -> Mapping[int, float]:
        """The stored terms as a read-only ``{key: coefficient}`` mapping."""
        return MappingProxyType(dict(zip(octet_keys(self.octets), self.coeffs.tolist())))


class IsingPolynomial(StoredTerms):
    """A real polynomial in +/-1 spin variables, stored sparsely.

    Built from a ``{key: coupling}`` mapping, or from key bytes with
    ``from_octets``.  Zero couplings (below 1e-14 of the largest
    magnitude) are dropped, and the rest are stored in canonical order,
    by (degree, qubit list):

    * ``octets``: read-only (terms x ceil(n / 8)) uint8 matrix whose row
      t holds the t-th key in little-endian bytes;
    * ``coeffs``: read-only float64 couplings, row for row;
    * ``degree_starts[d]``: the row of the first term of degree >= d,
      for d = 0 .. degree + 1, so the degree-d terms are rows
      ``degree_starts[d]:degree_starts[d + 1]``.

    ``terms`` is the same content as a read-only ``{key: coupling}``
    mapping in that order (``StoredTerms``).  Every reduction over
    the terms walks the stored order, so floating-point sums are
    reproducible run to run.  Instances are immutable and safe to share.
    """

    num_qubits: int
    octets: np.ndarray
    coeffs: np.ndarray
    degree_starts: tuple[int, ...]

    def __init__(self, num_qubits: int, terms: Mapping[int, float] | None = None) -> None:
        terms = {} if terms is None else terms
        _canonicalize(self, num_qubits, key_octets(list(terms), num_qubits), np.fromiter(terms.values(), float))

    @classmethod
    def from_octets(cls, num_qubits: int, octets: np.ndarray, coeffs: np.ndarray) -> "IsingPolynomial":
        """The polynomial with distinct keys given as rows of
        little-endian bytes (``ceil(num_qubits / 8)`` columns) and their
        couplings, in any order; a repeated key is a ``ValueError``."""
        return _canonicalize(cls.__new__(cls), num_qubits, np.asarray(octets, np.uint8), np.asarray(coeffs, float))

    def __reduce__(self):
        return _stored, (self.num_qubits, self.octets, self.coeffs, self.degree_starts)

    def __repr__(self) -> str:
        return f"IsingPolynomial(num_qubits={self.num_qubits}, terms={dict(self.terms)!r})"

    @property
    def degree(self) -> int:
        """Largest monomial size among stored terms (0 for constants)."""
        return len(self.degree_starts) - 2

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
        return _stored(self.num_qubits, self.octets[first:stop], self.coeffs[first:stop], kept[: degree + 2])

    def evaluate_mask(self, mask: int) -> float:
        if not (0 <= mask < (1 << self.num_qubits)):
            raise ValueError("configuration mask out of range")
        total = 0.0
        for s, c in self.terms.items():
            total += c if (s & mask).bit_count() % 2 == 0 else -c
        return total


def _stored(n: int, octets: np.ndarray, coeffs: np.ndarray, degree_starts) -> IsingPolynomial:
    """A new polynomial over arrays already in canonical form."""
    return IsingPolynomial.__new__(IsingPolynomial)._set(
        num_qubits=n, octets=octets, coeffs=coeffs, degree_starts=tuple(degree_starts)
    )


def _canonicalize(poly: IsingPolynomial, n: int, octets: np.ndarray, coeffs: np.ndarray) -> IsingPolynomial:
    """Store distinct keys (rows of little-endian bytes) and their
    couplings in ``poly``, in canonical form.

    Checks the arrays (``check_terms``), sorts them
    (``_canonical_order``), checks that no key repeats
    (``check_distinct``), drops the insignificant couplings and records
    where each degree starts.
    """
    check_terms(n, octets, coeffs)
    order, degrees = _canonical_order(octets)
    # fancy indexing copies, so the stored arrays never alias the caller's
    octets, coeffs, degrees = octets[order], coeffs[order], degrees[order]
    check_distinct(octets)
    keep = significant(np.abs(coeffs))
    if not keep.all():
        octets, coeffs, degrees = octets[keep], coeffs[keep], degrees[keep]
    starts = np.searchsorted(degrees, np.arange(degrees.max(initial=0) + 2))
    return poly._set(num_qubits=n, octets=octets, coeffs=coeffs, degree_starts=tuple(starts.tolist()))


def _canonical_order(octets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows that sort keys, given as rows of little-endian bytes, by
    (degree, ascending qubit list), and each key's degree: one
    ``np.lexsort`` over byte columns, at any width.

    Each byte goes through a bit-reversal table, so qubit 0 is the most
    significant bit of column 0 and the columns, first to last, spell
    the key's bit reversal.  Within one degree a smaller qubit list is a
    larger reversal: the first qubit where two lists differ is the
    highest bit where their reversals differ, and only the smaller list
    has it.  So the sort keys are the degree (summed from a popcount
    table), then the complemented columns, first to last.  Memory is one
    byte per key and byte column; no per-bit matrix is unpacked.
    """
    degrees = octet_degrees(octets)
    columns = ~_REVERSED_BYTE[octets]
    return np.lexsort((*columns.T[::-1], degrees)), degrees


class BinaryPolynomial(StoredTerms):
    """A real polynomial in 0/1 variables, stored sparsely: built from a
    ``{key: coefficient}`` mapping, or from key bytes with
    ``from_octets``, and kept in the order given as read-only key bytes
    and float64 coefficients (``StoredTerms``).  Coefficients at most
    1e-14 of the largest magnitude are dropped."""

    num_vars: int

    def __init__(self, num_vars: int, terms: Mapping[int, float] | None = None) -> None:
        terms = {} if terms is None else terms
        self._prune(num_vars, key_octets(list(terms), num_vars), np.fromiter(terms.values(), float))

    @classmethod
    def from_octets(cls, num_vars: int, octets: np.ndarray, coeffs: np.ndarray) -> "BinaryPolynomial":
        """The polynomial with distinct keys given as rows of
        little-endian bytes and their coefficients, kept in that order; a
        repeated key is a ``ValueError``."""
        return cls.__new__(cls)._prune(num_vars, np.asarray(octets, np.uint8), np.asarray(coeffs, float))

    def _prune(self, n: int, octets: np.ndarray, coeffs: np.ndarray) -> "BinaryPolynomial":
        check_terms(n, octets, coeffs)
        check_distinct(octets[_canonical_order(octets)[0]])
        keep = significant(np.abs(coeffs))
        # boolean indexing copies, so the stored arrays never alias the caller's
        return self._set(num_vars=n, octets=octets[keep], coeffs=coeffs[keep])

    def __reduce__(self):
        return BinaryPolynomial.from_octets, (self.num_vars, self.octets, self.coeffs)

    def __repr__(self) -> str:
        return f"BinaryPolynomial(num_vars={self.num_vars}, terms={dict(self.terms)!r})"

    @property
    def degree(self) -> int:
        """Largest monomial size among stored terms (0 for constants)."""
        return int(octet_degrees(self.octets).max(initial=0))

    def evaluate_bits(self, bits: int) -> float:
        """Value at the configuration whose set bits are the 1-valued
        variables, summed in stored order.  A monomial contributes unless
        it uses a 0 variable."""
        total = 0.0
        for s, c in self.terms.items():
            if s & ~bits == 0:
                total += c
        return total


def octet_degrees(octets: np.ndarray) -> np.ndarray:
    """The degree (popcount) of each key, given as a row of bytes."""
    return _BYTE_DEGREE[octets].sum(axis=1, dtype=np.int64)


def mask_octets(masks: Sequence[int], width: int) -> np.ndarray:
    """(len(masks) x width) uint8 matrix of masks below ``2^(8 width)``:
    row t is ``masks[t]`` in little-endian bytes, so column b holds
    qubits 8b to 8b + 7."""
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    return np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)


def random_masks(rng: np.random.Generator, n: int, size: int | None = None):
    """Uniform masks over ``n`` qubits as Python ints (a list when ``size``
    is given), drawn a 64-bit word at a time from the low word; up to 64
    qubits that is the one draw ``rng.integers(0, 1 << n, size)`` makes."""
    masks = [0] * (1 if size is None else size)
    for low in range(0, n, 64):
        words = rng.integers(0, (1 << min(64, n - low)) - 1, size=size, dtype=np.uint64, endpoint=True)
        masks = [m | w << low for m, w in zip(masks, np.ravel(words).tolist())]
    return masks[0] if size is None else masks


def mask_bits(masks, n: int) -> np.ndarray:
    """Boolean (len(masks) x n) matrix of a sequence of masks below
    ``2^n``: entry (t, q) is bit q of ``masks[t]``."""
    return octet_bits(mask_octets(masks, octet_width(n)), n)


def octet_bits(octets: np.ndarray, n: int) -> np.ndarray:
    """Boolean (rows x n) matrix of keys over ``n`` qubits given as rows
    of little-endian bytes: entry (t, q) is bit q of key t."""
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def bit_octets(bits: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix in little-endian bytes; the inverse
    of ``octet_bits``."""
    return np.packbits(bits, axis=1, bitorder="little")


def pack_masks(bits: np.ndarray) -> list[int]:
    """The masks whose bits are the rows of a boolean matrix; the
    inverse of ``mask_bits``."""
    return octet_keys(bit_octets(bits))


def held_qubits(octets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (term, qubit) pairs of keys given as rows of bytes, in the
    order of ``np.nonzero`` of their ``octet_bits``, unpacked from the
    nonzero bytes alone, so memory follows the pairs, not keys x qubits."""
    term, column = np.nonzero(octets)
    slot, bit = np.nonzero(np.unpackbits(octets[term, column][:, None], axis=1, bitorder="little"))
    return term[slot], 8 * column[slot] + bit


def characters(octets: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """(len(masks) x keys) matrix of each key's character at each mask
    (below ``2^(8 width)``): -1.0 where they share an odd number of
    qubits, else 1.0, read off the held pairs (``held_qubits``)."""
    term, qubit = held_qubits(octets)
    shared = mask_bits(masks, 8 * octets.shape[1])[:, qubit]
    # the pairs are key-major, so each key that holds a qubit starts a run
    starts = np.flatnonzero(np.diff(term, prepend=-1))
    odd = np.zeros((len(masks), len(octets)), bool)
    odd[:, term[starts]] = np.bitwise_xor.reduceat(shared, starts, axis=1)
    return np.where(odd, -1.0, 1.0)


def octet_words(octets: np.ndarray) -> np.ndarray:
    """The keys of rows of at most 8 little-endian bytes, as uint64."""
    padded = np.zeros((len(octets), 8), dtype=np.uint8)
    padded[:, : octets.shape[1]] = octets
    return padded.view("<u8").reshape(-1)


def octet_keys(octets: np.ndarray) -> list[int]:
    """The keys of rows of little-endian bytes, as Python ints; the
    inverse of ``mask_octets``."""
    width = octets.shape[1]
    if width <= 8:
        return octet_words(octets).tolist()
    data = octets.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def first_appearance_groups(octets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows: each row's group id, groups numbered in order of
    first appearance, and the row where each group first appears.

    The rows are read as 64-bit words (zero-padded, at least one) and
    sorted with the stable ``np.lexsort``, so a group's first sorted row
    is its first appearance.  ``np.bincount`` over the ids then adds each
    group's weights one by one, in row order."""
    count, width = octets.shape
    padded = np.zeros((count, 8 * max(1, -(-width // 8))), np.uint8)
    padded[:, :width] = octets
    words = padded.view("<u8")
    order = np.lexsort(words.T)
    ranked = words[order]
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

    Each term's qubit list comes from the stored key bytes
    (``_qubit_lists``) and its coupling, a finite float, is written with
    ``float.__repr__`` as ``json`` writes it; both are formatted once,
    into one flat list of pieces (``json_objects``), and each text is
    joined from a prefix of that list.
    """
    pieces = json_objects(
        ('\n      "qubits": [', '\n      ],\n      "coeff": '),
        (_qubit_lists(poly.octets), list(map(float.__repr__, poly.coeffs.tolist()))),
    )
    if poly.degree_starts[1]:
        # the constant is the first term, and its qubit list is empty
        pieces[2] = '],\n      "coeff": '
    header = f'{{\n  "num_qubits": {poly.num_qubits},\n  "terms": ['
    return ["".join([header, *pieces[: 4 * t], json_list_end(t), "\n}\n"]) for t in counts]


def _qubit_lists(octets: np.ndarray) -> list[str]:
    """Each key's qubit indices as indented HUBO-JSON text, each index
    after a newline and every one but the first after its comma,
    assembled a byte column of the keys at a time: a key gathers one
    ``_qubit_table`` entry per nonzero byte."""
    texts = np.full(len(octets), "", dtype=object)
    started = np.zeros(len(octets), np.uint8)
    for b, column in enumerate(octets.T):
        rows = np.flatnonzero(column)
        texts[rows] += _qubit_table(b)[started[rows], column[rows]]
        started[rows] = 1
    return texts.tolist()


@lru_cache(maxsize=None)
def _qubit_table(b: int) -> np.ndarray:
    """Per byte value v at byte position b, the text of qubits 8b to
    8b + 7 that v holds, ascending, each after its comma (row 1), or
    without the first comma for a key's first nonzero byte (row 0)."""
    later = [""] * 256
    for v in range(1, 256):
        low = (v & -v).bit_length() - 1
        later[v] = f",\n        {8 * b + low}" + later[v & (v - 1)]
    return np.array([[text[1:] for text in later], later], dtype=object)


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
    stand for a power).
    """
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CfnFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CfnFormatError("top-level value must be an object")
    n = doc.get("num_qubits")
    if not is_int(n) or n < 0:
        raise CfnFormatError("num_qubits must be a non-negative integer")
    entries = doc.get("terms")
    if not isinstance(entries, list):
        raise CfnFormatError("missing field: terms (a list of term objects)")
    terms: dict[int, float] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "qubits" not in entry or "coeff" not in entry:
            raise CfnFormatError(f"terms[{k}] must be an object with qubits and coeff")
        mask = qubit_mask(entry["qubits"], n, f"terms[{k}].qubits")
        coeff = finite_float(entry["coeff"])
        if coeff is None:
            raise CfnFormatError(f"terms[{k}].coeff must be a finite number")
        if abs(coeff) > MAX_ABS_COST:
            raise CfnFormatError(f"terms[{k}].coeff: {coeff!r} exceeds {MAX_ABS_COST:g} in magnitude")
        total = terms.get(mask, 0.0) + coeff
        if abs(total) > MAX_ABS_COST:
            raise CfnFormatError(
                f"terms[{k}].coeff: the repeated monomial's coefficients sum to {total!r}, "
                f"which exceeds {MAX_ABS_COST:g} in magnitude"
            )
        terms[mask] = total
    return IsingPolynomial(n, terms)


def qubit_mask(qubits, n: int, where: str) -> int:
    """Mask of a JSON qubit list.

    Raises CfnFormatError naming ``where`` unless ``qubits`` is a list
    of integers (not booleans) in ``[0, n)`` with none repeated.
    """
    if not isinstance(qubits, list) or not all(is_int(q) for q in qubits):
        raise CfnFormatError(f"{where} must be a list of qubit indices")
    mask = 0
    for q in qubits:
        if not 0 <= q < n:
            raise CfnFormatError(f"{where}: qubit {q} is outside [0, {n})")
        if (mask >> q) & 1:
            raise CfnFormatError(f"{where}: qubit {q} is repeated")
        mask |= 1 << q
    return mask


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

