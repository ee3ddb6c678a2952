"""Sparse multilinear polynomials over spin and binary variables.

Monomials are keyed by subset bitmasks: bit ``q`` of a key means the
monomial contains variable ``q``.  Spin configurations are likewise
passed around as masks, with bit ``q`` set when spin ``q`` equals -1
(so mask 0 is the all-plus configuration).  This matches the bit/spin
convention ``z = 1 - 2b`` used by the encoder.  A spin polynomial
stores its terms, read-only, in canonical (degree, qubit list) order,
the order HUBO-JSON is written in.

Keys and configuration masks are Python ints everywhere, so nothing
here has a qubit cap; the one qubit limit in the package is the 2^24
states of exhaustive enumeration (``verify.dense_values``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CfnFormatError

__all__ = [
    "IsingPolynomial",
    "BinaryPolynomial",
    "mask_to_string",
    "hubo_to_json",
    "hubo_from_json",
]

RELATIVE_PRUNE_TOL = 1e-14

# per byte value: its bits reversed (bit 0 to bit 7), and its popcount
_REVERSED_BYTE = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)
_BYTE_DEGREE = np.array([v.bit_count() for v in range(256)], dtype=np.uint8)
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def mask_to_string(mask: int, n: int) -> str:
    """Render a spin configuration as a '+'/'-' string, qubit 0 first."""
    return "".join("-" if (mask >> q) & 1 else "+" for q in range(n))


def _significant(magnitudes: np.ndarray) -> np.ndarray:
    """Which magnitudes exceed 1e-14 of the largest."""
    return magnitudes > RELATIVE_PRUNE_TOL * magnitudes.max(initial=0.0)


@dataclass(frozen=True)
class IsingPolynomial:
    """A real polynomial in +/-1 spin variables, stored sparsely.

    ``terms`` maps subset masks to coupling values; zero couplings
    (below 1e-14 of the largest magnitude) are dropped at construction,
    and the rest are stored in canonical order, by (degree, qubit list),
    in a read-only mapping.  Every reduction over the terms walks that
    order, so floating-point sums are reproducible run to run.  The
    stored values are the caller's own objects.  Instances are immutable
    and safe to share.
    """

    num_qubits: int
    terms: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.num_qubits
        if n < 0:
            raise ValueError(f"num_qubits {n} is negative")
        keys = list(self.terms)
        values = list(self.terms.values())
        if keys and (min(keys) < 0 or max(keys).bit_length() > n):
            s = next(s for s in keys if s < 0 or s.bit_length() > n)
            raise ValueError(f"term key {s:#x} references qubits outside [0, {n})")
        magnitudes = np.abs(np.fromiter(values, float, len(values)))
        if not np.isfinite(magnitudes).all():
            raise ValueError("non-finite coupling")
        order = _canonical_order(keys)
        order = order[_significant(magnitudes)[order]].tolist()
        terms = dict(zip(map(keys.__getitem__, order), map(values.__getitem__, order)))
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from a plain dict
        return type(self), (self.num_qubits, dict(self.terms))

    @property
    def degree(self) -> int:
        """Largest monomial size among stored terms (0 for constants)."""
        return next(reversed(self.terms), 0).bit_count()

    @property
    def constant(self) -> float:
        return self.terms.get(0, 0.0)

    def num_terms(self) -> int:
        return len(self.terms)

    def evaluate_mask(self, mask: int) -> float:
        if not (0 <= mask < (1 << self.num_qubits)):
            raise ValueError("configuration mask out of range")
        total = 0.0
        for s, c in self.terms.items():
            total += c if (s & mask).bit_count() % 2 == 0 else -c
        return total

    def shifted(self, offset: int, num_qubits: int) -> "IsingPolynomial":
        """Re-index all variables by ``offset`` into a wider space."""
        return IsingPolynomial(num_qubits, {s << offset: c for s, c in self.terms.items()})

    def __add__(self, other: "IsingPolynomial") -> "IsingPolynomial":
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit counts differ")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0.0) + c
        return IsingPolynomial(self.num_qubits, out)

    def variance(self) -> float:
        """Variance over the uniform hypercube: sum of squared
        non-constant couplings."""
        return sum(c * c for s, c in self.terms.items() if s != 0)


def mask_octets(masks: Sequence[int], width: int) -> np.ndarray:
    """(len(masks) x width) uint8 matrix of masks below ``2^(8 width)``:
    row t is ``masks[t]`` in little-endian bytes, so column b holds
    qubits 8b to 8b + 7."""
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    return np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)


def _canonical_order(keys: Sequence[int]) -> np.ndarray:
    """Positions that sort ``keys`` by (degree, ascending qubit list):
    one ``np.lexsort`` over byte columns, at any width.

    Each key is written in little-endian bytes and each byte goes
    through a bit-reversal table, so qubit 0 is the most significant bit
    of column 0 and the columns, first to last, spell the key's bit
    reversal.  Within one degree a smaller qubit list is a larger
    reversal: the first qubit where two lists differ is the highest bit
    where their reversals differ, and only the smaller list has it.  So
    the sort keys are the degree (summed from a popcount table), then
    the complemented columns, first to last.  Memory is one byte per
    key and byte column; no per-bit matrix is unpacked.
    """
    if not keys:
        return np.zeros(0, dtype=np.intp)
    octets = mask_octets(keys, (max(keys).bit_length() + 7) // 8)
    degree = _BYTE_DEGREE[octets].sum(axis=1, dtype=np.int64)
    columns = ~_REVERSED_BYTE[octets]
    return np.lexsort((*columns.T[::-1], degree))


def qubits_of(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class BinaryPolynomial:
    """A real polynomial in 0/1 variables, stored sparsely by mask."""

    num_vars: int
    terms: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        limit = 1 << self.num_vars
        for s in self.terms:
            if not (0 <= s < limit):
                raise ValueError(f"term key {s:#x} references variables outside [0, {self.num_vars})")
        values = list(self.terms.values())
        keep = _significant(np.abs(np.fromiter(values, float, len(values)))).tolist()
        terms = {s: c for (s, c), k in zip(self.terms.items(), keep) if k}
        object.__setattr__(self, "terms", terms)

    @property
    def degree(self) -> int:
        return max((s.bit_count() for s in self.terms), default=0)

    # terms keep insertion order, in which quadratize sums its penalty
    @cached_property
    def term_order(self) -> tuple[int, ...]:
        keys = list(self.terms)
        return tuple(map(keys.__getitem__, _canonical_order(keys).tolist()))

    def sorted_terms(self) -> Iterator[tuple[int, float]]:
        terms = self.terms
        for s in self.term_order:
            yield s, terms[s]

    def evaluate_bits(self, bits: int) -> float:
        """Value at the configuration whose set bits are the 1-valued
        variables.  A monomial contributes unless it uses a 0 variable."""
        total = 0.0
        for s, c in self.sorted_terms():
            if s & ~bits == 0:
                total += c
        return total


def hubo_to_json(poly: IsingPolynomial) -> str:
    """Serialize to HUBO-JSON, terms in their stored (canonical) order.

    Writes the text ``json.dumps(doc, indent=2) + "\n"`` would give for
    the document ``{"num_qubits": n, "terms": [{"qubits": [...],
    "coeff": c}, ...]}``, but directly: with an indent, ``json`` always
    falls back to its pure-Python encoder, which is the slow part of a
    multi-megabyte export.  Qubit lists come from byte tables
    (``_qubit_lists``); coefficients are formatted as ``json`` does
    (``json_numbers``).
    """
    # every index follows its separator, so q[1:] cuts the leading comma
    items = [
        f'    {{\n      "qubits": [{q[1:]}\n      ],\n      "coeff": {c}\n    }}' if q
        else f'    {{\n      "qubits": [],\n      "coeff": {c}\n    }}'
        for q, c in zip(_qubit_lists(poly), json_numbers(poly.terms.values()))
    ]
    return f'{{\n  "num_qubits": {json.dumps(poly.num_qubits)},\n  "terms": {json_array(items)}\n}}\n'


def _qubit_lists(poly: IsingPolynomial) -> list[str]:
    """Each term's qubit indices as indented HUBO-JSON text, every index
    after its comma, assembled a byte column of the keys at a time.

    Byte position b has a 256-entry table, built once per call, of the
    text of qubits 8b to 8b + 7 for each byte value; a key gathers one
    entry per nonzero byte.
    """
    keys = list(poly.terms)
    octets = mask_octets(keys, (poly.num_qubits + 7) // 8)
    texts = np.full(len(keys), "", dtype=object)
    for b, column in enumerate(octets.T):
        pieces = [f",\n        {8 * b + q}" for q in range(8)]
        table = np.array(
            ["".join(p for q, p in enumerate(pieces) if v >> q & 1) for v in range(256)], dtype=object
        )
        rows = np.flatnonzero(column)
        texts[rows] += table[column[rows]]
    return texts.tolist()


def json_array(items: list[str]) -> str:
    """A top-level field's list, as ``json.dumps(indent=2)`` writes it
    around items already indented to depth 2."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def json_numbers(values: Iterable) -> list[str]:
    """Each value as ``json.dumps(value, allow_nan=False)`` writes it,
    raising ``ValueError`` on a non-finite one as ``json`` does.

    ``json`` formats a float with ``float.__repr__``, so a list of
    finite floats (the usual case) takes one ``map``.
    """
    values = list(values)
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # an int among them
        texts = None
    if texts is None or not _NON_FINITE.isdisjoint(texts):
        texts = [json.dumps(c, allow_nan=False) for c in values]
    return texts


def hubo_from_json(data: bytes | str) -> IsingPolynomial:
    """Parse HUBO-JSON into a polynomial; repeated monomials add up.

    Raises CfnFormatError naming the field, and the term index, on
    invalid JSON, a missing or mistyped field, a non-finite coefficient,
    or a qubit that is negative, out of range or repeated within its
    term (z * z = 1, so a repeat cannot stand for a power).
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
        terms[mask] = terms.get(mask, 0.0) + coeff
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

