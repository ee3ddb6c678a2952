"""Sparse multilinear polynomials over spin and binary variables.

Monomials are keyed by subset bitmasks: bit ``q`` of a key means the
monomial contains variable ``q``.  Spin configurations are likewise
passed around as masks, with bit ``q`` set when spin ``q`` equals -1
(so mask 0 is the all-plus configuration).  This matches the bit/spin
convention ``z = 1 - 2b`` used by the encoder.

Keys and configuration masks are Python ints everywhere, so nothing
here has a qubit cap; the one qubit limit in the package is the 2^24
states of exhaustive enumeration (``verify.dense_values``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .errors import CfnFormatError

__all__ = [
    "IsingPolynomial",
    "BinaryPolynomial",
    "mask_to_string",
    "hubo_to_json",
    "hubo_from_json",
]

RELATIVE_PRUNE_TOL = 1e-14


def mask_to_string(mask: int, n: int) -> str:
    """Render a spin configuration as a '+'/'-' string, qubit 0 first."""
    return "".join("-" if (mask >> q) & 1 else "+" for q in range(n))


def _pruned(terms: Mapping[int, float]) -> dict[int, float]:
    if not terms:
        return {}
    peak = max(abs(c) for c in terms.values())
    tol = RELATIVE_PRUNE_TOL * peak
    return {s: c for s, c in terms.items() if abs(c) > tol}


@dataclass(frozen=True)
class IsingPolynomial:
    """A real polynomial in +/-1 spin variables, stored sparsely.

    ``terms`` maps subset masks to coupling values; zero couplings
    (below 1e-14 of the largest magnitude) are dropped at construction.
    Instances are immutable and safe to share.
    """

    num_qubits: int
    terms: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.num_qubits
        if n < 0:
            raise ValueError(f"num_qubits {n} is negative")
        for s, c in self.terms.items():
            if s < 0 or s.bit_length() > n:
                raise ValueError(f"term key {s:#x} references qubits outside [0, {n})")
            if not math.isfinite(c):
                raise ValueError("non-finite coupling")
        object.__setattr__(self, "terms", _pruned(self.terms))

    @property
    def degree(self) -> int:
        """Largest monomial size among stored terms (0 for constants)."""
        return max((s.bit_count() for s in self.terms), default=0)

    @property
    def constant(self) -> float:
        return self.terms.get(0, 0.0)

    def num_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def term_order(self) -> tuple[int, ...]:
        """Term keys ordered by (degree, qubit list), sorted once per
        instance; the canonical iteration order used by evaluation,
        certification and serialization so floating-point reductions
        are reproducible."""
        return _canonical_order(self.terms)

    def sorted_terms(self) -> Iterator[tuple[int, float]]:
        """(key, coupling) pairs in ``term_order``."""
        terms = self.terms
        for s in self.term_order:
            yield s, terms[s]

    def evaluate_mask(self, mask: int) -> float:
        if not (0 <= mask < (1 << self.num_qubits)):
            raise ValueError("configuration mask out of range")
        total = 0.0
        for s, c in self.sorted_terms():
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


def _canonical_order(terms: Mapping[int, float]) -> tuple[int, ...]:
    """Keys sorted by (degree, ascending qubit list), with no tuple per key.

    Within one degree, a smaller qubit list is a larger bit-reversed
    mask: the first qubit where two lists differ is the highest bit where
    their reversals differ, and only the smaller list has it.  So one
    integer key, degree times 2^width minus the reversal, gives the order.
    """
    width = max((s.bit_length() for s in terms), default=0)
    fmt = f"0{width}b"

    def key(s: int) -> int:
        return (s.bit_count() << width) - int(format(s, fmt)[::-1], 2)

    return tuple(sorted(terms, key=key))


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
        object.__setattr__(self, "terms", _pruned(self.terms))

    @property
    def degree(self) -> int:
        return max((s.bit_count() for s in self.terms), default=0)

    @cached_property
    def term_order(self) -> tuple[int, ...]:
        return _canonical_order(self.terms)

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
    """Serialize to HUBO-JSON: terms sorted by (degree, qubit list).

    Writes the text ``json.dumps(doc, indent=2) + "\n"`` would give for
    the document ``{"num_qubits": n, "terms": [{"qubits": [...],
    "coeff": c}, ...]}``, but directly: with an indent, ``json`` always
    falls back to its pure-Python encoder, which is the slow part of a
    multi-megabyte export.  Coefficients are formatted as ``json`` does.
    """
    items = []
    for s, c in poly.sorted_terms():
        coeff = float.__repr__(c) if type(c) is float else json.dumps(c, allow_nan=False)
        qubits = ",\n        ".join(map(str, qubits_of(s)))
        qubits = f"[\n        {qubits}\n      ]" if s else "[]"
        items.append(f'    {{\n      "qubits": {qubits},\n      "coeff": {coeff}\n    }}')
    head = f'{{\n  "num_qubits": {json.dumps(poly.num_qubits)},\n  "terms": '
    if not items:
        return head + "[]\n}\n"
    return head + "[\n" + ",\n".join(items) + "\n  ]\n}\n"


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

