"""Sparse multilinear polynomials over spin and binary variables.

Monomials are keyed by subset bitmasks: bit ``q`` of a key means the
monomial contains variable ``q``.  Spin configurations are likewise
passed around as masks, with bit ``q`` set when spin ``q`` equals -1
(so mask 0 is the all-plus configuration).  This matches the bit/spin
convention ``z = 1 - 2b`` used by the encoder.

``IsingPolynomial`` is capped at 64 variables so every subset fits a
machine word; this is a documented desk-scale limit, not a silent
truncation.  ``BinaryPolynomial`` (the 0/1-variable form used during
quadratization, where ancilla counts can exceed 64) has no such cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .errors import CapacityError, CfnFormatError

__all__ = [
    "IsingPolynomial",
    "BinaryPolynomial",
    "evaluate_ising",
    "spins_to_mask",
    "mask_to_spins",
    "mask_to_string",
    "hubo_to_json",
    "hubo_from_json",
    "hubo_to_text",
]

MAX_QUBITS = 64
RELATIVE_PRUNE_TOL = 1e-14


def spins_to_mask(spins: Sequence[int]) -> int:
    """Pack a +/-1 spin vector into a mask (bit set where spin is -1)."""
    mask = 0
    for q, z in enumerate(spins):
        if z == -1:
            mask |= 1 << q
        elif z != 1:
            raise ValueError(f"spin value {z!r} at position {q} is not +1/-1")
    return mask


def mask_to_spins(mask: int, n: int) -> tuple[int, ...]:
    return tuple(-1 if (mask >> q) & 1 else 1 for q in range(n))


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
        if not (0 <= self.num_qubits <= MAX_QUBITS):
            raise CapacityError(
                f"num_qubits {self.num_qubits} exceeds the {MAX_QUBITS}-qubit bitmask capacity"
            )
        limit = 1 << self.num_qubits
        for s, c in self.terms.items():
            if not (0 <= s < limit):
                raise ValueError(f"term key {s:#x} references qubits outside [0, {self.num_qubits})")
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

    def evaluate(self, spins: Sequence[int]) -> float:
        if len(spins) != self.num_qubits:
            raise ValueError(f"spin vector length {len(spins)} != {self.num_qubits}")
        return self.evaluate_mask(spins_to_mask(spins))

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


def evaluate_ising(poly: IsingPolynomial, spins: Sequence[int]) -> float:
    """Value of the polynomial at a +/-1 spin vector."""
    return poly.evaluate(spins)


def _canonical_order(terms: Mapping[int, float]) -> tuple[int, ...]:
    return tuple(sorted(terms, key=lambda s: (s.bit_count(), _qubits(s))))


def _qubits(mask: int) -> tuple[int, ...]:
    out = []
    q = 0
    while mask:
        if mask & 1:
            out.append(q)
        mask >>= 1
        q += 1
    return tuple(out)


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
    """Serialize to HUBO-JSON: terms sorted by (degree, qubit list)."""
    doc = {
        "num_qubits": poly.num_qubits,
        "terms": [
            {"qubits": list(_qubits(s)), "coeff": c} for s, c in poly.sorted_terms()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


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
    if not _is_int(n) or n < 0:
        raise CfnFormatError("num_qubits must be a non-negative integer")
    if n > MAX_QUBITS:
        raise CapacityError(f"num_qubits {n} exceeds the {MAX_QUBITS}-qubit bitmask capacity")
    entries = doc.get("terms")
    if not isinstance(entries, list):
        raise CfnFormatError("missing field: terms (a list of term objects)")
    terms: dict[int, float] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "qubits" not in entry or "coeff" not in entry:
            raise CfnFormatError(f"terms[{k}] must be an object with qubits and coeff")
        qubits = entry["qubits"]
        if not isinstance(qubits, list) or not all(_is_int(q) for q in qubits):
            raise CfnFormatError(f"terms[{k}].qubits must be a list of qubit indices")
        mask = 0
        for q in qubits:
            if not 0 <= q < n:
                raise CfnFormatError(f"terms[{k}].qubits: qubit {q} is outside [0, {n})")
            if (mask >> q) & 1:
                raise CfnFormatError(f"terms[{k}].qubits: qubit {q} is repeated")
            mask |= 1 << q
        coeff = _finite_float(entry["coeff"])
        if coeff is None:
            raise CfnFormatError(f"terms[{k}].coeff must be a finite number")
        terms[mask] = terms.get(mask, 0.0) + coeff
    return IsingPolynomial(n, terms)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_float(value) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = float(value)
    except OverflowError:
        return None
    return out if math.isfinite(out) else None


def hubo_to_text(poly: IsingPolynomial) -> str:
    """Plain-text form: one term per line, ``coeff q1 q2 ... qk``; the
    constant term has an empty qubit list."""
    lines = []
    for s, c in poly.sorted_terms():
        qubits = " ".join(str(q) for q in _qubits(s))
        lines.append(f"{c!r} {qubits}".rstrip())
    return "\n".join(lines) + "\n"
