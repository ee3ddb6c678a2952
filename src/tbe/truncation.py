"""Degree truncation of spin polynomials and its error certificate.

Dropping every monomial above a cutoff degree is an orthogonal
projection onto the low-degree subspace, because spin monomials are
exactly the Walsh basis.  The certificate bounds the worst-case
pointwise deviation by the l1 norm of the dropped couplings, records
the l2 (typical-amplitude) residual, and reports the noise-floor
ratios used to judge whether the dropped mass is perturbative.
The kept and dropped terms are a prefix and a suffix of the stored
order (``IsingPolynomial.degree_starts``), so all of this is slices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .polynomial import IsingPolynomial

__all__ = [
    "TruncationCertificate",
    "truncate",
    "residual",
    "certify",
    "certificate_doc",
    "certificate_json",
    "noise_floor_ok",
]


@dataclass(frozen=True)
class TruncationCertificate:
    """One-pass summary of what a degree cutoff discards.

    ``epsilon`` is the l1 norm of omitted couplings (a sound bound on
    the pointwise truncation error anywhere on the hypercube);
    ``l2_residual`` is the root of the omitted squared mass.  The two
    ratio fields compare omitted to kept power, the strong variant
    additionally scaled by n / k_max; both exclude the constant term.
    ``common_sign_saturation`` marks certificates whose bound is
    attained exactly at the all-plus configuration because every
    omitted coupling shares one sign (vacuously true when nothing is
    omitted).
    """

    k_max: int
    num_qubits: int
    epsilon: float
    l2_residual: float
    power_below: float
    power_above: float
    omitted_nonzero: int
    omitted_combinatorial: int
    weak_noise_floor_ratio: float | None
    strong_noise_floor_margin: float | None
    common_sign_saturation: bool


def _checked(k_max: int) -> int:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return k_max


def _cut(poly: IsingPolynomial, k_max: int) -> int:
    """Stored position of the first term above degree ``k_max``."""
    return poly.degree_starts[min(_checked(k_max) + 1, poly.degree + 1)]


def truncate(poly: IsingPolynomial, k_max: int) -> IsingPolynomial:
    """Drop all monomials of degree above ``k_max``.

    The kept terms are a prefix of the stored arrays, so coefficients
    are carried over bit-identically and nothing is sorted again.
    """
    return poly.between_degrees(0, _checked(k_max))


def residual(poly: IsingPolynomial, k_max: int) -> IsingPolynomial:
    """Exactly the dropped terms: truncate + residual == poly termwise."""
    return poly.between_degrees(_checked(k_max) + 1, poly.degree)


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, as a loop adds (``np.sum`` pairs up)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def certify(poly: IsingPolynomial, k_max: int) -> TruncationCertificate:
    """Certificate for truncating ``poly`` at ``k_max``.

    Kept non-constant and omitted couplings are two slices of the stored
    coefficients; each sum runs in stored (canonical) order.
    """
    cut = _cut(poly, k_max)
    n = poly.num_qubits
    coeffs = poly.coeffs
    kept = coeffs[poly.degree_starts[1] : cut]
    omitted = coeffs[cut:]
    power_below = _sum_in_order(kept * kept)
    power_above = _sum_in_order(omitted * omitted)
    epsilon = _sum_in_order(np.abs(omitted))

    kept_modes = sum(math.comb(n, k) for k in range(0, min(k_max, n) + 1))
    combinatorial = (1 << n) - kept_modes

    if power_above == 0.0:
        weak: float | None = 0.0
    elif power_below > 0.0:
        weak = power_above / power_below
    else:
        weak = None
    strong = None if weak is None or n == 0 else weak * n / k_max

    return TruncationCertificate(
        k_max=k_max,
        num_qubits=n,
        epsilon=epsilon,
        l2_residual=math.sqrt(power_above),
        power_below=power_below,
        power_above=power_above,
        omitted_nonzero=len(omitted),
        omitted_combinatorial=combinatorial,
        weak_noise_floor_ratio=weak,
        strong_noise_floor_margin=strong,
        common_sign_saturation=not ((omitted > 0).any() and (omitted < 0).any()),
    )


# the least int of 4301 digits: past Python's default limit on an
# int's decimal text, ``json`` refuses to write it
_INT_TEXT_LIMIT = 10**4300


def certificate_doc(cert: TruncationCertificate) -> dict:
    """The certificate's JSON document, which ``certificate_json`` writes
    and a compile report carries as its ``certificate`` block.

    ``omitted_combinatorial``, 2^n minus the modes kept, is a JSON number
    while it has at most 4300 digits (at k_max 3, up to 14 284 qubits),
    and past that a JSON string of its exact decimal digits.  ``decimal``
    converts it, as the process-wide int-to-text limit does not apply
    there."""
    combinatorial = cert.omitted_combinatorial
    return {
        "k_max": cert.k_max,
        "epsilon": cert.epsilon,
        "l2_residual": cert.l2_residual,
        "P_below": cert.power_below,
        "P_above": cert.power_above,
        "omitted_nonzero": cert.omitted_nonzero,
        "omitted_combinatorial": combinatorial if combinatorial < _INT_TEXT_LIMIT else str(Decimal(combinatorial)),
        "weak_ratio": cert.weak_noise_floor_ratio,
        "strong_margin": cert.strong_noise_floor_margin,
        "common_sign_saturation": cert.common_sign_saturation,
    }


def certificate_json(cert: TruncationCertificate, doc: dict | None = None) -> str:
    """The certificate as ``json.dumps(certificate_doc(cert), indent=2)``
    writes it, with a final newline; ``doc``, when given, is that
    ``certificate_doc(cert)``, already built."""
    return json.dumps(certificate_doc(cert) if doc is None else doc, indent=2, allow_nan=False) + "\n"


def noise_floor_ok(
    cert: TruncationCertificate,
    weak_threshold: float = 0.1,
    strong_threshold: float = 0.1,
) -> tuple[bool, bool]:
    """(weak, strong) pass flags against configurable thresholds.

    A ratio of None (no kept power to compare against) fails unless
    nothing was omitted at all.
    """
    if cert.power_above == 0.0:
        return True, True
    weak = cert.weak_noise_floor_ratio
    strong = cert.strong_noise_floor_margin
    return weak is not None and weak <= weak_threshold, strong is not None and strong <= strong_threshold
