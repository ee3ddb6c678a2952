"""Per-degree spectral power of an encoded CFN, table by table.

The squared Walsh coefficients of the encoded HUBO, binned by monomial
degree, measure how much of the landscape's variance lives at each
interaction order.  Because unary couplings sit on single registers
and interaction couplings on disjoint two-register subsets, the global
profile is the exact sum of per-table profiles, so the whole spectrum
can be computed from small per-table transforms without assembling the
2^n polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfn import Cfn
from .encoding import EncodingLayout, k_full, walsh_blocks
from .polynomial import IsingPolynomial

__all__ = ["SpectralProfile", "table_spectrum", "profile_of_polynomial", "spectrum_csv"]


@dataclass(frozen=True)
class SpectralProfile:
    """Degree-binned squared coupling mass and its per-table split.

    Index k of each tuple is the total squared coupling at monomial
    degree k; ``per_degree_power[0]`` is the squared constant.  For
    k >= 1 the global entry equals the sum of all per-table entries.
    """

    num_qubits: int
    per_degree_power: tuple[float, ...]
    per_table_unary: tuple[tuple[float, ...], ...]
    per_table_pairwise: tuple[tuple[int, int, tuple[float, ...]], ...]

    @property
    def max_degree(self) -> int:
        return len(self.per_degree_power) - 1

    def cumulative_below(self, k_max: int) -> float:
        """Total power at degrees 1..k_max (the constant never counts)."""
        return float(sum(self.per_degree_power[1 : k_max + 1]))

    def unary_power(self, k: int) -> float:
        return float(sum(t[k] for t in self.per_table_unary))

    def pairwise_power(self, k: int) -> float:
        return float(sum(t[2][k] for t in self.per_table_pairwise))


def table_spectrum(cfn: Cfn, layout: EncodingLayout) -> SpectralProfile:
    """Spectral profile straight from the per-table Walsh blocks.

    Bins the squared coefficients of each block of ``walsh_blocks`` by
    degree (interaction modes by the sum of the two register-local
    degrees, both nonzero).  No global mask is formed.
    """
    top = k_full(cfn, layout)
    constant, registers, interactions = walsh_blocks(cfn, layout)

    # c**2 (libm pow) and c * c can differ in the last bit; the CSV keeps
    # the pow rounding so its bytes stay those of earlier releases
    unary_profiles = []
    for coeffs in registers:
        bins = [0.0] * (top + 1)
        for t, c in enumerate(coeffs.tolist(), 1):
            bins[t.bit_count()] += c**2
        unary_profiles.append(tuple(bins))

    pairwise_profiles = []
    for i, j, coeffs in interactions:
        bins = [0.0] * (top + 1)
        for tj, row in enumerate(coeffs.tolist(), 1):
            dj = tj.bit_count()
            for ti, c in enumerate(row, 1):
                bins[ti.bit_count() + dj] += c**2
        pairwise_profiles.append((i, j, tuple(bins)))

    global_bins = [0.0] * (top + 1)
    global_bins[0] = constant**2
    for bins in unary_profiles + [bins for _, _, bins in pairwise_profiles]:
        for k in range(1, top + 1):
            global_bins[k] += bins[k]

    return SpectralProfile(
        num_qubits=layout.total_qubits,
        per_degree_power=tuple(global_bins),
        per_table_unary=tuple(unary_profiles),
        per_table_pairwise=tuple(pairwise_profiles),
    )


def profile_of_polynomial(poly: IsingPolynomial) -> tuple[float, ...]:
    """Degree-binned squared couplings of an explicit polynomial."""
    bins = [0.0] * (poly.degree + 1)
    for s, c in poly.sorted_terms():
        bins[s.bit_count()] += c * c
    return tuple(bins)


def spectrum_csv(profile: SpectralProfile) -> str:
    """CSV rendering: one row per degree with unary/pairwise split."""
    lines = ["k,P_k,P_k_unary,P_k_pairwise"]
    for k in range(len(profile.per_degree_power)):
        pk = profile.per_degree_power[k]
        pu = profile.unary_power(k) if k >= 1 else 0.0
        pp = profile.pairwise_power(k) if k >= 1 else 0.0
        lines.append(f"{k},{pk:.17e},{pu:.17e},{pp:.17e}")
    return "\n".join(lines) + "\n"
