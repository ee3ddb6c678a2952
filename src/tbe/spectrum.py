"""Per-degree spectral power of an encoded CFN, table by table.

The squared Walsh coefficients of the encoded HUBO, binned by monomial
degree, measure how much of the landscape's variance lives at each
interaction order.  Because unary couplings sit on single registers
and interaction couplings on disjoint two-register subsets, the global
profile is the exact sum of per-table profiles, so the whole spectrum
can be computed from small per-table transforms without assembling the
2^n polynomial: each block is binned by one ``np.bincount`` over the
degrees of its local subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import WalshBlocks
from .walsh import squared_mass_by_degree, subset_degrees

__all__ = ["SpectralProfile", "table_spectrum", "spectrum_csv"]


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

    def unary_power(self, k: int) -> float:
        return float(sum(t[k] for t in self.per_table_unary))

    def pairwise_power(self, k: int) -> float:
        return float(sum(t[2][k] for t in self.per_table_pairwise))


def table_spectrum(blocks: WalshBlocks) -> SpectralProfile:
    """Spectral profile straight from the per-table Walsh blocks.

    Bins the squared coefficients of each of ``blocks`` by degree
    (interaction modes by the sum of the two register-local degrees,
    both nonzero).  No transform is taken and no global mask is formed.
    """
    top = blocks.k_full
    degrees = [subset_degrees(width)[1:] for width in blocks.layout.register_widths]
    unary_profiles = [squared_mass_by_degree(coeffs, d, top) for d, coeffs in zip(degrees, blocks.registers)]
    # interaction coeffs[tj - 1, ti - 1] has degree |ti| + |tj|
    pairwise_profiles = [
        (i, j, squared_mass_by_degree(coeffs, degrees[j][:, None] + degrees[i], top))
        for i, j, coeffs in blocks.interactions
    ]

    global_bins = np.zeros(top + 1)
    for bins in unary_profiles + [bins for _, _, bins in pairwise_profiles]:
        global_bins += bins
    global_bins[0] = blocks.constant**2

    return SpectralProfile(
        num_qubits=blocks.layout.total_qubits,
        per_degree_power=tuple(global_bins.tolist()),
        per_table_unary=tuple(unary_profiles),
        per_table_pairwise=tuple(pairwise_profiles),
    )


def spectrum_csv(profile: SpectralProfile) -> str:
    """CSV rendering: one row per degree with unary/pairwise split."""
    lines = ["k,P_k,P_k_unary,P_k_pairwise"]
    for k, pk in enumerate(profile.per_degree_power):
        # no table has mass at degree 0, so its split reads 0.0 there
        lines.append(f"{k},{pk:.17e},{profile.unary_power(k):.17e},{profile.pairwise_power(k):.17e}")
    return "\n".join(lines) + "\n"
