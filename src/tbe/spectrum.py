"""Per-degree spectral power of an encoded CFN, table by table.

The squared Walsh coefficients of the encoded HUBO, binned by monomial
degree, measure how much of the landscape's variance lives at each
interaction order.  Because unary couplings sit on single registers
and interaction couplings on disjoint two-register subsets, the global
profile is the exact sum of per-table profiles, so the whole spectrum
can be computed from small per-table transforms without assembling the
2^n polynomial: each stack of blocks is binned by one ``np.bincount``
over the degrees of its local subsets.
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
    """Spectral profile straight from the Walsh blocks.

    Bins the squared coefficients of each table by degree (interaction
    modes by the sum of the two register-local degrees, both nonzero),
    a stack at a time (``walsh.squared_mass_by_degree``).  No transform
    is taken and no global mask is formed.
    """
    top = blocks.k_full
    unary = np.zeros((blocks.layout.num_variables, top + 1))
    pairwise = np.zeros((sum(len(stack.tables) for stack in blocks.interaction_stacks), top + 1))
    pairs = np.zeros((len(pairwise), 2), dtype=np.intp)
    for stack in blocks.register_stacks:
        unary[stack.registers] = squared_mass_by_degree(stack.coeffs, subset_degrees(stack.width)[1:], top)
    for stack in blocks.interaction_stacks:
        wi, wj = stack.widths
        # interaction coeffs[s, tj - 1, ti - 1] has degree |ti| + |tj|
        degrees = subset_degrees(wj)[1:, None] + subset_degrees(wi)[1:]
        pairwise[stack.tables] = squared_mass_by_degree(stack.coeffs, degrees, top)
        pairs[stack.tables] = stack.pairs

    # the tables' bins added one table at a time: registers, then pairs in file order
    global_bins = np.cumsum(np.concatenate([np.zeros((1, top + 1)), unary, pairwise]), axis=0)[-1]
    global_bins[0] = blocks.constant**2

    return SpectralProfile(
        per_degree_power=tuple(global_bins.tolist()),
        per_table_unary=tuple(map(tuple, unary.tolist())),
        per_table_pairwise=tuple((i, j, tuple(bins)) for (i, j), bins in zip(pairs.tolist(), pairwise.tolist())),
    )


def spectrum_csv(profile: SpectralProfile) -> str:
    """CSV rendering: one row per degree with unary/pairwise split."""
    lines = ["k,P_k,P_k_unary,P_k_pairwise"]
    for k, pk in enumerate(profile.per_degree_power):
        # no table has mass at degree 0, so its split reads 0.0 there
        lines.append(f"{k},{pk:.17e},{profile.unary_power(k):.17e},{profile.pairwise_power(k):.17e}")
    return "\n".join(lines) + "\n"
