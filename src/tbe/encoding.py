"""Exact binary encoding of a CFN into a spin-basis HUBO.

Each variable of cardinality d occupies a register of ceil(log2 d)
qubits; choice c (1-based) is assigned a bitstring, and bit b maps to
spin z = 1 - 2b, so bit 0 corresponds to spin +1.  Encoding computes
the HUBO couplings directly as Walsh transforms of the (policy-
extended) cost tables on their register sub-hypercubes: unary tables
produce couplings supported on one register, interaction tables on
exactly two, and nothing spans three or more.

Registers whose cardinality is not a power of two leave unused
bitstrings.  Two policies are supported: ``Fallback`` gives unused
patterns the cost of a designated choice (so decoding them is
harmless), ``Penalty`` charges a constant weight on unused patterns
and leaves interactions at zero there.  The marginals of each
(extended) interaction grid are absorbed into the register tables
before transforming, which keeps interaction couplings supported on
exactly two registers and makes the per-table spectral decomposition
exact; ``walsh_blocks`` is the one place these transforms are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cfn import Cfn
from .errors import CfnFormatError
from .polynomial import IsingPolynomial
from .walsh import fwht

__all__ = [
    "Fallback",
    "Penalty",
    "EncodingLayout",
    "build_layout",
    "default_penalty_weight",
    "bitstring_indicator",
    "indicator_expansion",
    "walsh_blocks",
    "encode",
    "decode",
    "spin_image",
    "k_full",
]


@dataclass(frozen=True)
class Fallback:
    """Unused bitstrings cost the same as a designated choice.

    ``choice`` is 1-based; None selects each register's last valid
    choice.
    """

    choice: int | None = None


@dataclass(frozen=True)
class Penalty:
    """Unused bitstrings carry a flat positive cost.

    ``weight`` of None defers to ``default_penalty_weight`` at encode
    time.
    """

    weight: float | None = None

    def __post_init__(self) -> None:
        if self.weight is not None and self.weight < 0:
            raise ValueError("penalty weight must be >= 0")


@dataclass(frozen=True)
class EncodingLayout:
    """Register geometry plus the choice-to-bitstring maps.

    ``assignments[i][c-1]`` is the bitstring (as an int, bit q = qubit
    q of the register) encoding choice c of variable i.
    """

    register_widths: tuple[int, ...]
    register_offsets: tuple[int, ...]
    total_qubits: int
    assignments: tuple[tuple[int, ...], ...]
    unused_policy: Fallback | Penalty

    def __post_init__(self) -> None:
        for i, width in enumerate(self.register_widths):
            seen = set()
            for c, bits in enumerate(self.assignments[i]):
                if not (0 <= bits < (1 << width)):
                    raise CfnFormatError(
                        f"custom bitstring of wrong length: variable {i} choice {c + 1}"
                    )
                if bits in seen:
                    raise CfnFormatError(f"non-injective custom map for variable {i}")
                seen.add(bits)

    @property
    def num_variables(self) -> int:
        return len(self.register_widths)

    def cardinality(self, var: int) -> int:
        return len(self.assignments[var])

    def num_unused(self, var: int) -> int:
        return (1 << self.register_widths[var]) - self.cardinality(var)

    def fallback_choice(self, var: int) -> int:
        policy = self.unused_policy
        if isinstance(policy, Fallback) and policy.choice is not None:
            return policy.choice
        return self.cardinality(var)

    def register_mask(self, var: int) -> int:
        return ((1 << self.register_widths[var]) - 1) << self.register_offsets[var]


def _binary_assignment(card: int) -> tuple[int, ...]:
    return tuple(c for c in range(card))


def _gray_assignment(card: int) -> tuple[int, ...]:
    return tuple(c ^ (c >> 1) for c in range(card))


def build_layout(
    cfn: Cfn,
    strategy: str | Sequence[Sequence[int]] = "binary",
    unused_policy: Fallback | Penalty | None = None,
) -> EncodingLayout:
    """Lay out registers and bitstring assignments for a CFN.

    ``strategy`` is "binary" (choice c gets the bits of c-1), "gray"
    (reflected binary code of c-1), or an explicit per-variable list of
    bitstrings, one per choice.
    """
    if unused_policy is None:
        unused_policy = Fallback()
    widths = []
    offsets = []
    assignments = []
    total = 0
    for i, v in enumerate(cfn.variables):
        width = max(v.cardinality - 1, 0).bit_length()
        if isinstance(strategy, str):
            if strategy == "binary":
                bits = _binary_assignment(v.cardinality)
            elif strategy == "gray":
                bits = _gray_assignment(v.cardinality)
            else:
                raise ValueError(f"unknown assignment strategy {strategy!r}")
        else:
            if len(strategy) != cfn.num_variables:
                raise CfnFormatError("custom assignment needs one map per variable")
            bits = tuple(int(b) for b in strategy[i])
            if len(bits) != v.cardinality:
                raise CfnFormatError(f"custom map for variable {i} must cover every choice")
        widths.append(width)
        offsets.append(total)
        assignments.append(bits)
        total += width
    if isinstance(unused_policy, Fallback) and unused_policy.choice is not None:
        for i, v in enumerate(cfn.variables):
            if (1 << widths[i]) - v.cardinality > 0 and not (1 <= unused_policy.choice <= v.cardinality):
                raise CfnFormatError(
                    f"fallback choice {unused_policy.choice} out of range for variable {i}"
                )
    return EncodingLayout(
        register_widths=tuple(widths),
        register_offsets=tuple(offsets),
        total_qubits=total,
        assignments=tuple(assignments),
        unused_policy=unused_policy,
    )


def default_penalty_weight(cfn: Cfn) -> float:
    """Twice the spread of an exact per-table bound on CFN values, plus one."""
    hi = 0.0
    lo = 0.0
    for table in cfn.unary_tables:
        if table:
            hi += max(table)
            lo += min(table)
    for t in cfn.pairwise_tables:
        hi += max(t.costs)
        lo += min(t.costs)
    return 2.0 * (hi - lo) + 1.0


def bitstring_indicator(width: int, bits: int) -> IsingPolynomial:
    """Polynomial over one register that is 1 exactly at ``bits``.

    Expanding the product of per-qubit literals gives one term per
    qubit subset with coefficient +/- 2^-width.
    """
    scale = 1.0 / (1 << width)
    terms = {
        t: (-scale if (bits & t).bit_count() % 2 else scale) for t in range(1 << width)
    }
    return IsingPolynomial(width, terms)


def indicator_expansion(layout: EncodingLayout, var: int, choice: int) -> IsingPolynomial:
    """Indicator of one choice, over the register's local qubits."""
    if not (1 <= choice <= layout.cardinality(var)):
        raise ValueError(f"choice {choice} out of range for variable {var}")
    return bitstring_indicator(layout.register_widths[var], layout.assignments[var][choice - 1])


def walsh_blocks(
    cfn: Cfn, layout: EncodingLayout
) -> tuple[float, list[np.ndarray], list[tuple[int, int, np.ndarray]]]:
    """Each cost table's Walsh coefficients on its own registers.

    Returns ``(constant, registers, interactions)``:

    * ``registers[i][t - 1]`` is the coupling on the nonempty local
      qubit subset ``t`` of register i;
    * each ``(i, j, coeffs)`` in ``interactions`` holds
      ``coeffs[tj - 1, ti - 1]``, the coupling on local subset ``ti`` of
      register i times local subset ``tj`` of register j, both nonempty;
    * ``constant`` is the coupling on the empty subset.

    Tables are first extended over unused bitstrings by the layout's
    policy.  Each interaction grid then gives its row and column means
    to the two register tables and its grand mean to the constant, so
    its marginal modes vanish (up to roundoff) and are left out; each
    register table's mean is folded into the constant.  The blocks
    together reproduce the extended cost at every bitstring pattern,
    valid or not.
    """
    policy = layout.unused_policy
    if isinstance(policy, Penalty):
        pad = policy.weight if policy.weight is not None else default_penalty_weight(cfn)
    else:
        pad = 0.0  # never read: Fallback sends unused bitstrings to a choice

    # per register, bitstring -> row of its padded table: the 0-based
    # choice, else the fallback choice or, under Penalty, the pad row
    rows: list[np.ndarray] = []
    for i in range(cfn.num_variables):
        card = layout.cardinality(i)
        fill = card if isinstance(policy, Penalty) else layout.fallback_choice(i) - 1
        lookup = np.full(1 << layout.register_widths[i], fill)
        lookup[list(layout.assignments[i])] = np.arange(card)
        rows.append(lookup)

    tables = [np.append(np.asarray(t, dtype=float), pad)[r] for t, r in zip(cfn.unary_tables, rows)]
    constant = 0.0
    interactions: list[tuple[int, int, np.ndarray]] = []
    for t in cfn.pairwise_tables:
        di = cfn.cardinality(t.i)
        dj = cfn.cardinality(t.j)
        padded = np.zeros((di + 1, dj + 1))
        padded[:di, :dj] = np.asarray(t.costs, dtype=float).reshape(di, dj)
        grid = padded[np.ix_(rows[t.i], rows[t.j])]
        row_means = grid.mean(axis=1)  # function of the register-i bitstring
        col_means = grid.mean(axis=0)
        grand = float(grid.mean())
        grid = grid - row_means[:, None] - col_means[None, :] + grand
        tables[t.i] = tables[t.i] + (row_means - grand)
        tables[t.j] = tables[t.j] + (col_means - grand)
        constant += grand
        # transform with register-i bits low: joint index ti | (tj << wi)
        coeffs = fwht(grid.T.reshape(-1)).reshape(grid.shape[::-1])
        interactions.append((t.i, t.j, coeffs[1:, 1:]))

    registers: list[np.ndarray] = []
    for table in tables:
        coeffs = fwht(table)
        constant += float(coeffs[0])
        registers.append(coeffs[1:])
    return constant, registers, interactions


def encode(cfn: Cfn, layout: EncodingLayout) -> IsingPolynomial:
    """Compile a CFN into its exact spin-basis HUBO.

    The couplings are the per-table Walsh blocks of ``walsh_blocks``
    placed at their registers' offsets; exact zeros are dropped.  The
    constant term is stored.
    """
    constant, registers, interactions = walsh_blocks(cfn, layout)
    terms: dict[int, float] = {0: constant}
    for offset, coeffs in zip(layout.register_offsets, registers):
        for t, c in enumerate(coeffs.tolist(), 1):
            if c != 0.0:
                terms[t << offset] = c
    for i, j, coeffs in interactions:
        off_i = layout.register_offsets[i]
        off_j = layout.register_offsets[j]
        for tj, row in enumerate(coeffs.tolist(), 1):
            for ti, c in enumerate(row, 1):
                if c != 0.0:
                    terms[(ti << off_i) | (tj << off_j)] = c
    return IsingPolynomial(layout.total_qubits, terms)


def spin_image(layout: EncodingLayout, assignment: Sequence[int]) -> int:
    """Configuration mask encoding a full 1-based choice assignment."""
    if len(assignment) != layout.num_variables:
        raise ValueError("assignment length does not match layout")
    mask = 0
    for i, c in enumerate(assignment):
        if not (1 <= c <= layout.cardinality(i)):
            raise ValueError(f"choice {c} out of range for variable {i}")
        mask |= layout.assignments[i][c - 1] << layout.register_offsets[i]
    return mask


def decode(layout: EncodingLayout, mask: int) -> tuple[list[int], list[bool]]:
    """Recover the choice assignment from a configuration mask.

    Registers landing on unused bitstrings are flagged invalid and
    resolved by the layout's policy: Fallback substitutes its
    designated choice; Penalty substitutes the valid bitstring at
    smallest Hamming distance (ties broken by lowest choice index).
    """
    assignment: list[int] = []
    valid: list[bool] = []
    for i in range(layout.num_variables):
        width = layout.register_widths[i]
        bits = (mask >> layout.register_offsets[i]) & ((1 << width) - 1)
        try:
            choice = layout.assignments[i].index(bits) + 1
            assignment.append(choice)
            valid.append(True)
            continue
        except ValueError:
            pass
        valid.append(False)
        if isinstance(layout.unused_policy, Fallback):
            assignment.append(layout.fallback_choice(i))
        else:
            best = min(
                range(layout.cardinality(i)),
                key=lambda c0: ((layout.assignments[i][c0] ^ bits).bit_count(), c0),
            )
            assignment.append(best + 1)
    return assignment, valid


def k_full(cfn: Cfn, layout: EncodingLayout) -> int:
    """Largest possible monomial degree of the exact encoding."""
    widths = layout.register_widths
    if cfn.pairwise_tables:
        return max(widths[t.i] + widths[t.j] for t in cfn.pairwise_tables)
    return max(widths, default=0)
