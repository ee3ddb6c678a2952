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
It transforms the tables of one shape (the register tables of one
width, the interaction grids of one pair of widths) as one stack, and
its ``WalshBlocks`` value keeps those stacks: ``encode``,
``spectrum.table_spectrum`` and ``verify``'s register networks each
read them a stack at a time.  ``encode`` places each stack's couplings
in the polynomial's stored arrays as qubit lists, without forming a
Python-int key per coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .cfn import MAX_ABS_COST, Cfn
from .errors import CfnFormatError
from .polynomial import IsingPolynomial
from .walsh import MAX_TRANSFORM_DIM, fwht, subset_members

__all__ = [
    "Fallback",
    "Penalty",
    "EncodingLayout",
    "build_layout",
    "default_penalty_weight",
    "RegisterStack",
    "InteractionStack",
    "WalshBlocks",
    "walsh_blocks",
    "encode",
    "decode",
    "spin_image",
]


@dataclass(frozen=True)
class Fallback:
    """Unused bitstrings cost the same as a designated choice.

    ``choice`` is 1-based; None selects each register's last valid
    choice.
    """

    choice: int | None = None

    def __post_init__(self) -> None:
        if self.choice is not None and self.choice < 1:
            raise ValueError(f"the fallback choice must be at least 1, got {self.choice!r}")

    def check(self, cardinalities: Sequence[int]) -> None:
        """Raise ``CfnFormatError`` unless the designated choice exists
        for some variable, and for every variable whose register has
        unused bitstrings (a cardinality that is not a power of two)."""
        choice = self.choice
        if choice is None:
            return
        if cardinalities and choice > max(cardinalities):
            raise CfnFormatError(
                f"fallback choice {choice} exceeds every variable's cardinality (the largest is {max(cardinalities)})"
            )
        for i, card in enumerate(cardinalities):
            if card & (card - 1) and choice > card:
                raise CfnFormatError(f"fallback choice {choice} out of range for variable {i}")


@dataclass(frozen=True)
class Penalty:
    """Unused bitstrings carry a flat positive cost.

    ``weight`` of None defers to ``default_penalty_weight`` at encode
    time.  A weight is a cost, so it must lie in [0, ``MAX_ABS_COST``].
    """

    weight: float | None = None

    def __post_init__(self) -> None:
        if self.weight is not None and not 0 <= self.weight <= MAX_ABS_COST:
            raise ValueError(f"the penalty weight must be in [0, {MAX_ABS_COST:g}], got {self.weight!r}")


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

    def fallback_choice(self, var: int) -> int:
        policy = self.unused_policy
        if isinstance(policy, Fallback) and policy.choice is not None:
            return policy.choice
        return self.cardinality(var)


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
    if isinstance(unused_policy, Fallback):
        unused_policy.check([v.cardinality for v in cfn.variables])
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


STACK_ENTRIES = 1 << MAX_TRANSFORM_DIM  # the most table entries ``walsh_blocks`` transforms at once


@dataclass(frozen=True, eq=False)
class RegisterStack:
    """The Walsh blocks of registers of one width: ``coeffs[r, t - 1]``
    is the coupling on the nonempty local qubit subset ``t`` of register
    ``registers[r]``."""

    registers: np.ndarray
    coeffs: np.ndarray

    @property
    def width(self) -> int:
        return self.coeffs.shape[1].bit_length()


@dataclass(frozen=True, eq=False)
class InteractionStack:
    """The Walsh blocks of pairwise tables of one register shape: the
    CFN's pairwise table ``tables[s]`` joins registers ``pairs[s] = (i,
    j)``, and ``coeffs[s, tj - 1, ti - 1]`` is its coupling on local
    subset ``ti`` of register i times local subset ``tj`` of register j,
    both nonempty."""

    tables: np.ndarray
    pairs: np.ndarray
    coeffs: np.ndarray

    @property
    def widths(self) -> tuple[int, int]:
        """The widths of registers i and j."""
        return self.coeffs.shape[2].bit_length(), self.coeffs.shape[1].bit_length()


@dataclass(frozen=True, eq=False)
class WalshBlocks:
    """Each cost table's Walsh coefficients on its own registers, held
    as stacks of tables of one shape.

    * each ``RegisterStack`` of ``register_stacks`` holds the register
      tables of one width, ascending by register;
    * each ``InteractionStack`` of ``interaction_stacks`` holds the
      pairwise tables of one pair of register widths, in file order;
    * ``constant`` is the coupling on the empty subset.

    A stack holds at most ``STACK_ENTRIES`` entries (one table may hold
    more), so one shape can take several stacks.

    Tables are first extended over unused bitstrings by the layout's
    policy.  Each interaction grid then gives its row and column means
    to the two register tables and its grand mean to the constant, so
    its marginal modes vanish (up to roundoff) and are left out; each
    register table's mean is folded into the constant.  The blocks
    together reproduce the extended cost at every bitstring pattern,
    valid or not.  ``encode`` assembles them, ``table_spectrum`` bins
    them and ``verify`` synthesizes them, a stack at a time, so their
    arrays are read-only.
    """

    layout: EncodingLayout
    constant: float
    register_stacks: tuple[RegisterStack, ...]
    interaction_stacks: tuple[InteractionStack, ...]

    @property
    def k_full(self) -> int:
        """Largest possible monomial degree of the exact encoding."""
        # a register in no interaction can still carry the widest block
        pairs = [sum(stack.widths) for stack in self.interaction_stacks]
        return max([*pairs, *self.layout.register_widths], default=0)


def _stacks(shapes: np.ndarray) -> list[np.ndarray]:
    """The indices of the rows of ``shapes`` (a table's register widths,
    one column per register) grouped by row, ascending in a group, and
    cut into stacks of at most ``STACK_ENTRIES`` entries, one table at
    the least."""
    kinds, which = np.unique(shapes, axis=0, return_inverse=True)
    stacks = []
    for k, kind in enumerate(kinds.tolist()):
        members = np.flatnonzero(which.reshape(-1) == k)
        per = max(1, STACK_ENTRIES >> sum(kind))
        stacks += [members[start : start + per] for start in range(0, len(members), per)]
    return stacks


def _flat(tables, count: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Tables of varied lengths laid end to end, and where each starts."""
    lengths = np.fromiter(map(len, tables), np.intp, count=count)
    starts = np.cumsum(lengths) - lengths
    return np.fromiter(chain.from_iterable(tables), dtype, count=int(lengths.sum())), starts


def walsh_blocks(cfn: Cfn, layout: EncodingLayout) -> WalshBlocks:
    """Take each cost table's Walsh transform on its own registers.

    The tables of one shape go through ``fwht`` as one stack, and their
    means as one reduction per axis, so each coefficient has the bits a
    transform of its table alone gives.  Register tables are held end to
    end, each at its register's place in the flat arrays (``starts``).
    """
    policy = layout.unused_policy
    if isinstance(policy, Penalty):
        pad = policy.weight if policy.weight is not None else default_penalty_weight(cfn)
    else:
        pad = 0.0  # never read: Fallback sends unused bitstrings to a choice
    n = cfn.num_variables
    widths = np.array(layout.register_widths, dtype=np.intp)
    cards = np.array([len(bits) for bits in layout.assignments], dtype=np.intp)
    sizes = np.left_shift(1, widths)
    starts = np.cumsum(sizes) - sizes

    # per register, bitstring -> row of its padded table: the 0-based
    # choice, else the fallback choice or, under Penalty, the pad row
    if isinstance(policy, Penalty):
        fill = cards
    else:
        fill = np.array([layout.fallback_choice(i) - 1 for i in range(n)], dtype=np.intp)
    rows = np.repeat(fill, sizes)
    bits, choice_starts = _flat(layout.assignments, n, np.intp)
    rows[np.repeat(starts, cards) + bits] = np.arange(len(bits)) - np.repeat(choice_starts, cards)

    # each register's extended unary table; the pad is the last entry
    unary, unary_starts = _flat(cfn.unary_tables, n, float)
    unary = np.append(unary, pad)
    inside = rows < np.repeat(cards, sizes)
    tables = unary[np.where(inside, np.repeat(unary_starts, sizes) + rows, len(unary) - 1)]

    # the pairwise tables, end to end, and a zero for their pad rows
    pairwise = cfn.pairwise_tables
    costs, cost_starts = _flat([t.costs for t in pairwise], len(pairwise), float)
    costs = np.append(costs, 0.0)
    pairs = np.array([(t.i, t.j) for t in pairwise], dtype=np.intp).reshape(-1, 2)
    grands = np.zeros(len(pairwise))
    # (table, side) of each marginal entry, where it goes, and its value
    order: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    margins: list[np.ndarray] = []
    interactions = []
    for members in _stacks(widths[pairs]):
        i, j = pairs[members].T
        wi, wj = widths[i[0]], widths[j[0]]
        ri = starts[i][:, None] + np.arange(1 << wi)  # register i's entries in the flat arrays
        rj = starts[j][:, None] + np.arange(1 << wj)
        at = cost_starts[members][:, None, None] + (rows[ri] * cards[j][:, None])[:, :, None] + rows[rj][:, None, :]
        inside = (rows[ri] < cards[i][:, None])[:, :, None] & (rows[rj] < cards[j][:, None])[:, None, :]
        grid = costs[np.where(inside, at, len(costs) - 1)]
        del at, inside
        row_means = grid.mean(axis=2)  # function of the register-i bitstring
        col_means = grid.mean(axis=1)
        grand = grid.reshape(len(members), -1).mean(axis=1)
        grid = grid - row_means[:, :, None] - col_means[:, None, :] + grand[:, None, None]
        grands[members] = grand
        for side, where, means in ((0, ri, row_means), (1, rj, col_means)):
            order.append(np.repeat(2 * members + side, where.shape[1]))
            targets.append(where.reshape(-1))
            margins.append((means - grand[:, None]).reshape(-1))
        # transform with register-i bits low: joint index ti | (tj << wi)
        coeffs = fwht(grid.transpose(0, 2, 1).reshape(len(members), -1)).reshape(len(members), 1 << wj, 1 << wi)
        del grid
        interactions.append(InteractionStack(members, pairs[members], coeffs[:, 1:, 1:]))

    # the marginals join each register table in file order, one at a time
    if order:
        sequence = np.argsort(np.concatenate(order), kind="stable")
        np.add.at(tables, np.concatenate(targets)[sequence], np.concatenate(margins)[sequence])

    means = np.zeros(n)
    registers = []
    for members in _stacks(widths[:, None]):
        coeffs = fwht(tables[starts[members][:, None] + np.arange(sizes[members[0]])])
        means[members] = coeffs[:, 0]
        registers.append(RegisterStack(members, coeffs[:, 1:]))
    for stack in (*registers, *interactions):
        stack.coeffs.flags.writeable = False
    # a running sum, as a loop over the pairwise tables, then the registers, adds
    constant = float(np.cumsum(np.concatenate([[0.0], grands, means]))[-1])
    return WalshBlocks(layout, constant, tuple(registers), tuple(interactions))


def encode(blocks: WalshBlocks) -> IsingPolynomial:
    """Assemble a CFN's Walsh blocks into its exact spin-basis HUBO.

    The couplings are the blocks' entries placed at their registers'
    offsets; exact zeros are dropped.  The constant term is stored.
    Keys are built as qubit lists, a stack at a time, and go to the
    polynomial's one sort (``IsingPolynomial.from_lists``): a register
    block's key is the members of its local subset (``subset_members``)
    shifted to the register's offset, and an interaction block's key
    joins those of its two registers, already in order because i < j.
    No transform is taken here.
    """
    layout = blocks.layout
    offsets = np.array(layout.register_offsets, dtype=np.intp)
    qubits, degrees, coeffs = [np.zeros(0, np.intp)], [np.zeros(1, np.intp)], [np.array([blocks.constant])]

    def add(local: np.ndarray, side: np.ndarray, bases: np.ndarray, stack_coeffs: np.ndarray) -> None:
        # local[e] lists block entry e's local qubits, padded with -1, and
        # each takes the offset of its register, bases[s, side]
        nonzero = stack_coeffs.reshape(len(bases), -1) != 0
        held = local >= 0
        counts = held.sum(axis=1)
        at = local[held] + bases[:, np.broadcast_to(side, local.shape)[held]]
        qubits.append(at[np.repeat(nonzero, counts, axis=1)])
        degrees.append(np.broadcast_to(counts, nonzero.shape)[nonzero])
        coeffs.append(stack_coeffs.reshape(nonzero.shape)[nonzero])

    for stack in blocks.register_stacks:
        w = stack.width
        add(subset_members(w)[1:], np.zeros(w, np.intp), offsets[stack.registers, None], stack.coeffs)
    for stack in blocks.interaction_stacks:
        # entry (tj, ti) of a block, ti fastest, joins subset ti of register i and tj of j
        (wi, wj), cols = stack.widths, (1 << stack.widths[0]) - 1
        ti = np.tile(np.arange(1, cols + 1), (1 << wj) - 1)
        tj = np.repeat(np.arange(1, 1 << wj), cols)
        local = np.concatenate([subset_members(wi)[ti], subset_members(wj)[tj]], axis=1)
        add(local, np.repeat([0, 1], [wi, wj]), offsets[stack.pairs], stack.coeffs)
    # the offsets: 0, then each key's end, the constant's first
    ends = np.cumsum(np.concatenate([[0], *degrees]))
    return IsingPolynomial.from_lists(layout.total_qubits, np.concatenate(qubits), ends, np.concatenate(coeffs))


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
