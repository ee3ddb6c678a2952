"""The stacked Walsh blocks against the per-table references.

``walsh_blocks``, ``encode``, ``table_spectrum``, the register network
and the barriers work a stack of same-shape tables at a time; the
references in ``helpers`` work one table (or one qubit) at a time.
Every float they produce must have the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbe.encoding
import tbe.verify
from tbe import Cfn, Fallback, PairwiseTable, Penalty, VariableSpec, build_layout, encode, table_spectrum, walsh_blocks
from tbe.polynomial import random_masks
from tbe.truncation import truncate
from tbe.verify import DenseLandscape, RegisterLandscape, _barriers, _register_network
from helpers import (
    interactions,
    reference_barriers,
    reference_encode,
    reference_register_network,
    reference_table_spectrum,
    reference_walsh_blocks,
    registers,
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def _cases(draw):
    """A CFN of 1-4 variables with cardinalities 1-12, so several register
    widths and interaction shapes, with Gaussian costs or two integer
    levels (ties, so several minimizers), laid out by binary, gray or a
    random injective map under both unused policies; and a cutoff k from
    1 to one past the encoding's largest degree K."""
    cards = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([None, 2]))
    edge_prob = draw(st.sampled_from([0.3, 0.7, 1.0]))

    def costs(size: int) -> tuple[float, ...]:
        if levels is None:
            return tuple(rng.standard_normal(size).tolist())
        return tuple(float(x) for x in rng.integers(0, levels, size))

    n = len(cards)
    pairs = tuple(
        PairwiseTable(i, j, costs(cards[i] * cards[j]))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    )
    cfn = Cfn(tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards)), tuple(costs(c) for c in cards), pairs)
    strategy = draw(st.sampled_from(["binary", "gray", "custom"]))
    if strategy == "custom":
        strategy = [draw(st.permutations(range(1 << max(c - 1, 0).bit_length())))[:c] for c in cards]
    policy = draw(
        st.one_of(
            st.just(Fallback()),
            st.integers(1, min(cards)).map(lambda c: Fallback(choice=c)),
            st.just(Penalty()),
            st.floats(0.0, 100.0).map(lambda w: Penalty(weight=w)),
        )
    )
    layout = build_layout(cfn, strategy, policy)
    widths = layout.register_widths
    k_full = max([*(widths[t.i] + widths[t.j] for t in pairs), *widths], default=0)
    return cfn, layout, draw(st.integers(1, k_full + 1)), draw(st.integers(0, 2**32 - 1))


def _assert_matches_references(cfn, layout, k, seed):
    blocks, ref = walsh_blocks(cfn, layout), reference_walsh_blocks(cfn, layout)
    assert _bits(blocks.constant) == _bits(ref.constant)
    assert len(registers(blocks)) == len(ref.registers)
    assert [b.tobytes() for b in registers(blocks)] == [b.tobytes() for b in ref.registers]
    assert [(i, j, b.shape, b.tobytes()) for i, j, b in interactions(blocks)] == [
        (i, j, b.shape, b.tobytes()) for i, j, b in ref.interactions
    ]
    assert blocks.k_full == ref.k_full

    poly, want = encode(blocks), reference_encode(ref)
    assert poly.qubits.tolist() == want.qubits.tolist() and poly.offsets.tolist() == want.offsets.tolist()
    assert _bits(poly.coeffs) == _bits(want.coeffs)
    assert poly.degree_starts == want.degree_starts

    profile, expected = table_spectrum(blocks), reference_table_spectrum(ref)
    assert _bits(profile.per_degree_power) == _bits(expected.per_degree_power)
    assert _bits(profile.per_table_unary) == _bits(expected.per_table_unary)
    assert [(i, j, _bits(b)) for i, j, b in profile.per_table_pairwise] == [
        (i, j, _bits(b)) for i, j, b in expected.per_table_pairwise
    ]

    rng = np.random.default_rng(seed)
    for k in (None, k):
        network, reference = _register_network(blocks, k), reference_register_network(ref, k)
        assert network.domains == reference.domains
        assert _bits(network.constant) == _bits(reference.constant)
        assert [t.tobytes() for t in network.unary] == [t.tobytes() for t in reference.unary]
        assert [(i, j, t.shape, t.tobytes()) for i, j, t in network.pairwise] == [
            (i, j, t.shape, t.tobytes()) for i, j, t in reference.pairwise
        ]
        land = RegisterLandscape(blocks, k)
        masks = land.lowest(1e-12)[0] + random_masks(rng, layout.total_qubits, 3)
        assert _bits(_barriers(land, masks)) == _bits(reference_barriers(land, masks))
        if layout.total_qubits <= 10:
            dense = DenseLandscape(poly if k is None else truncate(poly, k))
            assert _bits(_barriers(dense, masks)) == _bits(reference_barriers(dense, masks))


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_stacks_match_the_per_table_references(case):
    _assert_matches_references(*case)


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_small_caps_split_stacks_and_barrier_runs(case):
    # a stack of at most 16 entries holds one 4 x 4 grid, so most shapes
    # take several stacks (and a wider table one alone); a barrier run of
    # at most 5 entries holds one or two flips, or part of none
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tbe.encoding, "STACK_ENTRIES", 16)
        patch.setattr(tbe.verify, "RUN_ENTRIES", 5)
        _assert_matches_references(*case)


def test_small_caps_do_split():
    cfn = Cfn(
        tuple(VariableSpec(f"v{i}", c) for i, c in enumerate([3, 4, 4, 8])),
        tuple(tuple(float(x) for x in range(c)) for c in [3, 4, 4, 8]),
        tuple(PairwiseTable(i, 3, tuple([1.0] * [3, 4, 4][i] * 8)) for i in range(3)),
    )
    layout = build_layout(cfn)
    whole = walsh_blocks(cfn, layout)
    assert [len(s.registers) for s in whole.register_stacks] == [3, 1]  # widths 2 and 3
    assert [len(s.tables) for s in whole.interaction_stacks] == [3]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tbe.encoding, "STACK_ENTRIES", 8)
        split = walsh_blocks(cfn, layout)
    assert [len(s.registers) for s in split.register_stacks] == [2, 1, 1]
    assert [len(s.tables) for s in split.interaction_stacks] == [1, 1, 1]
