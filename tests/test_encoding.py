import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import (
    Cfn,
    CfnFormatError,
    Fallback,
    IsingPolynomial,
    PairwiseTable,
    Penalty,
    VariableSpec,
    build_layout,
    decode,
    encode,
    evaluate_cfn,
    mask_to_string,
    spin_image,
    table_spectrum,
    walsh_blocks,
)
from tbe.encoding import default_penalty_weight
from tbe.verify import dense_values
from helpers import (
    add_polynomials,
    all_assignments,
    assemble_truth_table,
    bitstring_indicator,
    degree_power,
    indicator_expansion,
    interactions,
    naive_eval,
    num_unused,
    random_cfn,
    register_mask,
    registers,
    shifted,
)


def _cfn_of_cards(cards, rng=None, edge_prob=1.0):
    variables = tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards))
    if rng is None:
        unary = tuple(tuple(0.0 for _ in range(c)) for c in cards)
        pairs = ()
    else:
        unary = tuple(tuple(float(x) for x in rng.normal(size=c)) for c in cards)
        pairs = []
        for i in range(len(cards)):
            for j in range(i + 1, len(cards)):
                if rng.random() < edge_prob:
                    pairs.append(
                        PairwiseTable(i, j, tuple(float(x) for x in rng.normal(size=cards[i] * cards[j])))
                    )
        pairs = tuple(pairs)
    return Cfn(variables, unary, pairs)


def test_register_width_card32():
    layout = build_layout(_cfn_of_cards([32]))
    assert layout.register_widths == (5,)


def test_register_width_card128_pair_k_full():
    rng = np.random.default_rng(0)
    cfn = _cfn_of_cards([128, 128], rng)
    layout = build_layout(cfn)
    assert layout.register_widths == (7, 7)
    assert walsh_blocks(cfn, layout).k_full == 14


def test_standard_binary_assignment_card3():
    layout = build_layout(_cfn_of_cards([3]))
    assert layout.assignments[0] == (0b00, 0b01, 0b10)
    # bit order is q=0 first: choice 2 -> bits (1, 0), choice 3 -> (0, 1)
    assert mask_to_string(spin_image(layout, [2]), 2) == "-+"
    assert mask_to_string(spin_image(layout, [3]), 2) == "+-"
    assert num_unused(layout, 0) == 1


def test_gray_assignment_neighbouring_choices_differ_by_one_bit():
    layout = build_layout(_cfn_of_cards([8]), strategy="gray")
    bits = layout.assignments[0]
    assert len(set(bits)) == 8
    for a, b in zip(bits, bits[1:]):
        assert (a ^ b).bit_count() == 1


def test_custom_assignment_validation():
    cfn = _cfn_of_cards([3])
    layout = build_layout(cfn, strategy=[[2, 1, 0]])
    assert layout.assignments[0] == (2, 1, 0)
    with pytest.raises(CfnFormatError, match="non-injective"):
        build_layout(cfn, strategy=[[0, 0, 1]])
    with pytest.raises(CfnFormatError, match="wrong length"):
        build_layout(cfn, strategy=[[0, 1, 4]])
    with pytest.raises(CfnFormatError, match="every choice"):
        build_layout(cfn, strategy=[[0, 1]])


def test_fallback_choice_out_of_range_rejected():
    with pytest.raises(CfnFormatError, match="fallback"):
        build_layout(_cfn_of_cards([3]), unused_policy=Fallback(choice=4))


@pytest.mark.parametrize("choice", [0, -3])
def test_fallback_choice_below_one_rejected_even_without_unused_bitstrings(choice):
    # a power-of-two register has no unused bitstring for the range check to look at
    cfn = _cfn_of_cards([4])
    with pytest.raises(ValueError, match="fallback choice must be at least 1"):
        build_layout(cfn, unused_policy=Fallback(choice=choice))


def test_indicator_single_literal():
    layout = build_layout(_cfn_of_cards([2]))
    poly = indicator_expansion(layout, 0, 1)
    assert poly.terms == {0: 0.5, 1: 0.5}


def test_indicator_two_literals_mixed_signs():
    # choice with bits (0, 1): spins (+1, -1)
    poly = bitstring_indicator(2, 0b10)
    assert poly.terms == {0: 0.25, 1: 0.25, 2: -0.25, 3: -0.25}


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_indicator_is_one_hot(width):
    for bits in range(1 << width):
        poly = bitstring_indicator(width, bits)
        values = [poly.evaluate_mask(m) for m in range(1 << width)]
        assert values[bits] == pytest.approx(1.0)
        for m in range(1 << width):
            if m != bits:
                assert values[m] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_partition_of_unity_over_all_bitstrings(width):
    total = IsingPolynomial(width, {})
    for bits in range(1 << width):
        total = add_polynomials(total, bitstring_indicator(width, bits))
    for m in range(1 << width):
        assert total.evaluate_mask(m) == pytest.approx(1.0)


def test_encode_single_binary_variable_closed_form():
    a1, a2 = 3.25, -1.5
    cfn = Cfn((VariableSpec("x", 2),), ((a1, a2),), ())
    poly = encode(walsh_blocks(cfn, build_layout(cfn)))
    assert poly.terms[0] == pytest.approx((a1 + a2) / 2)
    assert poly.terms[1] == pytest.approx((a1 - a2) / 2)


def test_encode_two_card32_degree_is_ten():
    rng = np.random.default_rng(2)
    cfn = _cfn_of_cards([32, 32], rng)
    layout = build_layout(cfn)
    blocks = walsh_blocks(cfn, layout)
    poly = encode(blocks)
    assert blocks.k_full == 10
    assert poly.degree == 10  # generic random table keeps the top coupling nonzero


@pytest.mark.parametrize("policy", [Fallback(), Penalty()])
def test_encode_matches_cfn_exhaustively(policy):
    rng = np.random.default_rng(13)
    cards = [2, 3, 4]
    cfn = _cfn_of_cards(cards, rng)
    layout = build_layout(cfn, unused_policy=policy)
    poly = encode(walsh_blocks(cfn, layout))
    for assignment in all_assignments(cfn):
        assignment = list(assignment)
        want = evaluate_cfn(cfn, assignment)
        got = poly.evaluate_mask(spin_image(layout, assignment))
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_encode_exactness_without_centering():
    rng = np.random.default_rng(41)
    for _ in range(10):
        cfn = random_cfn(rng, max_vars=3, max_card=5)
        layout = build_layout(cfn)
        poly = encode(walsh_blocks(cfn, layout))
        for assignment in all_assignments(cfn):
            assignment = list(assignment)
            want = evaluate_cfn(cfn, assignment)
            got = poly.evaluate_mask(spin_image(layout, assignment))
            assert abs(got - want) <= 1e-9 * (1 + abs(want))


def _product_disjoint(a: IsingPolynomial, b: IsingPolynomial, n: int) -> IsingPolynomial:
    terms = {}
    for s1, c1 in a.terms.items():
        for s2, c2 in b.terms.items():
            terms[s1 | s2] = terms.get(s1 | s2, 0.0) + c1 * c2
    return IsingPolynomial(n, terms)


def test_encode_equals_symbolic_indicator_expansion():
    rng = np.random.default_rng(19)
    cards = [2, 4]
    cfn = _cfn_of_cards(cards, rng)
    layout = build_layout(cfn)
    n = layout.total_qubits
    poly = encode(walsh_blocks(cfn, layout))

    symbolic = IsingPolynomial(n, {})
    for i, card in enumerate(cards):
        off = layout.register_offsets[i]
        for c in range(1, card + 1):
            ind = shifted(indicator_expansion(layout, i, c), off, n)
            scaled = IsingPolynomial(n, {s: cf * cfn.unary_tables[i][c - 1] for s, cf in ind.terms.items()})
            symbolic = add_polynomials(symbolic, scaled)
    for t in cfn.pairwise_tables:
        for ci in range(1, cards[t.i] + 1):
            for cj in range(1, cards[t.j] + 1):
                xi = shifted(indicator_expansion(layout, t.i, ci), layout.register_offsets[t.i], n)
                xj = shifted(indicator_expansion(layout, t.j, cj), layout.register_offsets[t.j], n)
                prod = _product_disjoint(xi, xj, n)
                value = t.value(ci, cj, cards[t.j])
                symbolic = add_polynomials(symbolic, IsingPolynomial(n, {s: cf * value for s, cf in prod.terms.items()}))

    keys = set(poly.terms) | set(symbolic.terms)
    for s in keys:
        assert poly.terms.get(s, 0.0) == pytest.approx(symbolic.terms.get(s, 0.0), abs=1e-12)


def test_degree_caps():
    rng = np.random.default_rng(4)
    for _ in range(10):
        cfn = random_cfn(rng, max_vars=3, max_card=8)
        layout = build_layout(cfn)
        blocks = walsh_blocks(cfn, layout)
        poly = encode(blocks)
        assert poly.degree <= max(blocks.k_full, 0)
        max_width = max(layout.register_widths)
        for s in poly.terms:
            regs = [
                i
                for i in range(cfn.num_variables)
                if s & register_mask(layout, i)
            ]
            assert len(regs) <= 2
            if len(regs) <= 1:
                assert s.bit_count() <= max_width


def _zero_marginal_pairwise_cfn(cards, rng):
    """Zero unary tables and one double-centred random interaction table."""
    table = rng.normal(size=(cards[0], cards[1]))
    table = table - table.mean(axis=1, keepdims=True) - table.mean(axis=0, keepdims=True) + table.mean()
    return Cfn(
        tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards)),
        tuple(tuple(0.0 for _ in range(c)) for c in cards),
        (PairwiseTable(0, 1, tuple(table.reshape(-1).tolist())),),
    )


@pytest.mark.parametrize("policy", [Fallback(), Penalty()])
def test_centered_pairwise_only_has_no_single_register_mass(policy):
    # power-of-two cardinalities: extension cannot disturb the zero marginals
    rng = np.random.default_rng(6)
    cards = [4, 8]
    stripped = _zero_marginal_pairwise_cfn(cards, rng)
    layout = build_layout(stripped, unused_policy=policy)
    poly = encode(walsh_blocks(stripped, layout))
    for i in range(2):
        reg = register_mask(layout, i)
        for s in poly.terms:
            if s and s & ~reg == 0:
                pytest.fail(f"single-register coupling {s:#x} from a zero-marginal pairwise table")


def test_penalty_zero_extension_keeps_pairwise_two_register_even_odd_cards():
    # non-power-of-two cardinalities under the penalty policy: interactions
    # are extended by zero, so zero marginals survive extension
    rng = np.random.default_rng(8)
    cards = [3, 5]
    stripped = _zero_marginal_pairwise_cfn(cards, rng)
    layout = build_layout(stripped, unused_policy=Penalty(weight=0.0))
    poly = encode(walsh_blocks(stripped, layout))
    for i in range(2):
        reg = register_mask(layout, i)
        assert not any(s and s & ~reg == 0 for s in poly.terms)


def test_encode_past_64_qubits_is_exact():
    # masks are Python ints, so encode has no qubit cap
    rng = np.random.default_rng(72)
    cards = [int(c) for c in rng.integers(3, 10, size=24)]
    cfn = _cfn_of_cards(cards, rng, edge_prob=0.1)
    layout = build_layout(cfn)
    assert layout.total_qubits > 64
    poly = encode(walsh_blocks(cfn, layout))
    for _ in range(20):
        assignment = [int(rng.integers(1, c + 1)) for c in cards]
        want = evaluate_cfn(cfn, assignment)
        got = naive_eval(poly, spin_image(layout, assignment))
        assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_k_full_counts_a_register_in_no_interaction():
    # v2's 4-qubit register carries degree-4 couplings of its own, above
    # the 1 + 0 qubits of the one interaction; v3 has a 0-qubit register
    cfn = Cfn(
        (VariableSpec("v0", 1), VariableSpec("v1", 2), VariableSpec("v2", 9), VariableSpec("v3", 1)),
        ((0.1,), (0.2, 0.3), (3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0, 5.0), (0.4,)),
        (PairwiseTable(0, 1, (0.5, 0.7)),),
    )
    blocks = walsh_blocks(cfn, build_layout(cfn))
    assert blocks.k_full == encode(blocks).degree == 4
    assert table_spectrum(blocks).max_degree == 4


def test_walsh_blocks_are_read_only():
    # encode and table_spectrum share the arrays, so neither may write them
    rng = np.random.default_rng(3)
    cfn = _cfn_of_cards([3, 4], rng)
    blocks = walsh_blocks(cfn, build_layout(cfn))
    for block in (*registers(blocks), *(coeffs for _, _, coeffs in interactions(blocks))):
        with pytest.raises(ValueError):
            block[0] = 1.0


def test_decode_binary_register():
    layout = build_layout(_cfn_of_cards([2]))
    assignment, valid = decode(layout, 0)
    assert assignment == [1] and valid == [True]


def test_decode_unused_bitstring_fallback():
    layout = build_layout(_cfn_of_cards([3]), unused_policy=Fallback(choice=3))
    assignment, valid = decode(layout, 0b11)
    assert assignment == [3]
    assert valid == [False]


def test_decode_unused_bitstring_penalty_nearest_hamming():
    layout = build_layout(_cfn_of_cards([3]), unused_policy=Penalty(weight=1.0))
    # pattern 0b11 is unused; choices at bitstrings 0b00, 0b01, 0b10 are at
    # Hamming distance 2, 1, 1 -> tie between choices 2 and 3, lowest wins
    assignment, valid = decode(layout, 0b11)
    assert assignment == [2]
    assert valid == [False]


def test_decode_round_trip_every_choice():
    rng = np.random.default_rng(9)
    cfn = random_cfn(rng, max_vars=3, max_card=7)
    layout = build_layout(cfn, strategy="gray")
    for assignment in all_assignments(cfn):
        assignment = list(assignment)
        decoded, valid = decode(layout, spin_image(layout, assignment))
        assert decoded == assignment
        assert all(valid)


def test_default_penalty_weight_covers_value_range():
    rng = np.random.default_rng(10)
    cfn = random_cfn(rng, max_vars=3, max_card=4, edge_prob=1.0)
    values = [evaluate_cfn(cfn, list(a)) for a in all_assignments(cfn)]
    spread = max(values) - min(values)
    assert default_penalty_weight(cfn) >= 2 * spread + 1


def test_cardinality_one_register_has_zero_width():
    cfn = Cfn((VariableSpec("c", 1), VariableSpec("x", 4)), ((2.5,), (0.0, 1.0, 2.0, 3.0)), ())
    layout = build_layout(cfn)
    assert layout.register_widths == (0, 2)
    poly = encode(walsh_blocks(cfn, layout))
    for assignment in all_assignments(cfn):
        assignment = list(assignment)
        assert poly.evaluate_mask(spin_image(layout, assignment)) == pytest.approx(
            evaluate_cfn(cfn, assignment)
        )


@st.composite
def _policy_layouts(draw):
    """A CFN of 1-3 variables with cardinalities 1-9 (so width-0
    registers too), laid out by binary, gray or a random injective map
    under every form of both unused policies."""
    cards = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfn = _cfn_of_cards(cards, rng, edge_prob=draw(st.sampled_from([0.0, 0.5, 1.0])))
    strategy = draw(st.sampled_from(["binary", "gray", "custom"]))
    if strategy == "custom":
        strategy = [
            draw(st.permutations(range(1 << max(c - 1, 0).bit_length())))[:c] for c in cards
        ]
    policy = draw(
        st.one_of(
            st.just(Fallback()),
            st.integers(1, min(cards)).map(lambda c: Fallback(choice=c)),
            st.just(Penalty()),
            st.floats(0.0, 100.0).map(lambda w: Penalty(weight=w)),
        )
    )
    return cfn, build_layout(cfn, strategy, policy)


@settings(max_examples=60, deadline=None)
@given(_policy_layouts())
def test_encoding_is_the_policy_extended_table_everywhere(case):
    # every configuration, unused bitstrings included, under any fill
    # choice or weight
    cfn, layout = case
    got = dense_values(encode(walsh_blocks(cfn, layout)))
    want = assemble_truth_table(cfn, layout)
    scale = 1.0 + float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(_policy_layouts())
def test_spectrum_adds_up_over_tables(case):
    # each degree's unary and pairwise bins, summed over the tables, are
    # the squared mass the assembled polynomial stores at that degree
    cfn, layout = case
    profile = table_spectrum(walsh_blocks(cfn, layout))
    # a width-0 register (cardinality 1) has no coefficients, and its bins are 0.0 all the same
    assert all(type(v) is float for bins in profile.per_table_unary for v in bins)
    mass = degree_power(encode(walsh_blocks(cfn, layout)))
    for k in range(1, profile.max_degree + 1):
        whole = mass[k] if k < len(mass) else 0.0
        parts = profile.unary_power(k) + profile.pairwise_power(k)
        assert abs(whole - parts) <= 1e-9 * max(whole, parts, 1e-300)


@settings(max_examples=60, deadline=None)
@given(_policy_layouts())
def test_decode_inverts_spin_image(case):
    cfn, layout = case
    for assignment in all_assignments(cfn):
        assert decode(layout, spin_image(layout, assignment)) == (
            list(assignment),
            [True] * cfn.num_variables,
        )


def _encode_by_dict(cfn, layout):
    """The encoding built one Python-int key at a time from the Walsh blocks."""
    blocks = walsh_blocks(cfn, layout)
    offsets = layout.register_offsets
    terms = {0: blocks.constant}
    for i, block in enumerate(registers(blocks)):
        for t, c in enumerate(block, start=1):
            if c:
                terms[t << offsets[i]] = float(c)
    for i, j, block in interactions(blocks):
        for (tj, ti), c in np.ndenumerate(block):
            if c:
                terms[(ti + 1) << offsets[i] | (tj + 1) << offsets[j]] = float(c)
    return IsingPolynomial(layout.total_qubits, terms)


@settings(max_examples=60, deadline=None)
@given(_policy_layouts())
def test_array_encoding_equals_the_dict_build(case):
    cfn, layout = case
    poly = encode(walsh_blocks(cfn, layout))
    for again in (IsingPolynomial(poly.num_qubits, dict(poly.terms)), _encode_by_dict(cfn, layout)):
        assert again == poly
        assert again.degree_starts == poly.degree_starts
