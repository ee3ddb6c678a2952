import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbe import BinaryPolynomial, IsingPolynomial, build_layout, encode, quadratize, qubo_json, resolve_ancillas
from tbe import truncate, walsh_blocks
from tbe.quadratization import QuboModel, _Monomials
from helpers import gaussian_chain_cfn, random_polynomial, reference_leakage_transform, reference_quadratize
from helpers import sparse_polynomials


def _min_over_ancillas(model, original_bits):
    best = None
    for anc in range(1 << model.num_ancilla_qubits):
        value = model.evaluate_bits(original_bits | (anc << model.num_original_qubits))
        if best is None or value < best:
            best = value
    return best


def test_single_cubic_term_exact():
    poly = IsingPolynomial(3, {0b111: 1.0})
    model = quadratize(poly)
    assert model.num_ancilla_qubits == 1
    for bits in range(8):
        want = poly.evaluate_mask(bits)
        assert _min_over_ancillas(model, bits) == pytest.approx(want, abs=1e-9)
        consistent = resolve_ancillas(model, bits)
        assert model.evaluate_bits(consistent) == pytest.approx(want, abs=1e-9)


def test_degree_two_input_passes_through():
    poly = IsingPolynomial(4, {0b11: 1.5, 0b1: -2.0, 0: 3.0})
    model = quadratize(poly)
    assert model.num_ancilla_qubits == 0
    assert model.ancilla_defs == ()
    assert model.penalty_weight == 0.0
    for bits in range(16):
        assert model.evaluate_bits(bits) == pytest.approx(poly.evaluate_mask(bits), abs=1e-9)


def test_random_truncated_polynomial_exhaustive_equivalence():
    rng = np.random.default_rng(31)
    poly = truncate(random_polynomial(rng, 8, 25, max_degree=5), 4)
    model = quadratize(poly)
    assert model.num_ancilla_qubits <= 12
    hubo_values = [poly.evaluate_mask(b) for b in range(256)]
    qubo_values = [_min_over_ancillas(model, b) for b in range(256)]
    for want, got in zip(hubo_values, qubo_values):
        assert got == pytest.approx(want, abs=1e-9)
    assert int(np.argmin(hubo_values)) == int(np.argmin(qubo_values))


def test_minimizing_ancillas_are_products():
    rng = np.random.default_rng(47)
    poly = random_polynomial(rng, 6, 15, max_degree=4)
    model = quadratize(poly)
    for bits in range(1 << 6):
        consistent = resolve_ancillas(model, bits)
        best = _min_over_ancillas(model, bits)
        assert model.evaluate_bits(consistent) == pytest.approx(best, abs=1e-9)
        for a, (p, q) in model.ancilla_defs:
            assert ((consistent >> a) & 1) == (((consistent >> p) & 1) & ((consistent >> q) & 1))


def test_all_terms_quadratic_and_parents_precede():
    rng = np.random.default_rng(48)
    poly = random_polynomial(rng, 9, 30, max_degree=6)
    model = quadratize(poly)
    assert all(s.bit_count() <= 2 for s in model.terms)
    for a, (p, q) in model.ancilla_defs:
        assert p < a and q < a


def test_deterministic_pair_selection():
    rng = np.random.default_rng(49)
    poly = random_polynomial(rng, 8, 20, max_degree=5)
    assert quadratize(poly).ancilla_defs == quadratize(poly).ancilla_defs


def test_to_ising_view_matches_bits():
    rng = np.random.default_rng(51)
    poly = random_polynomial(rng, 5, 10, max_degree=4)
    model = quadratize(poly)
    ising = model.to_ising()
    for bits in range(1 << model.num_vars):
        assert ising.evaluate_mask(bits) == pytest.approx(model.evaluate_bits(bits), abs=1e-9)


def test_qubo_terms_are_read_only():
    model = quadratize(IsingPolynomial(3, {0b111: 1.0, 0b1: 0.5}))
    with pytest.raises(TypeError):
        model.terms[0b1] = 2.0
    with pytest.raises(TypeError):
        model.terms[1 << 5] = 2.0
    again = pickle.loads(pickle.dumps(model))
    assert again == model and list(again.terms) == list(model.terms)


def test_qubo_json_shape():
    poly = IsingPolynomial(3, {0b111: 1.0, 0b1: 0.5})
    doc = json.loads(qubo_json(quadratize(poly)))
    assert list(doc.keys()) == [
        "num_qubits",
        "num_ancillas",
        "constant",
        "linear",
        "quadratic",
        "ancillas",
        "penalty",
    ]
    assert doc["num_qubits"] == 3
    assert doc["num_ancillas"] == 1
    assert doc["ancillas"][0]["parents"] == [0, 1]
    assert all(set(e) == {"i", "coeff"} for e in doc["linear"])
    assert all(set(e) == {"i", "j", "coeff"} for e in doc["quadratic"])


def test_qubo_model_rejects_keys_outside_its_variables():
    with pytest.raises(ValueError, match="0x8"):
        QuboModel(2, 0, {0b1000: 1.0}, (), 0.0)
    with pytest.raises(ValueError, match="0x4"):
        QuboModel(2, 0, {0b1: 1.0, 0b100: 1.0}, (), 0.0)
    with pytest.raises(ValueError, match="-0x1"):
        QuboModel(2, 0, {-1: 1.0}, (), 0.0)
    # past 64 variables too, where a key takes more than 8 bytes
    with pytest.raises(ValueError, match=hex(1 << 70)):
        QuboModel(69, 1, {1 << 70: 1.0}, ((69, (0, 1)),), 1.0)
    QuboModel(69, 1, {1 << 69: 1.0}, ((69, (0, 1)),), 1.0)


def test_qubo_model_refuses_couplings_it_cannot_represent():
    # a NaN coupling would empty the whole spin form, the finite term too
    with pytest.raises(ValueError, match="non-finite coupling nan at key 0x1"):
        QuboModel(2, 0, {1: float("nan"), 2: 1.0}, (), 0.0)
    with pytest.raises(ValueError, match="non-finite coupling -inf at key 0x3"):
        QuboModel(2, 0, {1: 1.0, 3: -float("inf")}, (), 0.0)
    # each coupling is finite, but the spin form's constant, 1.08e308 +
    # 1.44e308 / 2, is not: every spin coefficient is bounded by the l1 norm
    with pytest.raises(ValueError, match="l1 norm"):
        QuboModel(1, 0, {0: 1.07861588091739e308, 1: 1.4381545078898518e308}, (), 0.0)


def test_qubo_model_rejects_ancillas_unlike_its_definitions():
    with pytest.raises(ValueError, match="3 ancillas but 1 definition"):
        QuboModel(2, 3, {1: 1.0}, ((2, (0, 1)),), 1.0)
    with pytest.raises(ValueError, match="0 ancillas but 1 definition"):
        QuboModel(2, 0, {1: 1.0}, ((2, (0, 1)),), 1.0)
    with pytest.raises(ValueError, match="1 ancillas but 0 definition"):
        QuboModel(2, 1, {1: 1.0}, (), 1.0)
    # the k-th ancilla is variable num_original_qubits + k, after its parents
    with pytest.raises(ValueError, match="ancilla 0 must be variable 2"):
        QuboModel(2, 1, {1: 1.0}, ((3, (0, 1)),), 1.0)
    with pytest.raises(ValueError, match="ancilla 1 must be variable 3"):
        QuboModel(2, 2, {1: 1.0}, ((2, (0, 1)), (3, (1, 3))), 1.0)


@pytest.mark.parametrize("parents", [(-1, 0), (0, -1), (1, 1)])
def test_qubo_model_refuses_a_negative_or_repeated_parent(parents):
    # both were accepted, and a negative parent made resolve_ancillas
    # fail with "negative shift count"
    message = rf"ancilla 0 must be variable 2, after its two distinct parents: got 2 of \({parents[0]}, {parents[1]}\)"
    with pytest.raises(ValueError, match=message):
        QuboModel(2, 1, {0b100: 1.0}, ((2, parents),), 1.0)


def test_qubo_model_refuses_a_repeated_key():
    with pytest.raises(ValueError, match="term key 0x3 is repeated"):
        QuboModel.from_lists(2, (), 1.0, [0, 1, 0, 0, 1], [0, 2, 3, 5], [1.0, 2.0, 0.0])


def test_qubo_terms_in_degree_then_mask_order():
    # {1, 2} = 0b110 comes before {0, 3} = 0b1001, unlike the spin
    # polynomials' qubit-list order
    model = QuboModel(4, 0, {0b1001: 1.0, 0b110: 2.0, 0b1000: 3.0, 0: 4.0, 0b1: 5.0, 0b11: -0.0}, (), 0.0)
    assert list(model.terms) == [0, 0b1, 0b1000, 0b11, 0b110, 0b1001]
    assert list(model.terms.values()) == [4.0, 5.0, 3.0, -0.0, 2.0, 1.0]
    assert str(list(model.terms.values())[3]) == "-0.0"


# --- the direct QUBO-JSON writer against json.dumps ---------------------


def _qubo_json_reference(model):
    linear = []
    quadratic = []
    constant = 0.0
    for s, c in model.terms.items():
        k = s.bit_count()
        if k == 0:
            constant = c
        elif k == 1:
            linear.append({"i": s.bit_length() - 1, "coeff": c})
        else:
            lo = (s & -s).bit_length() - 1
            hi = s.bit_length() - 1
            quadratic.append({"i": lo, "j": hi, "coeff": c})
    doc = {
        "num_qubits": model.num_original_qubits,
        "num_ancillas": model.num_ancilla_qubits,
        "constant": constant,
        "linear": linear,
        "quadratic": quadratic,
        "ancillas": [{"index": a, "parents": [p, q]} for a, (p, q) in model.ancilla_defs],
        "penalty": model.penalty_weight,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_JSON_COEFF = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-4, 1e-4),
    st.integers(-(10**20), 10**20),
    # the float text switches notation at |c| = 1e-4 and 1e16 (float_texts)
    st.sampled_from([0.0, -0.0, 1, -3, 0.1, 1e-300, 1e-4, -9.999999999999999e-05, 1e16, -9999999999999998.0, 1e100]),
)


@st.composite
def _qubo_models(draw):
    n = draw(st.integers(0, 9))
    ancilla_defs = []
    for y in range(n, n + (draw(st.integers(0, 4)) if n >= 2 else 0)):
        p = draw(st.integers(0, y - 2))
        ancilla_defs.append((y, (p, draw(st.integers(p + 1, y - 1)))))
    total = n + len(ancilla_defs)
    masks = st.integers(0, (1 << total) - 1).filter(lambda s: s.bit_count() <= 2)
    # only couplings the constructor accepts: finite, with an l1 norm
    # clear of overflow in any summation order
    terms = draw(st.dictionaries(masks, _JSON_COEFF, max_size=30).filter(
        lambda terms: sum(abs(float(c)) for c in terms.values()) < 1e308))
    penalty = draw(st.floats(0.0, 1e12) | st.just(0.0))
    return QuboModel(n, len(ancilla_defs), terms, tuple(ancilla_defs), penalty)


@settings(max_examples=300, deadline=None)
@given(_qubo_models())
@example(QuboModel(0, 0, {}, (), 0.0))  # no terms, no ancillas
@example(QuboModel(3, 0, {0b11: 2.0, 0b101: -0.0}, (), 0.0))  # no constant, no linear terms
@example(QuboModel(3, 0, {0: 7, 0b1: -0.0, 0b100: 3}, (), 0.0))  # no quadratic terms; ints
@example(QuboModel(2, 1, {0b101: -0.0, 0b10: 1, 0: -0.0}, ((2, (0, 1)),), 5.0))
def test_qubo_json_matches_json_dumps(model):
    assert qubo_json(model) == _qubo_json_reference(model)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.integers(0, (1 << n) - 1), _JSON_COEFF.filter(lambda c: abs(c) < 1e100),
                                max_size=40))))
def test_qubo_json_of_quadratized_polynomials_matches_json_dumps(case):
    n, terms = case
    model = quadratize(IsingPolynomial(n, terms))
    assert qubo_json(model) == _qubo_json_reference(model)


def test_a_non_finite_penalty_is_refused_at_construction():
    # quadratize's penalty, 1 + 2 * 2.7e308, overflows, which made its
    # gadget couplings infinite; every model is built through one check
    with pytest.raises(ValueError, match="non-finite penalty weight inf"):
        quadratize(IsingPolynomial(3, {0b111: 1e307}))
    with pytest.raises(ValueError, match="non-finite penalty weight nan"):
        QuboModel(2, 0, {0b1: 1.0}, (), float("nan"))


# --- incremental greedy against the recount-everything reference ---------

_COUPLING = st.one_of(
    st.sampled_from([-1.0, 0.5, 1.0, 3.0]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _polynomials(draw):
    n = draw(st.integers(3, 10))
    max_degree = draw(st.integers(2, min(7, n)))
    masks = st.integers(0, (1 << n) - 1).filter(lambda s: s.bit_count() <= max_degree)
    return IsingPolynomial(n, draw(st.dictionaries(masks, _COUPLING, max_size=40)))


def _same_model(got, want):
    assert got.num_ancilla_qubits == want.num_ancilla_qubits
    assert got.ancilla_defs == want.ancilla_defs
    assert got.penalty_weight.hex() == want.penalty_weight.hex()
    assert list(got.terms) == list(want.terms)
    assert [c.hex() for c in got.terms.values()] == [c.hex() for c in want.terms.values()]
    assert qubo_json(got) == qubo_json(want)


@settings(max_examples=300, deadline=None)
@given(_polynomials() | sparse_polynomials(_COUPLING))
def test_quadratize_matches_reference_greedy(poly):
    # the sparse draws have keys of up to 17 bytes and ancillas past qubit 64
    _same_model(quadratize(poly), reference_quadratize(poly))


@pytest.mark.parametrize(
    "masks",
    [
        # (0, 1) and (2, 3) both held twice: the smaller pair goes first
        [0b000111, 0b001011, 0b011100, 0b101100],
        # the same tie listed in the other order
        [0b101100, 0b011100, 0b001011, 0b000111],
        # every pair of a degree-6 monomial tied at one
        [0b111111],
        # overlapping quartics: six substitutions, several of them on tied counts
        [0b0001111, 0b0011011, 0b0110011, 0b1100011, 0b1000111],
    ],
    ids=["two-way-tie", "two-way-tie-reversed", "all-pairs-tied", "overlapping-quartics"],
)
def test_quadratize_exact_count_ties(masks):
    n = max(masks).bit_length()
    poly = IsingPolynomial(n, {s: 1.0 + k for k, s in enumerate(masks)})
    model = quadratize(poly)
    _same_model(model, reference_quadratize(poly))
    assert model.ancilla_defs[0] == (n, (0, 1))


@settings(max_examples=200, deadline=None)
@given(_qubo_models() | sparse_polynomials(_COUPLING).map(quadratize))
@example(QuboModel(0, 0, {}, (), 0.0))
@example(QuboModel(2, 0, {0b11: 4.0, 0b1: -2.0, 0b10: -2.0, 0: 1.0}, (), 0.0))  # all but z0 z1 cancels
@example(QuboModel(3, 0, {0: 7, 0b1: -0.0, 0b100: 3}, (), 0.0))  # a zero coupling; ints
def test_to_ising_matches_the_reference_walk(model):
    # the sparse draws have up to 130 original qubits and ancillas past qubit 64
    got = model.to_ising()
    want = reference_leakage_transform(BinaryPolynomial(model.num_vars, dict(model.terms)))
    assert got.num_qubits == want.num_qubits == model.num_vars
    assert list(got.terms) == list(want.terms)
    assert [c.hex() for c in got.terms.values()] == [c.hex() for c in want.terms.values()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_pair_counts_equal_the_integer_product(count, n, density, seed):
    rows = np.random.default_rng(seed).random((count, n)) < density
    rows = rows[rows.sum(axis=1) > 2]
    monomials = _Monomials(np.nonzero(rows)[1], np.cumsum(np.append(0, rows.sum(axis=1))), n)
    y = n
    while True:
        # the counts are those of the live rows' lists, substitution after substitution
        held = np.zeros((len(rows), monomials.pad), np.int64)
        row, slot = np.nonzero(monomials.rows < monomials.pad)
        held[row, monomials.rows[row, slot]] = 1
        want = np.triu(held[monomials.live].T @ held[monomials.live], 1)
        got = np.zeros_like(want)
        first, second = np.divmod(monomials.codes, monomials.pad + 1)
        got[first, second] = monomials.counts
        assert monomials.counts.dtype == np.int64
        assert np.array_equal(got, want)
        if (pair := monomials.top_pair()) is None:
            break
        assert want[pair] == want.max() > 0 and pair == np.unravel_index(want.argmax(), want.shape)
        monomials.substitute(*pair, y)
        y += 1
    assert not monomials.live.any()


def test_quadratize_memory_follows_the_held_pairs():
    # the k=3 truncation of a 300-variable chain (900 qubits, 900
    # ancillas): dense (2n x 2n) pair counts and a boolean row per
    # monomial over 2n columns peaked at 71.2 MiB
    cfn = gaussian_chain_cfn(0, 300)
    poly = truncate(encode(walsh_blocks(cfn, build_layout(cfn))), 3)
    tracemalloc.start()
    try:
        model = quadratize(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.num_ancilla_qubits == 900
    assert peak < 40 * 2**20


def test_quadratize_memory_follows_the_held_pairs_at_1000_variables():
    # the k=3 truncation of a 1000-variable chain (3000 qubits, 33 974
    # terms): key bytes over all 3000 qubits made the basis change peak
    # at 244.7 MiB
    cfn = gaussian_chain_cfn(0, 1000)
    poly = truncate(encode(walsh_blocks(cfn, build_layout(cfn))), 3)
    tracemalloc.start()
    try:
        model = quadratize(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (poly.num_qubits, poly.num_terms(), model.num_ancilla_qubits) == (3000, 33974, 3000)
    assert peak < 64 << 20
