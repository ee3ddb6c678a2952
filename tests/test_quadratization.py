import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import IsingPolynomial, quadratize, qubo_json, resolve_ancillas, truncate
from helpers import random_polynomial, reference_quadratize


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
@given(_polynomials())
def test_quadratize_matches_reference_greedy(poly):
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

