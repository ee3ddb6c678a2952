import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import (
    BinaryPolynomial,
    IsingPolynomial,
    hubo_from_json,
    hubo_to_json,
    mask_to_string,
    to_01_basis,
)
from tbe.polynomial import active_incidence, key_octets, octet_bits, octet_width, overlaps
from tbe.solve import AnnealParams, _metropolis
from tbe.truncation import residual, truncate
from tbe.verify import bitflip_descent
from helpers import naive_eval, qubit_list, random_polynomial, reference_mask_to_string


def test_empty_polynomial_evaluates_to_zero():
    poly = IsingPolynomial(3, {})
    assert poly.evaluate_mask(0b010) == 0.0


def test_two_term_evaluation():
    poly = IsingPolynomial(3, {0: 1.0, 0b11: 2.0})
    assert poly.evaluate_mask(0b111) == 3.0


def test_random_evaluation_matches_naive_products():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        poly = random_polynomial(rng, n, int(rng.integers(1, 20)))
        mask = int(rng.integers(0, 1 << n))
        got = poly.evaluate_mask(mask)
        assert got == pytest.approx(naive_eval(poly, mask), rel=1e-12, abs=1e-12)


def test_spin_mask_round_trip():
    # bit q set means spin q is -1; the string shows qubit 0 first
    assert mask_to_string(0b10110, 5) == "+--+-"
    assert mask_to_string(0, 3) == "+++"
    assert mask_to_string(0, 0) == ""


@given(st.integers(0, 2**300), st.integers(0, 260))
def test_mask_to_string_matches_the_shift_loop(mask, n):
    # masks wider than n drop their high bits, and n = 0 gives ""
    assert mask_to_string(mask, n) == reference_mask_to_string(mask, n)


def test_degree_and_pruning():
    poly = IsingPolynomial(4, {0b1011: 2.0, 0b1: 1e-20, 0: 5.0})
    assert poly.degree == 3
    assert 0b1 not in poly.terms  # below relative tolerance of the 2.0 peak
    assert poly.constant == 5.0


def test_degree_of_constant_polynomial_is_zero():
    assert IsingPolynomial(4, {0: 3.0}).degree == 0
    assert IsingPolynomial(4, {}).degree == 0


def test_qubit_cap_enforced():
    # keys and configuration masks are Python ints, so the only qubit
    # bound on a polynomial and its kernels is its own num_qubits
    wide = IsingPolynomial(65, {(1 << 64) | 1: 1.0, 1 << 63: -0.5})
    with pytest.raises(ValueError, match="outside"):
        IsingPolynomial(65, {1 << 65: 1.0})
    assert bitflip_descent(wide, 0) == (1, 1)  # flips qubit 0, the lowest of two tied gains
    mask, value = _metropolis(wide, AnnealParams(restarts=2, sweeps=20), 0)
    assert value == -1.5 and mask & (1 << 64 | 1 << 63 | 1) in (1, 1 << 64)
    at_64 = IsingPolynomial(64, {(1 << 63) | 1: 1.0, 1 << 63: 0.5})
    assert bitflip_descent(at_64, 0) == (1 << 63, 1)
    mask, value = _metropolis(at_64, AnnealParams(restarts=2, sweeps=20), 0)
    assert (mask & (1 << 63 | 1), value) == (1 << 63, -1.5)  # the idle qubits keep their random start


def test_term_key_out_of_range_rejected():
    with pytest.raises(ValueError, match="outside"):
        IsingPolynomial(2, {0b100: 1.0})


def test_non_finite_coupling_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        IsingPolynomial(2, {1: float("nan")})


@pytest.mark.parametrize(
    "n, terms, message",
    [
        (3, {0b1: 1.0, -1: 2.0}, "term key -0x1 references qubits outside [0, 3)"),
        (3, {0b1: 1.0, 0b1000: 2.0}, "term key 0x8 references qubits outside [0, 3)"),
        (130, {1 << 129: 1.0, 1 << 130: 2.0}, f"term key {1 << 130:#x} references qubits outside [0, 130)"),
        # several bad keys: the first in insertion order is named, whichever is largest or smallest
        (3, {0b1: 1.0, 0b10000: 2.0, -5: 3.0, 0b1000: 4.0}, "term key 0x10 references qubits outside [0, 3)"),
        (3, {-1: 1.0, 0b1000: 2.0, -5: 3.0}, "term key -0x1 references qubits outside [0, 3)"),
        (3, {0b10: 1.0, 0b1: float("nan")}, "non-finite coupling nan at key 0x1"),
        (3, {0b10: float("inf"), 0b1: 1.0}, "non-finite coupling inf at key 0x2"),
        (3, {0b10: 1.0, 0: float("-inf")}, "non-finite coupling -inf at key 0x0"),
    ],
    ids=["negative", "past-n", "past-n-wide", "first-of-several", "first-negative", "nan", "inf", "-inf"],
)
def test_construction_errors_name_the_first_bad_key(n, terms, message):
    with pytest.raises(ValueError) as info:
        IsingPolynomial(n, terms)
    assert str(info.value) == message


def test_terms_are_read_only():
    poly = IsingPolynomial(3, {0b11: 1.0, 0: 2.0})
    with pytest.raises(TypeError):
        poly.terms[0b100] = 1.0
    with pytest.raises(TypeError):
        poly.terms[0] = 5.0
    with pytest.raises(TypeError):
        del poly.terms[0]
    assert tuple(poly.terms) == (0, 0b11)


def test_polynomial_pickles_and_copies():
    poly = IsingPolynomial(70, {1 << 69: 2.0, 0b11: 1.0, 0: 0.5})
    for again in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly), copy.copy(poly)):
        assert again == poly
        assert tuple(again.terms.items()) == tuple(poly.terms.items())


def test_addition_merges_terms():
    a = IsingPolynomial(2, {1: 1.0, 3: 2.0})
    b = IsingPolynomial(2, {1: -1.0, 2: 4.0})
    c = a + b
    assert c.terms == {3: 2.0, 2: 4.0}


def test_hubo_json_round_trip():
    rng = np.random.default_rng(23)
    poly = random_polynomial(rng, 8, 25)
    again = hubo_from_json(hubo_to_json(poly))
    assert again.num_qubits == poly.num_qubits
    assert again.terms == poly.terms


def test_hubo_json_term_order_is_degree_then_lexicographic():
    import json

    poly = IsingPolynomial(3, {0b111: 1.0, 0b1: 2.0, 0: 3.0, 0b110: 4.0})
    doc = json.loads(hubo_to_json(poly))
    assert [entry["qubits"] for entry in doc["terms"]] == [[], [0], [1, 2], [0, 1, 2]]


def test_binary_polynomial_evaluation():
    poly = BinaryPolynomial(3, {0: 1.0, 0b101: 2.0})
    assert poly.evaluate_bits(0b101) == 3.0
    assert poly.evaluate_bits(0b001) == 1.0
    assert poly.evaluate_bits(0b111) == 3.0


def test_binary_polynomial_refuses_a_non_finite_coefficient():
    # a NaN made the prune drop every term, the finite one too
    with pytest.raises(ValueError, match="non-finite coupling nan at key 0x1"):
        BinaryPolynomial(2, {1: float("nan"), 2: 1.0})


@pytest.mark.parametrize("kind", [IsingPolynomial, BinaryPolynomial])
def test_from_octets_refuses_a_repeated_key(kind):
    # both rows were stored, but terms kept only the last: the arrays
    # summed to 3 where terms read 2
    with pytest.raises(ValueError, match="term key 0x1 is repeated"):
        kind.from_octets(1, [[1], [1]], [1.0, 2.0])
    with pytest.raises(ValueError, match="term key 0x102 is repeated"):
        kind.from_octets(9, [[2, 1], [0, 1], [2, 1]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="term key 0x0 is repeated"):
        kind.from_octets(0, np.zeros((2, 0), np.uint8), [1.0, 2.0])
    assert dict(kind.from_octets(9, [[2, 1], [0, 1]], [1.0, 2.0]).terms) == {0x102: 1.0, 0x100: 2.0}


def test_binary_polynomial_terms_are_read_only():
    poly = BinaryPolynomial(2, {1: 1.0})
    with pytest.raises(TypeError):
        poly.terms[5] = 2.0
    assert dict(poly.terms) == {1: 1.0} and poly.degree == 1


def test_degree_starts_bracket_each_degree():
    poly = IsingPolynomial(4, {0b110: -3.0, 0: 9.0, 0b1111: 1e-20, 1: 2.0, 0b1011: 0.5})
    # the pruned degree-4 term leaves degree 3 on top
    assert poly.degree_starts == (0, 1, 2, 3, 4)
    assert poly.degree == 3
    values = list(poly.terms.values())
    assert sum(c * c for c in values[poly.degree_starts[1] :]) == 4.0 + 9.0 + 0.25
    assert IsingPolynomial(3, {}).degree_starts == (0, 0)
    assert IsingPolynomial(0, {0: 1.5}).degree_starts == (0, 1)


# --- direct HUBO-JSON writer and the canonical term order ----------------


def _reference_order(terms):
    return tuple(sorted(terms, key=lambda s: (s.bit_count(), qubit_list(s))))


def _dumps_reference(poly):
    doc = {
        "num_qubits": poly.num_qubits,
        "terms": [{"qubits": qubit_list(s), "coeff": poly.terms[s]} for s in _reference_order(poly.terms)],
    }
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def _spin_polynomials(draw):
    n = draw(st.integers(0, 130))
    masks = st.integers(0, (1 << n) - 1)
    floats = st.floats(-1e6, 1e6).filter(lambda c: abs(c) > 1e-6)
    exact = st.sampled_from([1, -7, 12345, 0.1, -1e-5, 1.0000000000000002, 123456.789])
    return IsingPolynomial(n, draw(st.dictionaries(masks, floats | exact, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(_spin_polynomials())
def test_hubo_to_json_matches_json_dumps(poly):
    assert hubo_to_json(poly) == _dumps_reference(poly)


@pytest.mark.parametrize(
    "poly",
    [
        IsingPolynomial(0, {}),
        IsingPolynomial(5, {}),
        IsingPolynomial(3, {0: 2.5}),
        IsingPolynomial(3, {0: 4, 0b101: -3, 0b10: 1}),
        IsingPolynomial(64, {1 << 63: 1e-300, (1 << 63) | 1: 1e-300 * 3.0, 0: 0.1 + 0.2}),
    ],
    ids=["empty-no-qubits", "empty", "constant-only", "int-coefficients", "wide-and-tiny"],
)
def test_hubo_to_json_matches_json_dumps_edge_cases(poly):
    assert hubo_to_json(poly) == _dumps_reference(poly)


def test_int_couplings_are_stored_as_float64():
    poly = IsingPolynomial(3, {0: 4, 0b101: -3})
    assert poly.coeffs.dtype == np.float64
    assert [type(c) for c in poly.terms.values()] == [float, float]
    assert poly.constant == 4.0 and type(poly.constant) is float
    assert '"coeff": 4.0' in hubo_to_json(poly)


def test_hubo_to_json_formats_negative_zero_as_json_does():
    # the constructor prunes zero couplings, so swap in -0.0 couplings
    # afterwards, in canonical order, to pin the formatter itself
    poly = IsingPolynomial(2, {0: 1.0, 0b1: 1.0, 0b11: 1.0})
    object.__setattr__(poly, "coeffs", np.array([-0.0, float("-0.0"), 1.0]))
    assert '"coeff": -0.0' in hubo_to_json(poly)
    assert hubo_to_json(poly) == _dumps_reference(poly)


def _assert_canonical(poly):
    assert tuple(poly.terms) == _reference_order(poly.terms)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 130).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=60).map(lambda ks: (n, ks))),
    st.data())
def test_term_order_is_degree_then_qubit_list(case, data):
    n, keys = case
    want = _reference_order(keys)
    # a spin polynomial stores its terms canonically, whatever order they were built in
    shuffled = data.draw(st.permutations(keys))
    for order in (keys, shuffled, want[::-1]):
        assert tuple(IsingPolynomial(n, {s: 1.0 for s in order}).terms) == want
    poly = IsingPolynomial(n, {s: 1.0 + q for q, s in enumerate(shuffled)})
    for k in (1, 2, 3):
        _assert_canonical(truncate(poly, k))
        _assert_canonical(residual(poly, k))
    _assert_canonical(poly.shifted(3, n + 3))
    _assert_canonical(poly + IsingPolynomial(n, {s ^ (n > 0): 0.5 for s in shuffled}))
    doc = {"num_qubits": n, "terms": [{"qubits": qubit_list(s), "coeff": 2.0} for s in shuffled]}
    assert tuple(hubo_from_json(json.dumps(doc)).terms) == want


# --- the stored arrays ---------------------------------------------------


@st.composite
def _stored_polynomials(draw):
    """Up to 130 qubits, so keys take more than 8 and more than 16
    bytes; low-degree keys as well as uniform ones, and couplings below
    the 1e-14 prune among them."""
    n = draw(st.integers(0, 130))
    if n == 0:
        masks = st.just(0)
    else:
        few = st.lists(st.integers(0, n - 1), max_size=5).map(lambda qs: sum(1 << q for q in set(qs)))
        masks = st.integers(0, (1 << n) - 1) | few
    couplings = st.floats(-1e6, 1e6) | st.sampled_from([1e-16, -3e-15, 1e-300, 0.0, -0.0, 7])
    return IsingPolynomial(n, draw(st.dictionaries(masks, couplings, max_size=60)))


@settings(max_examples=200, deadline=None)
@given(_stored_polynomials())
def test_stored_rows_are_the_terms(poly):
    width = octet_width(poly.num_qubits)
    items = list(poly.terms.items())
    assert poly.octets.shape == (len(items), width) and poly.octets.dtype == np.uint8
    assert poly.coeffs.shape == (len(items),) and poly.coeffs.dtype == np.float64
    for t, (s, c) in enumerate(items):
        assert poly.octets[t].tobytes() == s.to_bytes(width, "little")
        assert poly.coeffs[t] == c and type(c) is float


@settings(max_examples=200, deadline=None)
@given(_stored_polynomials())
def test_sliced_cuts_equal_rebuilt_filters(poly):
    n = poly.num_qubits
    for k in range(1, poly.degree + 2):
        for got, keep in ((truncate(poly, k), lambda s: s.bit_count() <= k),
                          (residual(poly, k), lambda s: s.bit_count() > k)):
            want = IsingPolynomial(n, {s: c for s, c in poly.terms.items() if keep(s)})
            assert got == want
            assert got.degree_starts == want.degree_starts
            assert tuple(got.terms.items()) == tuple(want.terms.items())


@settings(max_examples=100, deadline=None)
@given(_stored_polynomials())
def test_pickled_polynomial_is_equal_and_read_only(poly):
    # and the 0/1-basis form of its terms up to degree 5 (2^d subsets each)
    for original in (poly, to_01_basis(truncate(poly, 5))):
        for again in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert again == original
            assert getattr(again, "degree_starts", None) == getattr(original, "degree_starts", None)
            assert tuple(again.terms.items()) == tuple(original.terms.items())
            for stored in (again, original):
                assert not stored.octets.flags.writeable and not stored.coeffs.flags.writeable
                with pytest.raises(TypeError):
                    stored.terms[0] = 1.0
                with pytest.raises(AttributeError):
                    stored.num_qubits = 3


# --- the term x qubit incidence ------------------------------------------

# keys on the qubits of a random mask, so some qubits idle, and masks
# that may hold any qubit
_keys_and_masks = st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 130]).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.lists(st.integers(0, (1 << n) - 1), max_size=12),
        st.lists(st.integers(0, (1 << n) - 1), max_size=6),
    )
)


@settings(max_examples=200, deadline=None)
@given(_keys_and_masks)
def test_overlaps_count_the_shared_qubits(case):
    n, held, keys, masks = case
    keys = [s & held for s in keys]
    masks = [*masks, (1 << n) - 1]  # every idle qubit set too
    got = overlaps(key_octets(keys, n), masks)
    assert got.shape == (len(masks), len(keys))
    assert got.tolist() == [[(s & m).bit_count() for s in keys] for m in masks]


@settings(max_examples=200, deadline=None)
@given(_keys_and_masks)
def test_active_incidence_is_octet_bits_on_the_held_qubits(case):
    n, held, keys, _ = case
    octets = key_octets([s & held for s in keys], n)
    qubits, incidence = active_incidence(octets)
    bits = octet_bits(octets, n)
    used = np.flatnonzero(bits.any(axis=0))
    assert qubits.tolist() == used.tolist()
    assert incidence.dtype == bool and np.array_equal(incidence, bits[:, used])
