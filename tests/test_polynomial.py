import copy
import json
import pickle
import tracemalloc

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
from tbe.polynomial import MAX_ABS_COST, characters, float_texts, held_qubits, hubo_texts, key_lists, list_keys
from tbe.quadratization import QuboModel
from tbe.solve import AnnealParams, _metropolis
from tbe.truncation import residual, truncate
from tbe.verify import bitflip_descent
from helpers import add_polynomials, naive_eval, qubit_list, random_polynomial, reference_mask_to_string, shifted


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
    mask, value, _, _ = _metropolis(wide, AnnealParams(restarts=2, sweeps=20), 0)
    assert value == -1.5 and mask & (1 << 64 | 1 << 63 | 1) in (1, 1 << 64)
    at_64 = IsingPolynomial(64, {(1 << 63) | 1: 1.0, 1 << 63: 0.5})
    assert bitflip_descent(at_64, 0) == (1 << 63, 1)
    mask, value, _, _ = _metropolis(at_64, AnnealParams(restarts=2, sweeps=20), 0)
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
    c = add_polynomials(a, b)
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
def test_from_lists_refuses_a_repeated_key(kind):
    # both terms were stored, but terms kept only the last: the arrays
    # summed to 3 where terms read 2
    with pytest.raises(ValueError, match="term key 0x1 is repeated"):
        kind.from_lists(1, [0, 0], [0, 1, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match="term key 0x102 is repeated"):
        kind.from_lists(9, [1, 8, 8, 1, 8], [0, 2, 3, 5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="term key 0x0 is repeated"):
        kind.from_lists(0, [], [0, 0, 0], [1.0, 2.0])
    assert dict(kind.from_lists(9, [1, 8, 8], [0, 2, 3], [1.0, 2.0]).terms) == {0x102: 1.0, 0x100: 2.0}


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
    # the float text switches notation at |c| = 1e-4 and 1e16 (float_texts)
    floats = (
        st.floats(-1e6, 1e6).filter(lambda c: abs(c) > 1e-6)
        | st.floats(-MAX_ABS_COST, MAX_ABS_COST)
        | st.floats(-1e-4, 1e-4)
    )
    exact = st.sampled_from(
        [1, -7, 12345, 0.1, -1e-5, 1.0000000000000002, 123456.789, 1e16, -9999999999999998.0, 1e-4, -1e-300]
    )
    return IsingPolynomial(n, draw(st.dictionaries(masks, floats | exact, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(_spin_polynomials())
def test_hubo_to_json_matches_json_dumps(poly):
    assert hubo_to_json(poly) == _dumps_reference(poly)


@settings(max_examples=200, deadline=None)
@given(_spin_polynomials())
def test_hubo_texts_are_the_json_of_every_prefix_of_the_terms(poly):
    # a truncation keeps a prefix of the stored terms, so its text is one
    # of these, from the same formatting of each term as the whole's
    terms = list(poly.terms.items())
    counts = list(range(0, len(terms) + 1, 2)) + list(range(1, len(terms) + 1, 2))
    for t, text in zip(counts, hubo_texts(poly, counts)):
        assert text == _dumps_reference(IsingPolynomial(poly.num_qubits, dict(terms[:t])))


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


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(float.__repr__, values.tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=200))
def test_float_texts_are_the_reprs_of_any_bit_patterns(patterns):
    # NaN (any payload), the infinities and subnormals included
    values = np.array(patterns, np.uint64).view(np.float64)
    assert float_texts(values) == _reprs(values)


_NOTATION_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
    1.7976931348623157e308, -1.7976931348623157e308, float("nan"), float("inf"), float("-inf"), MAX_ABS_COST,
    *(x * sign for edge in (1e-4, 1e16) for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
      for sign in (1.0, -1.0)),
    1e-5, 0.00012, 123456789012345.6, 1e15, 0.1, 1.0, 1e22, 1e-7,
]


def test_float_texts_keep_repr_at_the_notation_edges():
    values = np.array(_NOTATION_EDGES)
    assert float_texts(values) == _reprs(values)
    assert float_texts(values)[-8:] == ["1e-05", "0.00012", "123456789012345.6", "1000000000000000.0", "0.1", "1.0",
                                        "1e+22", "1e-07"]


def test_float_texts_take_any_float64_array():
    values = np.array(_NOTATION_EDGES)
    assert float_texts(np.array([])) == []
    assert float_texts(values[::3]) == _reprs(values[::3])  # not contiguous
    read_only = values.copy()
    read_only.flags.writeable = False
    assert float_texts(read_only) == _reprs(values)
    assert float_texts(values.astype(">f8")) == _reprs(values)  # not in native byte order


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
    _assert_canonical(shifted(poly, 3, n + 3))
    _assert_canonical(add_polynomials(poly, IsingPolynomial(n, {s ^ (n > 0): 0.5 for s in shuffled})))
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
    items = list(poly.terms.items())
    assert poly.offsets.shape == (len(items) + 1,) and poly.offsets.dtype == np.int64
    assert poly.qubits.shape == (poly.offsets[-1],) and poly.qubits.dtype == np.int64
    assert poly.coeffs.shape == (len(items),) and poly.coeffs.dtype == np.float64
    for t, (s, c) in enumerate(items):
        assert poly.qubits[poly.offsets[t] : poly.offsets[t + 1]].tolist() == qubit_list(s)
        assert poly.coeffs[t] == c and type(c) is float
    # the terms of one degree are the rows of a view of the qubits
    for d in range(poly.degree + 1):
        rows = poly.degree_rows(d)
        assert rows.shape[1] == d and (np.shares_memory(rows, poly.qubits) or not rows.size)
        assert rows.tolist() == [qubit_list(s) for s in poly.terms if s.bit_count() == d]


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
                for array in (stored.qubits, stored.offsets, stored.coeffs):
                    assert not array.flags.writeable
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
def test_characters_are_the_parities_of_the_shared_qubits(case):
    n, held, keys, masks = case
    keys = [s & held for s in keys]
    masks = [*masks, (1 << n) - 1]  # every idle qubit set too
    got = characters(*key_lists(keys, n), masks)
    assert got.shape == (len(masks), len(keys)) and got.flags.c_contiguous
    assert got.tolist() == [[-1.0 if (s & m).bit_count() % 2 else 1.0 for s in keys] for m in masks]


@settings(max_examples=200, deadline=None)
@given(_keys_and_masks)
def test_held_qubits_are_the_set_bits_of_each_key(case):
    n, held, keys, _ = case
    keys = [s & held for s in keys]
    qubits, offsets = key_lists(keys, n)
    term, qubit = held_qubits(qubits, offsets)
    want = [(t, q) for t, s in enumerate(keys) for q in range(n) if s >> q & 1]
    assert list(zip(term.tolist(), qubit.tolist())) == want
    assert list_keys(qubits, offsets) == keys


# --- qubit lists against Python-int references ---------------------------

_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 130]


@st.composite
def _distinct_keys(draw, max_degree=None):
    """A width from ``_WIDTHS`` and distinct keys over it: sparse ones
    (a few qubits), and uniform ones when no degree bound is given."""
    n = draw(st.sampled_from(_WIDTHS))
    if n == 0:
        return n, draw(st.lists(st.just(0), max_size=1))
    top = 3 if max_degree is None else max_degree
    few = st.lists(st.integers(0, n - 1), max_size=top).map(lambda qs: sum(1 << q for q in set(qs)))
    masks = few if max_degree is not None else st.integers(0, (1 << n) - 1) | few
    return n, draw(st.lists(masks, unique=True, max_size=30))


def _mask_order(keys):
    return sorted(keys, key=lambda s: (s.bit_count(), s))


@settings(max_examples=200, deadline=None)
@given(_distinct_keys(), st.data())
def test_qubit_lists_agree_with_int_keys(case, data):
    n, keys = case
    coeffs = {s: float(k + 1) for k, s in enumerate(keys)}
    qubits, offsets = key_lists(keys, n)
    assert list_keys(qubits, offsets) == keys
    # the canonical order, from the lists in any order
    order = data.draw(st.permutations(range(len(keys))))
    shuffled = [keys[k] for k in order]
    lists = [q for s in shuffled for q in qubit_list(s)]
    ends = np.cumsum([0] + [s.bit_count() for s in shuffled])
    poly = IsingPolynomial.from_lists(n, lists, ends, [coeffs[s] for s in shuffled])
    assert tuple(poly.terms.items()) == tuple((s, coeffs[s]) for s in _reference_order(keys))
    assert poly == IsingPolynomial(n, coeffs)
    # a 0/1-basis polynomial keeps the order given
    binary = BinaryPolynomial.from_lists(n, lists, ends, [coeffs[s] for s in shuffled])
    assert tuple(binary.terms) == tuple(shuffled)
    assert binary.degree == max((s.bit_count() for s in keys), default=0)
    for stored in (poly, binary):
        term, qubit = held_qubits(stored.qubits, stored.offsets)
        assert list(zip(term.tolist(), qubit.tolist())) == [
            (t, q) for t, s in enumerate(stored.terms) for q in qubit_list(s)
        ]
        masks = [0, (1 << n) - 1, *data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))]
        assert characters(stored.qubits, stored.offsets, masks).tolist() == [
            [-1.0 if (s & m).bit_count() % 2 else 1.0 for s in stored.terms] for m in masks
        ]
        again = pickle.loads(pickle.dumps(stored))
        assert again == stored and tuple(again.terms.items()) == tuple(stored.terms.items())
        assert again.qubits.tolist() == stored.qubits.tolist() and again.offsets.tolist() == stored.offsets.tolist()


@settings(max_examples=200, deadline=None)
@given(_distinct_keys(max_degree=2), st.data())
def test_qubo_terms_are_in_degree_then_mask_order(case, data):
    n, keys = case
    # a mask compares from its highest qubit down, not as a qubit list
    shuffled = data.draw(st.permutations(keys))
    model = QuboModel(n, 0, {s: float(s.bit_length() + 1) for s in shuffled}, (), 1.0)
    assert tuple(model.terms) == tuple(_mask_order(keys))
    again = pickle.loads(pickle.dumps(model))
    assert again == model and tuple(again.terms.items()) == tuple(model.terms.items())


@settings(max_examples=200, deadline=None)
@given(_distinct_keys(max_degree=2).filter(lambda case: case[1]), st.data())
def test_repeated_keys_are_refused_naming_the_key(case, data):
    n, keys = case
    repeat = data.draw(st.sampled_from(keys))
    listed = [*keys, repeat]
    lists = [q for s in listed for q in qubit_list(s)]
    ends = np.cumsum([0] + [s.bit_count() for s in listed])
    ones = [1.0] * len(listed)
    message = f"term key {repeat:#x} is repeated"
    for build in (
        lambda: IsingPolynomial.from_lists(n, lists, ends, ones),
        lambda: BinaryPolynomial.from_lists(n, lists, ends, ones),
        lambda: QuboModel.from_lists(n, (), 1.0, lists, ends, ones),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("n", _WIDTHS[1:])
def test_keys_listing_bad_qubits_are_refused_naming_the_key(n):
    top = n - 1
    cases = [
        ([[0], [n]], f"term key {1 << n:#x} references qubits outside [0, {n})"),
        ([[top], [0, n + 5]], f"term key {1 | 1 << n + 5:#x} references qubits outside [0, {n})"),
        ([[-1]], f"term key with qubits [-1] references qubits outside [0, {n})"),
        ([[0], [top, top]], f"term key with qubits [{top}, {top}] does not list distinct qubits in ascending order"),
    ]
    if n > 1:
        cases.append(([[1, 0]], "term key 0x3 does not list distinct qubits in ascending order"))
    for lists, message in cases:
        flat = [q for qs in lists for q in qs]
        ends = np.cumsum([0] + [len(qs) for qs in lists])
        for build in (IsingPolynomial.from_lists, BinaryPolynomial.from_lists):
            with pytest.raises(ValueError) as info:
                build(n, flat, ends, [1.0] * len(lists))
            assert str(info.value) == message
        if max(map(len, lists)) <= 2:
            with pytest.raises(ValueError) as info:
                QuboModel.from_lists(n, (), 1.0, flat, ends, [1.0] * len(lists))
            assert str(info.value) == message


def _wide_sparse_hubo(seed: int) -> tuple[str, dict[int, float]]:
    """HUBO-JSON of 1528 terms of degree 1 to 3 on 200 of 10^5 qubits
    (about 90 KB), each listing its qubits in a random order, and its
    terms by key."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(100_000, 200, replace=False).tolist()
    entries, terms = [], {}
    while len(terms) < 1528:
        qubits = rng.choice(pool, int(rng.integers(1, 4)), replace=False).tolist()
        key = sum(1 << q for q in qubits)
        if key not in terms:
            terms[key] = float(rng.normal())
            entries.append({"qubits": qubits, "coeff": terms[key]})
    return json.dumps({"num_qubits": 100_000, "terms": entries}), terms


def test_wide_sparse_hubo_parses_in_memory_that_follows_its_terms():
    # key bytes over all 10^5 qubits took 18 MB and a parse peak of 84 MiB
    text, terms = _wide_sparse_hubo(0)
    assert 80_000 < len(text) < 130_000
    tracemalloc.start()
    try:
        poly = hubo_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert poly == IsingPolynomial(100_000, terms)
