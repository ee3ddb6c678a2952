import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbe import (
    BinaryPolynomial,
    CapacityError,
    IsingPolynomial,
    fwht,
    leakage_transform,
    smoothness_report,
    synthesize_values,
    to_01_basis,
    truncate,
)
from tbe.walsh import squared_mass_by_degree, subset_degrees
from helpers import (
    discrete_derivative,
    naive_walsh,
    pointwise_derivative_values,
    random_polynomial,
    reference_smoothness,
    reference_leakage_transform,
    reference_to_01_basis,
    sparse_polynomials,
)


def test_fwht_two_point():
    # f(+1) = 1 at index 0, f(-1) = 0 at index 1
    coeffs = fwht([1.0, 0.0])
    assert coeffs[0] == pytest.approx(0.5)
    assert coeffs[1] == pytest.approx(0.5)


def test_fwht_constant_vector():
    coeffs = fwht([4.0] * 8)
    assert coeffs[0] == pytest.approx(4.0)
    assert np.abs(coeffs[1:]).max() == 0.0


def test_fwht_matches_naive_definition():
    rng = np.random.default_rng(33)
    values = rng.normal(size=16)
    assert np.allclose(fwht(values), naive_walsh(values), atol=1e-12)


def test_fwht_unnormalized_involution():
    rng = np.random.default_rng(34)
    values = rng.normal(size=32)
    twice = fwht(fwht(values, normalize=False), normalize=False)
    assert np.allclose(twice, 32 * values, atol=1e-9)


def test_synthesis_inverts_transform():
    rng = np.random.default_rng(35)
    values = rng.normal(size=64)
    assert np.allclose(synthesize_values(fwht(values)), values, atol=1e-12)


def test_fwht_parseval():
    rng = np.random.default_rng(36)
    values = rng.normal(size=128)
    coeffs = fwht(values)
    assert np.sum(coeffs**2) == pytest.approx(np.mean(values**2), rel=1e-9)


def _copy_butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized butterfly that copies both halves before each level."""
    out = np.array(values, dtype=float)
    h = 1
    while h < out.size:
        out = out.reshape(-1, 2, h)
        a = out[:, 0, :].copy()
        b = out[:, 1, :].copy()
        out[:, 0, :] = a + b
        out[:, 1, :] = a - b
        h *= 2
    return out.reshape(-1)


@pytest.mark.parametrize("dim", range(13))
def test_fwht_matches_the_copy_based_butterfly_bitwise(dim):
    values = np.random.default_rng(dim).normal(size=1 << dim)
    before = values.tobytes()
    want = _copy_butterfly(values)
    assert fwht(values, normalize=False).tobytes() == want.tobytes()
    assert fwht(values).tobytes() == (want / values.size).tobytes()
    assert values.tobytes() == before


def test_fwht_rejects_bad_lengths():
    with pytest.raises(ValueError, match="power of two"):
        fwht([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="power of two"):
        fwht([])


def test_fwht_dimension_cap():
    with pytest.raises(CapacityError, match="26"):
        fwht(np.zeros(1 << 27))


def test_leakage_single_bit():
    poly = leakage_transform(BinaryPolynomial(1, {0b1: 1.0}))
    assert poly.terms == {0: 0.5, 1: -0.5}


def test_leakage_two_bit_product():
    poly = leakage_transform(BinaryPolynomial(2, {0b11: 1.0}))
    assert poly.terms == {0: 0.25, 1: -0.25, 2: -0.25, 3: 0.25}


def test_leakage_pointwise_equivalence():
    rng = np.random.default_rng(37)
    terms = {}
    for _ in range(12):
        mask = int(rng.integers(0, 1 << 6))
        if mask.bit_count() <= 3:
            terms[mask] = float(rng.normal())
    poly01 = BinaryPolynomial(6, terms)
    ising = leakage_transform(poly01)
    for bits in range(64):
        # same mask is both the set of 1-bits and the set of -1 spins
        assert ising.evaluate_mask(bits) == pytest.approx(poly01.evaluate_bits(bits), abs=1e-12)


def test_to_01_round_trip():
    rng = np.random.default_rng(23)
    poly = random_polynomial(rng, 8, 30)
    again = leakage_transform(to_01_basis(poly))
    keys = set(poly.terms) | set(again.terms)
    for s in keys:
        assert again.terms.get(s, 0.0) == pytest.approx(poly.terms.get(s, 0.0), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(sparse_polynomials(st.floats(-1e6, 1e6) | st.sampled_from([1.0, -1.0, 0.5, -2.0, 1e-300])))
@example(IsingPolynomial(0, {}))
@example(IsingPolynomial(130, {}))
@example(IsingPolynomial(0, {0: 2.5}))
@example(IsingPolynomial(70, {0: -1.0}))
@example(IsingPolynomial(3, {0: -1.0, 0b1: 1.0}))  # the constants cancel to 0
def test_to_01_basis_matches_the_reference_walk(poly):
    got, want = to_01_basis(poly), reference_to_01_basis(poly)
    assert got.num_vars == want.num_vars
    assert list(got.terms) == list(want.terms)
    assert [c.hex() for c in got.terms.values()] == [c.hex() for c in want.terms.values()]


@settings(max_examples=300, deadline=None)
@given(sparse_polynomials(st.floats(-1e6, 1e6) | st.sampled_from([1.0, -1.0, 0.5, -2.0, 1e-300])).map(
    lambda poly: BinaryPolynomial(poly.num_qubits, dict(poly.terms))))
@example(BinaryPolynomial(0, {}))
@example(BinaryPolynomial(130, {}))
@example(BinaryPolynomial(0, {0: 2.5}))
@example(BinaryPolynomial(2, {0: -0.5, 0b1: 1.0}))  # the constants cancel to 0
@example(BinaryPolynomial(2, {0b11: 4.0, 0b1: -2.0, 0b10: -2.0, 0: 1.0}))  # all but z0 z1 cancels
@example(BinaryPolynomial(130, {1 << 129 | 1 << 64 | 1: 3.0, 1 << 64: -1.5, 0: 0.75}))
def test_leakage_transform_matches_the_reference_walk(poly01):
    got, want = leakage_transform(poly01), reference_leakage_transform(poly01)
    assert got.num_qubits == want.num_qubits
    assert list(got.terms) == list(want.terms)
    assert [c.hex() for c in got.terms.values()] == [c.hex() for c in want.terms.values()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_to_01_basis_refuses_a_sum_past_the_float_range():
    # -2 * 1e308 overflowed with a RuntimeWarning, and the prune against
    # an infinite largest term then dropped every term
    with pytest.raises(ValueError, match="non-finite coupling -inf at key 0x1"):
        to_01_basis(IsingPolynomial(1, {1: 1e308, 0: 1.0}))


def test_to_01_inverse_of_leakage_example():
    poly01 = to_01_basis(IsingPolynomial(1, {0: 0.5, 1: -0.5}))
    assert poly01.terms == {1: 1.0}


def test_constants_are_basis_independent():
    assert to_01_basis(IsingPolynomial(3, {0: 2.5})).terms == {0: 2.5}
    assert leakage_transform(BinaryPolynomial(3, {0: 2.5})).terms == {0: 2.5}


def test_degree_k_01_monomial_touches_all_lower_degrees():
    poly = leakage_transform(BinaryPolynomial(4, {0b1111: 1.0}))
    present = {s.bit_count() for s in poly.terms}
    assert present == {0, 1, 2, 3, 4}


def test_derivative_of_single_modes():
    chi_q = IsingPolynomial(3, {0b001: 1.0})
    assert discrete_derivative(chi_q, 0b001).terms == {0: 1.0}
    chi_p = IsingPolynomial(3, {0b010: 1.0})
    assert discrete_derivative(chi_p, 0b001).terms == {}


def test_derivative_subset_containment():
    poly = IsingPolynomial(3, {0: 5.0, 0b111: 3.0})
    deriv = discrete_derivative(poly, 0b011)
    assert deriv.terms == {0b100: 3.0}


def test_derivative_matches_pointwise_half_differences():
    rng = np.random.default_rng(38)
    for n in (4, 6, 8):
        poly = random_polynomial(rng, n, 20)
        values = synthesize_values(
            np.array([poly.terms.get(m, 0.0) for m in range(1 << n)])
        )
        for _ in range(5):
            subset = int(rng.integers(1, 1 << n))
            spectral = discrete_derivative(poly, subset)
            direct = pointwise_derivative_values(values, subset)
            for mask in range(1 << n):
                assert spectral.evaluate_mask(mask) == pytest.approx(
                    float(direct[mask]), abs=1e-9
                )


def test_smoothness_single_walsh_mode():
    # f = chi_T with |T| = 3 on 3 coordinates
    values = synthesize_values(np.array([0.0] * 7 + [1.0]))
    report = smoothness_report(values)
    assert report.tail_identity_lhs[1] == pytest.approx(3.0)  # k = 2
    assert report.tail_identity_rhs[1] == pytest.approx(3.0)
    assert report.lipschitz == (1.0, 1.0, 1.0)


def test_smoothness_constant_function():
    report = smoothness_report([7.0] * 16)
    assert report.lipschitz == (0.0, 0.0, 0.0, 0.0)
    assert all(x == 0.0 for x in report.tail_identity_lhs)


def test_smoothness_identity_and_bound_random_table():
    rng = np.random.default_rng(39)
    values = rng.normal(size=64)
    report = smoothness_report(values)
    for k in range(1, 7):
        lhs = report.tail_identity_lhs[k - 1]
        rhs = report.tail_identity_rhs[k - 1]
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        assert lhs <= report.tail_bound[k - 1] + 1e-9
        # spectral tail consequences of the identity
        assert report.per_degree_power[k] <= report.tail_bound[k - 1] + 1e-9
        assert sum(report.per_degree_power[k:]) <= report.tail_bound[k - 1] + 1e-9


def test_smoothness_geometric_ratio_of_decaying_table():
    # additive table: only degree <= 1 mass, so L_2 onward vanish
    coeffs = np.zeros(16)
    coeffs[0b0001] = 1.0
    coeffs[0b0010] = 0.5
    report = smoothness_report(synthesize_values(coeffs))
    assert report.lipschitz[0] > 0
    assert report.lipschitz[1] == 0.0
    assert report.geometric_ratio is None  # no consecutive positive pair


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(-3, 3), st.integers(0, 2**32 - 1))
def test_smoothness_scan_matches_the_per_subset_loop(dim, decade, seed):
    values = np.random.default_rng(seed).normal(size=1 << dim) * 10.0**decade
    report = smoothness_report(values)
    reference = reference_smoothness(values)
    # the same half-differences in the same ascending-bit order
    assert report.lipschitz == reference.lipschitz
    assert report.dim == reference.dim == dim
    for field in ("per_degree_power", "tail_identity_lhs", "tail_identity_rhs", "tail_bound"):
        got, want = getattr(report, field), getattr(reference, field)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-12 * abs(y)
    if reference.geometric_ratio is None:
        assert report.geometric_ratio is None
    else:
        assert report.geometric_ratio == pytest.approx(reference.geometric_ratio, rel=1e-12)
    if dim == 0:
        assert report.lipschitz == report.tail_identity_rhs == report.tail_bound == ()


def test_smoothness_scan_at_its_cap_stays_small():
    values = np.random.default_rng(16).normal(size=1 << 16)
    tracemalloc.start()
    try:
        report = smoothness_report(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a single 3^16 array of entries would be 328 MiB
    assert peak < 64 << 20
    assert len(report.lipschitz) == 16
    with pytest.raises(CapacityError, match="cap 16"):
        smoothness_report(np.zeros(1 << 17))


def test_truncation_in_01_basis_leaks_into_kept_subsets():
    rng = np.random.default_rng(40)
    for _ in range(10):
        n = 8
        terms = {}
        for _ in range(15):
            mask = int(rng.integers(0, 1 << n))
            if mask.bit_count() <= 4:
                terms[mask] = float(rng.normal())
        poly01 = BinaryPolynomial(n, terms)
        cutoff = 2

        ising_route = truncate(leakage_transform(poly01), cutoff)
        kept01 = BinaryPolynomial(n, {s: c for s, c in terms.items() if s.bit_count() <= cutoff})
        basis_route = leakage_transform(kept01)

        for t in range(1 << n):
            if t.bit_count() > cutoff:
                continue
            # dropping high 0/1 terms shifts every kept coefficient by the
            # signed sum of their scaled supersets
            leak = 0.0
            for s, c in terms.items():
                if s.bit_count() > cutoff and s & t == t:
                    leak += c / (1 << s.bit_count())
            if t.bit_count() % 2:
                leak = -leak
            diff = basis_route.terms.get(t, 0.0) - ising_route.terms.get(t, 0.0)
            assert diff == pytest.approx(-leak, abs=1e-12)


def test_squared_mass_by_degree_bins_pow_squares_in_order():
    # the spectrum has always squared with c**2 (libm pow); for these
    # values pow and c * c round differently on common libms
    a, b, c = 0.3624182010806754, 1.8871580461934296, -1.2291748224027053
    coeffs = np.array([[a, b], [c, -2.5]])
    got = squared_mass_by_degree(coeffs[None], np.array([[1, 2], [2, 3]]), 4)
    assert got.tolist() == [[0.0, a**2, b**2 + c**2, 6.25, 0.0]]
    assert subset_degrees(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]



@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=64))
@example([0.3624182010806754, 1.8871580461934296, -1.2291748224027053, -0.0, 5e-324])
def test_squared_mass_by_degree_squares_as_pow_does(values):
    # one coefficient per bin, so each bin holds exactly its square
    got = squared_mass_by_degree(np.array([values]), np.arange(len(values)), len(values) - 1)[0]
    assert got.view(np.int64).tolist() == np.array([c**2 for c in values]).view(np.int64).tolist()
