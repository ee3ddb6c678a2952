import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import IsingPolynomial, certify, noise_floor_ok, residual, truncate
from tbe.truncation import certificate_json
from tbe.verify import dense_values
from helpers import random_polynomial


def test_truncate_above_degree_is_identity():
    poly = IsingPolynomial(4, {0: 1.0, 0b11: 2.0, 0b111: 3.0})
    assert truncate(poly, 3).terms == poly.terms
    assert truncate(poly, 10).terms == poly.terms


def test_truncate_drops_single_term():
    poly = IsingPolynomial(3, {0: 1.0, 1: 2.0, 0b111: 3.0})
    assert truncate(poly, 2).terms == {0: 1.0, 1: 2.0}
    assert residual(poly, 2).terms == {0b111: 3.0}


def test_truncate_idempotent_and_bit_identical():
    rng = np.random.default_rng(29)
    for _ in range(20):
        poly = random_polynomial(rng, 10, 40)
        k = int(rng.integers(1, 10))
        once = truncate(poly, k)
        assert truncate(once, k).terms == once.terms
        for s, c in once.terms.items():
            assert poly.terms[s] == c  # bit-identical carry-over


def test_residual_plus_truncation_restores_polynomial():
    rng = np.random.default_rng(29)
    for _ in range(20):
        poly = random_polynomial(rng, 12, 50)
        k = int(rng.integers(1, 12))
        low = truncate(poly, k)
        high = residual(poly, k)
        merged = dict(low.terms)
        merged.update(high.terms)
        assert merged == poly.terms
        assert not (set(low.terms) & set(high.terms))


def test_truncation_orthogonal_to_residual():
    rng = np.random.default_rng(30)
    poly = random_polynomial(rng, 10, 60)
    low = truncate(poly, 3)
    high = residual(poly, 3)
    inner = sum(low.terms.get(s, 0.0) * c for s, c in high.terms.items())
    assert inner == 0.0


def test_variance_splits_across_the_cut():
    rng = np.random.default_rng(31)
    poly = random_polynomial(rng, 10, 60)
    for k in range(1, 10):
        cert = certify(poly, k)
        split = truncate(poly, k).variance() + cert.power_above
        assert poly.variance() == pytest.approx(split, rel=1e-9)


def test_certificate_arithmetic_example():
    poly = IsingPolynomial(4, {0: 1.0, 1: 1.0, 0b0111: 0.5, 0b1111: -0.25})
    cert = certify(poly, 2)
    assert cert.epsilon == pytest.approx(0.75)
    assert cert.power_above == pytest.approx(0.3125)
    assert cert.l2_residual == pytest.approx(0.559016994, abs=1e-9)
    assert cert.omitted_nonzero == 2
    assert cert.omitted_combinatorial == (1 << 4) - (1 + 4 + 6)


def test_certificate_chain_and_common_sign():
    rng = np.random.default_rng(43)
    for _ in range(50):
        poly = random_polynomial(rng, 12, 60)
        for k in range(1, 13):
            cert = certify(poly, k)
            assert math.sqrt(cert.power_above) <= cert.epsilon + 1e-12
            assert cert.epsilon <= math.sqrt(cert.omitted_nonzero * cert.power_above) + 1e-12
            assert (cert.epsilon == 0.0) == (poly.degree <= k)


def test_common_sign_saturates_at_all_plus():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = 8
        terms = {int(m): abs(float(rng.normal())) for m in rng.choice(1 << n, 25, replace=False)}
        terms[0b1] = float(rng.normal())  # kept side may be anything
        poly = IsingPolynomial(n, terms)
        cert = certify(poly, 2)
        assert cert.common_sign_saturation
        res = residual(poly, 2)
        # all-plus configuration is mask 0; sum in canonical order equals epsilon
        value = res.evaluate_mask(0)
        assert value == cert.epsilon
        worst = float(np.abs(dense_values(res)).max())
        assert worst == pytest.approx(cert.epsilon, abs=1e-12)


def test_residual_never_exceeds_epsilon():
    rng = np.random.default_rng(45)
    poly = random_polynomial(rng, 12, 80)
    cert = certify(poly, 2)
    res = residual(poly, 2)
    worst = float(np.abs(dense_values(res)).max())
    assert worst <= cert.epsilon + 1e-12
    assert not cert.common_sign_saturation or worst == pytest.approx(cert.epsilon)


def test_certify_validates_inputs():
    poly = IsingPolynomial(3, {1: 1.0})
    with pytest.raises(ValueError, match="k_max"):
        certify(poly, 0)
    zero = certify(IsingPolynomial(3, {}), 2)  # the zero polynomial omits nothing
    assert (zero.epsilon, zero.l2_residual, zero.omitted_nonzero) == (0.0, 0.0, 0)
    assert (zero.weak_noise_floor_ratio, zero.strong_noise_floor_margin) == (0.0, 0.0)
    assert zero.common_sign_saturation
    with pytest.raises(ValueError, match="k_max"):
        truncate(poly, 0)


def test_certificate_excludes_constant_from_ratios():
    poly = IsingPolynomial(3, {0: 100.0, 1: 1.0, 0b111: 1.0})
    cert = certify(poly, 2)
    assert cert.power_below == pytest.approx(1.0)  # constant not counted
    assert cert.weak_noise_floor_ratio == pytest.approx(1.0)
    assert cert.strong_noise_floor_margin == pytest.approx(1.0 * 3 / 2)


def test_weak_ratio_none_when_nothing_kept():
    poly = IsingPolynomial(3, {0b111: 1.0})
    cert = certify(poly, 2)
    assert cert.weak_noise_floor_ratio is None
    assert cert.strong_noise_floor_margin is None
    assert noise_floor_ok(cert) == (False, False)


def test_noise_floor_thresholds():
    poly = IsingPolynomial(4, {1: 10.0, 0b1111: 0.1})
    cert = certify(poly, 2)
    weak_ok, strong_ok = noise_floor_ok(cert, weak_threshold=1e-3, strong_threshold=1e-3)
    assert weak_ok and strong_ok
    weak_ok, strong_ok = noise_floor_ok(cert, weak_threshold=1e-6, strong_threshold=1e-6)
    assert not weak_ok and not strong_ok
    # nothing omitted passes any threshold
    cert0 = certify(poly, 4)
    assert noise_floor_ok(cert0, 0.0, 0.0) == (True, True)


def test_certificate_json_field_order():
    import json

    poly = IsingPolynomial(3, {1: 1.0, 0b111: 0.5})
    doc = json.loads(certificate_json(certify(poly, 2)))
    assert list(doc.keys()) == [
        "k_max",
        "epsilon",
        "l2_residual",
        "P_below",
        "P_above",
        "omitted_nonzero",
        "omitted_combinatorial",
        "weak_ratio",
        "strong_margin",
        "common_sign_saturation",
    ]


# --- the certificate bound as a property ---------------------------------


@st.composite
def _cut_polynomials(draw):
    """A polynomial of up to 12 qubits and a cut k in 1..4; half the
    time every coupling above k shares one sign."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    couplings = (st.floats(-100.0, 100.0) | st.floats(-1.0, 1.0)).filter(lambda c: abs(c) > 1e-3)
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1), couplings, max_size=40))
    sign = draw(st.sampled_from([None, 1.0, -1.0]))
    if sign is not None:
        terms = {s: sign * abs(c) if s.bit_count() > k else c for s, c in terms.items()}
    return IsingPolynomial(n, terms), k


@settings(max_examples=300, deadline=None)
@given(_cut_polynomials(), st.data())
def test_certificate_bounds_the_truncation_error(case, data):
    poly, k = case
    cert = certify(poly, k)
    low = truncate(poly, k)
    high = residual(poly, k)
    roundoff = 1e-12 * sum(abs(c) for c in poly.terms.values())
    masks = data.draw(st.lists(st.integers(0, (1 << poly.num_qubits) - 1), min_size=1, max_size=8))
    for mask in [0, *masks]:
        assert abs(poly.evaluate_mask(mask) - low.evaluate_mask(mask)) <= cert.epsilon + roundoff
    omitted = [c for s, c in poly.terms.items() if s.bit_count() > k]
    assert cert.common_sign_saturation == (all(c > 0 for c in omitted) or all(c < 0 for c in omitted))
    if cert.common_sign_saturation:
        # every omitted character is +1 at mask 0, so the bound is attained there
        assert abs(high.evaluate_mask(0)) == cert.epsilon
        assert abs(poly.evaluate_mask(0) - low.evaluate_mask(0)) == pytest.approx(cert.epsilon, abs=roundoff)
    restored = low + high
    assert tuple(restored.terms.items()) == tuple(poly.terms.items())
