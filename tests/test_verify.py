import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import (
    CapacityError,
    EnsembleSpec,
    IsingPolynomial,
    basin_agreement,
    bitflip_descent,
    bitflip_variance_check,
    check_preservation,
    degree_uniform_profile,
    dense_values,
    ensemble_residual_check,
    enumerate_landscape,
    profile_with_margin,
    sign_preservation_rate,
)
from tbe.verify import mask_bits, pack_masks, random_masks
from helpers import naive_eval, random_polynomial


def test_single_spin_landscape():
    report = enumerate_landscape(IsingPolynomial(1, {1: 1.0}))
    assert report.global_argmin == (1,)  # spin -1
    assert report.global_min_value == pytest.approx(-1.0)
    assert report.energy_gap == pytest.approx(2.0)


def test_ferromagnetic_pair_degenerate_minima():
    report = enumerate_landscape(IsingPolynomial(2, {0b11: -1.0}))
    assert report.global_argmin == (0, 3)
    assert report.energy_gap == pytest.approx(2.0)


def test_argmin_matches_linear_scan_oracle():
    rng = np.random.default_rng(53)
    poly = random_polynomial(rng, 10, 40)
    report = enumerate_landscape(poly)
    values = [naive_eval(poly, m) for m in range(1 << 10)]
    vmin = min(values)
    oracle_argmin = tuple(m for m, v in enumerate(values) if v <= vmin + 1e-12)
    assert report.global_min_value == pytest.approx(vmin, abs=1e-9)
    assert report.global_argmin == oracle_argmin


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_landscape(IsingPolynomial(25, {1: 1.0}))


def test_gap_vs_barrier_on_random_instances():
    rng = np.random.default_rng(54)
    for _ in range(30):
        poly = random_polynomial(rng, int(rng.integers(3, 11)), 25)
        report = enumerate_landscape(poly)
        if not math.isfinite(report.energy_gap):
            continue
        argmin = set(report.global_argmin)
        for m in report.global_argmin:
            if any((m ^ (1 << i)) in argmin for i in range(poly.num_qubits)):
                continue  # degenerate neighbour: barrier is vacuously zero
            assert report.energy_gap <= report.basin_barrier_at[m] + 1e-12


def test_no_truncation_preserves_everything():
    rng = np.random.default_rng(55)
    poly = random_polynomial(rng, 8, 30)
    report = check_preservation(poly, poly.degree if poly.degree >= 1 else 1)
    assert report.epsilon == 0.0
    assert set(report.truncated_argmin) == set(report.global_argmin)
    for v in report.verdicts:
        if v.precondition_held:
            assert v.asserted


def test_planted_deep_minimum_survives_truncation():
    terms = {1 << i: 5.0 for i in range(6)}
    terms[0b11111] = 0.1
    poly = IsingPolynomial(6, terms)
    report = check_preservation(poly, 4)
    assert report.epsilon == pytest.approx(0.1)
    assert report.gap_condition_holds
    claims = {v.claim: v for v in report.verdicts}
    assert claims["optimum_preservation"].asserted
    assert claims["approximate_recovery"].asserted
    assert claims["basin_preservation"].asserted
    assert claims["gap_vs_barrier"].asserted


def test_adversarial_truncation_still_satisfies_value_bound():
    # search for instances whose argmin moves under truncation; the
    # two-epsilon value bound must hold regardless
    rng = np.random.default_rng(56)
    moved = 0
    for _ in range(200):
        poly = random_polynomial(rng, 6, 18)
        if poly.degree < 3:
            continue
        k = 2
        report = check_preservation(poly, k)
        claims = {v.claim: v for v in report.verdicts}
        assert claims["approximate_recovery"].asserted
        if not set(report.truncated_argmin) <= set(report.global_argmin):
            moved += 1
            assert not report.gap_condition_holds  # moving argmin forces a small gap
    assert moved > 0  # the search actually found adversarial instances


def test_descent_fixed_point():
    poly = IsingPolynomial(2, {1: 1.0, 2: 1.0})
    end, steps = bitflip_descent(poly, 0b11)
    assert end == 0b11 and steps == 0


def test_descent_separable_two_flips():
    poly = IsingPolynomial(2, {1: 1.0, 2: 1.0})
    end, steps = bitflip_descent(poly, 0b00)
    assert end == 0b11 and steps == 2


def test_descent_endpoint_is_local_minimum():
    rng = np.random.default_rng(57)
    poly = random_polynomial(rng, 12, 60)
    values = dense_values(poly)
    for _ in range(10):
        start = int(rng.integers(0, 1 << 12))
        end, _ = bitflip_descent(poly, start)
        assert values[end] <= values[start] + 1e-12
        for i in range(12):
            assert values[end] <= values[end ^ (1 << i)] + 1e-12


def test_basin_agreement_reports_fraction():
    rng = np.random.default_rng(58)
    poly = random_polynomial(rng, 8, 25)
    frac = basin_agreement(poly, poly.degree, samples=16, seed=1)
    assert frac == 1.0  # no truncation, identical descent
    frac2 = basin_agreement(poly, 1, samples=16, seed=1)
    assert 0.0 <= frac2 <= 1.0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [0, 5, 20, 40, 63, 64])
def test_random_masks_draw_as_the_int64_draw_did(n, seed):
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    if n < 64:
        want = old.integers(0, 1 << n)
    else:  # past int64, the old draw was one uint64 word
        want = old.integers(0, (1 << 64) - 1, dtype=np.uint64, endpoint=True)
    assert random_masks(new, n) == int(want)
    assert new.random() == old.random()  # the stream moved on by as much


@pytest.mark.parametrize("n", [65, 128, 200])
def test_random_masks_past_64_qubits_extend_the_low_word(n):
    low, wide = np.random.default_rng(3), np.random.default_rng(3)
    words = random_masks(low, 64, 5)
    masks = random_masks(wide, n, 5)
    assert [m & ((1 << 64) - 1) for m in masks] == words
    assert all(0 <= m < 1 << n for m in masks)
    assert len({m >> 64 for m in masks}) > 1  # the high words are drawn too


_masks_over_n_qubits = st.integers(0, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
)


@settings(max_examples=200, deadline=None)
@given(_masks_over_n_qubits)
def test_mask_bits_and_pack_masks_round_trip(case):
    n, masks = case
    bits = mask_bits(masks, n)
    assert bits.shape == (len(masks), n) and bits.dtype == bool
    assert [[(m >> q) & 1 == 1 for q in range(n)] for m in masks] == bits.tolist()
    assert pack_masks(bits) == masks


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_bitflip_descent_past_64_qubits_is_the_shifted_descent(n, seed):
    rng = np.random.default_rng(seed)
    poly = random_polynomial(rng, n, 3 * n + 1)
    start = int(rng.integers(0, 1 << n))
    end, steps = bitflip_descent(poly, start)
    assert bitflip_descent(poly.shifted(70, n + 70), start << 70) == (end << 70, steps)


def test_bitflip_descent_rejects_a_start_past_its_qubits():
    with pytest.raises(ValueError, match="out of range"):
        bitflip_descent(IsingPolynomial(3, {1: 1.0}), 1 << 3)


def test_random_starts_at_and_past_64_qubits():
    poly = IsingPolynomial(64, {(1 << 63) | 1: 1.0, 1 << 63: 0.5, 0b110: -0.25})
    assert basin_agreement(poly, 2, samples=4, seed=0) == 1.0
    spec = EnsembleSpec(variance_profile={1 << 63: 1.0, (1 << 63) | 1: 0.1}, trials=50)
    assert 0.0 <= sign_preservation_rate(spec, 64, 1).rate <= 1.0
    # masks are Python ints, so the same calls run past the old 64-bit word
    assert basin_agreement(IsingPolynomial(65, poly.terms), 2, samples=4) == 1.0
    assert 0.0 <= sign_preservation_rate(spec, 65, 1).rate <= 1.0


# ---------------------------------------------------------------------------
# ensembles


def test_degenerate_profile_all_zero_variances():
    spec = EnsembleSpec(variance_profile={0b111: 0.0}, trials=1000, rng_seed=1)
    report = ensemble_residual_check(spec, 3, 2)
    assert report.target_variance == 0.0
    assert report.sample_variance == 0.0
    assert report.variance_ok


def test_empty_profile_rejected():
    with pytest.raises(ValueError, match="no modes"):
        EnsembleSpec(variance_profile={}, trials=100)


def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        EnsembleSpec(variance_profile={1: 1.0}, family="cauchy")
    with pytest.raises(ValueError, match="negative"):
        EnsembleSpec(variance_profile={1: -1.0})
    with pytest.raises(ValueError, match="trials"):
        EnsembleSpec(variance_profile={1: 1.0}, trials=0)


def test_gaussian_ensemble_variance_and_moments():
    profile = degree_uniform_profile(10, {3: 1.0})  # 120 modes of variance 1
    spec = EnsembleSpec(variance_profile=profile, family="gaussian", trials=6000, rng_seed=2)
    report = ensemble_residual_check(spec, 10, 2)
    assert report.num_modes == 120
    assert report.target_variance == pytest.approx(120.0)
    assert report.variance_ok
    assert report.gaussian_gate_applied  # max ratio 1/120 < 0.01
    assert report.skewness_ok and report.kurtosis_ok
    assert report.fourth_moment_ok


def test_thousand_unit_variance_modes():
    # 1000 independent modes of unit variance: residual variance near 1000,
    # excess kurtosis near zero for both draw families
    masks = [m for m in range(1, 1 << 12) if m.bit_count() >= 3][:1000]
    for family in ("gaussian", "rademacher"):
        spec = EnsembleSpec(
            variance_profile={m: 1.0 for m in masks}, family=family, trials=4000, rng_seed=9
        )
        report = ensemble_residual_check(spec, 12, 2)
        assert report.num_modes == 1000
        assert report.target_variance == pytest.approx(1000.0)
        assert report.variance_ok
        assert report.gaussian_gate_applied
        assert report.skewness_ok and report.kurtosis_ok


def test_rademacher_ensemble_clt():
    profile = degree_uniform_profile(10, {4: 1.0})  # 210 modes
    spec = EnsembleSpec(variance_profile=profile, family="rademacher", trials=6000, rng_seed=3)
    report = ensemble_residual_check(spec, 10, 3)
    assert report.variance_ok
    assert report.gaussian_gate_applied
    assert report.skewness_ok and report.kurtosis_ok
    assert report.fourth_moment_bound == pytest.approx(1.0)


def test_uniform_family_fourth_moment():
    spec = EnsembleSpec(variance_profile={0b111: 2.0}, family="uniform", trials=8000, rng_seed=4)
    report = ensemble_residual_check(spec, 3, 2)
    assert report.variance_ok
    assert report.fourth_moment_bound == pytest.approx(1.8)
    assert report.fourth_moment_ok


def test_bitflip_variance_analytic():
    # m modes containing coordinate 0, each variance sigma^2
    sigma2 = 0.5
    profile = {0b001: sigma2, 0b011: sigma2, 0b101: sigma2, 0b110: sigma2}
    spec = EnsembleSpec(variance_profile=profile, trials=5000, rng_seed=37)
    report = bitflip_variance_check(spec, 2, 0, n=3)
    assert report.target_variance == pytest.approx(4 * 3 * sigma2)
    assert report.variance_ok
    assert report.avg_bound_ok


def test_bitflip_average_bound_uniform_profile():
    profile = degree_uniform_profile(8, {1: 0.3, 2: 0.2})
    spec = EnsembleSpec(variance_profile=profile, trials=1000, rng_seed=5)
    report = bitflip_variance_check(spec, 2, 3, n=8)
    assert report.avg_variance <= report.avg_bound + 1e-12
    assert report.variance_ok


@pytest.mark.parametrize("coordinate, n", [(3, 3), (7, 3), (-1, 3)])
def test_bitflip_variance_rejects_a_coordinate_outside_the_qubits(coordinate, n):
    spec = EnsembleSpec(variance_profile={0b01: 1.0, 0b11: 0.5}, trials=10)
    with pytest.raises(ValueError, match=r"coordinate .* is outside \[0, 3\)"):
        bitflip_variance_check(spec, 1, coordinate, n=n)


def test_sign_rate_one_when_nothing_omitted():
    profile = degree_uniform_profile(6, {1: 1.0})
    spec = EnsembleSpec(variance_profile=profile, trials=1500, rng_seed=6)
    report = sign_preservation_rate(spec, 6, 2)
    assert report.rate == 1.0
    assert report.margin == 0.0


def test_sign_rate_monotone_in_margin():
    rates = []
    for margin in (0.001, 0.1, 10.0):
        profile = profile_with_margin(8, 2, margin)
        spec = EnsembleSpec(variance_profile=profile, trials=3000, rng_seed=7)
        rates.append(sign_preservation_rate(spec, 8, 2).rate)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > rates[2]


def test_sign_rate_zero_signal_is_coin_flip():
    profile = {m: 1.0 for m in range(1 << 6) if m.bit_count() == 4}
    spec = EnsembleSpec(variance_profile=profile, trials=4000, rng_seed=8)
    report = sign_preservation_rate(spec, 6, 2)
    assert report.margin is None
    assert report.rate == pytest.approx(0.5, abs=0.05)


def test_splitting_modes_by_cutoff():
    profile = {0b1: 1.0, 0b11: 1.0, 0b111: 1.0}
    spec = EnsembleSpec(variance_profile=profile, trials=10)
    kept, omitted = spec.split(2)
    assert kept == [0b1, 0b11]
    assert omitted == [0b111]
