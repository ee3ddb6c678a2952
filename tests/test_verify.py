import math
from dataclasses import replace
from pathlib import Path

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
from tbe import Cfn, Fallback, PairwiseTable, Penalty, VariableSpec, build_layout, encode, parse_cfn, walsh_blocks
from tbe.elimination import PairwiseNetwork
from tbe.polynomial import mask_bits, pack_masks, random_masks
from tbe.solve import solve
from tbe.truncation import truncate
from tbe.verify import RegisterLandscape
from helpers import gaussian_chain_cfn, gaussian_complete_cfn, naive_eval, random_polynomial, reference_random_masks, shifted


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


# costs on a grid of 1/64 in [-64, 64]: every Walsh coefficient, table
# value and sum of either landscape route is exact, so ties are exact
# too; a few planted values make them common
_DYADIC = st.one_of(st.sampled_from([0.0, 1.0]), st.integers(-64 * 64, 64 * 64).map(lambda x: x / 64))


@st.composite
def _dyadic_cfns(draw):
    """CFNs of at most 16 qubits, cardinalities 1 to 16 (so some of 1,
    some not powers of two), each pair joined or not."""
    cards = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    n = len(cards)
    costs = lambda size: tuple(draw(st.lists(_DYADIC, min_size=size, max_size=size)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Cfn(
        tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards)),
        tuple(costs(c) for c in cards),
        tuple(PairwiseTable(i, j, costs(cards[i] * cards[j])) for i, j in pairs),
    )


@settings(max_examples=150, deadline=None)
@given(
    _dyadic_cfns(),
    st.sampled_from([Fallback(), Penalty()]),
    st.sampled_from(["binary", "gray"]),
    st.integers(1, 8),
)
def test_register_landscape_equals_enumeration_on_exact_costs(cfn, policy, strategy, k):
    blocks = walsh_blocks(cfn, build_layout(cfn, strategy, policy))
    full = encode(blocks)
    assert check_preservation(blocks, k) == check_preservation(full, k)
    assert solve(RegisterLandscape(blocks, k)) == solve(truncate(full, k))


def test_register_landscape_drops_the_couplings_the_polynomial_drops():
    # variable 1's coupling, -0.5, and the constant, 0.5, are under 1e-14
    # of variable 0's coupling, -2^48: the encoded polynomial drops both,
    # so variable 1's two settings tie at -2^48
    cfn = Cfn((VariableSpec("a", 2), VariableSpec("b", 2)), ((-(2.0**48), 2.0**48), (0.0, 1.0)), ())
    blocks = walsh_blocks(cfn, build_layout(cfn))
    full = encode(blocks)
    assert full.num_terms() == 1
    report = check_preservation(blocks, 1)
    assert report == check_preservation(full, 1)
    assert report.global_argmin == (0, 2)
    assert report.global_min_value == -(2.0**48)


def _near(x: float, y: float, scale: float) -> bool:
    return x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y), scale)


@pytest.mark.parametrize("source", ["demo", *range(6)])
def test_register_landscape_matches_enumeration_on_gaussian_tables(source):
    # the demo, and the benchmark's dense instances (18 qubits); values
    # are summed in other orders, so floats agree to 1e-12 relative, and
    # a difference of values (a gap, barrier or margin) relative to the
    # minimum it was taken from
    if source == "demo":
        cfn = parse_cfn((Path(__file__).resolve().parent.parent / "demos/data/two_card32.json").read_bytes())
    else:
        cfn = gaussian_complete_cfn(source)
    blocks = walsh_blocks(cfn, build_layout(cfn))
    full = encode(blocks)
    for k in range(1, 7):
        want, got = check_preservation(full, k), check_preservation(blocks, k)
        assert got.global_argmin == want.global_argmin
        assert got.truncated_argmin == want.truncated_argmin
        outcome = lambda r: [(v.claim, v.precondition_held, v.asserted) for v in r.verdicts]
        assert outcome(got) == outcome(want)
        assert (got.gap_condition_holds, got.barrier_condition_holds) == (
            want.gap_condition_holds, want.barrier_condition_holds)
        assert got.epsilon == want.epsilon
        scale = abs(want.global_min_value)
        for x, y in [
            (got.global_min_value, want.global_min_value),
            (got.truncated_min_value, want.truncated_min_value),
            (got.energy_gap, want.energy_gap),
            *((got.basin_barrier_at[m], want.basin_barrier_at[m]) for m in want.global_argmin),
            *((a.margin, b.margin) for a, b in zip(got.verdicts, want.verdicts) if b.margin is not None),
        ]:
            assert _near(x, y, scale), (k, x, y)
        assert solve(RegisterLandscape(blocks, k)).best_spin == solve(truncate(full, k)).best_spin


@pytest.mark.parametrize("seed", range(6))
def test_register_landscape_verdicts_survive_scaled_costs(seed):
    # a runner-up one flip from the minimizer makes the barrier equal the
    # gap; costs in the thousands scale the rounding of the two past the
    # absolute 1e-12 tie radius unless both are the same difference
    cfn = gaussian_complete_cfn(seed)
    cfn = replace(
        cfn,
        unary_tables=tuple(tuple(1024 * c for c in t) for t in cfn.unary_tables),
        pairwise_tables=tuple(replace(t, costs=tuple(1024 * c for c in t.costs)) for t in cfn.pairwise_tables),
    )
    blocks = walsh_blocks(cfn, build_layout(cfn))
    full = encode(blocks)
    outcome = lambda r: [(v.claim, v.precondition_held, v.asserted) for v in r.verdicts]
    for k in range(1, 7):
        assert outcome(check_preservation(blocks, k)) == outcome(check_preservation(full, k)), k


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
    # and every word is the one a draw per word gives, the stream moving on as far
    reference = np.random.default_rng(3)
    assert masks == reference_random_masks(reference, n, 5)
    assert wide.random() == reference.random()


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
    assert bitflip_descent(shifted(poly, 70, n + 70), start << 70) == (end << 70, steps)


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


def test_sign_rate_rejects_a_mode_outside_its_coordinates():
    # a mode on qubit 6 of 6 coordinates would add power that no
    # coordinate's move can see
    spec = EnsembleSpec(variance_profile={0b1: 1.0, 1 << 6: 0.5}, trials=10)
    with pytest.raises(ValueError, match="outside"):
        sign_preservation_rate(spec, 6, 1)


# ---------------------------------------------------------------------------
# ensembles


def test_degenerate_profile_all_zero_variances():
    spec = EnsembleSpec(variance_profile={0b111: 0.0}, trials=1000, rng_seed=1)
    report = ensemble_residual_check(spec, 2)
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
    report = ensemble_residual_check(spec, 2)
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
        report = ensemble_residual_check(spec, 2)
        assert report.num_modes == 1000
        assert report.target_variance == pytest.approx(1000.0)
        assert report.variance_ok
        assert report.gaussian_gate_applied
        assert report.skewness_ok and report.kurtosis_ok


def test_rademacher_ensemble_clt():
    profile = degree_uniform_profile(10, {4: 1.0})  # 210 modes
    spec = EnsembleSpec(variance_profile=profile, family="rademacher", trials=6000, rng_seed=3)
    report = ensemble_residual_check(spec, 3)
    assert report.variance_ok
    assert report.gaussian_gate_applied
    assert report.skewness_ok and report.kurtosis_ok
    assert report.fourth_moment_bound == pytest.approx(1.0)


def test_uniform_family_fourth_moment():
    spec = EnsembleSpec(variance_profile={0b111: 2.0}, family="uniform", trials=8000, rng_seed=4)
    report = ensemble_residual_check(spec, 2)
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


def test_preservation_takes_direct_sums_independent_of_the_qubit_count(monkeypatch):
    # every (minimizer, flip) pair is one row of one direct sum, so the
    # number of network evaluations is the same on 30 qubits as on 300;
    # one evaluation per qubit and landscape would make 2 (n + 1) of them
    calls = []
    real = PairwiseNetwork.values

    def counted(self, rows):
        calls.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(PairwiseNetwork, "values", counted)
    counts = []
    for num_vars in (10, 100):
        calls.clear()
        cfn = gaussian_chain_cfn(0, num_vars)
        check_preservation(walsh_blocks(cfn, build_layout(cfn)), 3)
        counts.append(len(calls))
    assert counts[1] == counts[0] <= 10
