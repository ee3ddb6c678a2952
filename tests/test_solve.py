from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import (
    AnnealParams,
    CapacityError,
    Fallback,
    IsingPolynomial,
    bitflip_descent,
    build_layout,
    certify,
    decode_and_refine,
    encode,
    evaluate_cfn,
    parse_cfn,
    quadratize,
    solve,
    truncate,
    walsh_blocks,
)
from tbe.solve import _colour_classes, _metropolis
from tbe.verify import mask_bits
from helpers import all_assignments, random_cfn, random_polynomial

DEMO = Path(__file__).resolve().parent.parent / "demos" / "data" / "two_card32.json"


def test_exhaustive_single_spin():
    result = solve(IsingPolynomial(1, {1: 1.0}))
    assert result.best_spin == 1
    assert result.best_value == pytest.approx(-1.0)
    assert result.method == "exhaustive"


def test_exhaustive_tie_break_lowest_mask():
    result = solve(IsingPolynomial(2, {0b11: -1.0}))
    assert result.best_spin == 0  # all-plus beats all-minus on ties


def test_exhaustive_capacity():
    with pytest.raises(CapacityError):
        solve(IsingPolynomial(25, {1: 1.0}))


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        solve(IsingPolynomial(2, {1: 1.0}), method="tabu")


def test_anneal_deterministic_per_seed():
    rng = np.random.default_rng(60)
    poly = random_polynomial(rng, 10, 30)
    params = AnnealParams(restarts=8, sweeps=200)
    a = solve(poly, "anneal", seed=5, anneal=params)
    b = solve(poly, "anneal", seed=5, anneal=params)
    assert a == b
    c = solve(poly, "anneal", seed=6, anneal=params)
    assert c.rng_seed != a.rng_seed


def test_anneal_finds_exhaustive_optimum_on_most_seeds():
    rng = np.random.default_rng(61)
    poly = random_polynomial(rng, 10, 35)
    want = solve(poly, "exhaustive").best_value
    params = AnnealParams(restarts=8, sweeps=250)
    hits = sum(
        solve(poly, "anneal", seed=s, anneal=params).best_value <= want + 1e-9
        for s in range(100)
    )
    assert hits >= 95


def test_anneal_on_constant_polynomial():
    result = solve(IsingPolynomial(3, {0: 4.0}), "anneal", seed=1)
    assert result.best_value == pytest.approx(4.0)


def test_qubo_solve_matches_hubo_on_original_projection():
    rng = np.random.default_rng(62)
    poly = truncate(random_polynomial(rng, 7, 20, max_degree=4), 3)
    model = quadratize(poly)
    result = solve(model, "exhaustive")
    orig = result.best_spin & ((1 << model.num_original_qubits) - 1)
    assert result.best_value == pytest.approx(poly.evaluate_mask(orig), abs=1e-9)
    direct = solve(poly, "exhaustive")
    assert result.best_value == pytest.approx(direct.best_value, abs=1e-9)


def _pipeline_pieces(seed, k_max=2):
    rng = np.random.default_rng(seed)
    cfn = random_cfn(rng, max_vars=3, max_card=5, edge_prob=1.0)
    layout = build_layout(cfn, unused_policy=Fallback())
    full = encode(walsh_blocks(cfn, layout))
    truncated = truncate(full, k_max)
    return cfn, layout, full, truncated


def test_decode_and_refine_passthrough():
    cfn, layout, full, truncated = _pipeline_pieces(63)
    result = solve(truncated, "exhaustive")
    out = decode_and_refine(result, layout, cfn)
    assert out.cfn_value == pytest.approx(evaluate_cfn(cfn, list(out.decoded_assignment)))
    assert out.refined_cfn_value is None


def test_refinement_noop_at_local_minimum():
    cfn, layout, full, _ = _pipeline_pieces(64)
    result = solve(full, "exhaustive")  # solve the full encoding: already optimal
    out = decode_and_refine(result, layout, cfn, full_poly=full)
    assert out.refine_steps == 0
    assert out.refined_cfn_value == out.cfn_value


def test_refinement_never_worse_across_seeds():
    cfn, layout, full, truncated = _pipeline_pieces(65)
    params = AnnealParams(restarts=2, sweeps=40)
    for seed in range(50):
        result = solve(truncated, "anneal", seed=seed, anneal=params)
        out = decode_and_refine(result, layout, cfn, full_poly=full)
        assert out.refined_cfn_value <= out.cfn_value + 1e-12


def test_end_to_end_value_bound_when_valid():
    # exhaustively solvable instances: decoded value obeys the
    # two-epsilon bound over the true CFN optimum whenever every
    # register decodes to a valid choice
    checked = 0
    for seed in range(66, 86):
        cfn, layout, full, truncated = _pipeline_pieces(seed)
        eps = certify(full, 2).epsilon
        result = solve(truncated, "exhaustive")
        out = decode_and_refine(result, layout, cfn)
        if not all(out.decoded_valid):
            continue
        true_opt = min(evaluate_cfn(cfn, list(a)) for a in all_assignments(cfn))
        assert out.cfn_value <= true_opt + 2 * eps + 1e-9
        checked += 1
    assert checked > 0


# Pinned kernel outputs.  Annealed energies are running sums of flip
# deltas, so these values fix the RNG stream (start masks, then per
# sweep one permutation of the colour classes and one uniform per
# restart and active qubit), the colouring and the rounding of every
# delta, not only the state reached.


def _demo_polynomials():
    cfn = parse_cfn(DEMO.read_bytes())
    full = encode(walsh_blocks(cfn, build_layout(cfn, unused_policy=Fallback())))
    return full, truncate(full, 3)


@pytest.mark.parametrize(
    "restarts, sweeps, want",
    [
        (
            8,
            50,
            [(779, -0.24562805485769482), (779, -0.24562805485769723), (779, -0.24562805485769737)],
        ),
        (
            4,
            10,
            [(843, -0.23980483586568038), (783, -0.20766704420918844), (842, -0.23574529715726034)],
        ),
    ],
)
def test_metropolis_golden_on_demo(restarts, sweeps, want):
    _, truncated = _demo_polynomials()
    params = AnnealParams(restarts=restarts, sweeps=sweeps)
    assert [_metropolis(truncated, params, seed) for seed in range(3)] == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "cooling, want",
    [
        # the temperature is exactly 0 from the second sweep on
        (0.0, [(779, -0.24562805485769326), (779, -0.24562805485769407), (816, -0.22220091317806237)]),
        # the temperature alternates sign, and at a negative one every
        # proposal is accepted
        (-1.0, [(784, -0.20887175671435448), (685, -0.17234394763237423), (750, -0.16282939405301478)]),
    ],
)
def test_metropolis_golden_at_non_positive_temperature(cooling, want):
    _, truncated = _demo_polynomials()
    params = AnnealParams(restarts=4, sweeps=3, cooling=cooling)
    assert [_metropolis(truncated, params, seed) for seed in range(3)] == want


def test_metropolis_golden_with_idle_qubits():
    # qubits 3 and 7 appear in no term: they draw no uniforms and keep
    # their random start values
    rng = np.random.default_rng(7)
    pool = [m for m in range(1, 1 << 8) if not m & 0b10001000 and m.bit_count() <= 3]
    chosen = rng.choice(len(pool), 12, replace=False)
    poly = IsingPolynomial(8, {pool[k]: round(float(rng.normal()), 3) for k in chosen})
    params = AnnealParams(restarts=4, sweeps=2)
    got = [_metropolis(poly, params, seed) for seed in range(3)]
    assert got == [(149, -5.145000000000002), (128, -8.225000000000001), (66, -8.923)]


def _sparse_polynomial(n: int, seed: int) -> IsingPolynomial:
    """Up to 2n terms of degree <= 4 that leave a random set of qubits idle."""
    rng = np.random.default_rng(seed)
    idle = int(rng.integers(0, 1 << n))
    pool = [m for m in range(1, 1 << n) if not m & idle and m.bit_count() <= 4]
    if not pool:
        return IsingPolynomial(n, {0: 1.0})
    chosen = rng.choice(len(pool), min(len(pool), 2 * n), replace=False)
    terms = {pool[k]: float(rng.normal()) for k in chosen}
    terms[0] = float(rng.normal())
    return IsingPolynomial(n, terms)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_colour_classes_partition_the_active_qubits_into_independent_sets(n, seed):
    poly = _sparse_polynomial(n, seed)
    keys = [s for s in poly.terms if s]
    classes = _colour_classes(mask_bits(keys, n))
    active = [q for q in range(n) if any(s >> q & 1 for s in keys)]
    assert sorted(q for members in classes for q in members.tolist()) == active
    for members in classes:
        assert members.size and members.tolist() == sorted(members.tolist())
        class_mask = sum(1 << q for q in members.tolist())
        assert all((s & class_mask).bit_count() <= 1 for s in keys)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.999, 0.0, -1.0]))
def test_metropolis_value_is_the_value_of_its_mask(n, seed, cooling):
    # the energy is a running sum of whole-class deltas; it must still
    # be the polynomial's value at the returned mask
    poly = _sparse_polynomial(n, seed)
    mask, value = _metropolis(poly, AnnealParams(restarts=4, sweeps=20, cooling=cooling), seed)
    assert 0 <= mask < 1 << n
    scale = sum(abs(c) for c in poly.terms.values())
    assert abs(value - poly.evaluate_mask(mask)) <= 1e-9 * scale


def test_metropolis_ties_go_to_the_lowest_mask():
    # both aligned states reach -1; restarts ending in either must pick all-plus
    poly = IsingPolynomial(2, {0b11: -1.0})
    params = AnnealParams(restarts=8, sweeps=5)
    assert [_metropolis(poly, params, seed) for seed in range(5)] == [(0, -1.0)] * 5


@pytest.mark.parametrize(
    "start, full_end, trunc_end",
    [
        (0, (784, 3), (816, 4)),
        (682, (682, 0), (714, 2)),
        (1023, (750, 3), (714, 5)),
        (357, (779, 6), (779, 6)),
        (409, (779, 4), (779, 4)),
    ],
)
def test_bitflip_descent_golden_on_demo(start, full_end, trunc_end):
    full, truncated = _demo_polynomials()
    assert bitflip_descent(full, start) == full_end
    assert bitflip_descent(truncated, start) == trunc_end


def test_bitflip_descent_lowest_index_on_tied_deltas():
    # from all-plus, flipping either spin gains 6; after one flip the
    # other no longer helps, so the tie rule decides the endpoint
    poly = IsingPolynomial(2, {0b01: 1.0, 0b10: 1.0, 0b11: 2.0})
    assert bitflip_descent(poly, 0) == (0b01, 1)
    assert bitflip_descent(IsingPolynomial(0, {0: 1.0}), 0) == (0, 0)
