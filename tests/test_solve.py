from pathlib import Path

import numpy as np
import pytest

from tbe import (
    AnnealParams,
    CapacityError,
    Fallback,
    IsingPolynomial,
    bitflip_descent,
    build_layout,
    center,
    certify,
    decode_and_refine,
    encode,
    evaluate_cfn,
    parse_cfn,
    quadratize,
    solve,
    truncate,
)
from tbe.solve import _metropolis
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
    centered = center(cfn)
    layout = build_layout(centered, unused_policy=Fallback())
    full = encode(centered, layout)
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
    out = decode_and_refine(result, layout, cfn, full_poly=full, refine=True)
    assert out.refine_steps == 0
    assert out.refined_cfn_value == out.cfn_value


def test_refinement_never_worse_across_seeds():
    cfn, layout, full, truncated = _pipeline_pieces(65)
    params = AnnealParams(restarts=2, sweeps=40)
    for seed in range(50):
        result = solve(truncated, "anneal", seed=seed, anneal=params)
        out = decode_and_refine(result, layout, cfn, full_poly=full, refine=True)
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


def test_refine_requires_full_polynomial():
    cfn, layout, full, truncated = _pipeline_pieces(87)
    result = solve(truncated, "exhaustive")
    with pytest.raises(ValueError, match="full encoded polynomial"):
        decode_and_refine(result, layout, cfn, refine=True)


# Pinned kernel outputs.  Annealed energies are running sums of flip
# deltas, so these values fix the RNG stream (start masks, one
# permutation per sweep, one uniform per restart and active coordinate)
# and the rounding of every delta, not only the state reached.


def _demo_polynomials():
    cfn = center(parse_cfn(DEMO.read_bytes()))
    full = encode(cfn, build_layout(cfn, unused_policy=Fallback()))
    return full, truncate(full, 3)


@pytest.mark.parametrize(
    "restarts, sweeps, want",
    [
        (
            8,
            50,
            [(779, -0.24562805485769473), (779, -0.24562805485769384), (779, -0.24562805485769618)],
        ),
        (
            4,
            10,
            [(816, -0.2222009131780629), (714, -0.22022785386332386), (811, -0.21927772300350373)],
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
        (0.0, [(779, -0.2456280548576937), (816, -0.22220091317806287), (843, -0.2398048358656812)]),
        # the temperature alternates sign, and at a negative one every
        # proposal is accepted
        (-1.0, [(816, -0.2222009131780629), (717, -0.13616769730003037), (845, -0.11058577126274108)]),
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
    assert got == [(194, -8.923), (128, -8.225000000000001), (66, -8.923)]


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
