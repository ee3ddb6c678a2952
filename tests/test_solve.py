import importlib
import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbe import (
    AnnealParams,
    CapacityError,
    Cfn,
    Fallback,
    IsingPolynomial,
    PairwiseTable,
    Penalty,
    VariableSpec,
    bitflip_descent,
    build_layout,
    certify,
    decode,
    decode_and_refine,
    encode,
    evaluate_cfn,
    parse_cfn,
    quadratize,
    solve,
    truncate,
    walsh_blocks,
)
from tbe.polynomial import held_qubits, key_lists
from tbe.solve import _blocks, _colour_classes, _metropolis, _schedule
from tbe.verify import dense_values
from helpers import all_assignments, gaussian_chain_cfn, random_cfn, random_polynomial, reference_metropolis
from helpers import term_columns

DEMO = Path(__file__).resolve().parent.parent / "demos" / "data" / "two_card32.json"
# the module, for patching its constants: ``tbe.solve`` is also the function
solve_module = importlib.import_module("tbe.solve")


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


def test_refinement_keeps_the_solved_assignment_when_the_descent_decodes_worse():
    # under a small Penalty weight, descent on the full encoding can end
    # on an unused bitstring whose decoded choice costs more
    rng = np.random.default_rng(8)
    cards = rng.choice([3, 5, 6, 7], 3).tolist()
    unary = tuple(tuple(rng.standard_normal(c).tolist()) for c in cards)
    pairs = tuple(
        PairwiseTable(i, i + 1, tuple(rng.standard_normal(cards[i] * cards[i + 1]).tolist())) for i in range(2)
    )
    cfn = Cfn(tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards)), unary, pairs)
    layout = build_layout(cfn, unused_policy=Penalty(0.1))
    full = encode(walsh_blocks(cfn, layout))
    result = solve(truncate(full, 1), "anneal", seed=0, anneal=AnnealParams(restarts=2, sweeps=5))
    out = decode_and_refine(result, layout, cfn, full_poly=full)
    solved = result.best_spin & ((1 << layout.total_qubits) - 1)
    end, steps = bitflip_descent(full, solved)
    assert end != solved and evaluate_cfn(cfn, decode(layout, end)[0]) > out.cfn_value
    assert out.refined_spin == solved
    assert out.refined_assignment == out.decoded_assignment
    assert out.refined_cfn_value == out.cfn_value
    assert out.refine_steps == steps


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


# the demo truncation's hot end, dE_max / ln 2
DEMO_T_HOT = 3.9308818205271967


@pytest.mark.parametrize(
    "restarts, sweeps, want",
    [
        # (the cooling worked out for the sweeps, the best masks and values)
        (8, 50, (0.8355865177934024, [(779, -0.24562805485769565), (779, -0.24562805485769568),
                                      (779, -0.24562805485769526)])),
        (4, 10, (0.3760855453415132, [(779, -0.2456280548576935), (779, -0.2456280548576942),
                                      (779, -0.24562805485769343)])),
    ],
)
def test_metropolis_golden_on_demo(restarts, sweeps, want):
    _, truncated = _demo_polynomials()
    params = AnnealParams(restarts=restarts, sweeps=sweeps)
    got = [_metropolis(truncated, params, seed) for seed in range(3)]
    cooling, pairs = want
    assert got == [(*pair, DEMO_T_HOT, cooling) for pair in pairs]


@pytest.mark.parametrize(
    "cooling, want",
    [
        # the temperature is exactly 0 from the second sweep on
        (0.0, [(779, -0.24562805485769357), (779, -0.24562805485769407), (816, -0.22220091317806237)]),
        # the temperature alternates sign, and at a negative one every
        # proposal is accepted
        (-1.0, [(784, -0.20887175671435448), (685, -0.17234394763237423), (750, -0.16282939405301478)]),
    ],
)
def test_metropolis_golden_at_non_positive_temperature(cooling, want):
    _, truncated = _demo_polynomials()
    params = AnnealParams(restarts=4, sweeps=3, cooling=cooling)
    got = [_metropolis(truncated, params, seed) for seed in range(3)]
    assert got == [(*pair, DEMO_T_HOT, cooling) for pair in want]


def test_metropolis_golden_with_idle_qubits():
    # qubits 3 and 7 appear in no term: they draw no uniforms and keep
    # their random start values
    rng = np.random.default_rng(7)
    pool = [m for m in range(1, 1 << 8) if not m & 0b10001000 and m.bit_count() <= 3]
    chosen = rng.choice(len(pool), 12, replace=False)
    poly = IsingPolynomial(8, {pool[k]: round(float(rng.normal()), 3) for k in chosen})
    params = AnnealParams(restarts=4, sweeps=2)
    got = [_metropolis(poly, params, seed) for seed in range(3)]
    schedule = (14.011454237113613, 0.0008988745751910476)
    assert got == [(66, -8.923000000000002, *schedule), (8, -8.225, *schedule), (66, -8.923, *schedule)]


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flip_kernels_hold_only_the_active_qubits():
    # 200 terms on 40 of 10^5 qubits: anneal and descent memory follows
    # the 40 held qubits; a terms x n incidence over every column would
    # peak near 173 MB and 39 MB
    n = 100_000
    rng = np.random.default_rng(5)
    held = rng.choice(n, 40, replace=False).tolist()
    terms = {}
    while len(terms) < 200:
        # the first 40 terms hold each qubit in turn, so all 40 are active
        picks = [held[len(terms) % 40], *rng.choice(held, int(rng.integers(1, 4))).tolist()]
        terms[sum(1 << q for q in set(picks))] = float(rng.normal())
    poly = IsingPolynomial(n, terms)
    assert np.flatnonzero(np.bincount(poly.qubits)).tolist() == sorted(held)
    assert _peak_bytes(lambda: _metropolis(poly, AnnealParams(restarts=1, sweeps=1), 0)) < 8 << 20
    assert _peak_bytes(lambda: bitflip_descent(poly, 0)) < 8 << 20


def test_descent_memory_follows_the_held_pairs_on_a_chain():
    # the full encoding of a 400-variable chain of cardinality 8: its
    # 22 352 terms hold 1 to 6 of the 1200 qubits each, and a terms x
    # qubits incidence over them would take 27 MB
    cfn = gaussian_chain_cfn(0, 400)
    poly = encode(walsh_blocks(cfn, build_layout(cfn)))
    assert (poly.num_qubits, poly.num_terms()) == (1200, 22352)
    assert _peak_bytes(lambda: bitflip_descent(poly, 0)) < 8 << 20


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
@example(1, 0)  # no term holds a qubit, so there is no class
def test_colour_classes_partition_the_active_qubits_into_independent_sets(n, seed):
    poly = _sparse_polynomial(n, seed)
    keys = [s for s in poly.terms if s]
    term, qubit = held_qubits(*key_lists(keys, n))
    qubits = np.flatnonzero(np.bincount(qubit))
    columns = term_columns(term, np.searchsorted(qubits, qubit), len(keys), qubits.size)
    classes = [qubits[members] for members in _colour_classes(columns, qubits.size)]
    active = [q for q in range(n) if any(s >> q & 1 for s in keys)]
    assert sorted(q for members in classes for q in members.tolist()) == active
    for members in classes:
        assert members.size and members.tolist() == sorted(members.tolist())
        class_mask = sum(1 << q for q in members.tolist())
        assert all((s & class_mask).bit_count() <= 1 for s in keys)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([None, 0.999, 0.0, -1.0]))
def test_metropolis_value_is_the_value_of_its_mask(n, seed, cooling):
    # the energy is a running sum of whole-class deltas; it must still
    # be the polynomial's value at the returned mask
    poly = _sparse_polynomial(n, seed)
    mask, value, _, _ = _metropolis(poly, AnnealParams(restarts=4, sweeps=20, cooling=cooling), seed)
    assert 0 <= mask < 1 << n
    scale = sum(abs(c) for c in poly.terms.values())
    assert abs(value - poly.evaluate_mask(mask)) <= 1e-9 * scale


@st.composite
def _anneal_cases(draw):
    """A polynomial of up to 30 terms of degree <= 6 on 0 to 40 qubits,
    its qubits from a pool of at most 14 (so others stay idle and keys
    cross byte boundaries), some of its couplings small integers (so
    energies tie), and a schedule."""
    n = draw(st.integers(0, 40))
    pool = draw(st.lists(st.integers(0, n - 1), max_size=min(n, 14), unique=True)) if n else []
    qubits = st.lists(st.sampled_from(pool), max_size=min(6, len(pool)), unique=True) if pool else st.just([])
    couplings = st.integers(-3, 3).map(float) | st.floats(-10.0, 10.0)
    poly = IsingPolynomial(n, draw(st.dictionaries(qubits.map(lambda qs: sum(1 << q for q in qs)), couplings,
                                                   max_size=30)))
    params = AnnealParams(
        restarts=draw(st.integers(1, 20)),
        sweeps=draw(st.integers(0, 30)),
        cooling=draw(st.sampled_from([None, 0.999, 0.5, 1.0, 0.0, -1.0])),
    )
    return poly, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_anneal_cases())
def test_metropolis_matches_the_term_character_kernel_bit_for_bit(case):
    poly, params, seed = case
    got = _metropolis(poly, params, seed)
    # the reference divides by a zero temperature, so numpy would warn
    with np.errstate(divide="ignore", invalid="ignore"):
        want = reference_metropolis(poly, params, seed)
    assert got[0] == want[0] and got[1].hex() == want[1].hex() and got[2:] == want[2:]


@pytest.mark.parametrize("restarts", [1, 5])
def test_metropolis_matches_the_reference_on_long_classes(restarts):
    # a 90-qubit chain colours in two classes of 45 members; each class's
    # accepted deltas are summed in member order at every restart count
    # (numpy's masked reduce over a single restart would add pairwise)
    rng = np.random.default_rng(3)
    terms = {1 << q: float(rng.normal()) for q in range(90)}
    terms.update({3 << q: float(rng.normal()) for q in range(89)})
    poly = IsingPolynomial(90, terms)
    params = AnnealParams(restarts=restarts, sweeps=40)
    for seed in range(3):
        got, want = _metropolis(poly, params, seed), reference_metropolis(poly, params, seed)
        assert got[0] == want[0] and got[1].hex() == want[1].hex() and got[2:] == want[2:]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.integers(1, 100))
def test_gain_blocks_cover_each_member_once(counts, block_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve_module, "BLOCK_ROWS", block_rows)
        blocks = _blocks(np.array(counts))
    assert [m for m0, m1 in blocks for m in range(m0, m1)] == list(range(len(counts)))
    for (m0, m1), (next_start, _) in zip(blocks, blocks[1:] + [(len(counts), None)]):
        # within the bound unless one member alone exceeds it, and no
        # block could have taken the member after it
        assert m1 - m0 == 1 or sum(counts[m0:m1]) <= block_rows
        assert next_start == m1 and (m1 == len(counts) or sum(counts[m0 : m1 + 1]) > block_rows)


def _integer_couplings(case):
    """The case with every coupling rounded to an integer, so that every
    energy and delta is exact whatever order its terms are added in."""
    poly, params, seed = case
    return IsingPolynomial(poly.num_qubits, {s: float(round(c)) for s, c in poly.terms.items()}), params, seed


@settings(max_examples=150, deadline=None)
@given(_anneal_cases().map(_integer_couplings))
def test_split_gain_blocks_match_the_reference_where_sums_are_exact(case):
    # one row per block makes every class member a block of its own
    poly, params, seed = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve_module, "BLOCK_ROWS", 1)
        got = _metropolis(poly, params, seed)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = reference_metropolis(poly, params, seed)
    assert got[0] == want[0] and got[1].hex() == want[1].hex() and got[2:] == want[2:]


def test_anneal_memory_is_linear_in_the_held_pairs_on_a_chain():
    # 4000 qubits with linear and nearest-neighbour couplings colour in
    # two classes of 2000 members holding about 6000 term rows each; one
    # dense gain matrix per class would peak near 188 MiB
    rng = np.random.default_rng(0)
    terms = {1 << q: float(rng.normal()) for q in range(4000)}
    terms.update({3 << q: float(rng.normal()) for q in range(3999)})
    poly = IsingPolynomial(4000, terms)
    assert _peak_bytes(lambda: _metropolis(poly, AnnealParams(restarts=16, sweeps=20), 0)) < 30 << 20


@pytest.mark.parametrize(
    "field, value",
    [("restarts", 0), ("restarts", 2.5), ("restarts", True), ("sweeps", -3), ("sweeps", 2.0), ("sweeps", "3")],
)
def test_anneal_params_refuse_a_budget_no_anneal_can_run(field, value):
    with pytest.raises(ValueError, match=f"AnnealParams.{field} must be an int"):
        AnnealParams(**{field: value})


@st.composite
def _schedule_cases(draw):
    """A polynomial of up to 12 terms on 1 to 10 qubits, linear only or
    of any degree, with couplings of magnitude 0.01 to 10, and a sweep
    count."""
    n = draw(st.integers(1, 10))
    linear = draw(st.booleans())
    keys = st.integers(0, n - 1).map(lambda q: 1 << q) if linear else st.integers(1, (1 << n) - 1)
    couplings = st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)
    poly = IsingPolynomial(n, draw(st.dictionaries(keys, couplings, min_size=1, max_size=12)))
    return poly, linear, draw(st.integers(2, 2000))


@settings(max_examples=200, deadline=None)
@given(_schedule_cases())
def test_schedule_hot_end_bounds_every_flip_and_cooling_ends_cold(case):
    poly, linear, sweeps = case
    first = poly.degree_starts[1]
    coeffs = poly.coeffs[first:]
    t_hot, cooling = _schedule(coeffs, *held_qubits(poly.qubits, poly.offsets[first:]), AnnealParams(sweeps=sweeps))
    values = dense_values(poly)
    states = np.arange(values.size)
    largest = max(float(np.abs(values[states ^ (1 << q)] - values).max()) for q in range(poly.num_qubits))
    slack = 1e-12 * float(np.abs(coeffs).sum())
    # the hot end accepts the largest single-flip uphill move with
    # probability 1/2; with linear terms alone some flip reaches the bound
    assert largest <= t_hot * math.log(2) + slack
    if linear:
        assert largest >= t_hot * math.log(2) - slack
    t_cold = max(2.0 * float(np.abs(coeffs).min()), 1e-3 * t_hot * math.log(2)) / math.log(100)
    temperature = t_hot
    for _ in range(sweeps - 1):
        temperature *= cooling
    assert abs(temperature - t_cold) <= 1e-12 * t_cold


def _planted_cfn(seed: int, n: int = 6, card: int = 8) -> Cfn:
    """Every pair of ``n`` variables carries a table; costs are uniform
    in [0, 1) but 0 at a planted assignment, the optimum."""
    rng = np.random.default_rng(seed)
    planted = rng.integers(0, card, n)
    unary = []
    for i in range(n):
        costs = rng.random(card)
        costs[planted[i]] = 0.0
        unary.append(tuple(costs.tolist()))
    pairs = []
    for i, j in combinations(range(n), 2):
        costs = rng.random((card, card))
        costs[planted[i], planted[j]] = 0.0
        pairs.append(PairwiseTable(i, j, tuple(costs.ravel().tolist())))
    return Cfn(tuple(VariableSpec(f"v{i}", card) for i in range(n)), tuple(unary), tuple(pairs))


def test_short_anneal_reaches_the_truncation_minimum_on_a_planted_instance():
    # 16 x 200 with the cooling worked out from the polynomial ends cold;
    # a schedule that starts at the l1 norm and cools by 0.999 a sweep is
    # still hot after 200 sweeps and missed this minimum on every seed
    cfn = _planted_cfn(0)
    truncated = truncate(encode(walsh_blocks(cfn, build_layout(cfn, unused_policy=Fallback()))), 3)
    assert truncated.num_qubits == 18
    want = solve(truncated, "exhaustive").best_value
    params = AnnealParams(restarts=16, sweeps=200)
    for seed in range(5):
        assert solve(truncated, "anneal", seed=seed, anneal=params).best_value <= want + 1e-9


def test_metropolis_ties_go_to_the_lowest_mask():
    # both aligned states reach -1; restarts ending in either must pick all-plus
    poly = IsingPolynomial(2, {0b11: -1.0})
    params = AnnealParams(restarts=8, sweeps=5)
    assert [_metropolis(poly, params, seed)[:2] for seed in range(5)] == [(0, -1.0)] * 5


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
