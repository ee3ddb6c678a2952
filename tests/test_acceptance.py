"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest report.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import json
import math
import time

import numpy as np

from tbe import (
    EnsembleSpec,
    IsingPolynomial,
    bitflip_variance_check,
    build_layout,
    certify,
    check_preservation,
    degree_uniform_profile,
    encode,
    ensemble_residual_check,
    evaluate_cfn,
    fwht,
    leakage_transform,
    profile_with_margin,
    quadratize,
    residual,
    sign_preservation_rate,
    spin_image,
    synthesize_values,
    table_spectrum,
    truncate,
    walsh_blocks,
)
from tbe.cli import main
from tbe.polynomial import BinaryPolynomial
from tbe.verify import dense_values
from tbe.walsh import smoothness_report
from helpers import all_assignments, assemble_truth_table, degree_power, random_cfn, random_polynomial

from tbe import Fallback, Penalty


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{verdict}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _encoded_instances(count: int, seed: int):
    """Random CFNs with N <= 3, cardinalities <= 8, alternating layouts."""
    rng = np.random.default_rng(seed)
    for idx in range(count):
        cfn = random_cfn(rng, max_vars=3, max_card=8, edge_prob=0.8)
        strategy = "gray" if idx % 3 == 1 else "binary"
        policy = Penalty() if idx % 4 == 3 else Fallback()
        layout = build_layout(cfn, strategy=strategy, unused_policy=policy)
        yield cfn, layout


def test_criterion_01_encoding_exactness():
    start = time.monotonic()
    worst = 0.0
    for cfn, layout in _encoded_instances(200, seed=101):
        poly = encode(walsh_blocks(cfn, layout))
        values = dense_values(poly)
        for assignment in all_assignments(cfn):
            assignment = list(assignment)
            want = evaluate_cfn(cfn, assignment)
            got = float(values[spin_image(layout, assignment)])
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: encoding exactness on 200 random CFNs",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst rel err {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_walsh_identification():
    start = time.monotonic()
    worst = 0.0
    for cfn, layout in _encoded_instances(200, seed=101):
        if layout.total_qubits > 14:
            continue
        poly = encode(walsh_blocks(cfn, layout))
        truth = assemble_truth_table(cfn, layout)
        coeffs = fwht(truth)
        for mask in range(coeffs.size):
            worst = max(worst, abs(poly.terms.get(mask, 0.0) - float(coeffs[mask])))
    elapsed = time.monotonic() - start
    _report(
        "criterion 2: couplings equal the full-hypercube transform",
        worst <= 1e-9 and elapsed < 30.0,
        f"worst abs err {worst:.3e}, {elapsed:.1f}s",
    )


def _degree_value_tables(poly: IsingPolynomial) -> dict[int, np.ndarray]:
    grouped: dict[int, np.ndarray] = {}
    size = 1 << poly.num_qubits
    for s, c in poly.terms.items():
        table = grouped.setdefault(s.bit_count(), np.zeros(size))
        table[s] = c
    return {d: synthesize_values(t) for d, t in grouped.items()}


def _linf_instances(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(6, 17))
        yield random_polynomial(rng, n, int(rng.integers(10, 61)))


def test_criterion_03_linf_bound_and_saturation():
    start = time.monotonic()
    bound_ok = True
    for poly in _linf_instances(303):
        tables = _degree_value_tables(poly)
        degree = poly.degree
        cum = np.zeros(1 << poly.num_qubits)
        for k in range(degree - 1, 0, -1):
            if k + 1 in tables:
                cum = cum + tables[k + 1]
            eps = certify(poly, k).epsilon
            if float(np.abs(cum).max()) > eps + 1e-12:
                bound_ok = False

    saturation_ok = True
    rng = np.random.default_rng(304)
    for idx in range(20):
        n = int(rng.integers(6, 13))
        sign = 1.0 if idx % 2 == 0 else -1.0
        terms = {}
        for m in rng.choice(1 << n, size=30, replace=False):
            m = int(m)
            value = float(rng.normal())
            terms[m] = sign * abs(value) if m.bit_count() > 2 else value
        poly = IsingPolynomial(n, terms)
        cert = certify(poly, 2)
        if not cert.common_sign_saturation:
            saturation_ok = False
        res = residual(poly, 2)
        at_all_plus = res.evaluate_mask(0)
        if abs(at_all_plus) != cert.epsilon:
            saturation_ok = False
        worst = float(np.abs(dense_values(res)).max())
        if not math.isclose(worst, cert.epsilon, rel_tol=0, abs_tol=1e-12):
            saturation_ok = False
    elapsed = time.monotonic() - start
    _report(
        "criterion 3: pointwise residual bounded by the l1 certificate, saturated under common signs",
        bound_ok and saturation_ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_04_l2_l1_chain():
    ok = True
    for poly in _linf_instances(303):
        for k in range(1, poly.degree + 1):
            cert = certify(poly, k)
            lo = math.sqrt(cert.power_above)
            hi = math.sqrt(cert.omitted_nonzero * cert.power_above)
            if not (lo <= cert.epsilon + 1e-12 and cert.epsilon <= hi + 1e-12):
                ok = False
    _report("criterion 4: l2 <= l1 <= sqrt(count * l2^2) chain", ok)


def test_criterion_05_and_06_preservation_theorems():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    violations = {"optimum": 0, "recovery": 0, "basin": 0, "gap_vs_barrier": 0}
    exercised = {"optimum": 0, "basin": 0, "gap_vs_barrier": 0}
    for _ in range(500):
        n = int(rng.integers(4, 13))
        poly = random_polynomial(rng, n, int(rng.integers(8, 41)))
        if poly.degree < 2:
            continue
        for k in range(1, poly.degree + 1):
            report = check_preservation(poly, k)
            claims = {v.claim: v for v in report.verdicts}
            if claims["approximate_recovery"].asserted is False:
                violations["recovery"] += 1
            if claims["optimum_preservation"].precondition_held:
                exercised["optimum"] += 1
                if claims["optimum_preservation"].asserted is False:
                    violations["optimum"] += 1
            if claims["basin_preservation"].precondition_held:
                exercised["basin"] += 1
                if claims["basin_preservation"].asserted is False:
                    violations["basin"] += 1
            if claims["gap_vs_barrier"].precondition_held:
                exercised["gap_vs_barrier"] += 1
                if claims["gap_vs_barrier"].asserted is False:
                    violations["gap_vs_barrier"] += 1
    elapsed = time.monotonic() - start
    all_exercised = min(exercised.values()) > 0
    zero_violations = max(violations.values()) == 0
    _report(
        "criterion 5: optimum/recovery/basin preservation, zero violations",
        zero_violations and all_exercised and elapsed < 300.0,
        f"exercised {exercised}, {elapsed:.1f}s",
    )
    _report(
        "criterion 6: energy gap never exceeds the basin barrier",
        violations["gap_vs_barrier"] == 0 and exercised["gap_vs_barrier"] > 0,
    )


def test_criterion_07_spectral_leakage():
    rng = np.random.default_rng(707)
    transform_ok = True
    shift_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 11))
        terms = {}
        for m in rng.choice(1 << n, size=min(15, 1 << n), replace=False):
            terms[int(m)] = float(rng.normal())
        poly01 = BinaryPolynomial(n, terms)
        ising = leakage_transform(poly01)

        values = np.array([poly01.evaluate_bits(bits) for bits in range(1 << n)])
        coeffs = fwht(values)
        for mask in range(1 << n):
            if abs(float(coeffs[mask]) - ising.terms.get(mask, 0.0)) > 1e-12:
                transform_ok = False

        cutoff = max(1, min(2, n - 1))
        kept01 = BinaryPolynomial(n, {s: c for s, c in terms.items() if s.bit_count() <= cutoff})
        basis_route = leakage_transform(kept01)
        ising_route = truncate(ising, cutoff)
        for t in range(1 << n):
            if t.bit_count() > cutoff:
                continue
            leak = 0.0
            for s, c in terms.items():
                if s.bit_count() > cutoff and s & t == t:
                    leak += c / (1 << s.bit_count())
            if t.bit_count() % 2:
                leak = -leak
            diff = basis_route.terms.get(t, 0.0) - ising_route.terms.get(t, 0.0)
            if abs(diff + leak) > 1e-12:
                shift_ok = False
    _report(
        "criterion 7: 0/1-basis leakage formula and truncation shift",
        transform_ok and shift_ok,
    )


def test_criterion_08_additive_spectral_decomposition():
    ok = True
    for cfn, layout in _encoded_instances(200, seed=101):
        poly = encode(walsh_blocks(cfn, layout))
        profile = table_spectrum(walsh_blocks(cfn, layout))
        binned = degree_power(poly)
        top = profile.max_degree
        for k in range(1, top + 1):
            whole = binned[k] if k < len(binned) else 0.0
            parts = profile.unary_power(k) + profile.pairwise_power(k)
            if abs(whole - parts) > 1e-9 * max(1.0, abs(whole)):
                ok = False
            if abs(profile.per_degree_power[k] - parts) > 1e-12 * max(1.0, abs(parts)):
                ok = False
    _report("criterion 8: spectra add over cost tables", ok)


def test_criterion_09_tail_identity_and_bound():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        report = smoothness_report(rng.normal(size=1 << dim))
        for k in range(1, dim + 1):
            lhs = report.tail_identity_lhs[k - 1]
            rhs = report.tail_identity_rhs[k - 1]
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
                ok = False
            if lhs > report.tail_bound[k - 1] + 1e-9:
                ok = False
    _report("criterion 9: derivative tail identity and Lipschitz cap", ok)


def test_criterion_10_ensemble_claims():
    start = time.monotonic()
    trials = 10000

    profile = degree_uniform_profile(12, {4: 0.02})  # 495 omitted modes
    spec = EnsembleSpec(variance_profile=profile, family="gaussian", trials=trials, rng_seed=1010)
    residual_report = ensemble_residual_check(spec, 12, 2)
    residual_ok = (
        residual_report.variance_ok
        and residual_report.gaussian_gate_applied
        and residual_report.skewness_ok
        and residual_report.kurtosis_ok
    )

    flip_profile = degree_uniform_profile(8, {1: 0.5, 2: 0.25})
    flip_spec = EnsembleSpec(variance_profile=flip_profile, family="gaussian", trials=trials, rng_seed=1011)
    flip_report = bitflip_variance_check(flip_spec, 2, 0, n=8)
    flip_ok = flip_report.variance_ok and flip_report.avg_bound_ok

    rates = []
    for margin in (0.001, 0.1, 10.0):
        sweep_profile = profile_with_margin(10, 2, margin)
        sweep_spec = EnsembleSpec(
            variance_profile=sweep_profile, family="gaussian", trials=trials, rng_seed=1012
        )
        rates.append(sign_preservation_rate(sweep_spec, 10, 2).rate)
    sweep_ok = rates[0] >= rates[1] >= rates[2]

    elapsed = time.monotonic() - start
    _report(
        "criterion 10: ensemble variance, Gaussianity, bit-flip variance, sign-rate sweep",
        residual_ok and flip_ok and sweep_ok and elapsed < 120.0,
        f"rates {['%.3f' % r for r in rates]}, {elapsed:.1f}s",
    )


def test_criterion_11_quadratization_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 11))
        low = random_polynomial(rng, n, 3 * n // 2, max_degree=2)
        high_terms = {}
        pool = [m for m in range(1 << n) if 3 <= m.bit_count() <= 5]
        chosen = rng.choice(len(pool), size=min(5, len(pool)), replace=False)
        for idx in chosen:
            high_terms[pool[int(idx)]] = float(rng.normal())
        poly = truncate(IsingPolynomial(n, {**low.terms, **high_terms}), 5)
        model = quadratize(poly)
        total = model.num_vars
        if total > 24:
            ok = False
            continue
        combined = dense_values(model.to_ising())
        by_ancilla = combined.reshape(1 << model.num_ancilla_qubits, 1 << n)
        qubo_best = by_ancilla.min(axis=0)
        hubo = dense_values(poly)
        if float(np.abs(qubo_best - hubo).max()) > 1e-9:
            ok = False
        hubo_argmin = set(np.flatnonzero(hubo <= hubo.min() + 1e-12).tolist())
        qubo_argmin = set(np.flatnonzero(qubo_best <= qubo_best.min() + 1e-12).tolist())
        if hubo_argmin != qubo_argmin:
            ok = False
    elapsed = time.monotonic() - start
    _report(
        "criterion 11: quadratized model min-matches the polynomial pointwise",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_12_pipeline_reproducibility(tmp_path):
    rng = np.random.default_rng(1212)

    def make_pair_instance(card, path):
        doc = {
            "variables": [
                {"name": "a", "cardinality": card},
                {"name": "b", "cardinality": card},
            ],
            "unary": [
                {"var": 0, "costs": list(rng.normal(size=card))},
                {"var": 1, "costs": list(rng.normal(size=card))},
            ],
            "pairwise": [{"vars": [0, 1], "costs": list(rng.normal(size=card * card))}],
        }
        path.write_text(json.dumps(doc))

    demo32 = tmp_path / "pair32.json"
    demo128 = tmp_path / "pair128.json"
    make_pair_instance(32, demo32)
    make_pair_instance(128, demo128)

    reported = {}
    for name, path, kmax in (("pair32", demo32, 4), ("pair128", demo128, 4)):
        runs = []
        for tag in ("one", "two"):
            out = {k: tmp_path / f"{name}_{tag}_{k}" for k in ("hubo", "cert", "spectrum", "report")}
            code = main(
                [
                    "compile",
                    "--input", str(path),
                    "--kmax", str(kmax),
                    "--solve", "anneal",
                    "--seed", "17",
                    "--restarts", "4",
                    "--sweeps", "30",
                    "--out-hubo", str(out["hubo"]),
                    "--out-cert", str(out["cert"]),
                    "--out-spectrum", str(out["spectrum"]),
                    "--out-report", str(out["report"]),
                ]
            )
            assert code == 0
            runs.append(out)
        identical = all(runs[0][k].read_bytes() == runs[1][k].read_bytes() for k in runs[0])
        doc = json.loads(runs[0]["report"].read_text())
        reported[name] = (identical, doc["k_full"], doc["encoded"]["degree"])

    ok = (
        reported["pair32"][0]
        and reported["pair128"][0]
        and reported["pair32"][1] == 10
        and reported["pair128"][1] == 14
        and reported["pair32"][2] == 10
        and reported["pair128"][2] == 14
    )
    _report(
        "criterion 12: byte-identical artifacts; demo pairs report degrees 10 and 14",
        ok,
        f"pair32 k_full {reported['pair32'][1]}, pair128 k_full {reported['pair128'][1]}",
    )
