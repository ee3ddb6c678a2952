import json
import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import certify, evaluate_cfn, hubo_from_json, parse_cfn
from tbe.cli import _true_optimum, main
from helpers import random_cfn
from tbe.cfn import serialize_cfn


@pytest.fixture
def card32_input(tmp_path):
    rng = np.random.default_rng(99)
    doc = {
        "variables": [{"name": "a", "cardinality": 32}, {"name": "b", "cardinality": 32}],
        "unary": [
            {"var": 0, "costs": list(rng.normal(size=32))},
            {"var": 1, "costs": list(rng.normal(size=32))},
        ],
        "pairwise": [{"vars": [0, 1], "costs": list(rng.normal(size=1024))}],
    }
    path = tmp_path / "card32.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def small_input(tmp_path):
    rng = np.random.default_rng(41)
    cfn = random_cfn(rng, max_vars=3, max_card=4, edge_prob=1.0)
    path = tmp_path / "small.json"
    path.write_text(serialize_cfn(cfn))
    return path


def test_compile_card32_reports_k_full_ten(card32_input, tmp_path, capsys):
    report = tmp_path / "report.json"
    spectrum = tmp_path / "spectrum.csv"
    code = main(
        [
            "compile",
            "--input", str(card32_input),
            "--kmax", "4",
            "--out-report", str(report),
            "--out-spectrum", str(spectrum),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["k_full"] == 10
    assert doc["num_qubits"] == 10
    rows = spectrum.read_text().splitlines()
    assert rows[0] == "k,P_k,P_k_unary,P_k_pairwise"
    assert len(rows) == 12  # header plus degrees 0..10


def test_compile_byte_identical_reruns(small_input, tmp_path):
    outs1 = {k: tmp_path / f"a_{k}" for k in ("h", "t", "c", "s", "r")}
    outs2 = {k: tmp_path / f"b_{k}" for k in ("h", "t", "c", "s", "r")}

    def run(outs):
        args = [
            "compile",
            "--input", str(small_input),
            "--kmax", "2",
            "--solve", "exhaustive",
            "--refine",
            "--seed", "7",
            "--out-hubo", str(outs["h"]),
            "--out-trunc", str(outs["t"]),
            "--out-cert", str(outs["c"]),
            "--out-spectrum", str(outs["s"]),
            "--out-report", str(outs["r"]),
        ]
        assert main(args) == 0

    run(outs1)
    run(outs2)
    for k in outs1:
        assert outs1[k].read_bytes() == outs2[k].read_bytes()


def test_compile_artifact_consistency(small_input, tmp_path):
    hubo = tmp_path / "h.json"
    cert = tmp_path / "c.json"
    assert main(
        ["compile", "--input", str(small_input), "--kmax", "2",
         "--out-hubo", str(hubo), "--out-cert", str(cert)]
    ) == 0
    from tbe import certificate_json

    poly = hubo_from_json(hubo.read_bytes())
    emitted = json.loads(cert.read_text())
    assert emitted == json.loads(certificate_json(certify(poly, 2)))


def test_compile_kmax_at_k_full_gives_zero_epsilon(small_input, tmp_path):
    report = tmp_path / "r.json"
    assert main(
        ["compile", "--input", str(small_input), "--kmax", "99",
         "--solve", "exhaustive", "--out-report", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert doc["certificate"]["epsilon"] == 0.0
    if doc["corollary_check"] is not None:
        assert doc["corollary_check"]["holds"]
        achieved = doc["corollary_check"]["achieved_value"]
        assert achieved == pytest.approx(doc["corollary_check"]["true_optimum"], abs=1e-9)


def test_compile_corollary_bound_on_random_cfn(small_input, tmp_path):
    report = tmp_path / "r.json"
    assert main(
        ["compile", "--input", str(small_input), "--kmax", "3",
         "--solve", "exhaustive", "--refine", "--out-report", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    if doc["corollary_check"] is not None:
        assert doc["corollary_check"]["holds"]


def test_strict_noise_floor_exit_code(tmp_path):
    # all mass above the cutoff: guaranteed noise-floor failure
    doc = {
        "variables": [{"name": "a", "cardinality": 4}, {"name": "b", "cardinality": 4}],
        "unary": [],
        "pairwise": [{"vars": [0, 1], "costs": [1.0, -1.0, -1.0, 1.0,
                                                 -1.0, 1.0, 1.0, -1.0,
                                                 -1.0, 1.0, 1.0, -1.0,
                                                 1.0, -1.0, -1.0, 1.0]}],
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", "--input", str(path), "--kmax", "2"]) == 0
    assert main(["compile", "--input", str(path), "--kmax", "2", "--strict"]) == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compile", "--input", str(bad), "--kmax", "2"]) == 3
    missing_kmax = tmp_path / "ok.json"
    missing_kmax.write_text('{"variables": [{"cardinality": 2}]}')
    assert main(["compile", "--input", str(missing_kmax), "--kmax", "0"]) == 3


def test_capacity_exit_code(tmp_path):
    doc = {"variables": [{"name": f"v{i}", "cardinality": 256} for i in range(9)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", "--input", str(path), "--kmax", "2"]) == 4


def test_missing_file_exit_code(tmp_path):
    assert main(["compile", "--input", str(tmp_path / "nope.json"), "--kmax", "2"]) == 1


def test_verify_subcommand_passes_on_clean_instance(small_input, tmp_path):
    report = tmp_path / "verify.json"
    code = main(["verify", "--input", str(small_input), "--kmax", "2", "--out-report", str(report)])
    doc = json.loads(report.read_text())
    claims = {c["claim"]: c for c in doc["claims"]}
    assert set(claims) == {
        "gap_vs_barrier",
        "optimum_preservation",
        "approximate_recovery",
        "basin_preservation",
    }
    failed = [c for c in doc["claims"] if c["precondition_held"] and c["asserted"] is False]
    assert code == (5 if failed else 0)
    assert not failed


def test_verify_epsilon_zero_trivially_passes(small_input, tmp_path):
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", str(small_input), "--kmax", "99", "--out-report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["epsilon"] == 0.0
    assert doc["gap_condition_holds"]


def test_solve_subcommand_round_trip(small_input, tmp_path):
    hubo = tmp_path / "h.json"
    assert main(["compile", "--input", str(small_input), "--kmax", "2", "--out-hubo", str(hubo)]) == 0
    out = tmp_path / "solve.json"
    assert main(["solve", "--hubo", str(hubo), "--method", "exhaustive", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "exhaustive"
    assert len(doc["best_spin"]) == doc["num_qubits"]
    assert set(doc["best_spin"]) <= {"+", "-"}


def test_ensemble_subcommand(tmp_path):
    modes = []
    for mask in range(1, 1 << 6):
        k = bin(mask).count("1")
        if k == 1:
            modes.append({"qubits": [i for i in range(6) if mask >> i & 1], "pi": 1.0})
        elif k == 3:
            modes.append({"qubits": [i for i in range(6) if mask >> i & 1], "pi": 0.01})
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"n": 6, "k_max": 2, "family": "gaussian", "modes": modes}))
    out = tmp_path / "ensemble.json"
    assert main(["ensemble", "--profile", str(profile), "--trials", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["residual_moments"]["variance_ok"]
    assert doc["bitflip_variance"]["variance_ok"]
    assert doc["bitflip_variance"]["avg_bound_ok"]
    assert 0.0 <= doc["sign_preservation"]["rate"] <= 1.0


def test_spectrum_subcommand_stdout(small_input, capsys):
    assert main(["spectrum", "--input", str(small_input)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,P_k,P_k_unary,P_k_pairwise")


def test_threads_env_fallback(small_input, tmp_path, monkeypatch):
    monkeypatch.setenv("TBE_THREADS", "2")
    assert main(["spectrum", "--input", str(small_input), "--out", str(tmp_path / "s.csv")]) == 0
    monkeypatch.setenv("TBE_THREADS", "0")
    assert main(["spectrum", "--input", str(small_input), "--out", str(tmp_path / "s.csv")]) == 3


def test_gray_and_penalty_options(small_input, tmp_path):
    report = tmp_path / "r.json"
    assert main(
        ["compile", "--input", str(small_input), "--kmax", "2",
         "--assignment", "gray", "--unused", "penalty:5.0", "--out-report", str(report)]
    ) == 0
    assert json.loads(report.read_text())["config"]["unused"] == "penalty:5.0"


def test_custom_assignment_file(tmp_path):
    doc = {
        "variables": [{"name": "x", "cardinality": 3}],
        "unary": [{"var": 0, "costs": [1.0, 2.0, 3.0]}],
    }
    cfn_path = tmp_path / "cfn.json"
    cfn_path.write_text(json.dumps(doc))
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps([[2, 0, 1]]))
    report = tmp_path / "r.json"
    assert main(
        ["compile", "--input", str(cfn_path), "--kmax", "1",
         "--assignment", f"custom:{maps}", "--out-report", str(report)]
    ) == 0
    maps.write_text(json.dumps([[0, 0, 1]]))
    assert main(
        ["compile", "--input", str(cfn_path), "--kmax", "1", "--assignment", f"custom:{maps}"]
    ) == 3


# --- exact CFN optimum (the corollary check's enumeration) ---------------


def _brute_optimum(cfn):
    best, best_assignment = math.inf, ()
    for assignment in product(*(range(1, v.cardinality + 1) for v in cfn.variables)):
        value = evaluate_cfn(cfn, assignment)
        if value < best:
            best, best_assignment = value, assignment
    return best, best_assignment


# a few exact values plant ties; general floats exercise rounding order
_COST = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _cfn_docs(draw):
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = len(cards)
    unary = [
        {"var": i, "costs": draw(st.lists(_COST, min_size=c, max_size=c))}
        for i, c in enumerate(cards)
        if draw(st.booleans())
    ]
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.permutations(all_pairs))[: draw(st.integers(0, len(all_pairs)))]
    pairwise = [
        {"vars": [i, j], "costs": draw(st.lists(_COST, min_size=cards[i] * cards[j],
                                                max_size=cards[i] * cards[j]))}
        for i, j in pairs
    ]
    return {
        "variables": [{"cardinality": c} for c in cards],
        "unary": unary,
        "pairwise": pairwise,
    }


@settings(max_examples=300, deadline=None)
@given(_cfn_docs())
def test_true_optimum_matches_enumeration_exactly(doc):
    cfn = parse_cfn(json.dumps(doc))
    value, assignment = _true_optimum(cfn)
    want_value, want_assignment = _brute_optimum(cfn)
    assert value == want_value
    assert assignment == want_assignment
    assert evaluate_cfn(cfn, assignment) == value


def test_true_optimum_first_of_planted_ties():
    doc = {
        "variables": [{"cardinality": 3}, {"cardinality": 2}],
        "pairwise": [{"vars": [0, 1], "costs": [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]}],
    }
    assert _true_optimum(parse_cfn(json.dumps(doc))) == (0.0, (1, 2))


def test_true_optimum_cap():
    at_cap = parse_cfn(json.dumps({"variables": [{"cardinality": 32}] * 4}))
    assert _true_optimum(at_cap) == (0.0, (1, 1, 1, 1))
    over = parse_cfn(json.dumps({"variables": [{"cardinality": 32}] * 4 + [{"cardinality": 2}]}))
    assert _true_optimum(over) is None


# --- malformed HUBO-JSON exits 3 and names the field ---------------------


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"num_qubits": 2}, "terms"),
        ([{"qubits": [0], "coeff": 1.0}], "top-level value"),
        ({"num_qubits": 2, "terms": [{"qubits": [1], "coeff": 1.0}, {"qubits": [-1], "coeff": 1.0}]},
         r"terms\[1\].qubits: qubit -1 is outside"),
        ({"num_qubits": 2, "terms": [{"qubits": [0, 0], "coeff": 1.0}]},
         r"terms\[0\].qubits: qubit 0 is repeated"),
        ({"num_qubits": 2, "terms": [{"qubits": [0, 2], "coeff": 1.0}]},
         r"terms\[0\].qubits: qubit 2 is outside"),
    ],
    ids=["missing-terms", "top-level-list", "negative-qubit", "repeated-qubit", "qubit-out-of-range"],
)
def test_solve_rejects_malformed_hubo(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.hubo.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--hubo", str(path)]) == 3
    assert re.search(message, capsys.readouterr().err)
