import json
import math
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbe import (
    Cfn,
    PairwiseTable,
    Penalty,
    VariableSpec,
    build_layout,
    certify,
    dense_values,
    evaluate_cfn,
    hubo_from_json,
    parse_cfn,
)
from tbe.cli import _true_optimum, main
from helpers import assemble_truth_table, random_cfn
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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["compile", "--input", "demos/data/two_card32.json", "--kmax", "x"], "argument --kmax"),
        (["compile", "--input", "demos/data/two_card32.json", "--kmax", "3", "--bogus"], "--bogus"),
        (["compile", "--input", "demos/data/two_card32.json", "--kmax"], "argument --kmax"),
        (["compile", "--kmax", "3"], "--input"),
        (["solve", "--hubo", "h.json", "--method", "anneal", "--cooling", "0"], "argument --cooling"),
        (["ensemble", "--profile", "p.json", "--coordinate", "1.5"], "argument --coordinate"),
        (["frobnicate"], "argument command"),
        ([], "command"),
    ],
    ids=["kmax-not-a-number", "unknown-flag", "missing-value", "missing-flag", "out-of-range",
         "not-an-integer", "unknown-command", "no-command"],
)
def test_malformed_command_line_exits_3_with_one_line(capsys, argv, named):
    # argparse printed its usage and exited 2, the --strict noise-floor code
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("tbe: ") and captured.err.count("\n") == 1
    assert named in captured.err and "usage" not in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["compile", "--help"])
    assert done.value.code == 0
    assert "--kmax" in capsys.readouterr().out


def test_capacity_exit_code(tmp_path, capsys):
    # 18 variables of cardinality 16 are 72 qubits: compile and anneal
    # run, and only the 2^24 enumeration refuses them
    rng = np.random.default_rng(72)
    doc = {
        "variables": [{"cardinality": 16}] * 18,
        "unary": [{"var": i, "costs": rng.normal(size=16).tolist()} for i in range(18)],
        "pairwise": [{"vars": [i, i + 1], "costs": rng.normal(size=256).tolist()} for i in range(17)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    base = ["--input", str(path), "--kmax", "2"]
    assert main(["compile", *base]) == 0
    capsys.readouterr()
    assert main(["compile", *base, "--solve", "anneal", "--restarts", "2", "--sweeps", "2"]) == 0
    assert main(["compile", *base, "--solve", "exhaustive"]) == 4
    assert "2^24" in capsys.readouterr().err
    assert main(["verify", *base]) == 4
    assert "2^24" in capsys.readouterr().err


def test_zero_cost_cfn_compiles_and_verifies(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"variables": [{"cardinality": 2}, {"cardinality": 3}]}))
    cert = tmp_path / "cert.json"
    assert main(["compile", "--input", str(path), "--kmax", "2", "--out-cert", str(cert)]) == 0
    assert json.loads(cert.read_text())["epsilon"] == 0.0
    assert main(["verify", "--input", str(path), "--kmax", "2", "--out-report", str(tmp_path / "v.json")]) == 0


def test_zero_variable_cfn_reports_empty_assignments(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"variables": [], "unary": [], "pairwise": []}))
    report = tmp_path / "report.json"
    argv = ["compile", "--input", str(path), "--kmax", "1", "--solve", "exhaustive", "--refine"]
    assert main([*argv, "--out-report", str(report)]) == 0
    solved = json.loads(report.read_text())["solve"]
    assert solved["decoded_assignment"] == solved["decoded_valid"] == []
    assert solved["refined_assignment"] == []


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("cards", [[2, 3], [1, 1]], ids=["all-zero", "zero-qubit"])
def test_verify_report_is_strict_json(tmp_path, cards):
    # a constant landscape has an infinite energy gap, so its margins and,
    # with no qubit to flip, its barriers are written as null
    path = tmp_path / "cfn.json"
    path.write_text(json.dumps({"variables": [{"cardinality": c} for c in cards]}))
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", str(path), "--kmax", "2", "--out-report", str(report)]) == 0
    doc = json.loads(report.read_text(), parse_constant=_reject_constant)
    margins = {claim["claim"]: claim["margin"] for claim in doc["claims"]}
    assert doc["energy_gap"] is None and margins["optimum_preservation"] is None
    if cards == [1, 1]:
        assert doc["basin_barriers"] == {"": None} and margins["basin_preservation"] is None


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


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([1.0, 1e308, -1e308], r"terms\[1\]\.coeff: 1e\+308 exceeds 1e\+100 in magnitude"),
        ([1.0, -1.5e100, 2.0], r"terms\[1\]\.coeff: -1\.5e\+100 exceeds 1e\+100 in magnitude"),
        # the same monomial three times: the running sum crosses the bound
        ([6e99, 6e99], r"terms\[1\]\.coeff: the repeated monomial's coefficients sum to 1\.2e\+100"),
    ],
    ids=["huge", "just-past-bound", "repeated-sum"],
)
def test_solve_rejects_hubo_coefficients_past_the_cost_bound(tmp_path, capsys, coeffs, message):
    repeated = len(coeffs) == 2
    terms = [{"qubits": [0, 1] if repeated else [k], "coeff": c} for k, c in enumerate(coeffs)]
    path = tmp_path / "huge.hubo.json"
    path.write_text(json.dumps({"num_qubits": 3, "terms": terms}))
    assert main(["solve", "--hubo", str(path), "--method", "exhaustive"]) == 3
    err = capsys.readouterr().err
    assert re.search(message, err) and "Warning" not in err


def test_solve_accepts_hubo_coefficients_at_the_cost_bound(tmp_path, capsys):
    terms = [{"qubits": [0], "coeff": 1e100}, {"qubits": [1], "coeff": -1e100}, {"qubits": [2], "coeff": 5e99},
             {"qubits": [2], "coeff": 5e99}]
    path = tmp_path / "bound.hubo.json"
    path.write_text(json.dumps({"num_qubits": 3, "terms": terms}))
    assert main(["solve", "--hubo", str(path), "--method", "exhaustive"]) == 0
    assert json.loads(capsys.readouterr().out)["best_value"] == pytest.approx(-3e100, rel=1e-12)


# --- anneal knobs, ensemble modes and policy strings at the CLI ----------


def _write_hubo(tmp_path):
    path = tmp_path / "p.hubo.json"
    path.write_text(json.dumps({"num_qubits": 2, "terms": [{"qubits": [0, 1], "coeff": 1.0}]}))
    return path


def _short_anneal(command, cfn_path, tmp_path):
    if command == "compile":
        argv = ["compile", "--input", str(cfn_path), "--kmax", "2", "--solve", "anneal"]
    else:
        argv = ["solve", "--hubo", str(_write_hubo(tmp_path)), "--method", "anneal"]
    return argv + ["--restarts", "2", "--sweeps", "5"]


@pytest.mark.parametrize("flag", ["--weak-threshold", "--strong-threshold"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
def test_threshold_not_finite_or_negative_exits_3_before_any_artifact(small_input, tmp_path, capsys, flag, value):
    cert, report = tmp_path / "cert.json", tmp_path / "report.json"
    argv = ["compile", "--input", str(small_input), "--kmax", "2", "--out-cert", str(cert), "--out-report", str(report)]
    assert main(argv + [f"{flag}={value}"]) == 3
    assert flag in capsys.readouterr().err
    assert not cert.exists() and not report.exists()


@pytest.mark.parametrize("flag", ["--weak-threshold", "--strong-threshold"])
@pytest.mark.parametrize("value", ["0", "1e300"])
def test_threshold_limits_accepted(small_input, flag, value):
    assert main(["compile", "--input", str(small_input), "--kmax", "2", flag, value]) == 0


@pytest.mark.parametrize("command", ["compile", "solve"])
@pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan"])
def test_cooling_outside_unit_interval_exits_3(small_input, tmp_path, capsys, command, value):
    assert main(_short_anneal(command, small_input, tmp_path) + ["--cooling", value]) == 3
    assert "--cooling" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compile", "solve"])
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_t0_not_finite_positive_exits_3(small_input, tmp_path, capsys, command, value):
    assert main(_short_anneal(command, small_input, tmp_path) + ["--t0", value]) == 3
    assert "--t0" in capsys.readouterr().err


def test_anneal_knobs_at_their_limits_accepted(tmp_path):
    assert main(_short_anneal("solve", None, tmp_path) + ["--cooling", "1", "--t0", "1e-300"]) == 0
    assert main(_short_anneal("solve", None, tmp_path) + ["--restarts", "1", "--sweeps", "0"]) == 0


def test_anneal_cooled_to_zero_temperature_writes_nothing_to_stderr():
    # 1e-320 times the starting temperature underflows to 0 after a few
    # sweeps; a zero temperature accepts a flip when its delta is <= 0,
    # with no division, so numpy has nothing to warn about
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["compile", "--input", "demos/data/two_card32.json", "--kmax", "3", "--solve", "anneal",
            "--restarts", "2", "--sweeps", "5", "--cooling", "1e-320"]
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from tbe.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="default"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""


@pytest.mark.parametrize("command", ["compile", "solve"])
@pytest.mark.parametrize("flag, value", [("--restarts", "0"), ("--restarts", "-1"), ("--sweeps", "-1")])
def test_restarts_and_sweeps_out_of_range_exit_3(small_input, tmp_path, capsys, command, flag, value):
    assert main(_short_anneal(command, small_input, tmp_path) + [flag, value]) == 3
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["compile", "--solve", "exhaustive", "--restarts", "5", "--t0", "2"], "--restarts"),
        (["compile", "--restarts", "3"], "--restarts"),
        (["solve", "--method", "exhaustive", "--sweeps", "9", "--cooling", "0.5"], "--sweeps"),
        (["compile", "--solve", "exhaustive", "--seed", "7"], "--seed"),
        (["compile", "--seed", "0"], "--seed"),
        (["solve", "--seed", "3"], "--seed"),
    ],
    ids=["compile-exhaustive", "compile-no-solve", "solve-exhaustive", "seed-compile-exhaustive",
         "seed-compile-no-solve", "seed-solve-exhaustive"],
)
def test_anneal_knobs_on_a_run_that_does_not_anneal_exit_3(small_input, tmp_path, capsys, argv, flag):
    # they used to be ignored, and the run exited 0
    if argv[0] == "compile":
        argv = argv[:1] + ["--input", str(small_input), "--kmax", "2"] + argv[1:]
    else:
        argv = argv[:1] + ["--hubo", str(_write_hubo(tmp_path))] + argv[1:]
    assert main(argv) == 3
    assert flag in capsys.readouterr().err


def test_runs_without_a_seed_report_seed_0(small_input, tmp_path):
    report, result = tmp_path / "report.json", tmp_path / "result.json"
    assert main(["compile", "--input", str(small_input), "--kmax", "2", "--solve", "exhaustive",
                 "--out-report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["config"]["seed"] == doc["solve"]["rng_seed"] == 0
    assert main(_short_anneal("solve", None, tmp_path) + ["--out", str(result)]) == 0
    assert json.loads(result.read_text())["rng_seed"] == 0


@pytest.mark.parametrize("flag, needs", [("--out-qubo", "--quadratize"), ("--refine", "--solve")])
def test_compile_flag_that_does_nothing_exits_3_before_any_artifact(small_input, tmp_path, capsys, flag, needs):
    # --out-qubo wrote no file, and --refine reported "refine": true with "solve": null
    qubo, report = tmp_path / "qubo.json", tmp_path / "report.json"
    argv = ["compile", "--input", str(small_input), "--kmax", "2", "--out-report", str(report)]
    assert main(argv + (["--out-qubo", str(qubo)] if flag == "--out-qubo" else [flag])) == 3
    err = capsys.readouterr().err
    assert flag in err and needs in err
    assert not report.exists() and not qubo.exists()


@pytest.mark.parametrize(
    "qubits, message",
    [
        ([0, 0], r"modes\[1\]\.qubits: qubit 0 is repeated"),
        ([-1], r"modes\[1\]\.qubits: qubit -1 is outside \[0, 3\)"),
        ([3], r"modes\[1\]\.qubits: qubit 3 is outside \[0, 3\)"),
        ([True], r"modes\[1\]\.qubits must be a list of qubit indices"),
    ],
    ids=["repeated", "negative", "out-of-range", "bool"],
)
def test_ensemble_rejects_malformed_mode_qubits(tmp_path, capsys, qubits, message):
    profile = tmp_path / "profile.json"
    modes = [{"qubits": [1, 2], "pi": 1.0}, {"qubits": qubits, "pi": 1.0}]
    profile.write_text(json.dumps({"n": 3, "k_max": 1, "modes": modes}))
    assert main(["ensemble", "--profile", str(profile), "--trials", "10"]) == 3
    assert re.search(message, capsys.readouterr().err)


_PROFILE = {"n": 3, "k_max": 1, "family": "gaussian",
            "modes": [{"qubits": [0], "pi": 1.0}, {"qubits": [1, 2], "pi": 0.5}]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 5.5, r"\bn must"),
        ("n", "6", r"\bn must"),
        ("n", True, r"\bn must"),
        ("n", -1, r"\bn must"),
        ("k_max", 1.9, "k_max must"),
        ("k_max", 0, "k_max must"),
        ("family", "cauchy", "family must"),
        ("family", ["gaussian"], "family must"),
        ("modes", [], "modes must"),
        ("modes", [5], r"modes\[0\] must"),
        ("pi", float("nan"), r"modes\[1\]\.pi must"),
        ("pi", -0.5, r"modes\[1\]\.pi must"),
        ("pi", "0.5", r"modes\[1\]\.pi must"),
        ("pi", 10**400, r"modes\[1\]\.pi must"),
        (None, "{not json", "--profile"),
        (None, "[]", "--profile"),
    ],
    ids=["n-float", "n-string", "n-bool", "n-negative", "k_max-float", "k_max-zero",
         "family-unknown", "family-list", "modes-empty", "mode-not-object", "pi-nan",
         "pi-negative", "pi-string", "pi-overflow", "not-json", "not-object"],
)
def test_ensemble_rejects_malformed_profile_fields(tmp_path, capsys, field, value, message):
    doc = json.loads(json.dumps(_PROFILE))
    if field == "pi":
        doc["modes"][1]["pi"] = value
    elif field is not None:
        doc[field] = value
    profile = tmp_path / "profile.json"
    profile.write_text(value if field is None else json.dumps(doc))
    assert main(["ensemble", "--profile", str(profile), "--trials", "10"]) == 3
    assert re.search(message, capsys.readouterr().err)


def _ensemble_argv(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(_PROFILE))
    return ["ensemble", "--profile", str(profile), "--trials", "10"]


@pytest.mark.parametrize(
    "modes, message",
    [
        ([([0, 1], 1e300), ([0], 1)], r"modes\[0\]\.pi must be a number in \[0, 1e\+100\], got 1e\+300"),
        ([([0, 1], 1e308), ([0, 1], 1e308)], r"modes\[0\]\.pi must be a number in \[0, 1e\+100\], got 1e\+308"),
        ([([0, 1], 1e100), ([1], 1), ([0, 1], 1e100)], r"modes\[2\]\.pi: the repeated mode's variances sum to 2e\+100"),
    ],
    ids=["overflowing-moments", "overflowing-sum", "repeated-sum-past-the-bound"],
)
def test_ensemble_variance_past_the_cost_bound_exits_3(tmp_path, capsys, modes, message):
    # the first profile overflowed in the residual's moments and ended in
    # a traceback, the second exited 1 on an infinite variance in the report
    profile = tmp_path / "profile.json"
    doc = {"n": 2, "k_max": 1, "modes": [{"qubits": q, "pi": pi} for q, pi in modes]}
    profile.write_text(json.dumps(doc))
    assert main(["ensemble", "--profile", str(profile), "--trials", "10"]) == 3
    assert re.search(message, capsys.readouterr().err)


def test_ensemble_variances_at_the_cost_bound_give_finite_moments(tmp_path):
    profile, out = tmp_path / "profile.json", tmp_path / "out.json"
    modes = [{"qubits": [0, 1], "pi": 5e99}, {"qubits": [0], "pi": 1}, {"qubits": [0, 1], "pi": 5e99}]
    profile.write_text(json.dumps({"n": 2, "k_max": 1, "modes": modes}))
    assert main(["ensemble", "--profile", str(profile), "--trials", "1000", "--out", str(out)]) == 0
    moments = json.loads(out.read_text())["residual_moments"]
    assert moments["target_variance"] == 1e100 and moments["variance_ok"]


@pytest.mark.parametrize("value", ["3", "7", "-1"])
def test_ensemble_coordinate_outside_the_profile_exits_3(tmp_path, capsys, value):
    assert main(_ensemble_argv(tmp_path) + ["--coordinate", value]) == 3
    assert re.search(r"--coordinate must be in \[0, 3\)", capsys.readouterr().err)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("compile", "--seed", "-1"),
        ("solve", "--seed", "-1"),
        ("ensemble", "--seed", "-1"),
        ("ensemble", "--trials", "0"),
        ("ensemble", "--trials", "-5"),
    ],
)
def test_seed_and_trials_out_of_range_exit_3(small_input, tmp_path, capsys, command, flag, value):
    if command == "ensemble":
        argv = _ensemble_argv(tmp_path)
    else:
        argv = _short_anneal(command, small_input, tmp_path)
    assert main(argv + [flag, value]) == 3
    assert flag in capsys.readouterr().err


def test_ensemble_flags_at_their_limits_accepted(tmp_path):
    argv = _ensemble_argv(tmp_path)
    assert main(argv + ["--coordinate", "2", "--seed", "0", "--trials", "1"]) == 0


@pytest.mark.parametrize("n", [64, 65])
def test_ensemble_random_start_at_and_past_64_qubits(tmp_path, n):
    # the random starting mask is a Python int drawn a 64-bit word at a time
    doc = {"n": n, "k_max": 1, "modes": [{"qubits": [n - 1], "pi": 1.0}, {"qubits": [0, n - 1], "pi": 0.1}]}
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    assert main(["ensemble", "--profile", str(profile), "--trials", "10"]) == 0


@pytest.mark.parametrize("policy", ["fallback:x", "penalty:x", "penalty:nan", "penalty:-1", "penalty:1e305"])
def test_malformed_unused_policy_exits_3(small_input, capsys, policy):
    assert main(["spectrum", "--input", str(small_input), "--unused", policy]) == 3
    assert "--unused" in capsys.readouterr().err


def _costs_of_magnitude(tmp_path, cost):
    doc = {
        "variables": [{"cardinality": 4}] * 3,
        "unary": [{"var": 0, "costs": [0.0, 1.0, -cost, cost]}],
        "pairwise": [{"vars": [1, 2], "costs": [cost, -cost, -cost, cost] * 4}],
    }
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("cost", [1e305, -1e308, 1.0000000000000002e100])
def test_cost_past_the_bound_exits_3_naming_table_and_value(tmp_path, capsys, cost):
    # squared sums of such costs overflowed, and the run exited 1
    qubo = tmp_path / "qubo.json"
    argv = ["compile", "--input", str(_costs_of_magnitude(tmp_path, cost)), "--kmax", "3", "--quadratize"]
    assert main(argv + ["--out-qubo", str(qubo)]) == 3
    err = capsys.readouterr().err
    assert f"unary table for var 0: cost {-cost!r}" in err
    assert not qubo.exists()


def test_costs_at_the_bound_give_finite_artifacts(tmp_path):
    path = _costs_of_magnitude(tmp_path, 1e100)
    out = {name: tmp_path / name for name in ("hubo", "trunc", "qubo", "spectrum", "cert", "report")}
    argv = ["compile", "--input", str(path), "--kmax", "2", "--quadratize", "--unused", "penalty"]
    for name, target in out.items():
        argv += [f"--out-{name}", str(target)]
    assert main(argv) == 0
    assert "inf" not in out["spectrum"].read_text()
    assert all(math.isfinite(v) for v in json.loads(out["cert"].read_text()).values() if isinstance(v, float))


def test_missing_custom_map_file_names_assignment(small_input, tmp_path, capsys):
    missing = tmp_path / "no-such-maps.json"
    assert main(["spectrum", "--input", str(small_input), "--assignment", f"custom:{missing}"]) == 1
    err = capsys.readouterr().err
    assert "--assignment" in err and "no-such-maps.json" in err


@pytest.mark.parametrize(
    "text",
    ["[5]", '[["a", "b", "c"]]', "not json", "[[false, true, 2]]", "[[0, 1.5, 2]]"],
    ids=["map-not-a-list", "strings", "not-json", "bools", "float"],
)
def test_malformed_custom_map_file_exits_3(tmp_path, capsys, text):
    cfn_path = tmp_path / "cfn.json"
    cfn_path.write_text(json.dumps({"variables": [{"cardinality": 3}]}))
    maps = tmp_path / "maps.json"
    maps.write_text(text)
    assert main(["spectrum", "--input", str(cfn_path), "--assignment", f"custom:{maps}"]) == 3
    assert "--assignment" in capsys.readouterr().err


def test_compile_computes_the_spectrum_only_when_asked(small_input, tmp_path, monkeypatch):
    def unwanted(*args):
        raise AssertionError("table_spectrum called without --out-spectrum")

    monkeypatch.setattr("tbe.cli.table_spectrum", unwanted)
    assert main(["compile", "--input", str(small_input), "--kmax", "2", "--solve", "exhaustive",
                 "--out-report", str(tmp_path / "r.json")]) == 0


def _chain80(tmp_path):
    """A 40-variable chain of cardinality 4: 80 qubits."""
    rng = np.random.default_rng(80)
    doc = {
        "variables": [{"cardinality": 4}] * 40,
        "unary": [{"var": i, "costs": rng.normal(size=4).tolist()} for i in range(40)],
        "pairwise": [{"vars": [i, i + 1], "costs": rng.normal(size=16).tolist()} for i in range(39)],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    return path


def test_compile_and_spectrum_past_64_qubits(tmp_path, capsys):
    path = _chain80(tmp_path)
    assert main(["spectrum", "--input", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "k,P_k,P_k_unary,P_k_pairwise" and len(rows) == 6  # degrees 0..4
    out = {name: tmp_path / name for name in ("hubo", "trunc", "qubo", "spectrum", "cert", "report")}
    argv = ["compile", "--input", str(path), "--kmax", "2", "--quadratize"]
    for name, target in out.items():
        argv += [f"--out-{name}", str(target)]
    assert main(argv) == 0
    assert all(target.exists() for target in out.values())
    hubo = hubo_from_json(out["hubo"].read_text())
    assert hubo.num_qubits == 80
    mass = [0.0] * 5
    for s, c in hubo.terms.items():
        mass[s.bit_count()] += c * c
    spectrum = [float(row.split(",")[1]) for row in out["spectrum"].read_text().splitlines()[1:]]
    assert spectrum == pytest.approx(mass, rel=1e-12)
    trunc = hubo_from_json(out["trunc"].read_text())
    assert list(trunc.terms.items()) == [(s, c) for s, c in hubo.terms.items() if s.bit_count() <= 2]


def test_hubo_json_and_solve_past_64_qubits(tmp_path, capsys):
    path = _chain80(tmp_path)
    trunc = tmp_path / "trunc.json"
    assert main(["compile", "--input", str(path), "--kmax", "2", "--out-trunc", str(trunc)]) == 0
    assert hubo_from_json(trunc.read_text()).num_qubits == 80
    knobs = ["--restarts", "4", "--sweeps", "20"]
    result = tmp_path / "result.json"
    assert main(["solve", "--hubo", str(trunc), "--method", "anneal", *knobs, "--out", str(result)]) == 0
    assert json.loads(result.read_text())["num_qubits"] == 80
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for report in reports:
        argv = ["compile", "--input", str(path), "--kmax", "2", "--solve", "anneal", "--refine", *knobs]
        assert main([*argv, "--out-report", str(report)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    solved = json.loads(reports[0].read_text())["solve"]
    assert solved["refined_cfn_value"] <= solved["cfn_value"]
    capsys.readouterr()
    assert main(["solve", "--hubo", str(trunc), "--method", "exhaustive"]) == 4
    assert "2^24" in capsys.readouterr().err


def test_penalty_hubo_is_the_zero_extended_raw_cfn(tmp_path):
    # unused patterns cost the penalty weight on their register and
    # nothing in the interactions, exactly as the raw tables extend
    rng = np.random.default_rng(356)
    cards = [3, 5, 6]
    variables = tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards))
    unary = tuple(tuple(rng.normal(size=c).tolist()) for c in cards)
    pairs = tuple(
        PairwiseTable(i, j, tuple(rng.normal(size=cards[i] * cards[j]).tolist()))
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    cfn = Cfn(variables, unary, pairs)
    path = tmp_path / "cfn.json"
    path.write_text(serialize_cfn(cfn))
    hubo = tmp_path / "hubo.json"
    assert main(["compile", "--input", str(path), "--kmax", "2", "--unused", "penalty",
                 "--out-hubo", str(hubo)]) == 0
    poly = hubo_from_json(hubo.read_bytes())
    truth = assemble_truth_table(cfn, build_layout(cfn, unused_policy=Penalty()))
    assert np.abs(dense_values(poly) - truth).max() <= 1e-9


def test_quadratized_exhaustive_solve_enumerates_the_original_qubits(tmp_path):
    # the demo's QUBO has 31 qubits, past the 2^24 enumeration cap; the
    # truncation's 10 are enumerated and the ancillas set to products
    demo = Path(__file__).resolve().parent.parent / "demos" / "data" / "two_card32.json"
    base = ["compile", "--input", str(demo), "--kmax", "3", "--solve", "exhaustive"]
    plain, quad, qubo = tmp_path / "plain.json", tmp_path / "quad.json", tmp_path / "qubo.json"
    assert main(base + ["--out-report", str(plain)]) == 0
    assert main(base + ["--quadratize", "--out-report", str(quad), "--out-qubo", str(qubo)]) == 0
    plain, quad = json.loads(plain.read_text()), json.loads(quad.read_text())
    assert quad["solve"]["num_qubits"] == 10 + quad["quadratization"]["num_ancillas"] == 31
    assert quad["solve"]["num_original_qubits"] == 10
    assert quad["solve"]["decoded_assignment"] == [12, 25]
    for key in ("best_value", "cfn_value"):
        assert quad["solve"][key] == plain["solve"][key]
    assert quad["corollary_check"] == plain["corollary_check"]
    spins = quad["solve"]["best_spin"]
    assert spins[:10] == plain["solve"]["best_spin"]
    for ancilla in json.loads(qubo.read_text())["ancillas"]:
        p, q = ancilla["parents"]
        assert (spins[ancilla["index"]] == "-") == (spins[p] == spins[q] == "-")


def test_compile_transforms_each_table_once(tmp_path, monkeypatch):
    # the encoding, the report's k_full and the spectrum share one pass of
    # per-table transforms: one per register, one per pairwise table
    import tbe.encoding

    demo = Path(__file__).resolve().parent.parent / "demos" / "data" / "two_card32.json"
    calls = []
    real = tbe.encoding.fwht

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr("tbe.encoding.fwht", counted)
    outs = []
    for flag in ("--out-hubo", "--out-trunc", "--out-qubo", "--out-spectrum", "--out-cert", "--out-report"):
        outs += [flag, str(tmp_path / flag.removeprefix("--out-"))]
    assert main(["compile", "--input", str(demo), "--kmax", "3", "--quadratize", *outs]) == 0
    assert all((tmp_path / name).stat().st_size for name in ("hubo", "trunc", "qubo", "spectrum", "cert", "report"))
    cfn = parse_cfn(demo.read_bytes())
    assert len(calls) == cfn.num_variables + len(cfn.pairwise_tables) == 3
