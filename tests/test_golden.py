"""Pinned sha256 digests of the demo's artifacts.

Every artifact is meant to be byte-identical for the same input,
config and seed, not only from rerun to rerun but across changes to
the code.  These digests pin that for the demo input (10 qubits, keys
of 2 bytes) and for a seeded 70-qubit chain (keys of 9 bytes), at
``--kmax 3``, where every ancilla's parents are original qubits, and
at a higher ``--kmax``, where many ancillas have an ancilla parent, the
report of a short anneal of each ``--kmax 3`` QUBO, ``tbe solve`` of the
demo's ``--kmax 3`` truncation, and ``tbe ensemble`` of a fixed profile:
a change that moves any byte here must re-pin them and say why in
CHANGES.md.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from tbe import Cfn, PairwiseTable, VariableSpec, serialize_cfn
from tbe.cli import main

ROOT = Path(__file__).resolve().parent.parent
# relative, because the report records the input path as given
DEMO = "demos/data/two_card32.json"

COMPILE_DIGESTS = {
    "hubo": "089145d4d55e95a2b4a0848e163c947ed9d46730ccd3a815f7b7503c1ae8ce6e",
    "trunc": "af860e3dd14b7e47061b8ff4de6db1b65501767d3ec67c9c1595e06715fb44cc",
    "qubo": "1fbf54cdc3b30d32d11cfc7b41710e8a5b44eabf25338211d18bd5c40400e85f",
    "spectrum": "794908a66790d9f01315ef01f2740e92ee61e8b2cefc59abb83bb5229e897225",
    "cert": "b0dd601aaed0d7f48796b6e97c157a10efc9cfe76a9b6eeb3930f6bfcca7f23f",
    "report": "c329c280d6a73ad2eb165ee2bbf481eaa0753ac64b6dc6c0f066a86ddbea6d5c",
}
# --kmax 5, where 30 of the 59 ancillas have an ancilla parent
COMPILE_K5_DIGESTS = {
    "hubo": "089145d4d55e95a2b4a0848e163c947ed9d46730ccd3a815f7b7503c1ae8ce6e",
    "trunc": "6c596a625f825d24171703495f5ec0f0f8df725959d6ce7d6065bc399aff131a",
    "qubo": "7f00741d1ca8851ac5dbd137ab8269998c9f8252fd508b36a45f068afd7d07fa",
    "spectrum": "794908a66790d9f01315ef01f2740e92ee61e8b2cefc59abb83bb5229e897225",
    "cert": "c3c4bdac5591d81c5441f5e46f27457d3be51cf02f3c9927b4db4d1db145a265",
    "report": "cc14b690d9cbc81482ef3621f426f08a68f5eb5be21dbbb3d2ac09c51ab74e57",
}
SPECTRUM_DIGEST = "794908a66790d9f01315ef01f2740e92ee61e8b2cefc59abb83bb5229e897225"
VERIFY_DIGEST = "d45a6f407faf67c19a00a79d9ac053ee689ad44789348c99e6933f25488991d2"

# 14 variables of cardinality 32 in a chain: 14 registers of 5 qubits
CHAIN = "chain70.json"
CHAIN_DIGESTS = {
    "hubo": "fc63f2c5f0cd31447109026eea917c9119903714d7f1b644aac821dd1595e5d7",
    "trunc": "5fb5a4bacc762fa7b9b68795c78e585b0cf0e23a2fc342f600125b70b43a2645",
    "qubo": "9a0a85b14e201992805a229899e7eb81c3bf57010ec9c265e66078319c01c374",
    "spectrum": "e0abc50a5fa226385f44ddfe05f50bd630da3e22b6218e192e062ee380e3b726",
    "cert": "585d1ea31d84909f6773fbc823c5c6cb8290d17772ff3edeb44aecc7a6f9df01",
    "report": "945c6a1cddf25c354fb7d8cf8f296c5fc160e77572c1f090186f8b2efc917fde",
}
# the QUBO at --kmax 6, where 238 of the 379 ancillas have an ancilla parent
CHAIN_K6_QUBO_DIGEST = "7ac086c6fada1a121d6b4984b9347550cf93d6a971e95efb8bf1f0fa8ad95a9a"

# the report of a short anneal of the --kmax 3 QUBO, whose energies are
# read off the model's spin view (QuboModel.to_ising)
QUBO_ANNEAL_ARGS = ["--kmax", "3", "--quadratize", "--solve", "anneal", "--restarts", "4", "--sweeps", "20"]
QUBO_ANNEAL_DIGESTS = {
    DEMO: "99c76169b9380187664128358f1949f93aa021c5cc7b296e9cc049521d7ddda5",
    # 210 qubits, 140 of them ancillas
    CHAIN: "bb247a7c77bfd6e9dc00f34dc188997b85a53fc3e08d871a48b8a2831faac215",
}

# `tbe solve` stdout on the demo's --kmax 3 truncation
SOLVE_ARGS = {"exhaustive": ["--method", "exhaustive"], "anneal": ["--method", "anneal", "--seed", "1"]}
SOLVE_DIGESTS = {
    "exhaustive": "527fe85ad6cfc9ca6ae68dad88ec578d9abf3b28d3a5c450fed35e158b915411",
    "anneal": "e91ca401179555d5599a29eb9e612d21740b6e3eb8c154c3ce593a98dd22a7e6",
}
# `tbe ensemble` stdout on ensemble_profile()
ENSEMBLE_ARGS = ["--trials", "2000", "--seed", "3", "--coordinate", "1"]
ENSEMBLE_DIGEST = "ab655648084cfaf6026ca40d813b6cccf079dbf080d8fc656dc4a04f687b0476"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def compile_digests(source: str, out_dir: Path, kmax: int = 3) -> dict[str, str]:
    """Digests of the six artifacts of ``compile --kmax K --quadratize``."""
    outs = {name: out_dir / name for name in COMPILE_DIGESTS}
    argv = ["compile", "--input", source, "--kmax", str(kmax), "--quadratize"]
    for name, path in outs.items():
        argv += [f"--out-{name}", str(path)]
    assert main(argv) == 0
    return {name: digest(path.read_bytes()) for name, path in outs.items()}


def chain_cfn(num_vars: int = 14, card: int = 32, seed: int = 70) -> Cfn:
    """Seeded chain: costs rounded to 3 decimals, unaries in [0, 10),
    neighbour tables standard normal."""
    rng = np.random.default_rng(seed)
    variables = tuple(VariableSpec(f"v{i}", card) for i in range(num_vars))
    unary = tuple(tuple(np.round(rng.uniform(0, 10, card), 3).tolist()) for _ in range(num_vars))
    pairs = tuple(
        PairwiseTable(i, i + 1, tuple(np.round(rng.normal(size=card * card), 3).tolist()))
        for i in range(num_vars - 1)
    )
    return Cfn(variables, unary, pairs)


def test_compile_quadratize_artifacts(at_root, tmp_path):
    assert compile_digests(DEMO, tmp_path) == COMPILE_DIGESTS


def test_compile_quadratize_artifacts_past_64_qubits(monkeypatch, tmp_path):
    # relative, because the report records the input path as given
    monkeypatch.chdir(tmp_path)
    Path(CHAIN).write_text(serialize_cfn(chain_cfn()), encoding="utf-8")
    assert compile_digests(CHAIN, tmp_path) == CHAIN_DIGESTS


def test_compile_quadratize_artifacts_with_nested_ancillas(at_root, tmp_path):
    assert compile_digests(DEMO, tmp_path, kmax=5) == COMPILE_K5_DIGESTS


def test_qubo_past_64_qubits_with_nested_ancillas(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path(CHAIN).write_text(serialize_cfn(chain_cfn()), encoding="utf-8")
    qubo = tmp_path / "qubo"
    assert main(["compile", "--input", CHAIN, "--kmax", "6", "--quadratize", "--out-qubo", str(qubo)]) == 0
    assert digest(qubo.read_bytes()) == CHAIN_K6_QUBO_DIGEST


def test_spectrum_stdout(at_root, capsys):
    assert main(["spectrum", "--input", DEMO]) == 0
    assert digest(capsys.readouterr().out.encode()) == SPECTRUM_DIGEST


def test_verify_report(at_root, tmp_path):
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", DEMO, "--kmax", "3", "--out-report", str(report)]) == 0
    assert digest(report.read_bytes()) == VERIFY_DIGEST


def anneal_report_digest(source: str, out_dir: Path) -> str:
    report = out_dir / "report.json"
    assert main(["compile", "--input", source, *QUBO_ANNEAL_ARGS, "--out-report", str(report)]) == 0
    return digest(report.read_bytes())


def test_qubo_anneal_report(at_root, tmp_path):
    assert anneal_report_digest(DEMO, tmp_path) == QUBO_ANNEAL_DIGESTS[DEMO]


def test_qubo_anneal_report_past_64_qubits(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path(CHAIN).write_text(serialize_cfn(chain_cfn()), encoding="utf-8")
    assert anneal_report_digest(CHAIN, tmp_path) == QUBO_ANNEAL_DIGESTS[CHAIN]


@pytest.mark.parametrize("method", list(SOLVE_ARGS))
def test_solve_stdout(at_root, tmp_path, capsys, method):
    trunc = tmp_path / "trunc.json"
    assert main(["compile", "--input", DEMO, "--kmax", "3", "--out-trunc", str(trunc)]) == 0
    assert main(["solve", "--hubo", str(trunc), *SOLVE_ARGS[method]]) == 0
    assert digest(capsys.readouterr().out.encode()) == SOLVE_DIGESTS[method]


def ensemble_profile() -> dict:
    """10 qubits cut at degree 2: unit linear modes, and cubic and quartic
    modes small enough that no omitted mode carries 1% of the residual's
    variance, so the Gaussian gates apply."""
    variances = {1: 1.0, 3: 0.01, 4: 0.005}
    modes = [
        {"qubits": list(qubits), "pi": pi}
        for degree, pi in variances.items()
        for qubits in itertools.combinations(range(10), degree)
    ]
    return {"n": 10, "k_max": 2, "family": "gaussian", "modes": modes}


def test_ensemble_stdout(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(ensemble_profile()), encoding="utf-8")
    assert main(["ensemble", "--profile", str(profile), *ENSEMBLE_ARGS]) == 0
    assert digest(capsys.readouterr().out.encode()) == ENSEMBLE_DIGEST


def test_ensemble_writes_the_fourth_moment_verdict(tmp_path, capsys):
    # the ratio passes its bound, yet lies within the gate's tolerance
    # bound * (1 + 10 / sqrt(trials)), so the block must say it held
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(ensemble_profile()), encoding="utf-8")
    assert main(["ensemble", "--profile", str(profile), *ENSEMBLE_ARGS]) == 0
    block = json.loads(capsys.readouterr().out)["residual_moments"]
    assert block["fourth_moment_ok"] is True
    bound, ratio = block["fourth_moment_bound"], block["fourth_moment_ratio"]
    assert bound < ratio <= bound * (1 + 10 / 2000**0.5)
