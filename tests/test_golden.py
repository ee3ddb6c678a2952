"""Pinned sha256 digests of the demo's artifacts.

Every artifact is meant to be byte-identical for the same input,
config and seed, not only from rerun to rerun but across changes to
the code.  These digests pin that for the demo input: a change that
moves any byte here must re-pin them and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

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
SPECTRUM_DIGEST = "794908a66790d9f01315ef01f2740e92ee61e8b2cefc59abb83bb5229e897225"
VERIFY_DIGEST = "a6fb41be3283f45fc55e2c0f03752d45ff2938d3377053c4aaef7f4978dbaea2"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_compile_quadratize_artifacts(at_root, tmp_path):
    outs = {name: tmp_path / name for name in COMPILE_DIGESTS}
    argv = ["compile", "--input", DEMO, "--kmax", "3", "--quadratize"]
    for name, path in outs.items():
        argv += [f"--out-{name}", str(path)]
    assert main(argv) == 0
    assert {name: digest(path.read_bytes()) for name, path in outs.items()} == COMPILE_DIGESTS


def test_spectrum_stdout(at_root, capsys):
    assert main(["spectrum", "--input", DEMO]) == 0
    assert digest(capsys.readouterr().out.encode()) == SPECTRUM_DIGEST


def test_verify_report(at_root, tmp_path):
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", DEMO, "--kmax", "3", "--out-report", str(report)]) == 0
    assert digest(report.read_bytes()) == VERIFY_DIGEST
