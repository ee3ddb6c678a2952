"""Output checks that never call the code under test.

Artifacts are read with plain ``json`` and evaluated with numpy parity
sums; reference values come from the instance's own cost tables.  Each
check returns a list of failure messages, empty when the output is
correct.  The bit convention is the documented one: the binary
assignment gives choice c the bits of c - 1, registers are laid out in
variable order, and bit b stands for spin 1 - 2b.
"""

from __future__ import annotations

import json

import numpy as np

from instances import Instance

REL_TOL = 1e-9
# The quadratized model's penalty couplings are ~1e3 times its cost
# couplings, so its sums are held to a tighter share of a larger scale.
QUBO_REL_TOL = 1e-12


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + scale)


def spin_masks(inst: Instance, choices: np.ndarray) -> np.ndarray:
    """Configuration masks of 0-based choices under the binary assignment."""
    masks = np.zeros(choices.shape[0], dtype=np.uint64)
    offset = 0
    for i, card in enumerate(inst.cards):
        masks |= choices[:, i].astype(np.uint64) << np.uint64(offset)
        offset += max(card - 1, 0).bit_length()
    return masks


def total_qubits(inst: Instance) -> int:
    return sum(max(d - 1, 0).bit_length() for d in inst.cards)


class Hubo:
    """A HUBO-JSON artifact as arrays: term masks, coefficients, degrees."""

    def __init__(self, text: bytes | str):
        doc = json.loads(text)
        self.num_qubits = int(doc["num_qubits"])
        masks, coeffs, degrees = [], [], []
        for entry in doc["terms"]:
            mask = 0
            for q in entry["qubits"]:
                mask |= 1 << int(q)
            masks.append(mask)
            coeffs.append(float(entry["coeff"]))
            degrees.append(len(entry["qubits"]))
        self.masks = np.array(masks, dtype=np.uint64)
        self.coeffs = np.array(coeffs)
        self.degrees = np.array(degrees, dtype=np.int64)

    def terms(self) -> dict[int, float]:
        return dict(zip(self.masks.tolist(), self.coeffs.tolist()))

    def values(self, configs: np.ndarray) -> np.ndarray:
        parity = np.bitwise_count(configs[:, None] & self.masks[None, :]) & 1
        return (1.0 - 2.0 * parity) @ self.coeffs


def qubo_values(doc: dict, configs: np.ndarray) -> np.ndarray:
    """Quadratized model value with every ancilla set to its parents' product."""
    n = int(doc["num_qubits"]) + int(doc["num_ancillas"])
    bits = np.zeros((configs.shape[0], n), dtype=bool)
    for q in range(int(doc["num_qubits"])):
        bits[:, q] = (configs >> np.uint64(q)) & np.uint64(1)
    for anc in doc["ancillas"]:
        p, q = anc["parents"]
        bits[:, anc["index"]] = bits[:, p] & bits[:, q]
    total = np.full(configs.shape[0], float(doc["constant"]))
    for term in doc["linear"]:
        total += term["coeff"] * bits[:, term["i"]]
    for term in doc["quadratic"]:
        total += term["coeff"] * (bits[:, term["i"]] & bits[:, term["j"]])
    return total


def _qubo_scale(doc: dict) -> float:
    return abs(doc["constant"]) + sum(abs(t["coeff"]) for t in doc["linear"] + doc["quadratic"])


def check_compile(
    inst: Instance, kmax: int, files: dict[str, bytes], choices: np.ndarray
) -> tuple[list[str], dict]:
    """All six artifacts of ``compile --quadratize`` against the tables.

    Returns the failures and ``qubo_vars`` read off the QUBO artifact.
    """
    bad: list[str] = []
    n = total_qubits(inst)
    configs = spin_masks(inst, choices)
    exact = inst.values(choices)
    scale = inst.spread()

    full = Hubo(files["hubo"])
    if full.num_qubits != n:
        bad.append(f"hubo: num_qubits {full.num_qubits}, expected {n}")
        return bad, {}
    got = full.values(configs)
    worst = float(np.max(np.abs(got - exact)))
    if not worst <= REL_TOL * (1.0 + scale):
        bad.append(f"hubo: differs from table sums by {worst!r} at sampled assignments")

    trunc = Hubo(files["trunc"])
    kept = {m: c for m, c, d in zip(full.masks.tolist(), full.coeffs.tolist(), full.degrees) if d <= kmax}
    if trunc.terms() != kept:
        bad.append("trunc: not the degree <= kmax terms of the full HUBO")
    if trunc.degrees.size and int(trunc.degrees.max()) > kmax:
        bad.append(f"trunc: degree {int(trunc.degrees.max())} above kmax {kmax}")

    cert = json.loads(files["cert"])
    eps = float(np.abs(full.coeffs[full.degrees > kmax]).sum())
    if not _close(cert["epsilon"], eps, eps):
        bad.append(f"cert: epsilon {cert['epsilon']!r}, omitted l1 mass is {eps!r}")
    trunc_vals = trunc.values(configs)
    excess = float(np.max(np.abs(got - trunc_vals) - cert["epsilon"]))
    if not excess <= REL_TOL * (1.0 + scale + eps):
        bad.append(f"cert: |hubo - trunc| exceeds epsilon by {excess!r}")

    qubo = json.loads(files["qubo"])
    if qubo["num_qubits"] != n:
        bad.append(f"qubo: num_qubits {qubo['num_qubits']}, expected {n}")
    else:
        diff = float(np.max(np.abs(qubo_values(qubo, configs) - trunc_vals)))
        if not diff <= QUBO_REL_TOL * (1.0 + _qubo_scale(qubo)):
            bad.append(f"qubo: differs from the truncated HUBO by {diff!r} at product ancillas")

    rows = files["spectrum"].decode("utf-8").strip().splitlines()[1:]
    power = [float(r.split(",")[1]) for r in rows]
    for k in range(1, len(power)):
        mass = float(np.sum(full.coeffs[full.degrees == k] ** 2))
        if not _close(power[k], mass, mass):
            bad.append(f"spectrum: P_{k} = {power[k]!r}, HUBO mass at degree {k} is {mass!r}")
            break
    if int(full.degrees.max()) >= len(power):
        bad.append("spectrum: HUBO has terms above the last spectrum degree")

    report = json.loads(files["report"])
    if report["encoded"]["num_terms"] != full.coeffs.size:
        bad.append("report: encoded.num_terms disagrees with the HUBO artifact")
    if report["truncated"]["num_terms"] != trunc.coeffs.size:
        bad.append("report: truncated.num_terms disagrees with the truncated artifact")
    if report["quadratization"]["num_ancillas"] != qubo["num_ancillas"]:
        bad.append("report: num_ancillas disagrees with the QUBO artifact")
    return bad, {"qubo_vars": qubo["num_qubits"] + qubo["num_ancillas"]}


def _choices(assignment) -> np.ndarray:
    return np.asarray(assignment, dtype=np.int64)[None, :] - 1


def check_solve(inst: Instance, report: dict, optimum: float) -> tuple[list[str], float | None]:
    """A compile report with a solve block: decoded values, refinement
    and the optimum.  Returns failures and the optimality gap as a share
    of the instance's cost spread."""
    bad: list[str] = []
    scale = inst.spread()
    block = report.get("solve")
    if not block:
        return ["report: no solve block"], None
    assignment = block["decoded_assignment"]
    if len(assignment) != inst.num_variables or not all(
        1 <= c <= d for c, d in zip(assignment, inst.cards)
    ):
        return [f"solve: decoded assignment {assignment} out of range"], None
    value = float(inst.values(_choices(assignment))[0])
    if not _close(block["cfn_value"], value, scale):
        bad.append(f"solve: cfn_value {block['cfn_value']!r}, table sum of the decoded assignment is {value!r}")
    best = block["cfn_value"]
    if block.get("refined_cfn_value") is not None:
        refined = block["refined_cfn_value"]
        r_value = float(inst.values(_choices(block["refined_assignment"]))[0])
        if not _close(refined, r_value, scale):
            bad.append(f"solve: refined_cfn_value {refined!r}, table sum is {r_value!r}")
        if refined > block["cfn_value"] + REL_TOL * (1.0 + scale):
            bad.append("solve: refined value is worse than the decoded value")
        best = min(best, refined)
    if best < optimum - REL_TOL * (1.0 + scale):
        bad.append(f"solve: value {best!r} beats the exact optimum {optimum!r}")
    return bad, (best - optimum) / scale


def check_exhaustive(inst: Instance, report: dict, optimum: float) -> list[str]:
    """``compile --solve exhaustive --refine``: the solve block plus the
    corollary check against the exact optimum."""
    bad, _ = check_solve(inst, report, optimum)
    cor = report.get("corollary_check")
    if not cor:
        return bad + ["report: no corollary_check block"]
    if not _close(cor["true_optimum"], optimum, 0.0):
        bad.append(f"corollary: true_optimum {cor['true_optimum']!r}, exact optimum is {optimum!r}")
    if cor["holds"] is not True:
        bad.append("corollary: holds is not true")
    return bad


def check_verify(inst: Instance, report: dict, optimum: float) -> list[str]:
    bad = []
    if report["num_qubits"] != total_qubits(inst):
        bad.append(f"verify: num_qubits {report['num_qubits']}, expected {total_qubits(inst)}")
    if not _close(report["global_min_value"], optimum, 0.0):
        bad.append(f"verify: global_min_value {report['global_min_value']!r}, exact optimum is {optimum!r}")
    return bad
