"""Desk-scale minimization of spin polynomials and quadratic models.

Exhaustive solving enumerates every configuration (capped at 24
qubits) and is exact; annealing runs restarts of single-flip
Metropolis with a geometric temperature schedule, vectorized across
restarts in lockstep so results are deterministic for a given seed.
Solutions are decoded back to CFN assignments, re-scored against the
true cost tables, and optionally refined by bit-flip descent on the
full (untruncated) encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .cfn import Cfn, evaluate_cfn
from .encoding import EncodingLayout, decode
from .errors import CapacityError
from .polynomial import IsingPolynomial, mask_to_string
from .quadratization import QuboModel
from .verify import MAX_ENUM_QUBITS, bitflip_descent, dense_values, mask_bits

__all__ = ["AnnealParams", "SolveResult", "solve", "decode_and_refine", "solve_result_json"]


@dataclass(frozen=True)
class AnnealParams:
    """Metropolis schedule knobs; every field is surfaced on the CLI.

    ``sweeps`` full passes over the coordinates per restart give
    sweeps * n single-flip proposals, so the default matches
    10 * n * 1000 proposals per restart.  The starting temperature
    defaults to the l1 norm of the non-constant couplings and cools
    geometrically each sweep.
    """

    restarts: int = 64
    sweeps: int = 10000
    initial_temperature: float | None = None
    cooling: float = 0.999


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve, before or after decoding.

    ``best_spin`` is a configuration mask over the solved space (which
    includes ancillas when a quadratic model was solved;
    ``num_original_qubits`` tells how many low bits are original).
    Decode fields stay None until ``decode_and_refine`` fills them.
    """

    num_qubits: int
    num_original_qubits: int
    best_spin: int
    best_value: float
    method: str
    rng_seed: int
    anneal: AnnealParams | None = None
    decoded_assignment: tuple[int, ...] | None = None
    decoded_valid: tuple[bool, ...] | None = None
    cfn_value: float | None = None
    refined_spin: int | None = None
    refined_assignment: tuple[int, ...] | None = None
    refined_valid: tuple[bool, ...] | None = None
    refined_cfn_value: float | None = None
    refine_steps: int | None = None


def _as_polynomial(target: IsingPolynomial | QuboModel) -> tuple[IsingPolynomial, int]:
    if isinstance(target, QuboModel):
        return target.to_ising(), target.num_original_qubits
    return target, target.num_qubits


def solve(
    target: IsingPolynomial | QuboModel,
    method: str = "exhaustive",
    seed: int = 0,
    anneal: AnnealParams | None = None,
) -> SolveResult:
    """Minimize a spin polynomial or quadratic model.

    Exhaustive returns the true minimizer (lowest mask among exact
    ties).  Annealing returns the best state seen across restarts;
    identical seeds give identical results.
    """
    poly, num_original = _as_polynomial(target)
    if method == "exhaustive":
        if poly.num_qubits > MAX_ENUM_QUBITS:
            raise CapacityError(
                f"exhaustive solve over {poly.num_qubits} qubits exceeds the 2^{MAX_ENUM_QUBITS} cap"
            )
        values = dense_values(poly)
        vmin = float(values.min())
        best = int(np.flatnonzero(values == vmin).min())
        return SolveResult(
            num_qubits=poly.num_qubits,
            num_original_qubits=num_original,
            best_spin=best,
            best_value=vmin,
            method="exhaustive",
            rng_seed=seed,
        )
    if method != "anneal":
        raise ValueError(f"unknown solve method {method!r}")
    params = anneal or AnnealParams()
    best, value = _metropolis(poly, params, seed)
    return SolveResult(
        num_qubits=poly.num_qubits,
        num_original_qubits=num_original,
        best_spin=best,
        best_value=value,
        method="anneal",
        rng_seed=seed,
        anneal=params,
    )


def _metropolis(poly: IsingPolynomial, params: AnnealParams, seed: int) -> tuple[int, float]:
    """Lockstep single-flip Metropolis over all restarts.

    Per sweep the RNG yields one permutation of the coordinates, then
    one uniform per restart for each coordinate that appears in a term,
    in permutation order; drawing them as one block gives the same
    stream.  Term characters are held term-major (terms x restarts) and
    spins as a boolean (qubits x restarts) array: a proposal gathers its
    coordinate's rows once, negates the accepted restarts' columns in
    place and writes the rows back; the best masks are packed once, at
    the end.
    """
    n = poly.num_qubits
    keys = [s for s, _ in poly.sorted_terms() if s != 0]
    coeffs = np.array([poly.terms[s] for s in keys])
    constant = poly.constant
    if n == 0 or not keys:
        return 0, constant
    rng = np.random.default_rng(seed)
    restarts = params.restarts
    t0 = params.initial_temperature
    if t0 is None:
        t0 = float(np.sum(np.abs(coeffs)))
    t0 = max(t0, 1e-12)

    key_arr = np.array(keys, dtype=np.uint64)
    incidence = mask_bits(key_arr, n)
    per_coord = [np.flatnonzero(incidence[:, q]) for q in range(n)]
    # -2 * (c @ chi) == (-2 c) @ chi exactly: scaling by a power of two
    # commutes with rounding
    flip_gain = [-2.0 * coeffs[idx] for idx in per_coord]
    active = incidence.any(axis=0)
    masks = rng.integers(0, (1 << n) - 1, size=restarts, dtype=np.uint64, endpoint=True)
    overlap = np.bitwise_count(masks[:, None] & key_arr[None, :]).astype(np.int64)
    chi = np.where(overlap % 2 == 0, 1.0, -1.0)
    energy = chi @ coeffs + constant
    chi_t = np.ascontiguousarray(chi.T)
    spins = mask_bits(masks, n).T.copy()

    best_energy = energy.copy()
    best_spins = spins.copy()
    temperature = t0
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(params.sweeps):
            order = rng.permutation(n)
            order = order[active[order]]
            uniforms = rng.random((order.size, restarts))
            neg_t = -temperature
            for q, u in zip(order.tolist(), uniforms):
                idx = per_coord[q]
                sub = chi_t.take(idx, axis=0)
                delta = flip_gain[q] @ sub
                if neg_t < 0.0:
                    # u < 1, so at a positive temperature this already
                    # accepts every delta <= 0
                    accept = u < np.exp(delta / neg_t)
                else:
                    accept = (delta <= 0.0) | (u < np.exp(np.minimum(delta / neg_t, 0.0)))
                if np.count_nonzero(accept):
                    sub *= np.where(accept, -1.0, 1.0)
                    chi_t[idx] = sub
                    spins[q] ^= accept
                    np.add(energy, delta, out=energy, where=accept)
                    improved = energy < best_energy
                    if np.count_nonzero(improved):
                        np.copyto(best_energy, energy, where=improved)
                        np.copyto(best_spins, spins, where=improved)
            temperature *= params.cooling
    shifts = np.arange(n, dtype=np.uint64)[:, None]
    best_masks = np.bitwise_or.reduce(best_spins.astype(np.uint64) << shifts, axis=0)
    pick = np.lexsort((best_masks, best_energy))[0]
    return int(best_masks[pick]), float(best_energy[pick])


def decode_and_refine(
    result: SolveResult,
    layout: EncodingLayout,
    cfn: Cfn,
    full_poly: IsingPolynomial | None = None,
    refine: bool = False,
) -> SolveResult:
    """Decode a solve result against its CFN and optionally refine.

    Refinement runs bit-flip descent on the full encoding starting
    from the solved configuration, then re-decodes; the reported
    refined value is never worse than the plain decoded value.
    """
    orig_mask = result.best_spin & ((1 << layout.total_qubits) - 1)
    assignment, valid = decode(layout, orig_mask)
    value = evaluate_cfn(cfn, assignment)
    out = replace(
        result,
        decoded_assignment=tuple(assignment),
        decoded_valid=tuple(valid),
        cfn_value=value,
    )
    if not refine:
        return out
    if full_poly is None:
        raise ValueError("refinement requires the full encoded polynomial")
    end_mask, steps = bitflip_descent(full_poly, orig_mask)
    r_assignment, r_valid = decode(layout, end_mask)
    r_value = evaluate_cfn(cfn, r_assignment)
    if r_value > value:
        end_mask, r_assignment, r_valid, r_value = orig_mask, assignment, valid, value
    return replace(
        out,
        refined_spin=end_mask,
        refined_assignment=tuple(r_assignment),
        refined_valid=tuple(r_valid),
        refined_cfn_value=r_value,
        refine_steps=steps,
    )


def solve_result_json(result: SolveResult) -> str:
    doc = {
        "num_qubits": result.num_qubits,
        "num_original_qubits": result.num_original_qubits,
        "best_spin": mask_to_string(result.best_spin, result.num_qubits),
        "best_value": result.best_value,
        "method": result.method,
        "rng_seed": result.rng_seed,
        "anneal": (
            {
                "restarts": result.anneal.restarts,
                "sweeps": result.anneal.sweeps,
                "initial_temperature": result.anneal.initial_temperature,
                "cooling": result.anneal.cooling,
            }
            if result.anneal
            else None
        ),
        "decoded_assignment": list(result.decoded_assignment) if result.decoded_assignment else None,
        "decoded_valid": list(result.decoded_valid) if result.decoded_valid is not None else None,
        "cfn_value": result.cfn_value,
        "refined_spin": (
            mask_to_string(result.refined_spin, result.num_original_qubits)
            if result.refined_spin is not None
            else None
        ),
        "refined_assignment": list(result.refined_assignment) if result.refined_assignment else None,
        "refined_cfn_value": result.refined_cfn_value,
        "refine_steps": result.refine_steps,
    }
    return json.dumps(doc, indent=2) + "\n"
