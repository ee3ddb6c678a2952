"""Desk-scale minimization of spin polynomials and quadratic models.

Exhaustive solving enumerates every configuration (capped at 24
qubits) and is exact; annealing runs restarts of colour-class
Metropolis with a geometric temperature schedule: qubits that share no
term form a class, and a sweep visits the classes in a random order,
proposing a flip of every qubit of a class in one step.  Restarts run
in lockstep, so results are deterministic for a given seed; the RNG
stream is the start masks, then per sweep one permutation of the
classes and one uniform per restart for each qubit that appears in a
term, in class order.
Solutions are decoded back to CFN assignments, re-scored against the
true cost tables, and optionally refined by bit-flip descent on the
full (untruncated) encoding.  Configuration masks are Python ints, so
neither annealing nor refinement has a qubit cap.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cfn import Cfn, evaluate_cfn
from .encoding import EncodingLayout, decode
from .polynomial import IsingPolynomial, mask_to_string
from .quadratization import QuboModel
from .verify import bitflip_descent, dense_values, mask_bits, octet_bits, pack_masks, random_masks

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
    if isinstance(target, QuboModel):
        poly, num_original = target.to_ising(), target.num_original_qubits
    else:
        poly, num_original = target, target.num_qubits
    if method == "exhaustive":
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


def _colour_classes(incidence: np.ndarray) -> list[np.ndarray]:
    """Independent sets of the qubit graph, in colour order.

    Two qubits are adjacent when they share a term (a column pair of
    the terms x qubits ``incidence`` with a common row).  DSATUR colours
    the qubits that appear in some term: it repeatedly takes the
    uncoloured qubit whose neighbours show the most distinct colours
    (then the highest degree, then the lowest index) and gives it the
    lowest colour none of them has.  Qubits in no term get no class.
    Each class lists its qubits in increasing order.  Only the columns
    of those qubits are kept, so idle qubits cost nothing; the map back
    is increasing, so ties break as they would over all columns.
    """
    used = np.flatnonzero(incidence.any(axis=0))
    incidence = incidence[:, used]
    n = used.size
    neighbours = [np.flatnonzero(incidence[incidence[:, q]].any(axis=0)) for q in range(n)]
    neighbours = [nb[nb != q] for q, nb in enumerate(neighbours)]
    degree = np.array([nb.size for nb in neighbours], dtype=np.int64)
    saturation = np.zeros(n, dtype=np.int64)
    # seen[q, c]: some neighbour of q has colour c; a qubit never needs
    # a colour above its degree
    seen = np.zeros((n, int(degree.max(initial=0)) + 1), dtype=bool)
    colour = np.full(n, -1)
    pending = np.ones(n, dtype=bool)
    for _ in range(n):
        # degree < n + 1 breaks saturation ties; argmax takes the first,
        # so the lowest index, of what is still tied
        q = int(np.argmax(np.where(pending, saturation * (n + 1) + degree, -1)))
        c = int(np.argmin(seen[q]))
        colour[q] = c
        pending[q] = False
        fresh = neighbours[q][~seen[neighbours[q], c]]
        seen[fresh, c] = True
        saturation[fresh] += 1
    return [used[colour == c] for c in range(int(colour.max(initial=-1)) + 1)]


def _metropolis(poly: IsingPolynomial, params: AnnealParams, seed: int) -> tuple[int, float]:
    """Lockstep colour-class Metropolis over all restarts.

    The qubits that appear in a term are split once into colour
    classes (``_colour_classes``); qubits of one class share no term,
    so their flip deltas are independent and a whole class is proposed,
    accepted and flipped in one step.  The RNG yields the start masks,
    then per sweep one permutation of the classes (the visiting order)
    and one uniform per restart for each active qubit, in class order
    (classes by colour, qubits ascending within a class), drawn as one
    block.  Term characters are held term-major (terms x restarts) and
    spins as a boolean (active qubits x restarts) array in class order,
    so a class's spins are a contiguous slice; a step gathers the
    class's term rows once (disjoint, since its qubits share no term),
    takes every delta as one gain-matrix product, negates the accepted
    entries and writes the rows back.  The energy and the best states
    are updated after each class; the best masks are packed once, at
    the end.
    """
    n = poly.num_qubits
    first = poly.degree_starts[1]
    # a fresh, aligned copy: BLAS may sum the energy product differently
    # over an array that starts mid-allocation
    coeffs = poly.coeffs[first:].copy()
    constant = poly.constant
    if n == 0 or not coeffs.size:
        return 0, constant
    rng = np.random.default_rng(seed)
    restarts = params.restarts
    masks = random_masks(rng, n, restarts)
    t0 = params.initial_temperature
    if t0 is None:
        t0 = float(np.sum(np.abs(coeffs)))
    t0 = max(t0, 1e-12)

    incidence = octet_bits(poly.octets[first:], n)
    classes = _colour_classes(incidence)
    qubit_order = np.concatenate(classes)
    steps = []
    lo = 0
    for members in classes:
        per_qubit = [np.flatnonzero(incidence[:, q]) for q in members]
        rows = np.concatenate(per_qubit)
        owner = np.repeat(np.arange(members.size), [idx.size for idx in per_qubit])
        # flipping member i negates its terms, so gain[i] holds -2 c over
        # the rows of member i and zero over the rows of the others
        gain = np.zeros((members.size, rows.size))
        gain[owner, np.arange(rows.size)] = -2.0 * coeffs[rows]
        steps.append((rows, gain, owner, lo, lo + members.size))
        lo += members.size
    start_bits = mask_bits(masks, n)
    # a float product of 0/1 matrices counts overlaps exactly (each is <= n)
    chi = np.where((start_bits.astype(float) @ incidence.astype(float).T) % 2, -1.0, 1.0)
    energy = chi @ coeffs + constant
    chi_t = np.ascontiguousarray(chi.T)
    spins = start_bits.T[qubit_order]

    best_energy = energy.copy()
    best_spins = spins.copy()
    temperature = t0
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(params.sweeps):
            order = rng.permutation(len(steps))
            uniforms = rng.random((qubit_order.size, restarts))
            neg_t = -temperature
            for c in order.tolist():
                rows, gain, owner, lo, hi = steps[c]
                sub = chi_t.take(rows, axis=0)
                delta = gain @ sub
                u = uniforms[lo:hi]
                if neg_t < 0.0:
                    # u < 1, so at a positive temperature this already
                    # accepts every delta <= 0
                    accept = u < np.exp(delta / neg_t)
                else:
                    accept = (delta <= 0.0) | (u < np.exp(np.minimum(delta / neg_t, 0.0)))
                if np.count_nonzero(accept):
                    sub *= np.where(accept, -1.0, 1.0).take(owner, axis=0)
                    chi_t[rows] = sub
                    spins[lo:hi] ^= accept
                    energy += np.add.reduce(delta, axis=0, where=accept)
                    improved = energy < best_energy
                    if np.count_nonzero(improved):
                        np.copyto(best_energy, energy, where=improved)
                        np.copyto(best_spins, spins, where=improved)
            temperature *= params.cooling
    # idle qubits keep their start values
    start_bits[:, qubit_order] = best_spins.T
    best_masks = pack_masks(start_bits)
    pick = min(range(restarts), key=lambda r: (best_energy[r], best_masks[r]))
    return best_masks[pick], float(best_energy[pick])


def decode_and_refine(
    result: SolveResult,
    layout: EncodingLayout,
    cfn: Cfn,
    full_poly: IsingPolynomial | None = None,
) -> SolveResult:
    """Decode a solve result against its CFN, and refine it when the
    full encoding ``full_poly`` is given.

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
    if full_poly is None:
        return out
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
    """The result's fields in order, but ``refined_valid``, with each
    configuration mask as a '+'/'-' string."""
    doc = asdict(result)
    del doc["refined_valid"]
    doc["best_spin"] = mask_to_string(result.best_spin, result.num_qubits)
    if result.refined_spin is not None:
        doc["refined_spin"] = mask_to_string(result.refined_spin, result.num_original_qubits)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
