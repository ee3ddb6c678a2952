"""Desk-scale minimization of spin polynomials and quadratic models.

Exhaustive solving is exact: it enumerates every configuration of a
polynomial (capped at 24 qubits), and minimizes a CFN encoding's
register landscape by min-sum elimination (``verify.RegisterLandscape``,
capped at 2^24 entries per table, whatever the qubit count).  Annealing
runs restarts of colour-class Metropolis: qubits that share no term
form a class, and a sweep visits the classes in a random order,
proposing a flip of every qubit of a class in one step.  The
temperature falls geometrically, sweep by sweep, between end points
worked out from the couplings (``_schedule``):
the largest single-flip energy change sets the hot end, and the
smallest coupling, but no less than 1e-3 of that change, the cold one.
Restarts run in lockstep, so results are deterministic for a given
seed; the RNG stream is the start masks, then per sweep one
permutation of the classes and one uniform per restart for each qubit
that appears in a term, in class order.  Through the sweeps a
restart's state is one spin byte per qubit that appears in a term.
Solutions are decoded back to CFN assignments, re-scored against the
true cost tables, and optionally refined by bit-flip descent on the
full (untruncated) encoding.  Configuration masks are Python ints, so
neither annealing nor refinement has a qubit cap; both read only the
(term, qubit) pairs the terms hold (``polynomial.held_qubits``), plus n
bytes a restart and the anneal's gain blocks, each over at most
``BLOCK_ROWS`` term rows unless one qubit holds more, so the anneal's
memory too is linear in the held pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cfn import Cfn, evaluate_cfn
from .encoding import EncodingLayout, decode
from .polynomial import (
    IsingPolynomial,
    characters,
    held_qubits,
    is_int,
    mask_bits,
    mask_to_string,
    pack_masks,
    padded_rows,
    random_masks,
)
from .quadratization import QuboModel
from .verify import DenseLandscape, RegisterLandscape, bitflip_descent

__all__ = ["AnnealParams", "SolveResult", "solve", "decode_and_refine", "solve_result_doc", "solve_result_json"]


@dataclass(frozen=True)
class AnnealParams:
    """The anneal's budget and cooling; every field is surfaced on the CLI.

    Each of ``restarts`` runs ``sweeps`` passes over the qubits that
    appear in a term.  The temperature is not a knob: the first sweep
    runs at the hot end T_hot = dE_max / ln 2 of the polynomial annealed
    (``_schedule``), and each later sweep at ``cooling`` times the one
    before.  ``cooling`` None takes T_hot to the cold end T_cold on the
    last sweep.  ``restarts`` must be an int of at least 1 and
    ``sweeps`` one of at least 0, or construction raises ValueError
    naming the field.
    """

    restarts: int = 16
    sweeps: int = 200
    cooling: float | None = None

    def __post_init__(self) -> None:
        for name, low in (("restarts", 1), ("sweeps", 0)):
            value = getattr(self, name)
            if not (is_int(value) and value >= low):
                raise ValueError(f"AnnealParams.{name} must be an int >= {low}, got {value!r}")


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
    start_temperature: float | None = None
    decoded_assignment: tuple[int, ...] | None = None
    decoded_valid: tuple[bool, ...] | None = None
    cfn_value: float | None = None
    refined_spin: int | None = None
    refined_assignment: tuple[int, ...] | None = None
    refined_cfn_value: float | None = None
    refine_steps: int | None = None


def solve(
    target: IsingPolynomial | QuboModel | RegisterLandscape,
    method: str = "exhaustive",
    seed: int = 0,
    anneal: AnnealParams | None = None,
) -> SolveResult:
    """Minimize a spin polynomial, a quadratic model or, exhaustively
    only, a CFN encoding's register landscape.

    Exhaustive returns the true minimizer (lowest mask among exact
    ties), enumerated for a polynomial or a model and found by min-sum
    elimination for a register landscape (``elimination.first``).
    Annealing returns the best state seen across restarts; identical
    seeds give identical results.
    """
    if isinstance(target, RegisterLandscape):
        landscape, poly, num_original = target, None, target.num_qubits
    elif isinstance(target, QuboModel):
        landscape, poly, num_original = None, target.to_ising(), target.num_original_qubits
    else:
        landscape, poly, num_original = None, target, target.num_qubits
    if method == "exhaustive":
        if landscape is None:
            landscape = DenseLandscape(poly)
        best = landscape.lowest_mask()
        return SolveResult(
            num_qubits=landscape.num_qubits,
            num_original_qubits=num_original,
            best_spin=best,
            best_value=float(landscape.values([best])[0]),
            method="exhaustive",
            rng_seed=seed,
        )
    if method != "anneal":
        raise ValueError(f"unknown solve method {method!r}")
    if poly is None:
        raise ValueError("annealing needs the polynomial, not a register landscape")
    params = anneal or AnnealParams()
    best, value, start_temperature, cooling = _metropolis(poly, params, seed)
    return SolveResult(
        num_qubits=poly.num_qubits,
        num_original_qubits=num_original,
        best_spin=best,
        best_value=value,
        method="anneal",
        rng_seed=seed,
        anneal=replace(params, cooling=cooling),
        start_temperature=start_temperature,
    )


def _colour_classes(columns: np.ndarray, n: int) -> list[np.ndarray]:
    """Independent sets of the qubit graph, in colour order.

    Two qubits are adjacent when they share a term: both are in one
    column of ``columns``, the terms' lists of the ``n`` qubit columns
    (padded with ``n``).  DSATUR repeatedly takes the uncoloured qubit
    whose neighbours show the most distinct colours
    (then the highest degree, then the lowest index) and gives it the
    lowest colour none of them has.  Each class lists its columns in
    increasing order; the map back to qubits is increasing, so ties
    break as they would over all qubits.
    """
    # every ordered pair of distinct columns within a term, as one code
    a, b = np.broadcast_arrays(columns[:, None], columns[None])
    codes = np.sort((a * n + b)[(a < n) & (b < n) & (a != b)])
    codes = codes[np.diff(codes, prepend=-1) != 0]
    degree = np.bincount(codes // n, minlength=n)
    neighbours = np.split(codes % n, np.cumsum(degree))[:-1]
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
    return [np.flatnonzero(colour == c) for c in range(int(colour.max(initial=-1)) + 1)]


def _schedule(coeffs: np.ndarray, term: np.ndarray, column: np.ndarray, params: AnnealParams) -> tuple[float, float]:
    """The first sweep's temperature T_hot and the cooling per sweep.

    Flipping a qubit changes the energy by at most dE = 2 sum |c| over
    the terms that hold it (term ``term[i]`` holds the qubit of column
    ``column[i]``).  With dE_max the largest such bound, T_hot = dE_max
    / ln 2 accepts the largest uphill flip with probability 1/2, and
    T_cold = max(2 min |c|, 1e-3 dE_max) / ln 100 accepts the smallest
    with probability 1/100.  The cooling is ``params.cooling`` when
    given; else the factor that takes T_hot to T_cold on the last sweep,
    or 1 when there is one sweep or none.  These are the end points of
    D-Wave's ``neal`` default beta range, and of Isakov et al., Comput.
    Phys. Commun. 192 (2015).
    """
    magnitude = np.abs(coeffs)
    largest = float(np.bincount(column, weights=2.0 * magnitude[term]).max())
    t_hot = largest / math.log(2)
    if params.cooling is not None:
        return t_hot, params.cooling
    if params.sweeps <= 1:
        return t_hot, 1.0
    t_cold = max(2.0 * float(magnitude.min()), 1e-3 * largest) / math.log(100)
    return t_hot, (t_cold / t_hot) ** (1.0 / (params.sweeps - 1))


# the term rows one gain block holds, unless one class member alone
# holds more: blocks cost about BLOCK_ROWS x (members per block) x 8
# bytes each, so the anneal's memory is linear in the held pairs
BLOCK_ROWS = 512


def _blocks(counts: np.ndarray) -> list[tuple[int, int]]:
    """Runs ``[m0, m1)`` of whole class members, in order, that between
    them hold at most ``BLOCK_ROWS`` term rows (member m holds
    ``counts[m]``); a member holding more is a run of its own."""
    blocks, m0, rows = [], 0, 0
    for m, count in enumerate(counts.tolist()):
        if m > m0 and rows + count > BLOCK_ROWS:
            blocks.append((m0, m))
            m0, rows = m, 0
        rows += count
    blocks.append((m0, len(counts)))
    return blocks


def _metropolis(poly: IsingPolynomial, params: AnnealParams, seed: int) -> tuple[int, float, float, float]:
    """Lockstep colour-class Metropolis over all restarts: the best mask,
    its energy, and the start temperature and cooling that ran
    (``_schedule``; 0, and the given cooling or 1, when no term holds a
    qubit).

    The qubits that appear in a term are split once into colour
    classes (``_colour_classes``); qubits of one class share no term,
    so their flip deltas are independent and a whole class is proposed,
    accepted and flipped in one step.  The RNG yields the start masks,
    then per sweep one permutation of the classes (the visiting order)
    and one uniform per restart for each active qubit, in class order
    (classes by colour, qubits ascending within a class), drawn as one
    block.  Only the held (term, qubit) pairs are read
    (``held_qubits``), and idle qubits keep their start values.

    The state is one int8 spin per active qubit and restart, 1 or -1
    (0x01 or 0xFF), in class order, so a class's spins are a contiguous
    slice, plus a row of +1s.  The two bytes differ in bits 1-7 only, so
    the XOR of an odd number of them is their product: a step XORs the
    spins each of its class's terms holds (``padded_rows``, padded to
    an odd count) into the terms' characters, takes the deltas as one
    gain-matrix product per block of whole members (``_blocks``; one
    product when the class fits one block) and negates the accepted
    spins in place.  Each step writes its deltas and acceptances into its
    class's rows of two (active x restarts) arrays.  Once per sweep
    ``np.add.at`` sums each class's accepted deltas in member order, and a
    running sum of those class sums in visiting order gives the energy
    after every step, by the same additions in the same order as adding
    each sum after its step (a rejected delta adds -0.0, which changes
    nothing).  The first minimum per restart is the best energy's first
    strict improvement, and its spins are the sweep's end spins on the
    classes visited by then and its start spins elsewhere.  The best
    masks are packed once, at the end.
    """
    n = poly.num_qubits
    first = poly.degree_starts[1]
    # a fresh, aligned copy: BLAS may sum the energy product differently
    # over an array that starts mid-allocation
    coeffs = poly.coeffs[first:].copy()
    constant = poly.constant
    if n == 0 or not coeffs.size:
        return 0, constant, 0.0, 1.0 if params.cooling is None else params.cooling
    rng = np.random.default_rng(seed)
    restarts = params.restarts
    masks = random_masks(rng, n, restarts)
    # the constant holds no qubit, so the other terms' lists start at 0
    offsets = poly.offsets[first:]
    best_energy = characters(poly.qubits, offsets, masks) @ coeffs + constant

    # each qubit some term holds gets a column, in increasing order
    term, qubit = held_qubits(poly.qubits, offsets)
    holds = np.bincount(qubit) > 0
    qubits, column = np.flatnonzero(holds), np.cumsum(holds)[qubit] - 1
    active = qubits.size
    start_temperature, cooling = _schedule(coeffs, term, column, params)
    # (width x terms): each term's columns, padded to an odd width with
    # ``active``, the column of the +1 row
    rows = padded_rows(column, offsets, poly.degree | 1)
    term_columns = np.ascontiguousarray(np.where(rows < 0, active, rows).T)
    classes = _colour_classes(term_columns, active)
    columns = np.concatenate(classes)
    qubit_order = qubits[columns]
    # each column's spin row; the padding column ``active`` reads the +1 row
    spin_row = np.full(active + 1, active)
    spin_row[columns] = np.arange(active)
    held = spin_row[term_columns]
    # the terms holding each column, ascending
    per_column = np.split(term[np.argsort(column, kind="stable")], np.cumsum(np.bincount(column))[:-1])
    start_bits = mask_bits(masks, n)
    spins = np.ones((active + 1, restarts), np.int8)
    spins[:active][start_bits.T[qubit_order]] = -1
    flips = spins[:active]
    # a step's deltas, uniforms and acceptances, each in its class's rows
    deltas = np.empty((active, restarts))
    uniforms = np.empty((active, restarts))
    accepted = np.empty((active, restarts), bool)
    steps = []
    lo = 0
    for members in classes:
        per_qubit = [per_column[q] for q in members]
        rows = np.concatenate(per_qubit)
        counts = np.array([idx.size for idx in per_qubit])
        # member m holds rows bounds[m] to bounds[m + 1]
        bounds = np.concatenate(([0], np.cumsum(counts)))
        hi = lo + members.size
        products = []
        for m0, m1 in _blocks(counts):
            r0, r1 = bounds[m0], bounds[m1]
            # flipping member i negates its terms, so gain[i] holds -2 c
            # over the rows of member i and zero over the rows of the others
            gain = np.zeros((m1 - m0, r1 - r0))
            gain[np.repeat(np.arange(m1 - m0), counts[m0:m1]), np.arange(r1 - r0)] = -2.0 * coeffs[rows[r0:r1]]
            products.append((gain, slice(r0, r1), deltas[lo + m0 : lo + m1]))
        steps.append(
            (held.take(rows, axis=1), products, deltas[lo:hi], uniforms[lo:hi], accepted[lo:hi], flips[lo:hi])
        )
        lo = hi
    class_of = np.repeat(np.arange(len(classes)), [members.size for members in classes])
    # sums[c] is the accepted delta sum of class c in a sweep, and each
    # (qubit, restart) entry of ``deltas`` adds into flat slot ``slots``
    # of it; trail[0] is the energy before the sweep, trail[k] the sum of
    # its k-th step, and after ``np.cumsum`` the energy after it
    sums = np.empty((len(steps), restarts))
    slots = (class_of[:, None] * restarts + np.arange(restarts)).ravel()
    trail = np.empty((len(steps) + 1, restarts))
    trail[-1] = best_energy
    best_spins = flips.copy()
    temperature = start_temperature
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(params.sweeps):
            order = rng.permutation(len(steps))
            rng.random(out=uniforms)
            neg_t = -temperature
            begin = flips.copy()
            for c in order.tolist():
                term_spins, products, delta, u, accept, flip = steps[c]
                sub = np.bitwise_xor.reduce(spins.take(term_spins, axis=0), axis=0).astype(np.float64)
                for gain, rows, out in products:
                    np.matmul(gain, sub[rows], out=out)
                if neg_t < 0.0:
                    # u < 1, so at a positive temperature this already
                    # accepts every delta <= 0
                    np.less(u, np.exp(delta / neg_t), out=accept)
                elif neg_t > 0.0:
                    # a negative temperature accepts every proposal but a
                    # NaN delta, whose acceptance test is false
                    np.logical_not(np.isnan(delta), out=accept)
                else:
                    # a zero (or NaN) temperature takes no uphill move
                    np.less_equal(delta, 0.0, out=accept)
                np.negative(flip, out=flip, where=accept)
            # x + -0.0 is x for every x, so a rejected delta adds nothing;
            # ``np.add.at`` adds in slot order, so each class's members in
            # turn, and over flat indices it takes numpy's fast path
            sums.fill(-0.0)
            np.add.at(sums.reshape(-1), slots, np.where(accepted, deltas, -0.0).reshape(-1))
            trail[0] = trail[-1]
            trail[1:] = sums[order]
            np.cumsum(trail, axis=0, out=trail)
            # a NaN energy never improves on the best, and fmin skips it
            low = np.fmin.reduce(trail, axis=0)
            improved = np.flatnonzero(low < best_energy)
            if improved.size:
                best_energy[improved] = low[improved]
                reached = (trail[:, improved] == low[improved]).argmax(axis=0)
                rank = np.empty(len(steps), np.intp)
                rank[order] = np.arange(1, len(steps) + 1)
                done = rank[class_of][:, None] <= reached
                best_spins[:, improved] = np.where(done, flips[:, improved], begin[:, improved])
            temperature *= cooling
    start_bits[:, qubit_order] = best_spins.T < 0
    best_masks = pack_masks(start_bits)
    pick = min(range(restarts), key=lambda r: (best_energy[r], best_masks[r]))
    return best_masks[pick], float(best_energy[pick]), start_temperature, cooling


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
    r_assignment, _ = decode(layout, end_mask)
    r_value = evaluate_cfn(cfn, r_assignment)
    if r_value > value:
        end_mask, r_assignment, r_value = orig_mask, assignment, value
    return replace(
        out,
        refined_spin=end_mask,
        refined_assignment=tuple(r_assignment),
        refined_cfn_value=r_value,
        refine_steps=steps,
    )


def solve_result_json(result: SolveResult) -> str:
    """``solve_result_doc(result)`` as ``json.dumps(indent=2)`` writes
    it, with a final newline."""
    return json.dumps(solve_result_doc(result), indent=2, allow_nan=False) + "\n"


def solve_result_doc(result: SolveResult) -> dict:
    """The result's fields in order, with each configuration mask as a
    '+'/'-' string and the start temperature inside the anneal block:
    the document ``solve_result_json`` writes and a compile report
    carries as its ``solve`` block."""
    doc = asdict(result)
    start_temperature = doc.pop("start_temperature")
    if result.anneal is not None:
        doc["anneal"]["start_temperature"] = start_temperature
    doc["best_spin"] = mask_to_string(result.best_spin, result.num_qubits)
    if result.refined_spin is not None:
        doc["refined_spin"] = mask_to_string(result.refined_spin, result.num_original_qubits)
    return doc
