"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: naive
per-term products instead of parity tricks, O(4^D) transform sums
instead of butterflies, direct table lookups instead of the encoder's
effective-table machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from tbe import AnnealParams, BinaryPolynomial, Cfn, EncodingLayout, IsingPolynomial, PairwiseTable, Penalty, VariableSpec
from tbe.elimination import PairwiseNetwork
from tbe.encoding import WalshBlocks, default_penalty_weight
from tbe.polynomial import mask_bits, pack_masks, random_masks, significant
from tbe.quadratization import QuboModel
from tbe.solve import _colour_classes
from tbe.spectrum import SpectralProfile
from tbe.walsh import SmoothnessReport, fwht, squared_mass_by_degree, subset_degrees, synthesize_values


def random_cfn(rng: np.random.Generator, max_vars: int = 3, max_card: int = 8,
               edge_prob: float = 0.8) -> Cfn:
    n = int(rng.integers(1, max_vars + 1))
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n)]
    variables = tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards))
    unary = tuple(tuple(float(x) for x in rng.normal(size=c)) for c in cards)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                costs = tuple(float(x) for x in rng.normal(size=cards[i] * cards[j]))
                pairs.append(PairwiseTable(i, j, costs))
    return Cfn(variables, unary, tuple(pairs))


def random_polynomial(rng: np.random.Generator, n: int, num_terms: int,
                      max_degree: int | None = None) -> IsingPolynomial:
    pool = [m for m in range(1 << n) if max_degree is None or m.bit_count() <= max_degree]
    num_terms = min(num_terms, len(pool))
    chosen = rng.choice(len(pool), size=num_terms, replace=False)
    terms = {pool[int(k)]: float(rng.normal()) for k in chosen}
    return IsingPolynomial(n, terms)


@st.composite
def sparse_polynomials(draw, couplings):
    """Up to 40 terms of degree at most 7 on 0 to 130 qubits, so keys
    take 0 to 17 bytes.  Their qubits come from a pool of at most 12,
    so terms share subsets and pairs; an empty pool gives the empty and
    constant-only polynomials."""
    n = draw(st.integers(0, 130))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=min(n, 3), max_size=12, unique=True)) if n else []
    if not pool:
        return IsingPolynomial(n, draw(st.dictionaries(st.just(0), couplings)))
    qubits = st.lists(st.sampled_from(pool), max_size=min(7, len(pool)), unique=True)
    masks = qubits.map(lambda qs: sum(1 << q for q in qs))
    return IsingPolynomial(n, draw(st.dictionaries(masks, couplings, min_size=1, max_size=40)))


def degree_power(poly: IsingPolynomial) -> list[float]:
    """Squared coupling mass at each degree 0 .. poly.degree, each a
    slice of the stored terms delimited by ``degree_starts``."""
    values = np.fromiter(poly.terms.values(), float, len(poly.terms))
    starts = poly.degree_starts
    return [float(np.sum(values[a:b] ** 2)) for a, b in zip(starts, starts[1:])]


def naive_eval(poly: IsingPolynomial, mask: int) -> float:
    """Per-term product evaluation, no parity shortcut."""
    total = 0.0
    for s, c in poly.terms.items():
        prod = 1.0
        for q in range(poly.num_qubits):
            if (s >> q) & 1:
                prod *= -1.0 if (mask >> q) & 1 else 1.0
        total += c * prod
    return total


def naive_cfn_eval(cfn: Cfn, assignment: list[int]) -> float:
    """Direct table summation, written independently of evaluate_cfn."""
    total = 0.0
    for i in range(len(cfn.variables)):
        total += cfn.unary_tables[i][assignment[i] - 1]
    for t in cfn.pairwise_tables:
        dj = cfn.variables[t.j].cardinality
        total += t.costs[(assignment[t.i] - 1) * dj + (assignment[t.j] - 1)]
    return total


def naive_walsh(values: np.ndarray) -> np.ndarray:
    """O(4^D) definition of the transform: expectation of f * chi_T."""
    size = len(values)
    out = np.zeros(size)
    for t in range(size):
        acc = 0.0
        for z in range(size):
            sign = -1.0 if bin(t & z).count("1") % 2 else 1.0
            acc += values[z] * sign
        out[t] = acc / size
    return out


def assemble_truth_table(cfn: Cfn, layout: EncodingLayout) -> np.ndarray:
    """Extended-table cost at every spin configuration, by direct lookup.

    Resolves each register's bit pattern to a choice (or the policy's
    extension value) and sums raw table entries; never touches the
    encoder's effective-table path.
    """
    policy = layout.unused_policy
    weight = None
    if isinstance(policy, Penalty):
        weight = policy.weight if policy.weight is not None else default_penalty_weight(cfn)
    n = layout.total_qubits
    values = np.zeros(1 << n)
    inverse = []
    for i in range(cfn.num_variables):
        inv = {bits: c for c, bits in enumerate(layout.assignments[i])}
        inverse.append(inv)
    for mask in range(1 << n):
        choices = []
        total = 0.0
        for i in range(cfn.num_variables):
            width = layout.register_widths[i]
            bits = (mask >> layout.register_offsets[i]) & ((1 << width) - 1)
            c0 = inverse[i].get(bits)
            choices.append(c0)
            if c0 is not None:
                total += cfn.unary_tables[i][c0]
            elif weight is None:
                total += cfn.unary_tables[i][layout.fallback_choice(i) - 1]
            else:
                total += weight
        for t in cfn.pairwise_tables:
            ci, cj = choices[t.i], choices[t.j]
            if weight is None:
                if ci is None:
                    ci = layout.fallback_choice(t.i) - 1
                if cj is None:
                    cj = layout.fallback_choice(t.j) - 1
            elif ci is None or cj is None:
                continue
            dj = cfn.variables[t.j].cardinality
            total += t.costs[ci * dj + cj]
        values[mask] = total
    return values


def all_assignments(cfn: Cfn):
    from itertools import product

    return product(*(range(1, v.cardinality + 1) for v in cfn.variables))


def qubit_list(mask: int) -> list[int]:
    """Set bits of ``mask`` by a plain scan, lowest first."""
    return [q for q in range(mask.bit_length()) if (mask >> q) & 1]


def reference_random_masks(rng: np.random.Generator, n: int, size: int) -> list[int]:
    """``random_masks`` one 64-bit word at a time, each ORed into the
    masks drawn so far, low word first."""
    masks = [0] * size
    for low in range(0, n, 64):
        words = rng.integers(0, (1 << min(64, n - low)) - 1, size=size, dtype=np.uint64, endpoint=True)
        masks = [m | w << low for m, w in zip(masks, words.tolist())]
    return masks


def reference_mask_to_string(mask: int, n: int) -> str:
    """'+'/'-' per qubit by a plain shift per qubit, qubit 0 first."""
    return "".join("-" if (mask >> q) & 1 else "+" for q in range(n))


def reference_to_01_basis(poly: IsingPolynomial) -> BinaryPolynomial:
    """z = 1 - 2b term by term: each spin term c * z_S adds
    c * (-2)^|t| to the 0/1 term of every subset t of S, walked from S
    down to the empty set by ``t = (t - 1) & S``, into a dict."""
    terms: dict[int, float] = {}
    for s, c in poly.terms.items():
        t = s
        while True:
            terms[t] = terms.get(t, 0.0) + c * ((-2.0) ** t.bit_count())
            if t == 0:
                break
            t = (t - 1) & s
    return BinaryPolynomial(poly.num_qubits, terms)


def reference_leakage_transform(poly01: BinaryPolynomial) -> IsingPolynomial:
    """b = (1 - z) / 2 term by term: the 0/1 terms in (degree, qubit
    list) order, each c * b_S adding c * (-1)^|t| / 2^|S| to the spin
    term of every subset t of S, walked from S down to the empty set by
    ``t = (t - 1) & S``, into a dict."""
    terms: dict[int, float] = {}
    for s in sorted(poly01.terms, key=lambda s: (s.bit_count(), qubit_list(s))):
        scale = poly01.terms[s] / (1 << s.bit_count())
        t = s
        while True:
            terms[t] = terms.get(t, 0.0) + (-scale if t.bit_count() % 2 else scale)
            if t == 0:
                break
            t = (t - 1) & s
    return IsingPolynomial(poly01.num_vars, terms)


def edges(cfn: Cfn) -> tuple[tuple[int, int], ...]:
    """The variable pairs of a CFN's interaction tables, in file order."""
    return tuple((t.i, t.j) for t in cfn.pairwise_tables)


def num_unused(layout: EncodingLayout, var: int) -> int:
    """Bitstrings of a register that encode no choice."""
    return (1 << layout.register_widths[var]) - layout.cardinality(var)


def register_mask(layout: EncodingLayout, var: int) -> int:
    """The qubits of a register, as a configuration mask."""
    return ((1 << layout.register_widths[var]) - 1) << layout.register_offsets[var]


def shifted(poly: IsingPolynomial, offset: int, num_qubits: int) -> IsingPolynomial:
    """Re-index all variables by ``offset`` into a wider space."""
    return IsingPolynomial(num_qubits, {s << offset: c for s, c in poly.terms.items()})


def add_polynomials(a: IsingPolynomial, b: IsingPolynomial) -> IsingPolynomial:
    """Term-by-term sum of two polynomials on the same qubits."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit counts differ")
    out = dict(a.terms)
    for s, c in b.terms.items():
        out[s] = out.get(s, 0.0) + c
    return IsingPolynomial(a.num_qubits, out)


def bitstring_indicator(width: int, bits: int) -> IsingPolynomial:
    """Polynomial over one register that is 1 exactly at ``bits``.

    Expanding the product of per-qubit literals gives one term per
    qubit subset with coefficient +/- 2^-width.
    """
    scale = 1.0 / (1 << width)
    terms = {
        t: (-scale if (bits & t).bit_count() % 2 else scale) for t in range(1 << width)
    }
    return IsingPolynomial(width, terms)


def indicator_expansion(layout: EncodingLayout, var: int, choice: int) -> IsingPolynomial:
    """Indicator of one choice, over the register's local qubits."""
    if not (1 <= choice <= layout.cardinality(var)):
        raise ValueError(f"choice {choice} out of range for variable {var}")
    return bitstring_indicator(layout.register_widths[var], layout.assignments[var][choice - 1])


def discrete_derivative(poly: IsingPolynomial, subset: int) -> IsingPolynomial:
    """Mixed half-difference derivative along the coordinates in ``subset``.

    Acts on monomials by dropping ``subset`` from every term containing
    it and annihilating the rest.
    """
    terms = {
        t & ~subset: c for t, c in poly.terms.items() if t & subset == subset
    }
    return IsingPolynomial(poly.num_qubits, terms)


def pointwise_derivative_values(values: np.ndarray, subset: int) -> np.ndarray:
    """Iterated half-differences of a value table along ``subset``.

    Independent of the spectral route: operates directly on the 2^D
    table, one coordinate at a time.  The result is constant along the
    differentiated coordinates.
    """
    out = np.array(values, dtype=float)
    size = out.size
    q = 0
    rem = subset
    while rem:
        if rem & 1:
            step = 1 << q
            idx = np.arange(size)
            plus = out[idx & ~step]
            minus = out[idx | step]
            out = (plus - minus) / 2.0
        rem >>= 1
        q += 1
    return out


def reference_smoothness(values) -> SmoothnessReport:
    """``smoothness_report`` by differentiating the whole table once per
    subset (``pointwise_derivative_values``), subsets by ascending mask,
    each order's mean squares added in that order."""
    table = np.asarray(values, dtype=float)
    size = table.size
    dim = size.bit_length() - 1
    powers = squared_mass_by_degree(fwht(table)[None], subset_degrees(dim), dim)[0].tolist()

    # index k - 1 holds order k; each order's subsets come by ascending mask
    lipschitz = [0.0] * dim
    rhs = [0.0] * dim
    for subset in range(1, size):
        deriv = pointwise_derivative_values(table, subset)
        k = subset.bit_count() - 1
        lipschitz[k] = max(lipschitz[k], float(np.max(np.abs(deriv))))
        rhs[k] += float(np.mean(deriv * deriv))

    lhs = [
        sum(math.comb(j, k) * powers[j] for j in range(k, dim + 1))
        for k in range(1, dim + 1)
    ]
    bound = [math.comb(dim, k) * lipschitz[k - 1] ** 2 for k in range(1, dim + 1)]

    ratios = [
        lipschitz[k] / lipschitz[k - 1]
        for k in range(1, len(lipschitz))
        if lipschitz[k - 1] > 0 and lipschitz[k] > 0
    ]
    geometric = math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else None
    return SmoothnessReport(dim, tuple(powers), tuple(lipschitz), tuple(lhs), tuple(rhs), tuple(bound), geometric)


def reference_quadratize(poly: IsingPolynomial) -> QuboModel:
    """Greedy pair substitution that recounts every pair of every
    degree > 2 monomial before each substitution and re-adds the cost
    polynomial term by term: the most frequent pair wins, ties going to
    the smallest (i, j), and the penalty is recomputed from the current
    cost l1 norm each time."""
    cost = dict(reference_to_01_basis(poly).terms)
    gadgets: dict[int, float] = {}
    n = poly.num_qubits
    ancilla_defs = []
    max_penalty = 0.0
    while True:
        counts: dict[tuple[int, int], int] = {}
        for s in cost:
            if s.bit_count() > 2:
                qubits = qubit_list(s)
                for a in range(len(qubits)):
                    for b in range(a + 1, len(qubits)):
                        pair = (qubits[a], qubits[b])
                        counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        top = max(counts.values())
        i, j = min(p for p, c in counts.items() if c == top)
        penalty = 1.0 + 2.0 * sum(abs(c) for s, c in cost.items() if s)
        max_penalty = max(max_penalty, penalty)
        y = n + len(ancilla_defs)
        ancilla_defs.append((y, (i, j)))
        pair_mask = (1 << i) | (1 << j)
        replaced: dict[int, float] = {}
        for s, c in cost.items():
            if s.bit_count() > 2 and s & pair_mask == pair_mask:
                s = (s & ~pair_mask) | (1 << y)
            replaced[s] = replaced.get(s, 0.0) + c
        cost = replaced
        for key, coeff in (
            (pair_mask, penalty),
            ((1 << i) | (1 << y), -2.0 * penalty),
            ((1 << j) | (1 << y), -2.0 * penalty),
            (1 << y, 3.0 * penalty),
        ):
            gadgets[key] = gadgets.get(key, 0.0) + coeff
    terms = dict(cost)
    for s, c in gadgets.items():
        terms[s] = terms.get(s, 0.0) + c
    return QuboModel(n, len(ancilla_defs), terms, tuple(ancilla_defs), max_penalty)


# The Metropolis kernel as it stood when it kept every term's character
# as a float (terms x restarts) and wrote the flipped rows back after each
# class step.  ``solve._metropolis`` must reproduce its masks and values
# bit for bit: same colouring, RNG stream, deltas and running energy sums.
# Its schedule is worked out qubit by qubit from ``terms``.

def term_columns(term: np.ndarray, column: np.ndarray, terms: int, fill: int) -> np.ndarray:
    """(width x terms) matrix whose column t lists the columns term t
    holds (pairs ``term[i]``, ``column[i]``, term-major), padded with
    ``fill`` to the largest degree rounded up to an odd width."""
    degree = np.bincount(term, minlength=terms)
    padded = np.full((int(degree.max(initial=0)) | 1, terms), fill)
    # the pairs walk the terms in turn, so each pair's slot is its
    # place among its term's pairs
    padded[np.arange(term.size) - np.repeat(np.cumsum(degree) - degree, degree), term] = column
    return padded


def reference_schedule(poly: IsingPolynomial, params: AnnealParams) -> tuple[float, float]:
    """The start temperature T_hot = dE_max / ln 2, where dE_max is the
    largest over the qubits of 2 sum |c| over the terms that hold the
    qubit, and the cooling: the given one, else the factor taking T_hot
    to T_cold = max(2 min |c|, 1e-3 dE_max) / ln 100 on the last sweep."""
    couplings = [(s, c) for s, c in poly.terms.items() if s]
    largest = 0.0
    for q in range(poly.num_qubits):
        bound = 0.0
        for s, c in couplings:
            if s >> q & 1:
                bound += 2.0 * abs(c)
        largest = max(largest, bound)
    t_hot = largest / math.log(2)
    if params.cooling is not None:
        return t_hot, params.cooling
    if params.sweeps < 2 or not couplings:
        return t_hot, 1.0
    t_cold = max(2.0 * min(abs(c) for _, c in couplings), 1e-3 * largest) / math.log(100)
    return t_hot, (t_cold / t_hot) ** (1.0 / (params.sweeps - 1))


def reference_metropolis(poly: IsingPolynomial, params: AnnealParams, seed: int) -> tuple[int, float, float, float]:
    """Lockstep colour-class Metropolis over all restarts: the best mask,
    its energy, and the start temperature and cooling that ran
    (``reference_schedule``).

    The qubits that appear in a term are split once into colour
    classes (``_colour_classes``); qubits of one class share no term,
    so their flip deltas are independent and a whole class is proposed,
    accepted and flipped in one step.  The RNG yields the start masks,
    then per sweep one permutation of the classes (the visiting order)
    and one uniform per restart for each active qubit, in class order
    (classes by colour, qubits ascending within a class), drawn as one
    block.  Only the active qubits' columns are read, from a dense
    terms x qubits incidence, and idle qubits keep their start values.
    Term characters are held term-major (terms x restarts) and spins as
    a boolean (active qubits x restarts) array in class order, so a
    class's spins are a contiguous slice; a step gathers the class's
    term rows once (disjoint, since its qubits share no term), takes
    every delta as one gain-matrix product, negates the accepted
    entries and writes the rows back.  After each class the energy
    grows by the accepted deltas' sum, taken in member order, and the
    best states are updated; the best masks are packed once, at the end.
    """
    n = poly.num_qubits
    first = poly.degree_starts[1]
    # a fresh, aligned copy: BLAS may sum the energy product differently
    # over an array that starts mid-allocation
    coeffs = poly.coeffs[first:].copy()
    constant = poly.constant
    t_hot, cooling = reference_schedule(poly, params)
    if n == 0 or not coeffs.size:
        return 0, constant, t_hot, cooling
    rng = np.random.default_rng(seed)
    restarts = params.restarts
    masks = random_masks(rng, n, restarts)

    keys = list(poly.terms)[first:]
    bits = mask_bits(keys, n)
    qubits = np.flatnonzero(bits.any(axis=0))
    incidence = bits[:, qubits]
    term, column = np.nonzero(incidence)
    classes = _colour_classes(term_columns(term, column, len(keys), qubits.size), qubits.size)
    qubit_order = qubits[np.concatenate(classes)]
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
    chi = np.array([[-1.0 if (s & m).bit_count() % 2 else 1.0 for s in keys] for m in masks])
    energy = chi @ coeffs + constant
    chi_t = np.ascontiguousarray(chi.T)
    start_bits = mask_bits(masks, n)
    spins = start_bits.T[qubit_order]

    best_energy = energy.copy()
    best_spins = spins.copy()
    temperature = t_hot
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
                    # the class's accepted deltas, summed in member
                    # order and then added to the energy
                    total = np.full(restarts, -0.0)
                    for row, taken in zip(delta, accept):
                        total += np.where(taken, row, -0.0)
                    energy += total
                    improved = energy < best_energy
                    if np.count_nonzero(improved):
                        np.copyto(best_energy, energy, where=improved)
                        np.copyto(best_spins, spins, where=improved)
            temperature *= cooling
    start_bits[:, qubit_order] = best_spins.T
    best_masks = pack_masks(start_bits)
    pick = min(range(restarts), key=lambda r: (best_energy[r], best_masks[r]))
    return best_masks[pick], float(best_energy[pick]), t_hot, cooling


def gaussian_complete_cfn(seed: int, num_vars: int = 6, card: int = 8) -> Cfn:
    """N(0, 1) unary and pairwise tables on the complete graph, drawn as
    the benchmark's ``dense`` instances are (seed stream ``[seed, 3]``)."""
    rng = np.random.default_rng([seed, 3])
    unary = tuple(tuple(rng.standard_normal(card).tolist()) for _ in range(num_vars))
    pairs = tuple(
        PairwiseTable(i, j, tuple(rng.standard_normal((card, card)).reshape(-1).tolist()))
        for i in range(num_vars)
        for j in range(i + 1, num_vars)
    )
    return Cfn(tuple(VariableSpec(f"v{i}", card) for i in range(num_vars)), unary, pairs)


def gaussian_chain_cfn(seed: int, num_vars: int, card: int = 8) -> Cfn:
    """N(0, 1) unary tables and pair tables between neighbours i, i + 1
    on a chain: the shape where a term x qubit incidence grows with the
    square of the length while the terms' own qubits grow linearly."""
    rng = np.random.default_rng(seed)
    unary = tuple(tuple(rng.standard_normal(card).tolist()) for _ in range(num_vars))
    pairs = tuple(
        PairwiseTable(i, i + 1, tuple(rng.standard_normal(card * card).tolist())) for i in range(num_vars - 1)
    )
    return Cfn(tuple(VariableSpec(f"v{i}", card) for i in range(num_vars)), unary, pairs)


# ---------------------------------------------------------------------------
# per-table reference oracles for the stacked Walsh blocks: one transform,
# one key build and one synthesis per table, and one direct sum per qubit


@dataclass(frozen=True, eq=False)
class ReferenceBlocks:
    """Per-table Walsh blocks: ``registers[i][t - 1]`` and, per pairwise
    table in order, ``(i, j, coeffs[tj - 1, ti - 1])``."""

    layout: EncodingLayout
    constant: float
    registers: tuple[np.ndarray, ...]
    interactions: tuple[tuple[int, int, np.ndarray], ...]

    @property
    def k_full(self) -> int:
        widths = self.layout.register_widths
        return max([*(widths[i] + widths[j] for i, j, _ in self.interactions), *widths], default=0)


def reference_walsh_blocks(cfn: Cfn, layout: EncodingLayout) -> ReferenceBlocks:
    """Each cost table extended, centred and transformed on its own, one
    table at a time, in the order the tables are listed."""
    policy = layout.unused_policy
    if isinstance(policy, Penalty):
        pad = policy.weight if policy.weight is not None else default_penalty_weight(cfn)
    else:
        pad = 0.0
    rows = []
    for i in range(cfn.num_variables):
        card = layout.cardinality(i)
        fill = card if isinstance(policy, Penalty) else layout.fallback_choice(i) - 1
        lookup = np.full(1 << layout.register_widths[i], fill)
        lookup[list(layout.assignments[i])] = np.arange(card)
        rows.append(lookup)
    tables = [np.append(np.asarray(t, dtype=float), pad)[r] for t, r in zip(cfn.unary_tables, rows)]
    constant = 0.0
    interactions = []
    for t in cfn.pairwise_tables:
        di, dj = cfn.cardinality(t.i), cfn.cardinality(t.j)
        padded = np.zeros((di + 1, dj + 1))
        padded[:di, :dj] = np.asarray(t.costs, dtype=float).reshape(di, dj)
        grid = padded[np.ix_(rows[t.i], rows[t.j])]
        row_means = grid.mean(axis=1)
        col_means = grid.mean(axis=0)
        grand = float(grid.mean())
        grid = grid - row_means[:, None] - col_means[None, :] + grand
        tables[t.i] = tables[t.i] + (row_means - grand)
        tables[t.j] = tables[t.j] + (col_means - grand)
        constant += grand
        coeffs = fwht(grid.T.reshape(-1)).reshape(grid.shape[::-1])
        interactions.append((t.i, t.j, coeffs[1:, 1:]))
    registers = []
    for table in tables:
        coeffs = fwht(table)
        constant += float(coeffs[0])
        registers.append(coeffs[1:])
    return ReferenceBlocks(layout, constant, tuple(registers), tuple(interactions))


def reference_encode(blocks: ReferenceBlocks) -> IsingPolynomial:
    """The blocks' nonzero couplings at their registers' offsets, one
    Python-int key at a time, a table at a time."""
    offsets = blocks.layout.register_offsets
    terms = {0: blocks.constant}
    for i, block in enumerate(blocks.registers):
        for t in np.flatnonzero(block).tolist():
            terms[t + 1 << offsets[i]] = block[t]
    for i, j, block in blocks.interactions:
        for tj, ti in zip(*np.nonzero(block)):
            terms[int(ti + 1) << offsets[i] | int(tj + 1) << offsets[j]] = block[tj, ti]
    return IsingPolynomial(blocks.layout.total_qubits, terms)


def registers(blocks: WalshBlocks) -> tuple[np.ndarray, ...]:
    """Register i's block ``registers(blocks)[i][t - 1]``, a view into its stack."""
    out: list = [None] * blocks.layout.num_variables
    for stack in blocks.register_stacks:
        for i, block in zip(stack.registers.tolist(), stack.coeffs):
            out[i] = block
    return tuple(out)


def interactions(blocks: WalshBlocks) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Each pairwise table's ``(i, j, coeffs[tj - 1, ti - 1])``, in file
    order, its block a view into its stack."""
    out: list = [None] * sum(len(stack.tables) for stack in blocks.interaction_stacks)
    for stack in blocks.interaction_stacks:
        for t, (i, j), block in zip(stack.tables.tolist(), stack.pairs.tolist(), stack.coeffs):
            out[t] = (i, j, block)
    return tuple(out)


def reference_table_spectrum(blocks: ReferenceBlocks) -> SpectralProfile:
    """Each table's squared couplings binned by degree on their own, and
    the bins added up a table at a time."""
    top = blocks.k_full
    degrees = [subset_degrees(width)[1:] for width in blocks.layout.register_widths]
    def binned(coeffs: np.ndarray, degrees: np.ndarray) -> tuple[float, ...]:
        return tuple(squared_mass_by_degree(coeffs[None], degrees, top)[0].tolist())

    unary = [binned(coeffs, d) for d, coeffs in zip(degrees, blocks.registers)]
    pairwise = [(i, j, binned(coeffs, degrees[j][:, None] + degrees[i])) for i, j, coeffs in blocks.interactions]
    global_bins = np.zeros(top + 1)
    for bins in unary + [bins for _, _, bins in pairwise]:
        global_bins += bins
    global_bins[0] = blocks.constant**2
    return SpectralProfile(tuple(global_bins.tolist()), tuple(unary), tuple(pairwise))


def reference_register_network(blocks: ReferenceBlocks, k_max: int | None = None) -> PairwiseNetwork:
    """Each block, significant and within degree ``k_max``, synthesized
    into a value table on its own."""
    widths = blocks.layout.register_widths
    top = math.inf if k_max is None else k_max
    degrees = [subset_degrees(w) for w in widths]
    coeffs = [np.array(blocks.constant)]
    coeffs += [np.append(0.0, block) for block in blocks.registers]
    for i, j, block in blocks.interactions:
        full = np.zeros((1 << widths[j], 1 << widths[i]))
        full[1:, 1:] = block
        coeffs.append(full)
    keep = significant(np.abs(np.concatenate([c.reshape(-1) for c in coeffs])))
    ends = np.cumsum([c.size for c in coeffs])[:-1]
    kept = [np.where(k.reshape(c.shape), c, 0.0) for c, k in zip(coeffs, np.split(keep, ends))]

    def table(c: np.ndarray, degree: np.ndarray) -> np.ndarray:
        return synthesize_values(np.where(degree <= top, c, 0.0).reshape(-1)).reshape(c.shape)

    unary = tuple(table(c, d) for c, d in zip(kept[1:], degrees))
    pairwise = tuple(
        (i, j, np.ascontiguousarray(table(c, degrees[j][:, None] + degrees[i]).T))
        for (i, j, _), c in zip(blocks.interactions, kept[1 + len(widths):])
    )
    return PairwiseNetwork(tuple(1 << w for w in widths), float(kept[0]), unary, pairwise)


def reference_barriers(land, masks: list[int]) -> list[float]:
    """The least single-flip change at each mask, one evaluation of
    every mask per qubit."""
    here = land.values(masks)
    least = np.full(len(masks), math.inf)
    for q in range(land.num_qubits):
        least = np.minimum(least, land.values([m ^ (1 << q) for m in masks]) - here)
    return least.tolist()
