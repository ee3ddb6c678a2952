"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: naive
per-term products instead of parity tricks, O(4^D) transform sums
instead of butterflies, direct table lookups instead of the encoder's
effective-table machinery.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from tbe import BinaryPolynomial, Cfn, EncodingLayout, IsingPolynomial, PairwiseTable, Penalty, VariableSpec
from tbe.encoding import default_penalty_weight
from tbe.quadratization import QuboModel


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
