#!/usr/bin/env python3
"""Build a small cost function network and encode it exactly.

Three discrete variables with cardinalities (2, 3, 4) map to binary
registers of 1 + 2 + 2 = 5 spins.  Every coupling of the encoded
polynomial is a signed average of cost-table entries, so the encoding
reproduces the network cost at every valid assignment bit for bit.
"""

import itertools

import numpy as np

from tbe import (
    Cfn,
    PairwiseTable,
    VariableSpec,
    build_layout,
    encode,
    evaluate_cfn,
    spin_image,
)

rng = np.random.default_rng(7)
cards = [2, 3, 4]

cfn = Cfn(
    variables=tuple(VariableSpec(f"v{i}", c) for i, c in enumerate(cards)),
    unary_tables=tuple(tuple(rng.normal(size=c)) for c in cards),
    pairwise_tables=(
        PairwiseTable(0, 1, tuple(rng.normal(size=6))),
        PairwiseTable(1, 2, tuple(rng.normal(size=12))),
    ),
)

layout = build_layout(cfn, strategy="binary")
poly = encode(cfn, layout)

print("register widths:", layout.register_widths)
print("total spins:", layout.total_qubits)
print("encoded terms:", poly.num_terms(), "max degree:", poly.degree)

print("\ncouplings by degree:")
by_degree = {}
for mask, coeff in poly.sorted_terms():
    by_degree.setdefault(mask.bit_count(), []).append(coeff)
for degree in sorted(by_degree):
    coeffs = by_degree[degree]
    print(f"  degree {degree}: {len(coeffs):3d} terms, max |c| = {max(abs(c) for c in coeffs):.4f}")

print("\nexactness over all", np.prod(cards), "assignments:")
worst = 0.0
for assignment in itertools.product(*(range(1, c + 1) for c in cards)):
    want = evaluate_cfn(cfn, list(assignment))
    got = poly.evaluate_mask(spin_image(layout, list(assignment)))
    worst = max(worst, abs(got - want))
print("  worst absolute deviation:", worst)
