#!/usr/bin/env python3
"""How table structure and bitstring assignment shape the spectrum.

The choice-to-bitstring assignment is a free parameter of the encoding
and it moves spectral mass between degrees.  Two smooth pair potentials
on 32-valued variables make the point in opposite directions:

* (x - y)^2 is affine in the choice index once the encoder moves its
  marginals x^2 and y^2 onto the registers, and the plain
  binary code makes the index itself a degree-1 polynomial of the bits,
  so every coupling lands at degree <= 2 exactly;
* a Gaussian well is far from index-affine, and there the Gray code
  (where one bit flip steps the index by one) concentrates more power
  at low degree than binary does.

All profiles come from per-table transforms; nothing of size 2^10 is
ever assembled.
"""

import numpy as np

from tbe import Cfn, PairwiseTable, VariableSpec, build_layout, table_spectrum, walsh_blocks

x = np.linspace(-1, 1, 32)
potentials = {
    "quadratic (x - y)^2": np.subtract.outer(x, x) ** 2,
    "gaussian well": -np.exp(-3.0 * np.subtract.outer(x, x) ** 2),
}

for name, grid in potentials.items():
    cfn = Cfn(
        variables=(VariableSpec("a", 32), VariableSpec("b", 32)),
        unary_tables=(tuple([0.0] * 32), tuple([0.0] * 32)),
        pairwise_tables=(PairwiseTable(0, 1, tuple(float(v) for v in grid.reshape(-1))),),
    )
    print(f"\n=== {name}")
    for strategy in ("binary", "gray"):
        layout = build_layout(cfn, strategy=strategy)
        profile = table_spectrum(walsh_blocks(cfn, layout))
        total = sum(profile.per_degree_power[1:])
        print(f"  {strategy} assignment:")
        running = 0.0
        for k in range(1, profile.max_degree + 1):
            p = profile.per_degree_power[k]
            if p / total < 1e-9 and running / total > 1 - 1e-9:
                break
            running += p
            bar = "#" * int(50 * p / total)
            print(f"    P_{k:<2} = {p:9.5f}  cum {running / total:6.1%}  {bar}")

print("\nkept power at a degree-2 cutoff (higher is better for a QUBO target):")
for name, grid in potentials.items():
    cfn = Cfn(
        variables=(VariableSpec("a", 32), VariableSpec("b", 32)),
        unary_tables=(tuple([0.0] * 32), tuple([0.0] * 32)),
        pairwise_tables=(PairwiseTable(0, 1, tuple(float(v) for v in grid.reshape(-1))),),
    )
    parts = []
    for strategy in ("binary", "gray"):
        profile = table_spectrum(walsh_blocks(cfn, build_layout(cfn, strategy=strategy)))
        total = sum(profile.per_degree_power[1:])
        parts.append(f"{strategy} {sum(profile.per_degree_power[1:3]) / total:6.1%}")
    print(f"  {name:22} {'  '.join(parts)}")
