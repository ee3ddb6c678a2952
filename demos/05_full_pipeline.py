#!/usr/bin/env python3
"""End-to-end compilation: encode, certify, truncate, quadratize,
solve, decode and refine, all on the bundled two-variable instance.

The equivalent command line is:

    tbe compile --input demos/data/two_card32.json --kmax 3 \
        --quadratize --solve anneal --seed 11 --refine \
        --out-hubo hubo.json --out-cert cert.json --out-report report.json
"""

from tbe import (
    AnnealParams,
    build_layout,
    certify,
    decode_and_refine,
    encode,
    evaluate_cfn,
    k_full,
    parse_cfn,
    quadratize,
    solve,
    truncate,
)

cfn = parse_cfn(open("demos/data/two_card32.json", "rb").read())
layout = build_layout(cfn, strategy="gray")
full = encode(cfn, layout)
print("exact encoding:", full.num_terms(), "terms, degree", full.degree,
      "of a possible", k_full(cfn, layout))

cutoff = 3
cert = certify(full, cutoff)
print(f"cutoff {cutoff}: certified error {cert.epsilon:.4f}, "
      f"l2 residual {cert.l2_residual:.4f}, "
      f"omitted couplings {cert.omitted_nonzero}")

truncated = truncate(full, cutoff)
print("truncated:", truncated.num_terms(), "terms, degree", truncated.degree)

model = quadratize(truncated)
print("quadratized:", model.num_ancilla_qubits, "ancillas, penalty", round(model.penalty_weight, 2))

result = solve(model, method="anneal", seed=11, anneal=AnnealParams(restarts=16, sweeps=400))
result = decode_and_refine(result, layout, cfn, full_poly=full, refine=True)
print("\nsolved (annealing over", result.num_qubits, "variables):")
print("  truncated-model value:", round(result.best_value, 4))
print("  decoded assignment:", list(result.decoded_assignment),
      "valid:", all(result.decoded_valid))
print("  true network cost:", round(result.cfn_value, 4))
print("  after descent on the full encoding:", round(result.refined_cfn_value, 4),
      f"({result.refine_steps} flips)")

best = min(
    evaluate_cfn(cfn, [i, j])
    for i in range(1, 33)
    for j in range(1, 33)
)
print("  exact optimum by table scan:", round(best, 4))
print("  certified additive bound 2*eps:", round(2 * cert.epsilon, 4))
