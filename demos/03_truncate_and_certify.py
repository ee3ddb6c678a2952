#!/usr/bin/env python3
"""Truncation certificates across every cutoff degree.

Dropping monomials above degree k is an orthogonal projection; the
certificate gives a worst-case pointwise error (the l1 norm of what
was dropped), the typical amplitude (l2), and the noise-floor ratios.
On a small instance the certified bound is checked against the true
enumerated maximum.
"""

import numpy as np

from tbe import certificate_json, certify, noise_floor_ok, parse_cfn, residual
from tbe import build_layout, encode
from tbe.verify import dense_values

cfn = parse_cfn(open("demos/data/two_card32.json", "rb").read())
layout = build_layout(cfn)
poly = encode(cfn, layout)
print("encoded:", poly.num_terms(), "terms, degree", poly.degree, "on", poly.num_qubits, "spins")

print(f"\n{'k':>3} {'epsilon (l1)':>14} {'l2 residual':>12} {'true max |err|':>15} {'weak':>9} {'strong':>9}")
values = dense_values(poly)
for k in range(1, poly.degree + 1):
    cert = certify(poly, k)
    dropped = residual(poly, k)
    true_max = float(np.abs(dense_values(dropped)).max()) if dropped.terms else 0.0
    weak = f"{cert.weak_noise_floor_ratio:.2e}" if cert.weak_noise_floor_ratio is not None else "-"
    strong = (
        f"{cert.strong_noise_floor_margin:.2e}"
        if cert.strong_noise_floor_margin is not None
        else "-"
    )
    ok = "ok" if all(noise_floor_ok(cert)) else "  "
    print(f"{k:>3} {cert.epsilon:>14.6f} {cert.l2_residual:>12.6f} {true_max:>15.6f} {weak:>9} {strong:>9} {ok}")

print("\nthe certified bound always dominates the enumerated maximum;")
print("the gap between them is the cancellation the l2 column captures.")

cert = certify(poly, 4)
print("\ncertificate JSON at k=4:")
print(certificate_json(cert))
