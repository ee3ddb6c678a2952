#!/usr/bin/env python3
"""Monte-Carlo behaviour of the truncation residual under random couplings.

With many independent omitted modes the residual at any fixed
configuration looks Gaussian with variance equal to the summed mode
variances - far smaller than the worst-case l1 bound.  The sign-rate
sweep shows single bit-flip moves agreeing between full and truncated
landscapes while the omitted-to-kept power ratio stays below k/n.
"""

from tbe import (
    EnsembleSpec,
    bitflip_variance_check,
    degree_uniform_profile,
    ensemble_residual_check,
    profile_with_margin,
    sign_preservation_rate,
)

profile = degree_uniform_profile(12, {4: 0.02})
spec = EnsembleSpec(variance_profile=profile, family="gaussian", trials=20000, rng_seed=3)
report = ensemble_residual_check(spec, 2)
print("residual at a fixed configuration over", report.num_modes, "omitted modes:")
print(f"  target variance {report.target_variance:.3f}, sample {report.sample_variance:.3f}"
      f"  (within 5 SE: {report.variance_ok})")
print(f"  skewness {report.skewness:+.4f}, excess kurtosis {report.excess_kurtosis:+.4f}"
      f"  (Gaussian gates applied: {report.gaussian_gate_applied})")

flip_profile = degree_uniform_profile(12, {1: 0.5, 2: 0.1, 4: 0.02})
flip_spec = EnsembleSpec(variance_profile=flip_profile, family="gaussian", trials=20000, rng_seed=5)
flip = bitflip_variance_check(flip_spec, 2, 0, n=12)
print("\nkept-landscape bit-flip variance at coordinate 0:")
print(f"  analytic {flip.target_variance:.3f}, sample {flip.sample_variance:.3f}"
      f"  (within 5 SE: {flip.variance_ok})")
print(f"  coordinate-averaged variance {flip.avg_variance:.3f} <= cap {flip.avg_bound:.3f}")

print("\nsign-agreement rate of bit-flip moves vs omitted/kept margin:")
for margin in (0.001, 0.01, 0.1, 1.0, 10.0):
    sweep = profile_with_margin(10, 2, margin)
    s = EnsembleSpec(variance_profile=sweep, family="gaussian", trials=8000, rng_seed=4)
    r = sign_preservation_rate(s, 10, 2)
    print(f"  margin {margin:>7}: rate {r.rate:.3f}")
