"""
Certifying uniform expansion
============================

For expanding circle families the n-step minimum expansion A_n(w) is
bracketed by a grid minimum and an explicit Lipschitz slack.  The brackets
feed everything else: supadditivity residual tables, the limiting uniform
rate A, the constant C(w) as a truncated infimum at a chosen rate lambda,
and the decay curve (1/n) log C(T^n w) that probes temperedness.
"""

import math

import randhyp as rh

spec = rh.BaseSystemSpec.bernoulli([0.5, 0.5])
fam = rh.make_family("perturbed-doubling", {"eps_max": 0.1})
w = rh.sample_base(spec, seed=3, count=1)[0]

print("certified brackets for A_n(w), grid 8192:")
for n in (1, 2, 4, 8, 12):
    lo, up = rh.min_log_expansion(fam, w, n, grid_size=8192)
    print(f"  n={n:2d}  [{lo:+.6f}, {up:+.6f}]  A_n/n in "
          f"[{lo/n:+.6f}, {up/n:+.6f}]")
print("pointwise bracket per step:",
      f"[{math.log(2 - 0.2*math.pi):.6f}, {math.log(2):.6f}]")

rep = rh.supadditivity_residuals(fam, w, N=12, grid_size=8192)
print(f"\nsupadditivity: {len(rep.residuals)} pairs, "
      f"minimal residual {rep.min_residual:+.2e} (theory: >= 0)")

rate = rh.uniform_rate_estimate(fam, spec, seed=3, samples=20, n_max=12,
                                grid_size=8192)
print(f"\nuniform rate estimate A = {rate.a_estimate:.6f} "
      f"+/- {rate.a_std_err:.6f}")

lam = 0.5 * rate.a_estimate
c = rh.tempered_constant(fam, w, lam, depth=7, grid_size=8192)
print(f"C(w) at lambda = A/2: {c.value:.6f} (infimum attained at n = {c.attained_n})")

# The doubling map over the one-point base: everything is exact.
doubling = rh.make_family("doubling")
dirac = rh.BaseSystemSpec.dirac()
cert = rh.build_expansion_certificate(doubling, dirac, seed=1, samples=3,
                                      n_max=10, curve_n_max=2000)
print(f"\ndoubling certificate: verdict={cert.verdict}, "
      f"A={cert.a_estimate:.6f}, lambda={cert.lam:.6f}")
print(f"temperedness curve at n=2000: {cert.temperedness_curve.last():+.6f}")

# The corollary-style check on per-state rates: positive mean log rate means
# the constant-rate machinery applies; a symmetric family is inconclusive.
sym = rh.make_family("bernoulli-linear", {"values": [0.5, 2.0]})
sym_rate = rh.uniform_rate_estimate(sym, spec, seed=17, samples=20, n_max=10,
                                    grid_size=1)
rep = rh.variable_rate_corollary(sym, spec, seed=17, samples=1000,
                                 a_estimate=sym_rate.a_estimate)
print(f"\nsymmetric rates {{1/2, 2}}: mean log rate {rep.estimate:+.4f} "
      f"+/- {rep.std_err:.4f} -> {rep.verdict}")
