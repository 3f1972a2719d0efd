"""
Derivative cocycles and fibrewise Lyapunov exponents
====================================================

The skew product couples a base shift with a fiber map per base point; the
chain rule turns the fiber derivatives into a matrix cocycle.  Growth rates
of that cocycle are the fibrewise Lyapunov exponents, estimated here by
renormalized Birkhoff averages and by reorthonormalized products.
"""

import math

import randhyp as rh

spec = rh.BaseSystemSpec.bernoulli([0.5, 0.5])
w = rh.sample_base(spec, seed=42, count=1)[0]

# -- scalar cocycle: random multipliers 2 and 3 -----------------------------
bl = rh.make_family("bernoulli-linear", {"values": [2, 3]})
prod = rh.cocycle_product(bl, w, rh.point(0.1), 10)
print("10-step derivative product:", prod[0, 0])

p = rh.unit_tangent(w, rh.point(0.1), (1.0,))
print("telescoping check:",
      abs(rh.birkhoff_sum_phi(bl, p, 10) - math.log(prod[0, 0])) < 1e-9)

est = rh.top_exponent(bl, p, 100_000)
print(f"top exponent {est.value:.6f} +/- {est.batch_std_err:.6f} "
      f"(analytic mean {math.log(6)/2:.6f})")

# -- matrix cocycle: random hyperbolic torus maps ---------------------------
cat = rh.make_family("random-cat")
x = rh.point(0.2, 0.7)
spectrum = rh.oseledets_spectrum(cat, w, x, 10_000)
print("\nrandom-cat spectrum:", [round(v, 4) for v in spectrum.exponents])
print("sum (should be ~0, determinant 1):", round(sum(spectrum.exponents), 10))

# The deterministic cat map has exponents +/- log((3+sqrt 5)/2).
det_cat = rh.make_family("random-cat", {"matrices": [[[2, 1], [1, 1]]]})
dirac = rh.sample_base(rh.BaseSystemSpec.dirac(), 0, 1)[0]
s = rh.oseledets_spectrum(det_cat, dirac, x, 2000)
print("deterministic cat:", [round(v, 6) for v in s.exponents],
      " target", round(math.log((3 + math.sqrt(5)) / 2), 6))

# -- positivity sweep over sampled starts -----------------------------------
pd = rh.make_family("perturbed-doubling", {"eps_max": 0.1})
report = rh.exponent_positivity_report(pd, spec, seed=5, samples=50, n=5000)
print("\nperturbed doubling positivity sweep:")
print("  min exponent:", round(report["min_exponent"], 6),
      " (pointwise floor", round(math.log(2 - 0.2 * math.pi), 6), ")")
print("  fraction with all exponents positive:", report["fraction_positive"])
