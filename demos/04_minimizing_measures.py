"""
Hunting the minimizing measure
==============================

The smallest measure-averaged expansion over invariant measures (base
marginal pinned to the driving law) is approximated three ways: empirical
measures on the orbit of a grid argmin, Birkhoff minima over random starts,
and periodic-orbit averages.  Periodic orbits project to periodic word
measures, not the driving law, so they are heuristic context only.
"""

import math

import randhyp as rh
from randhyp import UnitTangentPoint, integrate_observable, phi

spec = rh.BaseSystemSpec.bernoulli([0.5, 0.5])
fam = rh.make_family("perturbed-doubling", {"eps_max": 0.1})
w = rh.sample_base(spec, seed=9, count=1)[0]

# The empirical measure mu_n charges the tangent orbit of the argmin.
mu, argmin = rh.empirical_minimizing_sequence(fam, w, n=12, grid_size=8192)
val = integrate_observable(mu, lambda om, x, v: phi(fam, UnitTangentPoint(om, x, v)))
print(f"argmin start x = {argmin.x.x:.6f}")
print(f"integral of log-stretch against mu_12: {val:.6f}")
print(f"(equals A_12/12 from the same grid: "
      f"{rh.min_log_expansion(fam, w, 12, 8192)[1] / 12:.6f})")

# Forgetting the tangent direction projects the measure to the skew product.
proj = rh.pushforward_projection(mu)
print("projected atoms keep their weights:",
      abs(proj.total_weight() - 1.0) < 1e-12)

# Periodic orbits, sorted by averaged log expansion.
records = rh.enumerate_periodic_orbits(fam, spec, p_max=8)
print(f"\n{len(records)} periodic orbits up to period 8; five smallest averages:")
for r in records[:5]:
    word = "".join(str(s) for s in r.symbol_word)
    print(f"  word {word:<8s} period {r.period}  x0={r.x0.x:.6f}  "
          f"phi_avg={r.phi_average:.6f}  residual={r.residual:.1e}")

# The combined estimate and its gap against the uniform rate.
rate = rh.uniform_rate_estimate(fam, spec, seed=9, samples=20, n_max=12,
                                grid_size=8192)
report = rh.lambda_estimate(fam, spec, seed=9, rate=rate, birkhoff_steps=10_000,
                            birkhoff_starts=20)
print("\ncandidates:")
for source, value in report.candidates:
    print(f"  {source:<18s} {value:.6f}")
print(f"Lambda estimate = {report.lambda_estimate:.6f}")
print(f"A estimate      = {report.a_estimate:.6f}")
print(f"gap             = {report.gap_vs_a:+.6f} (theory: -> 0)")
print(f"analytic bracket: [{math.log(2 - 0.2*math.pi):.4f}, {math.log(2):.4f}]")
