"""
Hunting the minimizing measure
==============================

The smallest measure-averaged expansion over invariant measures (base
marginal pinned to the driving law) is estimated by the run's uniform rate
estimate A, with periodic-orbit averages as context.  The n-step log
stretch of a unit vector is the sum of its one-step log stretches along the
tangent orbit, so the uniform measure on the orbit of a minimizing vector
averages the one-step stretch to A_n/n: the rate estimate is that
candidate.  Periodic orbits project to periodic word measures, not the
driving law, so they are heuristic context only.
"""

import math

import randhyp as rh

spec = rh.BaseSystemSpec.bernoulli([0.5, 0.5])
fam = rh.make_family("perturbed-doubling", {"eps_max": 0.1})

# Periodic orbits, sorted by averaged log expansion.
records = rh.enumerate_periodic_orbits(fam, spec, p_max=8)
print(f"{len(records)} periodic orbits up to period 8; five smallest averages:")
for r in records[:5]:
    word = "".join(str(s) for s in r.symbol_word)
    print(f"  word {word:<8s} period {r.period}  x0={r.x0.x:.6f}  "
          f"phi_avg={r.phi_average:.6f}  residual={r.residual:.1e}")

# The estimate: the uniform rate's candidate.
rate = rh.uniform_rate_estimate(fam, spec, seed=9, samples=20, n_max=12,
                                grid_size=8192)
report = rh.lambda_estimate(fam, spec, seed=9, rate=rate)
print("\ncandidates:")
for source, value in report.candidates:
    print(f"  {source:<18s} {value:.6f}")
print(f"Lambda estimate = {report.lambda_estimate:.6f}")
print(f"A estimate      = {report.a_estimate:.6f}")
print(f"analytic bracket: [{math.log(2 - 0.2*math.pi):.4f}, {math.log(2):.4f}]")
