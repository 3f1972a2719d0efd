"""Estimating the smallest measure-averaged expansion over invariant
measures whose base marginal is the driving law.

No algorithm can enumerate all invariant measures, so the estimate is the
one constructive candidate: the run's uniform rate estimate.  Birkhoff
averages from random starts are not candidates; they converge to the
stationary measure's exponent, which bounds the minimum from above (and on
a torus family is the top exponent).  Periodic-orbit averages (full-shift
bases only) project to periodic word measures on the base, not to the
driving law, so they are reported as heuristic context only.
"""

import math
from itertools import accumulate, product as iter_product

import numpy as np

from ._record import Record
from .base import periodic_state
from .cocycle import cocycle_product
from .errors import ContractError, UnsupportedOperationError
from .fibers import CircleFamily, LinearTorusFamily, ManifoldPoint


class PeriodicOrbitRecord(Record):
    """One periodic orbit of the skew product, from a repeated symbol word:
    its start point `x0`, least `period`, orbit-averaged log expansion
    `phi_average` (a torus orbit's: that of its most contracted direction)
    and the distance of its p-step image from `x0` (`residual`).

    These induce periodic measures on the base, not the driving law, so
    their averages are heuristic lower-envelope candidates only.
    """

    symbol_word: tuple
    x0: ManifoldPoint
    period: int
    phi_average: float
    residual: float


def _necklaces(alphabet, p):
    """Canonical (lexicographically minimal) rotation representatives."""
    seen = set()
    for word in iter_product(range(alphabet), repeat=p):
        canon = min(word[i:] + word[:i] for i in range(p))
        if canon not in seen:
            seen.add(canon)
            yield canon


def _word_period(word):
    p = len(word)
    for q in range(1, p):
        if p % q == 0 and word == word[q:] + word[:q]:
            return q
    return p


def _circle_dist(a, b):
    d = abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _lift_composite(family, ps, xs):
    y = np.asarray(xs, dtype=np.float64)
    for p in ps:
        y = family.lift(p, y, np)
    return y


def _circle_word_orbits(family, omega0, word):
    """(x0, distance of its p-step image from x0) of every periodic orbit of
    least period p = len(word) over this word, whose periodic state is omega0."""
    p = len(word)
    ps = family.params_along([omega0], p)[0].tolist()
    degree = math.prod(family.degree(c) for c in ps)

    # The lift of the p-step composite fixes 0 and gains `degree` over one
    # period, so the fixed points are the solutions of G(x) = c for integer
    # c; G is strictly increasing for expanding families.
    cs = np.arange(1, degree - 1, dtype=np.float64)
    lo, hi = np.zeros_like(cs), np.ones_like(cs)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = _lift_composite(family, ps, mid) - mid
        takes = g < cs
        lo = np.where(takes, mid, lo)
        hi = np.where(takes, hi, mid)
    roots = [0.0] + [float(v) for v in 0.5 * (lo + hi)]

    # omega0 has the word's period q: a root's least period is the first multiple of q
    # dividing p where its orbit returns, and its points every q steps repeat its orbit
    q = _word_period(word)
    orbits, repeats = [], set()
    for i, x0 in enumerate(roots):
        if i in repeats:
            continue
        xs = list(accumulate(ps, lambda x, c: family.apply(c, x), initial=x0))
        if any(_circle_dist(xs[r], x0) <= 1e-9 for r in range(q, p, q) if p % r == 0):
            continue   # listed under the word of its least period
        orbits.append((x0, float(_circle_dist(xs[p], x0))))
        if q < p:
            near = _circle_dist(np.array(roots), np.array(xs[q:p:q])[:, None]) < 1e-9
            repeats.update(np.flatnonzero(near.any(0)).tolist())
    return orbits


def enumerate_periodic_orbits(family, spec, p_max):
    """Periodic orbits for every symbol word of length <= p_max (up to
    rotation), each listed once under its least period, sorted by
    orbit-averaged log expansion.

    Full-shift (bernoulli) bases and `expanding` circle families only.
    Root isolation uses bisection on the lift, increasing and of degree
    >= 2, so no starting grid is needed.
    """
    if spec.kind != "bernoulli":
        raise UnsupportedOperationError("periodic-orbit search needs a full shift base")
    if isinstance(family, CircleFamily) and not family.expanding:
        raise UnsupportedOperationError(
            "periodic-orbit search needs an expanding circle family")
    if p_max > 12:
        raise ContractError("p_max is capped at 12")
    records = []
    for p in range(1, p_max + 1):
        for word in _necklaces(spec.alphabet_size, p):
            if _word_period(word) < p and isinstance(family, LinearTorusFamily):
                continue
            omega0 = periodic_state(spec.alphabet_size, word)
            if isinstance(family, CircleFamily):
                for x0, residual in _circle_word_orbits(family, omega0, word):
                    logs = family.orbit_log_derivs(omega0, x0, p)
                    records.append(PeriodicOrbitRecord(
                        symbol_word=word, x0=ManifoldPoint((x0,)), period=p,
                        phi_average=math.fsum(logs.tolist()) / p, residual=residual))
            else:
                prod = cocycle_product(family, omega0, ManifoldPoint((0.0, 0.0)), p)
                eigvals = np.linalg.eig(prod)[0]
                if np.iscomplexobj(eigvals) and np.abs(eigvals.imag).max() > 1e-12:
                    continue  # no real invariant direction
                mods = np.abs(eigvals.real)
                # |lambda_min| = |det| / |lambda_max|: eig's own smallest
                # eigenvalue carries the largest one's absolute rounding error
                det = family.dets[family.params_along([omega0], p)[0]].prod()
                records.append(PeriodicOrbitRecord(
                    symbol_word=word, x0=ManifoldPoint((0.0, 0.0)), period=p,
                    phi_average=math.log(abs(det) / mods.max()) / p,
                    residual=0.0))
    records.sort(key=lambda r: r.phi_average)
    return records


class LambdaReport(Record):
    candidates: tuple            # (label, value)
    lambda_estimate: float
    a_estimate: float
    periodic_orbits: tuple = ()  # PeriodicOrbitRecords, heuristic only

    def to_payload(self):
        return {
            "candidates": [{"source": s, "value": v} for (s, v) in self.candidates],
            "lambda_estimate": self.lambda_estimate,
            "a_estimate": self.a_estimate,
            "periodic_candidates": [
                {"word": list(r.symbol_word), "phi_average": r.phi_average,
                 "heuristic": True}
                for r in self.periodic_orbits
            ],
        }


def lambda_estimate(family, spec, seed, rate, include_periodic=False, p_max=6):
    """Smallest measure-averaged expansion, from the constructive candidates.

    The one candidate, and so the estimate, is the uniform rate estimate
    `rate` (`uniform_rate_estimate`) itself.  The n-step log stretch of a
    unit vector is the sum of the one-step log stretches along its tangent
    orbit, so the uniform measure on the n-step orbit of a minimizing vector
    integrates the one-step log stretch to A_n/n, and `rate.a_estimate` is
    the sample mean of A_n/n.  Periodic orbits, when requested (full-shift
    bases only), are attached as heuristic context and excluded from the
    estimate because their base marginals differ from the driving law.
    Nothing here is random; `seed` keeps the call the shape of the other
    estimators'.
    """
    periodic = (tuple(enumerate_periodic_orbits(family, spec, p_max))
                if include_periodic else ())
    return LambdaReport(candidates=(("uniform_rate", rate.a_estimate),),
                        lambda_estimate=rate.a_estimate, a_estimate=rate.a_estimate,
                        periodic_orbits=periodic)
