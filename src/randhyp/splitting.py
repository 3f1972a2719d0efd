"""Finite-time Oseledets bundles and hyperbolicity certificates for
invertible linear torus families.

The expanding direction at a base point is the top left-singular direction
of the derivative product over a backward window; the contracting direction
is the most-contracted direction of the forward window.  Both converge
exponentially in the window length.  Contraction rates are measured through
the inverse cocycle (pushing a stable vector forward in float arithmetic
re-aligns it with the expanding direction, so the backward form is the
numerically faithful one; the two agree in exact arithmetic).
"""

import math

import numpy as np

from ._record import Record, field
from .base import base_step, random_point, sample_base
from .cocycle import push_log_stretches, window_products
from .errors import ContractError, UnsupportedOperationError
from .expansion import DEFAULT_DEPTH, truncated_infimum
from .fibers import (LinearTorusFamily, ManifoldPoint, param_windows, unit_direction,
                     unit_vectors)
from .lyapunov import _batch_cuts, _batch_stats, _torus_spectrum, clears_error_bar


def _random_unit_vectors(seed, indices, dim):
    """Unit rows of `random_point` - 1/2; a row within 1e-9 of 0 is the unit diagonal."""
    units, norms = unit_vectors(random_point(seed, indices, dim) - 0.5)
    units[norms[:, 0] < 1e-9] = 1.0 / math.sqrt(dim)
    return units


class BundlePair(Record):
    gamma1: tuple                # contracting direction (unit)
    gamma2: tuple                # expanding direction (unit)
    horizon: int
    angle: float                 # principal angle, in (0, pi/2]


class BundleRates(Record):
    rate1: float                 # contraction rate along gamma1 (> 0 expected)
    rate2: float                 # expansion rate along gamma2
    c1: float                    # truncated-infimum constant, inverse cocycle
    c2: float                    # truncated-infimum constant, forward cocycle
    lam: float


class SplittingCertificate(Record):
    lam: float
    c_samples: tuple             # (omega id, c1, c2)
    angle_min: float
    invariance_residual_max: float
    verdict: str
    details: dict = field(default_factory=dict)
    spectra: tuple = field(default=(), repr=False, compare=False)

    def to_payload(self):
        return {
            "lambda": self.lam,
            "c_samples": [{"omega": o, "c1": c1, "c2": c2}
                          for (o, c1, c2) in self.c_samples],
            "angle_min": self.angle_min,
            "invariance_residual_max": self.invariance_residual_max,
            "verdict": self.verdict,
            "details": self.details,
        }


def _check_args(family, horizon=2, n=1, depth=1, batches=1):
    """The family, bundle horizon, push lengths and batches of every
    splitting entry point, checked before any read."""
    if not isinstance(family, LinearTorusFamily):
        raise UnsupportedOperationError(
            "splitting analysis needs an invertible linear torus family")
    if horizon < 2:
        raise ContractError("horizon must be >= 2")
    for name, value in (("n", n), ("depth", depth)):
        if value < 1:
            raise ContractError(f"{name} must be >= 1")
    if not (n >= batches >= 1):
        raise ContractError("need n >= batches >= 1")
    if depth > n:
        raise ContractError(f"n must be >= depth = {depth}, got {n}")


def _windows(family, omegas, ks, h):
    """(len(omegas) * len(ks), h) index windows `back` (T^{k-1} w, ...,
    T^{k-h} w), the `param_windows` at k - h reversed, and `fwd` (T^k w, ...,
    T^{k+h-1} w), from one read."""
    back, fwd = param_windows(family, omegas, [(np.asarray(ks) - h, h), (ks, h)])
    return back[:, ::-1], fwd


def _bundle_pairs(family, back, fwd):
    """`finite_time_bundles` of each row of (B, h) `_windows`."""
    u, _, _ = np.linalg.svd(window_products(family.matrices, back, left=False))
    _, _, vh = np.linalg.svd(window_products(family.matrices, fwd))
    g1, g2 = unit_direction(vh[:, -1]), unit_direction(u[:, :, 0])
    dots = (g1[:, None, :] @ g2[:, :, None])[:, 0, 0]
    return [BundlePair(tuple(a), tuple(b), back.shape[1], math.acos(min(1.0, abs(d))))
            for a, b, d in zip(g1.tolist(), g2.tolist(), dots.tolist())]


def finite_time_bundles(family, omega, x, horizon):
    """Expanding/contracting directions from symmetric finite windows.

    gamma2: top left-singular direction of the product over the backward
    window ending at omega.  gamma1: the forward window's most-contracted
    direction.  Directions converge exponentially fast in the horizon.  The
    cocycle is linear, so the fiber point x is not read.
    """
    _check_args(family, horizon)
    return _bundle_pairs(family, *_windows(family, [omega], (0,), horizon))[0]


def _sin_angle(u, w):
    (u0, u1), (w0, w1) = unit_vectors([u, w])[0]
    return abs(float(u0 * w1 - u1 * w0))


def _residual(a, pair, nxt):
    return max(_sin_angle(a @ np.asarray(pair.gamma1), np.asarray(nxt.gamma1)),
               _sin_angle(a @ np.asarray(pair.gamma2), np.asarray(nxt.gamma2)))


def invariance_residual(family, omega, x, pair):
    """max over both bundles of sin(angle(A gamma_i(w), gamma_i(T w)))."""
    _check_args(family)
    nxt = finite_time_bundles(family, base_step(omega), x, pair.horizon)
    return _residual(family.matrices[family.param_at(omega)], pair, nxt)


def _bundle_growth(family, vs, back, fwd, cuts, rows=None):
    """Log growth at `cuts` of `vs`, vector r along row rows[r] (default r)
    of `back` (inverse cocycle, backward indices) stacked on `fwd`."""
    return push_log_stretches(np.concatenate([family.matrices, family.inverses]),
                              np.concatenate([back + len(family.matrices), fwd]),
                              vs, cuts, rows)


def bundle_rates(family, omega, x, pair, n, lam=None, depth=DEFAULT_DEPTH):
    """Per-bundle rates and truncated-infimum constants.

    rate1 is the forward contraction rate along gamma1, measured via the
    inverse cocycle; rate2 the forward expansion rate along gamma2.  The
    constants certify expansion of each bundle cocycle at rate lam (default
    half the smaller measured rate).
    """
    _check_args(family, n=n, depth=depth)
    grow1, grow2 = _bundle_growth(family, [pair.gamma1, pair.gamma2],
                                  *_windows(family, [omega], (0,), n),
                                  np.array(sorted({*range(1, depth + 1), n})))
    rate1, rate2 = float(grow1[-1] / n), float(grow2[-1] / n)
    if lam is None:
        lam = 0.5 * min(rate1, rate2)
    if lam <= 0.0:
        return BundleRates(rate1, rate2, math.nan, math.nan, lam)
    c1 = math.exp(truncated_infimum(grow1[:depth], lam)[0])
    c2 = math.exp(truncated_infimum(grow2[:depth], lam)[0])
    return BundleRates(rate1, rate2, c1, c2, lam)


def hyperbolicity_certificate(family, spec, seed, samples, horizon, n,
                              depth=DEFAULT_DEPTH, batches=20):
    """Aggregate splitting evidence over sampled base points.

    Per sample: finite-time bundles, principal angle, invariance residual,
    per-bundle rates with batch standard errors, an independent top-exponent
    estimate, and tempered constants at the global rate lam (half the worst
    measured rate).  Certified requires residuals below 1e-6, positive
    angles, and every rate above 3 batch standard errors (2+ batches).
    Every sample's bundles at w and T w come from one read and one batch;
    then each sample reads positions -n..n-1 once and pushes its four
    directions in one call, cut at steps 1..depth, the batch ends and n (e1
    gives its `oseledets_spectrum`, kept in `spectra`).  The values are the
    public per-sample functions', batch or not.
    """
    _check_args(family, horizon, n, depth, batches)
    omegas = sample_base(spec, seed, samples)
    # every sample's bundles at 0 and 1: rows 2i (pair) and 2i + 1 (next)
    pairs = _bundle_pairs(family, *_windows(family, omegas, (0, 1), horizon))
    tops = _random_unit_vectors(seed, range(samples, 2 * samples), 2)
    ends = _batch_cuts(n, batches)
    cuts = np.array(sorted({*range(1, depth + 1), *ends.tolist(), n}))
    ends = np.searchsorted(cuts, ends)
    recs, growth, spectra = [], [], []
    for i, (omega, x) in enumerate(zip(omegas, random_point(seed, range(samples), 2))):
        pair, nxt = pairs[2 * i], pairs[2 * i + 1]
        back, fwd = _windows(family, [omega], (0,), n)
        # gamma1 backwards; gamma2, the top-exponent vector and e1 forwards
        grow = _bundle_growth(family, [pair.gamma1, pair.gamma2, tops[i], (1.0, 0.0)],
                              back, fwd, cuts, (0, 1, 1, 1))
        spectra.append(_torus_spectrum(grow[3, -1], family.log_dets[fwd[0]]))
        recs.append({"omega": omega.describe(), "x": list(ManifoldPoint(x).coords),
                     "angle": pair.angle,
                     "residual": _residual(family.matrices[fwd[0, 0]], pair, nxt)})
        growth.append(grow[:3])
    growth = np.array(growth)   # (samples, 3, cuts): gamma1, gamma2, top vector
    for rec, (rate1, rate2, top), (se1, se2, se_top) in zip(
            recs, *_batch_stats(growth[:, :, ends], n // batches)):
        rec.update({"rate1": rate1, "rate1_se": se1, "rate2": rate2, "rate2_se": se2,
                    "top_exponent": top, "top_se": se_top})

    angle_min = min(r["angle"] for r in recs)
    residual_max = max(r["residual"] for r in recs)
    min_rate = min(min(r["rate1"], r["rate2"]) for r in recs)
    lam = 0.5 * min_rate

    details = {"horizon": horizon, "n": n, "samples": samples,
               "rate1_mean": float(np.mean([r["rate1"] for r in recs])),
               "rate2_mean": float(np.mean([r["rate2"] for r in recs]))}
    log_cs = (truncated_infimum(growth[:, :2, :depth], lam)[0] if lam > 0.0
              else np.full((samples, 2), math.nan))
    c_samples = [(r["omega"], math.exp(c1), math.exp(c2))
                 for r, (c1, c2) in zip(recs, log_cs.tolist())]
    details["per_sample"] = recs

    certified = (residual_max < 1e-6 and angle_min > 0.0
                 and all(clears_error_bar(r[k], r[k + "_se"], batches)
                         for r in recs for k in ("rate1", "rate2")))
    verdict = "certified" if certified else "inconclusive"
    return SplittingCertificate(lam=lam, c_samples=tuple(c_samples),
                                angle_min=angle_min, spectra=tuple(spectra),
                                invariance_residual_max=residual_max,
                                verdict=verdict, details=details)
