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
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import base_step, random_point, sample_base
from .cocycle import (push_log_stretches, unit_direction, unit_tangent,
                      window_products)
from .errors import ContractError, UnsupportedOperationError
from .fibers import LinearTorusFamily, ManifoldPoint
from .lyapunov import _batch_stats, top_exponent

DEFAULT_DEPTH = 50


@dataclass(frozen=True)
class BundlePair:
    gamma1: tuple                # contracting direction (unit)
    gamma2: tuple                # expanding direction (unit)
    horizon: int
    angle: float                 # principal angle, in (0, pi/2]


@dataclass(frozen=True)
class BundleRates:
    rate1: float                 # contraction rate along gamma1 (> 0 expected)
    rate2: float                 # expansion rate along gamma2
    c1: float                    # truncated-infimum constant, inverse cocycle
    c2: float                    # truncated-infimum constant, forward cocycle
    lam: float


@dataclass(frozen=True)
class SplittingCertificate:
    lam: float
    c_samples: tuple             # (omega id, c1, c2)
    angle_min: float
    invariance_residual_max: float
    verdict: str
    details: dict = field(default_factory=dict)

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


def _require_linear_2d(family):
    if not isinstance(family, LinearTorusFamily) or family.manifold_dim != 2:
        raise UnsupportedOperationError(
            "splitting analysis needs an invertible linear torus family")


def _directions(family, back, fwd):
    """`finite_time_bundles` directions (gamma1, gamma2) for (B, h) windows:
    `fwd` lists indices from w on, `back` from T^-1 w backwards."""
    u, _, _ = np.linalg.svd(window_products(family.matrices, back, left=False))
    _, _, vh = np.linalg.svd(window_products(family.matrices, fwd))
    return ([unit_direction(g) for g in vh[:, -1]],
            [unit_direction(g) for g in u[:, :, 0]])


def finite_time_bundles(family, omega, x, horizon):
    """Expanding/contracting directions from symmetric finite windows.

    gamma2: top left-singular direction of the product over the backward
    window ending at omega.  gamma1: the forward window's most-contracted
    direction.  Directions converge exponentially fast in the horizon.  The
    cocycle is linear, so the fiber point x is not read.
    """
    _require_linear_2d(family)
    if horizon < 2:
        raise ContractError("horizon must be >= 2")
    (gamma1,), (gamma2,) = _directions(
        family, family.matrix_indices_back(omega, horizon)[None],
        family.matrix_indices(omega, horizon)[None])
    angle = math.acos(min(1.0, abs(float(gamma1 @ gamma2))))
    return BundlePair(gamma1=(float(gamma1[0]), float(gamma1[1])),
                      gamma2=(float(gamma2[0]), float(gamma2[1])),
                      horizon=horizon, angle=angle)


def _sin_angle(u, w):
    u = u / np.linalg.norm(u)
    w = w / np.linalg.norm(w)
    return abs(float(u[0] * w[1] - u[1] * w[0]))


def invariance_residual(family, omega, x, pair):
    """max over both bundles of sin(angle(A gamma_i(w), gamma_i(T w)))."""
    _require_linear_2d(family)
    nxt = finite_time_bundles(family, base_step(omega), x, pair.horizon)
    a = family.matrix(omega)
    r1 = _sin_angle(a @ np.asarray(pair.gamma1), np.asarray(nxt.gamma1))
    r2 = _sin_angle(a @ np.asarray(pair.gamma2), np.asarray(nxt.gamma2))
    return max(r1, r2)


def _bundle_logs(family, gamma1, gamma2, back, fwd):
    """Per-step log stretches: gamma1 rows through the inverse cocycle along
    `back` (indices in backward order), gamma2 rows forward along `fwd`."""
    logs = push_log_stretches(family.entries + family.inverse_entries,
                              np.concatenate([back + len(family.entries), fwd]),
                              np.concatenate([gamma1, gamma2]))
    return np.split(logs, 2)


def _pair_logs(family, omega, pair, n):
    """logs1, logs2 of one bundle pair over n steps from omega."""
    (logs1,), (logs2,) = _bundle_logs(
        family, [pair.gamma1], [pair.gamma2],
        family.matrix_indices_back(omega, n)[None],
        family.matrix_indices(omega, n)[None])
    return logs1, logs2


def _truncated_log_inf(logs, lam, depth):
    """min over 1 <= k <= depth of (cumulative log stretch - lam k), per row."""
    logs = logs[..., :depth]
    terms = np.cumsum(logs, axis=-1) - lam * np.arange(1, logs.shape[-1] + 1)
    return terms.min(axis=-1)


def bundle_rates(family, omega, x, pair, n, lam=None, depth=DEFAULT_DEPTH):
    """Per-bundle rates and truncated-infimum constants.

    rate1 is the forward contraction rate along gamma1, measured via the
    inverse cocycle; rate2 the forward expansion rate along gamma2.  The
    constants certify expansion of each bundle cocycle at rate lam (default
    half the smaller measured rate).
    """
    _require_linear_2d(family)
    if n < 1:
        raise ContractError("n must be >= 1")
    logs1, logs2 = _pair_logs(family, omega, pair, n)
    rate1, rate2 = float(logs1.mean()), float(logs2.mean())
    if lam is None:
        lam = 0.5 * min(rate1, rate2)
    if lam <= 0.0:
        return BundleRates(rate1, rate2, math.nan, math.nan, lam)
    c1 = math.exp(_truncated_log_inf(logs1, lam, depth))
    c2 = math.exp(_truncated_log_inf(logs2, lam, depth))
    return BundleRates(rate1, rate2, c1, c2, lam)


def _bundle_constant_curve(family, omega, lam, curve_len, horizon, depth):
    """(1/k) log C_i(T^k w) for both bundle constants along the orbit.

    All offsets k in one batch; orbit position q is stream[q + m - 1].
    """
    m = max(horizon, depth)
    stream = np.concatenate([family.matrix_indices_back(omega, m - 1)[::-1],
                             family.matrix_indices(omega, curve_len + m)])
    ks = np.arange(1, curve_len + 1)
    windows = sliding_window_view(stream, horizon)
    gamma1, gamma2 = _directions(family, windows[ks + m - 1 - horizon, ::-1],
                                 windows[ks + m - 1])
    pushes = sliding_window_view(stream, depth)
    logs1, logs2 = _bundle_logs(family, gamma1, gamma2,
                                pushes[ks + m - 1 - depth, ::-1],
                                pushes[ks + m - 1])
    return (_truncated_log_inf(logs1, lam, depth) / ks,
            _truncated_log_inf(logs2, lam, depth) / ks)


def hyperbolicity_certificate(family, spec, seed, samples, horizon, n,
                              depth=DEFAULT_DEPTH, curve_len=200,
                              batches=20, threads=1):
    """Aggregate splitting evidence over sampled base points.

    Per sample: finite-time bundles, principal angle, invariance residual,
    per-bundle rates with batch standard errors, an independent top-exponent
    estimate, and tempered constants at the global rate lam (half the worst
    measured rate).  Certified requires residuals below 1e-6, positive
    angles, and every rate above 3 batch standard errors (2+ batches).
    """
    _require_linear_2d(family)
    omegas = sample_base(spec, seed, samples)

    def one(i):
        omega = omegas[i]
        x = ManifoldPoint(random_point(seed, i, 2))
        pair = finite_time_bundles(family, omega, x, horizon)
        residual = invariance_residual(family, omega, x, pair)
        logs1, logs2 = _pair_logs(family, omega, pair, n)
        rate2, rate2_se, _ = _batch_stats(logs2, batches)
        rate1, rate1_se, _ = _batch_stats(logs1, batches)
        v = np.asarray(random_point(seed, samples + i, 2)) - 0.5
        if np.linalg.norm(v) < 1e-9:
            v = np.array([1.0, 0.0])
        top = top_exponent(family, unit_tangent(omega, x, v), n, batches)
        return {
            "omega": omega.describe(), "x": list(x.coords), "pair": pair,
            "angle": pair.angle, "residual": residual,
            "rate1": rate1, "rate1_se": rate1_se,
            "rate2": rate2, "rate2_se": rate2_se,
            "top_exponent": top.value, "top_se": top.batch_std_err,
            "logs1": logs1[:depth].copy(),  # not a view of all n steps
            "logs2": logs2[:depth].copy(),
        }

    from ._parallel import deterministic_map
    recs = deterministic_map(one, range(samples), threads)

    angle_min = min(r["angle"] for r in recs)
    residual_max = max(r["residual"] for r in recs)
    min_rate = min(min(r["rate1"], r["rate2"]) for r in recs)
    lam = 0.5 * min_rate

    details = {"horizon": horizon, "n": n, "samples": samples,
               "rate1_mean": float(np.mean([r["rate1"] for r in recs])),
               "rate2_mean": float(np.mean([r["rate2"] for r in recs]))}
    per_sample = []
    c_samples = []
    for r in recs:
        if lam > 0.0:
            c1 = math.exp(_truncated_log_inf(r["logs1"], lam, depth))
            c2 = math.exp(_truncated_log_inf(r["logs2"], lam, depth))
        else:
            c1 = c2 = math.nan
        c_samples.append((r["omega"], c1, c2))
        per_sample.append({k: r[k] for k in
                           ("omega", "x", "angle", "residual", "rate1",
                            "rate1_se", "rate2", "rate2_se", "top_exponent",
                            "top_se")})
    details["per_sample"] = per_sample

    if lam > 0.0:
        vals1, vals2 = _bundle_constant_curve(family, omegas[0], lam,
                                              curve_len, horizon, depth)
        details["c1_curve"] = [float(v) for v in vals1]
        details["c2_curve"] = [float(v) for v in vals2]

    certified = (lam > 0.0 and residual_max < 1e-6 and angle_min > 0.0
                 and batches >= 2  # one batch gives no error bar
                 and all(r["rate1"] > 3.0 * r["rate1_se"]
                         and r["rate2"] > 3.0 * r["rate2_se"] for r in recs))
    verdict = "certified" if certified else "inconclusive"
    return SplittingCertificate(lam=lam, c_samples=tuple(c_samples),
                                angle_min=angle_min,
                                invariance_residual_max=residual_max,
                                verdict=verdict, details=details)
