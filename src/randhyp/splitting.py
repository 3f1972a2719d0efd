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

from .base import base_step, random_point, sample_base
from .cocycle import push_log_stretches, unit_direction, window_products
from .errors import ContractError, UnsupportedOperationError
from .expansion import truncated_infimum
from .fibers import LinearTorusFamily, ManifoldPoint
from .lyapunov import _batch_stats

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


def _windows(family, omega, groups):
    """For each (ks, h) in `groups`, (len(ks), h) index windows `back`
    (T^{k-1} w, ..., T^{k-h} w) and `fwd` (T^k w, ..., T^{k+h-1} w), one
    row per offset k, cut from one read of the positions they cover."""
    lo = int(max(h - min(ks) for ks, h in groups))
    hi = int(max(max(ks) + h for ks, h in groups))
    stream = np.concatenate([family.matrix_indices_back(omega, lo)[::-1],
                             family.matrix_indices(omega, hi)])
    out = []
    for ks, h in groups:
        rows = (np.asarray(ks) + lo)[:, None] + np.arange(h)
        out.append((stream[rows - h][:, ::-1], stream[rows]))
    return out


def _bundle_pairs(family, back, fwd):
    """`finite_time_bundles` of each row of (B, h) `_windows`."""
    u, _, _ = np.linalg.svd(window_products(family.matrices, back, left=False))
    _, _, vh = np.linalg.svd(window_products(family.matrices, fwd))
    pairs = []
    for g1, g2 in zip(vh[:, -1], u[:, :, 0]):
        g1, g2 = unit_direction(g1), unit_direction(g2)
        pairs.append(BundlePair(tuple(g1.tolist()), tuple(g2.tolist()),
                                back.shape[1],
                                math.acos(min(1.0, abs(float(g1 @ g2))))))
    return pairs


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
    return _bundle_pairs(family, *_windows(family, omega, [((0,), horizon)])[0])[0]


def _sin_angle(u, w):
    u = u / np.linalg.norm(u)
    w = w / np.linalg.norm(w)
    return abs(float(u[0] * w[1] - u[1] * w[0]))


def _residual(a, pair, nxt):
    return max(_sin_angle(a @ np.asarray(pair.gamma1), np.asarray(nxt.gamma1)),
               _sin_angle(a @ np.asarray(pair.gamma2), np.asarray(nxt.gamma2)))


def invariance_residual(family, omega, x, pair):
    """max over both bundles of sin(angle(A gamma_i(w), gamma_i(T w)))."""
    _require_linear_2d(family)
    nxt = finite_time_bundles(family, base_step(omega), x, pair.horizon)
    return _residual(family.matrix(omega), pair, nxt)


def _bundle_logs(family, gamma1, vs, back, fwd):
    """Per-step log stretches: gamma1 rows through the inverse cocycle along
    `back` (indices in backward order), the rows of `vs` forward along `fwd`."""
    logs = push_log_stretches(family.entries + family.inverse_entries,
                              np.concatenate([back + len(family.entries), fwd]),
                              np.concatenate([gamma1, vs]))
    return logs[:len(back)], logs[len(back):]


def _truncated_log_inf(logs, lam, depth):
    """log C from the first `depth` per-step log stretches, per row."""
    return truncated_infimum(np.cumsum(logs[..., :depth], axis=-1), lam)[0]


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
    (logs1,), (logs2,) = _bundle_logs(family, [pair.gamma1], [pair.gamma2],
                                      *_windows(family, omega, [((0,), n)])[0])
    rate1, rate2 = float(logs1.mean()), float(logs2.mean())
    if lam is None:
        lam = 0.5 * min(rate1, rate2)
    if lam <= 0.0:
        return BundleRates(rate1, rate2, math.nan, math.nan, lam)
    c1 = math.exp(_truncated_log_inf(logs1, lam, depth))
    c2 = math.exp(_truncated_log_inf(logs2, lam, depth))
    return BundleRates(rate1, rate2, c1, c2, lam)


def _bundle_constant_curve(family, omega, lam, curve_len, horizon, depth):
    """(1/k) log C_i(T^k w) for both bundle constants along the orbit, all
    offsets k = 1..curve_len in one batch."""
    ks = np.arange(1, curve_len + 1)
    bundles, pushes = _windows(family, omega, [(ks, horizon), (ks, depth)])
    pairs = _bundle_pairs(family, *bundles)
    logs1, logs2 = _bundle_logs(family, [p.gamma1 for p in pairs],
                                [p.gamma2 for p in pairs], *pushes)
    return (_truncated_log_inf(logs1, lam, depth) / ks,
            _truncated_log_inf(logs2, lam, depth) / ks)


def hyperbolicity_certificate(family, spec, seed, samples, horizon, n,
                              depth=DEFAULT_DEPTH, curve_len=200, batches=20):
    """Aggregate splitting evidence over sampled base points.

    Per sample: finite-time bundles, principal angle, invariance residual,
    per-bundle rates with batch standard errors, an independent top-exponent
    estimate, and tempered constants at the global rate lam (half the worst
    measured rate).  Certified requires residuals below 1e-6, positive
    angles, and every rate above 3 batch standard errors (2+ batches).
    Each sample reads its index stream once and pushes its three directions
    in one call, with the values of the public per-sample functions.
    """
    _require_linear_2d(family)
    if horizon < 2:
        raise ContractError("horizon must be >= 2")
    if not (n >= batches >= 1):
        raise ContractError("need n >= batches >= 1")
    omegas = sample_base(spec, seed, samples)
    recs, heads = [], []    # per-sample payload, first `depth` log stretches
    for i, omega in enumerate(omegas):
        x = ManifoldPoint(random_point(seed, i, 2))
        v = np.asarray(random_point(seed, samples + i, 2)) - 0.5
        if np.linalg.norm(v) < 1e-9:
            v = np.array([1.0, 0.0])
        # positions -max(n, horizon) .. max(n, horizon + 1) - 1
        bundles, (back, fwd) = _windows(family, omega,
                                        [((0, 1), horizon), ((0,), n)])
        pair, nxt = _bundle_pairs(family, *bundles)
        # gamma1 backwards; gamma2 and the top-exponent vector forwards
        (logs1,), (logs2, logs_top) = _bundle_logs(
            family, [pair.gamma1], [pair.gamma2, v / np.linalg.norm(v)],
            back, fwd[[0, 0]])
        rate1, rate1_se, _ = _batch_stats(logs1, batches)
        rate2, rate2_se, _ = _batch_stats(logs2, batches)
        top, top_se, _ = _batch_stats(logs_top, batches)
        recs.append({
            "omega": omega.describe(), "x": list(x.coords), "angle": pair.angle,
            "residual": _residual(family.matrices[fwd[0, 0]], pair, nxt),
            "rate1": rate1, "rate1_se": rate1_se,
            "rate2": rate2, "rate2_se": rate2_se,
            "top_exponent": top, "top_se": top_se,
        })
        heads.append(np.array([logs1[:depth], logs2[:depth]]))

    angle_min = min(r["angle"] for r in recs)
    residual_max = max(r["residual"] for r in recs)
    min_rate = min(min(r["rate1"], r["rate2"]) for r in recs)
    lam = 0.5 * min_rate

    details = {"horizon": horizon, "n": n, "samples": samples,
               "rate1_mean": float(np.mean([r["rate1"] for r in recs])),
               "rate2_mean": float(np.mean([r["rate2"] for r in recs]))}
    log_cs = (_truncated_log_inf(np.array(heads), lam, depth) if lam > 0.0
              else np.full((samples, 2), math.nan))
    c_samples = [(r["omega"], math.exp(c1), math.exp(c2))
                 for r, (c1, c2) in zip(recs, log_cs.tolist())]
    details["per_sample"] = recs

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
