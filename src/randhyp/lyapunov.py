"""Fibrewise Lyapunov exponent estimators.

Top exponent from incrementally renormalized Birkhoff averages of the
log-stretch observable, full spectrum from one pushed direction and the
log-determinant, and a positivity sweep over sampled base points and fiber
points.  Error bars are batch-mean standard errors, not rigorous bounds.
"""

import math

import numpy as np

from ._record import Record
from .base import random_point, sample_base
from .cocycle import orbit_log_stretches, push_log_stretches, torus_log_growth
from .errors import ContractError
from .fibers import LinearTorusFamily, ManifoldPoint

DEFAULT_BATCHES = 20


class ExponentEstimate(Record):
    """Single-direction exponent estimate in nats per step."""

    value: float
    n: int
    batch_std_err: float
    batches: int


class SpectrumEstimate(Record):
    """All exponents at one (base point, fiber point), sorted ascending."""

    exponents: tuple
    n: int


def std_err(values):
    """Standard error of the mean along the last axis, a float for 1-d (nested
    lists for more); 0.0 for a single value, which has no error bar.  Rows are
    reduced C-contiguous: each has its 1-d call's bits, whatever the layout."""
    k = values.shape[-1]
    se = (np.ascontiguousarray(values).std(ddof=1, axis=-1) / math.sqrt(k) if k > 1
          else np.zeros(values.shape[:-1]))
    return se.tolist()


def clears_error_bar(mean, se, count):
    """The gate on every estimated rate: 2+ samples or batches (one has no
    error bar) and the mean above 3 standard errors, hence positive."""
    return count >= 2 and mean > 3.0 * se


def _batch_cuts(n, batches):
    """The step counts that end each of `batches` batches of n // batches
    steps; the steps past the last one are not read."""
    return n // batches * np.arange(1, batches + 1)


def _batch_stats(growth, size):
    """Mean and batch-mean standard error from the log growth at the
    `_batch_cuts` of batches of `size` steps, along the last axis (as
    `std_err` returns them)."""
    means = np.diff(growth, prepend=0.0) / size
    return (growth[..., -1] / (growth.shape[-1] * size)).tolist(), std_err(means)


def top_exponent(family, p, n, batches=DEFAULT_BATCHES):
    """Exponent of the direction v: (1/n) log |D phi^{(n)} v|, renormalized.

    The steps are grouped into `batches` contiguous batches (a torus family
    reads its log growth at their ends); the reported error bar is the
    standard error of the batch means.
    """
    if not (n >= batches >= 1):
        raise ContractError("need n >= batches >= 1")
    cuts = _batch_cuts(n, batches)
    if isinstance(family, LinearTorusFamily):
        value, se = _batch_stats(torus_log_growth(family, p, cuts), n // batches)
    else:   # per-step batch means: equal log-derivatives give a zero error bar
        logs = orbit_log_stretches(family, p, int(cuts[-1]))
        value, se = float(logs.mean()), std_err(logs.reshape(batches, -1).mean(axis=1))
    return ExponentEstimate(value=value, n=int(cuts[-1]), batch_std_err=se, batches=batches)


def oseledets_spectrum(family, omega, x, n):
    """All fibrewise exponents, sorted ascending.

    On the torus (every 2-dimensional family is linear) s1 is the log
    growth of e1 over the n steps (`cocycle.push_log_stretches`) and s2 =
    sum of log |det A_i| - s1, so the bookkeeping identity sum(exponents) =
    (1/n) sum of log |det| holds by construction.
    """
    if n < family.manifold_dim:
        raise ContractError("n must be at least the manifold dimension")
    if family.manifold_dim == 1:
        logs = family.orbit_log_derivs(omega, x.x, n)
        return SpectrumEstimate(exponents=(float(logs.mean()),), n=n)
    idx = family.params_along([omega], n)
    return _torus_spectrum(push_log_stretches(family.matrices, idx, ((1.0, 0.0),), [n])[0, 0],
                           family.log_dets[idx[0]])


def _torus_spectrum(s1, log_dets):
    """Spectrum from e1's log growth s1 over n steps and their log |det A_i|."""
    n, s1, logdet = len(log_dets), float(s1), float(log_dets.sum())
    return SpectrumEstimate(tuple(sorted((s1 / n, (logdet - s1) / n))), n)


def exponent_positivity_report(family, spec, seed, samples, n, spectra=None):
    """Spectra at sampled (base point, fiber point) pairs.

    Returns a JSON-ready dict with the minimum estimated exponent, the
    fraction of samples whose exponents are all positive, and the sample
    attaining the minimum: the lowest index whose smallest exponent lies
    within 1e-12 * max(1, |minimum|) of the minimum, so exponents that tie
    up to rounding pick the first sample.  `spectra` (the splitting
    certificate's, at the same pairs) are read instead of recomputed.
    """
    if samples < 1:
        raise ContractError("samples must be >= 1")
    if n < family.manifold_dim:
        raise ContractError("n must be at least the manifold dimension")
    per_sample = []
    points = random_point(seed, range(samples), family.manifold_dim)
    for i, omega in enumerate(sample_base(spec, seed, samples)):
        x = ManifoldPoint(points[i])
        est = spectra[i] if spectra else oseledets_spectrum(family, omega, x, n)
        per_sample.append({"sample": i, "omega": omega.describe(),
                           "x": list(x.coords), "exponents": list(est.exponents)})

    lows = [min(rec["exponents"]) for rec in per_sample]
    min_val = min(lows)
    tol = 1e-12 * max(1.0, abs(min_val))
    return {
        "min_exponent": min_val,
        "fraction_positive": sum(all(e > 0.0 for e in rec["exponents"])
                                 for rec in per_sample) / samples,
        "argmin_sample": next(i for i, low in enumerate(lows)
                              if low <= min_val + tol),
        "n": n,
        "samples": samples,
        "per_sample": per_sample,
        "spectrum_first_sample": list(per_sample[0]["exponents"]),
    }
