"""Fibrewise Lyapunov exponent estimators.

Top exponent from incrementally renormalized Birkhoff averages of the
log-stretch observable, full spectrum from per-step Gram-Schmidt
reorthonormalization of a pushed frame, and a positivity sweep over
sampled base points and fiber points.  Error bars are batch-mean standard
errors, not rigorous bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import random_point, sample_base
from .errors import ContractError
from .fibers import LinearTorusFamily, ManifoldPoint

DEFAULT_BATCHES = 20


@dataclass(frozen=True)
class ExponentEstimate:
    """Single-direction exponent estimate in nats per step."""

    value: float
    n: int
    batch_std_err: float
    batches: int


@dataclass(frozen=True)
class SpectrumEstimate:
    """All exponents at one (base point, fiber point), sorted ascending."""

    exponents: tuple
    n: int


def _batch_stats(per_step, batches):
    """Mean and batch-mean standard error of a per-step series."""
    n = len(per_step)
    blen = n // batches
    used = blen * batches
    means = per_step[:used].reshape(batches, blen).mean(axis=1)
    value = float(per_step[:used].mean())
    if batches > 1:
        se = float(means.std(ddof=1) / math.sqrt(batches))
    else:
        se = 0.0
    return value, se, used


def _per_step_stretches(family, p, n):
    """Per-step log-stretch of v along the orbit, parameters read once."""
    if isinstance(family, LinearTorusFamily):
        return _push_entries(family.entries,
                            family.matrix_indices(p.omega, n), p.v)
    return family.orbit_log_derivs(p.omega, p.x.x, n)


def _push_entries(entries, idx, v):
    """Renormalized per-step log stretches of v through a matrix sequence."""
    v0, v1 = float(v[0]), float(v[1])
    out = np.empty(len(idx))
    sqrt, log = math.sqrt, math.log
    for i, j in enumerate(idx):
        a00, a01, a10, a11 = entries[j]
        w0 = a00 * v0 + a01 * v1
        w1 = a10 * v0 + a11 * v1
        norm = sqrt(w0 * w0 + w1 * w1)
        out[i] = log(norm)
        v0, v1 = w0 / norm, w1 / norm
    return out


def top_exponent(family, p, n, batches=DEFAULT_BATCHES):
    """Exponent of the direction v: (1/n) log |D phi^{(n)} v|, renormalized.

    The per-step stretches are grouped into `batches` contiguous batches;
    the reported error bar is the standard error of the batch means.
    """
    if not (n >= batches >= 1):
        raise ContractError("need n >= batches >= 1")
    stretches = _per_step_stretches(family, p, n)
    value, se, used = _batch_stats(stretches, batches)
    return ExponentEstimate(value=value, n=used, batch_std_err=se, batches=batches)


def _spectrum_2d(family, omega, n):
    """Per-step Gram-Schmidt on a pushed orthonormal frame (closed form 2x2).

    Every 2-dimensional family is a linear torus family.
    """
    mats = family.entries
    q00, q01 = 1.0, 0.0
    q10, q11 = 0.0, 1.0
    s1 = 0.0
    s2 = 0.0
    sqrt, log = math.sqrt, math.log
    for j in family.matrix_indices(omega, n):
        a00, a01, a10, a11 = mats[j]
        w00 = a00 * q00 + a01 * q10
        w10 = a10 * q00 + a11 * q10
        w01 = a00 * q01 + a01 * q11
        w11 = a10 * q01 + a11 * q11
        r11 = sqrt(w00 * w00 + w10 * w10)
        q00, q10 = w00 / r11, w10 / r11
        r12 = q00 * w01 + q10 * w11
        u0, u1 = w01 - r12 * q00, w11 - r12 * q10
        r22 = sqrt(u0 * u0 + u1 * u1)
        q01, q11 = u0 / r22, u1 / r22
        s1 += log(r11)
        s2 += log(r22)
    lams = sorted((s1 / n, s2 / n))
    return SpectrumEstimate(exponents=(lams[0], lams[1]), n=n)


def oseledets_spectrum(family, omega, x, n):
    """All fibrewise exponents via reorthonormalized derivative products.

    Exponents are sorted ascending.  The bookkeeping identity sum(exponents)
    = (1/n) sum of log |det| along the orbit holds exactly for the scheme.
    """
    if n < family.manifold_dim:
        raise ContractError("n must be at least the manifold dimension")
    if family.manifold_dim == 1:
        logs = family.orbit_log_derivs(omega, x.x, n)
        return SpectrumEstimate(exponents=(float(logs.mean()),), n=n)
    return _spectrum_2d(family, omega, n)


def exponent_positivity_report(family, spec, seed, samples, n, threads=1):
    """Spectra at sampled (base point, fiber point) pairs.

    Returns a JSON-ready dict with the minimum estimated exponent, the
    fraction of samples whose exponents are all positive, and the sample
    attaining the minimum.
    """
    if samples < 1:
        raise ContractError("samples must be >= 1")
    omegas = sample_base(spec, seed, samples)

    def one(i):
        x = ManifoldPoint(random_point(seed, i, family.manifold_dim))
        est = oseledets_spectrum(family, omegas[i], x, n)
        return {
            "sample": i,
            "omega": omegas[i].describe(),
            "x": list(x.coords),
            "exponents": list(est.exponents),
        }

    from ._parallel import deterministic_map
    per_sample = deterministic_map(one, range(samples), threads)

    min_val = math.inf
    argmin = None
    positive = 0
    for rec in per_sample:
        low = min(rec["exponents"])
        if low < min_val:
            min_val = low
            argmin = rec["sample"]
        if all(e > 0.0 for e in rec["exponents"]):
            positive += 1
    return {
        "min_exponent": min_val,
        "fraction_positive": positive / samples,
        "argmin_sample": argmin,
        "n": n,
        "samples": samples,
        "per_sample": per_sample,
    }
