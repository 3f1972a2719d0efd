"""Orbit iteration, chain-rule derivative products, and the projectivized
tangent dynamics on the unit tangent bundle.

The induced map on (base state, point, unit vector) steps the base, pushes
the point through the fiber map, and renormalizes the image of the tangent
vector; its per-step log-stretch is the observable whose Birkhoff sums
telescope to the log norm of the full derivative product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import base_step
from .errors import CocycleOverflowError, ContractError
from .fibers import ManifoldPoint

_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class CocycleMatrix:
    """Derivative of an n-step fiber composition (m x m)."""

    entries: np.ndarray
    n: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", e)
        if e.shape[0] != e.shape[1]:
            raise ContractError("cocycle matrices must be square")
        # Nonsingularity is checkable only on single Jacobians; determinants
        # of long products cancel catastrophically in floats even though the
        # factors are all nonsingular.
        if self.n == 1 and abs(np.linalg.det(e)) == 0.0:
            raise ContractError("cocycle matrices of local diffeomorphisms are nonsingular")

    @property
    def dim(self):
        return self.entries.shape[0]

    def apply(self, v):
        return self.entries @ np.asarray(v, dtype=np.float64)

    def norm_of_image(self, v):
        return float(np.linalg.norm(self.apply(v)))


@dataclass(frozen=True)
class UnitTangentPoint:
    """Point of the unit tangent bundle over the skew product."""

    omega: object
    x: ManifoldPoint
    v: tuple

    def __post_init__(self):
        v = tuple(float(c) for c in self.v)
        norm = math.sqrt(sum(c * c for c in v))
        if abs(norm - 1.0) > 1e-12:
            raise ContractError(f"tangent vector must be unit length, |v| = {norm}")
        if len(v) != self.x.dim:
            raise ContractError("tangent vector dimension must match the point")
        object.__setattr__(self, "v", v)


def unit_tangent(omega, x, v):
    """Build a unit tangent point, normalizing v."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ContractError("tangent vector must be nonzero")
    return UnitTangentPoint(omega, x, tuple(v / norm))


def unit_direction(v):
    """Unit v, signed so that its first nonzero coordinate is positive."""
    v = v / np.linalg.norm(v)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return -v
    return v


def iterate(family, omega, x, n):
    """Forward orbit (x, phi(x), ..., phi^{(n)}(x)); entry 0 is x itself."""
    if n < 0:
        raise ContractError("n must be >= 0")
    out = [x]
    coords = x.coords
    for p in family.params_along(omega, n).tolist():
        coords = family.apply_at(p, coords)
        out.append(ManifoldPoint(coords))
    return out


def cocycle_product(family, omega, x, n):
    """n-step derivative product along the orbit, as a raw matrix.

    Raw products overflow quickly; entries beyond 1e300 raise, pointing to
    the log-space estimators which never form the product.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    m = family.manifold_dim
    prod = np.eye(m)
    coords = x.coords
    for p in family.params_along(omega, n).tolist():
        jac = np.asarray(family.jacobian_at(p, coords), dtype=np.float64)
        prod = jac @ prod
        if np.max(np.abs(prod)) > _OVERFLOW_LIMIT:
            raise CocycleOverflowError(
                "derivative product exceeded 1e300; use the log-space "
                "estimators (top_exponent, birkhoff_sum_phi) instead")
        coords = family.apply_at(p, coords)
    return CocycleMatrix(prod, n)


def _step_raw(family, p, coords, v):
    """One projectivized tangent step at parameter p; returns log-stretch too."""
    jac = family.jacobian_at(p, coords)
    m = len(v)
    if m == 1:
        w0 = jac[0][0] * v[0]
        norm = abs(w0)
        w = (w0 / norm,)
    else:
        w0 = jac[0][0] * v[0] + jac[0][1] * v[1]
        w1 = jac[1][0] * v[0] + jac[1][1] * v[1]
        norm = math.sqrt(w0 * w0 + w1 * w1)
        w = (w0 / norm, w1 / norm)
    return family.apply_at(p, coords), w, math.log(norm)


def unit_tangent_step(family, p):
    """One step of the induced tangent map; the output vector is unit."""
    coords, v, _ = _step_raw(family, family.param_at(p.omega), p.x.coords, p.v)
    return UnitTangentPoint(base_step(p.omega), ManifoldPoint(coords), v)


def phi(family, p):
    """log |D_x phi_w (v)| at a unit tangent point."""
    return _step_raw(family, family.param_at(p.omega), p.x.coords, p.v)[2]


def birkhoff_sum_phi(family, p, n):
    """Sum of the log-stretch observable along n tangent steps.

    Telescopes to log |D_x phi^{(n)} v|, with renormalization every step so
    arbitrarily long orbits stay in range.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    total = 0.0
    for logstretch in orbit_log_stretches(family, p, n).tolist():
        total += logstretch
    return total


def orbit_log_stretches(family, p, n):
    """Per-step log-stretch array along the tangent orbit (length n)."""
    coords, v = p.x.coords, p.v
    out = np.empty(n)
    for i, q in enumerate(family.params_along(p.omega, n).tolist()):
        coords, v, out[i] = _step_raw(family, q, coords, v)
    return out
