"""Fiber map families on the circle and the 2-torus.

Each family maps a base state to a concrete map with an exact analytic
Jacobian and certified global derivative bounds.  Parameters depend on the
base state only through the symbol at position 0 (or the rotation angle),
so measurability in the base variable is immediate, and along an orbit
they form one stream, `params_along(omega, n)`, read off `base_drive`.

Catalog:
  doubling            x -> 2x mod 1 (deterministic)
  perturbed-doubling  x -> 2x + eps(w) sin(2 pi x) mod 1, eps(w) in [0, eps_max]
  bernoulli-linear    x -> d(w) x mod 1, d(w) from a finite multiplier set
  diagonal-cocycle    torus map with matrix diag(a(w), b(w))
  random-cat          torus map with a unimodular integer matrix per symbol
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import rotation_angles, symbol_window
from .errors import ConfigurationError, ContractError, UnsupportedOperationError

_TWO_PI = 2.0 * math.pi
_SEAM_SNAP = 1e-15


def mod1(x):
    """Reduce to [0,1); values within 1e-15 of the seam snap to 0."""
    y = x - math.floor(x)
    if y >= 1.0 - _SEAM_SNAP:
        return 0.0
    return y


def mod1_array(x):
    y = x - np.floor(x)
    y[y >= 1.0 - _SEAM_SNAP] = 0.0
    return y


@dataclass(frozen=True)
class ManifoldPoint:
    """Point of the flat circle (dim 1) or 2-torus, coordinates in [0,1)."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(mod1(float(c)) for c in self.coords))

    @property
    def dim(self):
        return len(self.coords)

    @property
    def x(self):
        return self.coords[0]


def point(*coords):
    if isinstance(coords[0], (tuple, list, np.ndarray)) and len(coords) == 1:
        coords = tuple(coords[0])
    return ManifoldPoint(tuple(float(c) for c in coords))


def base_drive(omega, lo, hi, choices=None):
    """Driving values of the base orbit at positions lo..hi-1 (relative).

    The one place where fiber parameters are read off the base.  A rotation
    drives with its angle (`rotation_angles`), a shift with its symbol, the
    one-point base with 0.  With `choices` = m the value is an index in
    range(m) picking one of m parameter values; without, it is a continuous
    drive in [0, 1] (a symbol s counts as s / (alphabet_size - 1)).
    """
    n = hi - lo
    if omega.kind == "dirac" or choices == 1:
        return np.zeros(n, dtype=np.float64 if choices is None else np.int64)
    if omega.kind == "rotation":
        angles = rotation_angles(omega, lo, hi)
        if choices is None:
            return angles
        return (angles * choices).astype(np.int64) % choices
    if choices is not None:
        return symbol_window(omega, lo, hi) % choices
    a = omega.spec.alphabet_size
    if a <= 1:
        return np.zeros(n)
    return symbol_window(omega, lo, hi).astype(np.float64) / (a - 1)


class FiberFamily:
    """Common surface of all catalog families.

    Families are immutable; every operation is pure.  A family reads the
    base only through `params_along(omega, n)`, its per-step parameters at
    orbit positions 0..n-1; the point-level maps `apply_at` and
    `jacobian_at` take one such parameter.  `linear` means the derivative
    does not depend on the manifold point, in which case all minimizations
    over the fiber are exact and need no grid.
    """

    family_id = None
    manifold_dim = 1
    invertible = False
    expanding = False
    linear = False

    # -- analytic bounds ---------------------------------------------------
    sup_dphi = None            # global bound on |D phi|
    sup_dphi_inv = None        # global bound on |D phi^{-1}|
    log_deriv_lipschitz = 0.0  # Lipschitz constant of x -> log|D_x phi (v)|

    def params(self):
        return {}

    def describe(self):
        return {"family": self.family_id, "params": self.params()}

    def params_along(self, omega, n):
        """Per-step parameters at orbit positions 0..n-1, as one array."""
        raise NotImplementedError

    # Point-level operations on raw coordinate tuples, at one parameter.
    def apply_at(self, p, coords):
        raise NotImplementedError

    def jacobian_at(self, p, coords):
        """Jacobian as a tuple of rows."""
        raise NotImplementedError

    def param_at(self, omega):
        """The parameter at omega: the n = 1 case of `params_along`."""
        return self.params_along(omega, 1).tolist()[0]

    def apply_raw(self, omega, coords):
        return self.apply_at(self.param_at(omega), coords)

    def jacobian_raw(self, omega, coords):
        return self.jacobian_at(self.param_at(omega), coords)

    def inverse_raw(self, omega, coords):
        raise UnsupportedOperationError(
            f"{self.family_id} is a covering map; no global inverse exists")


class CircleFamily(FiberFamily):
    """Scalar fiber maps of the circle.

    Each family writes its map once, as a monotone lift `lift(p, x, xp)`
    and its derivative `deriv(p, x, xp)`; `xp` is the array namespace, numpy
    for grid sweeps and `math` for single orbits, so both evaluate the same
    expression.  `min_deriv_x` is a fiber point where |D phi| is smallest
    for every parameter.
    """

    manifold_dim = 1
    min_deriv_x = 0.0

    def lift(self, p, x, xp=math):
        raise NotImplementedError

    def deriv(self, p, x, xp=math):
        raise NotImplementedError

    def apply(self, p, x, xp=math):
        y = self.lift(p, x, xp)
        return mod1(y) if xp is math else mod1_array(y)

    def log_deriv(self, p, x, xp=math):
        return xp.log(self.deriv(p, x, xp))

    def degree(self, p):
        """Degree of the map at parameter p: lift(1) - lift(0), an integer."""
        d = self.lift(p, 1.0) - self.lift(p, 0.0)
        k = round(d)
        if abs(d - k) > 1e-9:
            raise UnsupportedOperationError(
                "periodic-orbit search needs integer multipliers")
        return k

    def apply_at(self, p, coords):
        return (self.apply(p, coords[0]),)

    def jacobian_at(self, p, coords):
        return ((self.deriv(p, coords[0]),),)

    def orbit_log_derivs(self, omega, x0, n):
        """log|D phi| at each of n steps of the orbit of x0."""
        ps = self.params_along(omega, n)
        if self.linear:
            return self.log_deriv(ps, x0, np)
        out = np.empty(n)
        x = float(x0)
        apply, log_deriv = self.apply, self.log_deriv
        for i, p in enumerate(ps.tolist()):
            out[i] = log_deriv(p, x)
            x = apply(p, x)
        return out


class PerturbedDoubling(CircleFamily):
    """x -> 2x + eps(w) sin(2 pi x), eps(w) = eps_max * drive(w).

    eps_max < 1/(2 pi) keeps every realization an expanding local
    diffeomorphism.  The log-derivative Lipschitz bound is the conservative
    envelope 4 pi^2 eps_max / (2 - 2 pi eps_max), sound for all w.
    """

    family_id = "perturbed-doubling"
    expanding = True
    linear = False
    min_deriv_x = 0.5

    def __init__(self, eps_max=0.1):
        if not (0.0 <= eps_max < 1.0 / _TWO_PI):
            raise ConfigurationError(
                f"eps_max must lie in [0, 1/(2 pi)) to stay expanding, got {eps_max}")
        self.eps_max = float(eps_max)
        self.sup_dphi = 2.0 + _TWO_PI * self.eps_max
        self.sup_dphi_inv = 1.0 / (2.0 - _TWO_PI * self.eps_max)
        self.log_deriv_lipschitz = (4.0 * math.pi ** 2 * self.eps_max
                                    / (2.0 - _TWO_PI * self.eps_max))

    def params(self):
        return {"eps_max": self.eps_max}

    def params_along(self, omega, n):
        """eps at each step."""
        return self.eps_max * base_drive(omega, 0, n)

    def lift(self, p, x, xp=math):
        return 2.0 * x + p * xp.sin(_TWO_PI * x)

    def deriv(self, p, x, xp=math):
        return 2.0 + _TWO_PI * p * xp.cos(_TWO_PI * x)


class BernoulliLinear(CircleFamily):
    """x -> d(w) x mod 1 with the multiplier chosen by the symbol at 0.

    Integer multipliers > 1 are genuine expanding circle maps; arbitrary
    positive values are accepted for rate (cocycle) experiments where only
    the derivative matters.
    """

    family_id = "bernoulli-linear"
    linear = True

    def __init__(self, values=(2.0, 3.0)):
        vals = tuple(float(v) for v in values)
        if not vals or any(v <= 0 for v in vals):
            raise ConfigurationError("multipliers must be positive")
        self.values = vals
        self.expanding = min(vals) > 1.0
        self.sup_dphi = max(vals)
        self.sup_dphi_inv = 1.0 / min(vals)
        self.log_deriv_lipschitz = 0.0

    def params(self):
        return {"values": list(self.values)}

    def params_along(self, omega, n):
        """Multiplier at each step."""
        return np.asarray(self.values)[base_drive(omega, 0, n, len(self.values))]

    def lift(self, p, x, xp=math):
        return p * x

    def deriv(self, p, x, xp=math):
        return p


class Doubling(BernoulliLinear):
    """Angle doubling; constant derivative 2, pairs with the one-point base."""

    family_id = "doubling"

    def __init__(self):
        super().__init__((2.0,))

    def params(self):
        return {}


class LinearTorusFamily(FiberFamily):
    """Torus maps x -> A(w) x mod 1 with the matrix chosen by the symbol.

    The parameter of a step is the index of its matrix.  The derivative is
    the constant matrix A(w), so fiber minimizations are exact
    singular-value computations.  Point-level inversion is supported
    exactly when every matrix is an integer unimodular matrix (a torus
    automorphism).
    """

    manifold_dim = 2
    linear = True

    def __init__(self, matrices):
        mats = [np.asarray(m, dtype=np.float64).reshape(2, 2) for m in matrices]
        if not mats:
            raise ConfigurationError("at least one matrix is required")
        for m in mats:
            if abs(np.linalg.det(m)) < 1e-14:
                raise ConfigurationError("matrices must be nonsingular")
        self.matrices = tuple(m.copy() for m in mats)
        for m in self.matrices:
            m.setflags(write=False)
        # entries as plain float tuples (a00, a01, a10, a11), for scalar loops
        self.entries = _entry_tuples(mats)
        self.inverse_entries = _entry_tuples(np.linalg.inv(m) for m in mats)
        svals = [np.linalg.svd(m, compute_uv=False) for m in mats]
        self.sup_dphi = max(float(s[0]) for s in svals)
        self.sup_dphi_inv = max(1.0 / float(s[-1]) for s in svals)
        self.log_deriv_lipschitz = 0.0
        self.expanding = min(float(s[-1]) for s in svals) > 1.0
        self.invertible = all(
            np.allclose(m, np.round(m)) and abs(abs(np.linalg.det(m)) - 1.0) < 1e-12
            for m in mats)

    def params_along(self, omega, n):
        return self.matrix_indices(omega, n)

    def matrix_indices(self, omega, n):
        """Matrix index along the forward orbit w, Tw, ..., T^{n-1}w."""
        return base_drive(omega, 0, n, len(self.matrices))

    def matrix_indices_back(self, omega, n):
        """Matrix index along the backward orbit T^{-1}w, ..., T^{-n}w."""
        return base_drive(omega, -n, 0, len(self.matrices))[::-1]

    def matrix(self, omega):
        return self.matrices[self.param_at(omega)]

    def apply_at(self, p, coords):
        return _apply_entries(self.entries[p], coords)

    def jacobian_at(self, p, coords):
        a00, a01, a10, a11 = self.entries[p]
        return ((a00, a01), (a10, a11))

    def inverse_raw(self, omega, coords):
        if not self.invertible:
            raise UnsupportedOperationError(
                f"{self.family_id} matrices are not torus automorphisms")
        return _apply_entries(self.inverse_entries[self.param_at(omega)], coords)


def _entry_tuples(mats):
    return tuple((float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))
                 for m in mats)


def _apply_entries(entries, coords):
    a00, a01, a10, a11 = entries
    x0, x1 = coords
    return (mod1(a00 * x0 + a01 * x1), mod1(a10 * x0 + a11 * x1))


class DiagonalCocycle(LinearTorusFamily):
    """Matrices diag(a(w), b(w)); axes stay invariant."""

    family_id = "diagonal-cocycle"

    def __init__(self, a_values=(2.0,), b_values=(3.0,)):
        a_vals = tuple(float(v) for v in a_values)
        b_vals = tuple(float(v) for v in b_values)
        if len(a_vals) != len(b_vals):
            raise ConfigurationError("a_values and b_values must have equal length")
        if any(v <= 0 for v in a_vals + b_vals):
            raise ConfigurationError("diagonal entries must be positive")
        super().__init__([np.diag([a, b]) for a, b in zip(a_vals, b_vals)])
        self.a_values = a_vals
        self.b_values = b_vals
        # the entries are the singular values; LAPACK's SVD can miss them by
        # an ulp, e.g. 730503.9374999999 for diag(642308.1945317535, 730503.9375)
        self.sup_dphi = max(a_vals + b_vals)
        self.sup_dphi_inv = 1.0 / min(a_vals + b_vals)
        self.expanding = min(a_vals + b_vals) > 1.0

    def params(self):
        return {"a_values": list(self.a_values), "b_values": list(self.b_values)}


class RandomCat(LinearTorusFamily):
    """Unimodular integer matrices (torus automorphisms) chosen per symbol.

    Each matrix need not be hyperbolic on its own: parabolic matrices such
    as [[1, 1], [0, 1]] are accepted, and random products of them can still
    be hyperbolic.  Whether a given system has a hyperbolic splitting is
    what `splitting` certifies, not what the constructor checks.
    """

    family_id = "random-cat"

    def __init__(self, matrices=(((2, 1), (1, 1)), ((3, 1), (2, 1)))):
        super().__init__(matrices)
        if not self.invertible:
            raise ConfigurationError("random-cat matrices must be integer with |det| = 1")

    def params(self):
        return {"matrices": [[[float(v) for v in row] for row in m] for m in self.matrices]}


def fiber_apply(family, omega, x):
    """phi_w(x), coordinates reduced mod 1."""
    if x.dim != family.manifold_dim:
        raise ContractError(
            f"point has dim {x.dim}, family {family.family_id} needs {family.manifold_dim}")
    return ManifoldPoint(family.apply_raw(omega, x.coords))


def fiber_derivative(family, omega, x):
    """Exact Jacobian D_x phi_w as a one-step cocycle matrix."""
    if x.dim != family.manifold_dim:
        raise ContractError(
            f"point has dim {x.dim}, family {family.family_id} needs {family.manifold_dim}")
    from .cocycle import CocycleMatrix
    jac = family.jacobian_raw(omega, x.coords)
    return CocycleMatrix(np.asarray(jac, dtype=np.float64), 1)


def fiber_inverse(family, omega, x):
    """phi_w^{-1}(x); only diffeomorphic families support this."""
    if not family.invertible:
        raise UnsupportedOperationError(
            f"{family.family_id} is not invertible on the fiber")
    if x.dim != family.manifold_dim:
        raise ContractError("dimension mismatch")
    return ManifoldPoint(family.inverse_raw(omega, x.coords))


def derivative_bounds(family):
    """Certified global bounds (sup |Dphi|, sup |Dphi^-1|, log-derivative Lipschitz)."""
    return (family.sup_dphi, family.sup_dphi_inv, family.log_deriv_lipschitz)


FAMILY_CATALOG = {cls.family_id: cls for cls in (
    Doubling, PerturbedDoubling, BernoulliLinear, DiagonalCocycle, RandomCat)}


def make_family(name, params=None):
    """The catalog family `name` built from its constructor's keyword
    parameters; the constructors hold the defaults."""
    if name not in FAMILY_CATALOG:
        raise ConfigurationError(
            f"unknown family {name!r}; catalog: {sorted(FAMILY_CATALOG)}")
    return FAMILY_CATALOG[name](**(params or {}))
