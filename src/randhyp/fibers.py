"""Fiber map families on the circle and the 2-torus.

Each family maps a base state to a concrete map with an exact analytic
Jacobian and certified global derivative bounds.  Parameters depend on the
base state only through the symbol at position 0 (or the rotation angle),
so measurability in the base variable is immediate, and along an orbit
they form one stream per state, `params_along(omegas, n)`, read off
`base_drive`.

Catalog:
  doubling            x -> 2x mod 1 (deterministic)
  perturbed-doubling  x -> 2x + eps(w) sin(2 pi x) mod 1, eps(w) in [0, eps_max]
  bernoulli-linear    x -> d(w) x mod 1, d(w) from a finite multiplier set
  diagonal-cocycle    torus map with matrix diag(a(w), b(w))
  random-cat          torus map with a unimodular integer matrix per symbol
"""

import math

import numpy as np

from ._record import Record
from .base import as_floats, rotation_angles, shift_by, symbol_rows, window_length
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


class ManifoldPoint(Record):
    """Point of the flat circle (dim 1) or 2-torus, coordinates in [0,1)."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple([mod1(float(c)) for c in self.coords]))

    @property
    def dim(self):
        return len(self.coords)

    @property
    def x(self):
        return self.coords[0]


def unit_vectors(a):
    """`a` over its Euclidean norm along the last axis, and that norm, the
    last axis kept at length 1: the one place a direction is normed.  The
    norm is np.linalg.norm's dot product, bit for bit; a zero or non-finite
    vector comes back NaN, without a warning."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / norm, norm


def flips_sign(u0, u1):
    """The sign rule of a direction u: it turns to -u when its first nonzero
    coordinate is negative (-0.0 counts as zero)."""
    return u0 < 0 or (u0 == 0 and u1 < 0)


def unit_direction(v):
    """Unit v, signed by `flips_sign`."""
    v = unit_vectors(v)[0]
    return -v if flips_sign(*v) else v


def point(*coords):
    if isinstance(coords[0], (tuple, list, np.ndarray)) and len(coords) == 1:
        coords = tuple(coords[0])
    return ManifoldPoint(tuple(float(c) for c in coords))


def base_drive(omegas, lo, hi, choices=None):
    """Driving values of the base orbits of the states `omegas` (of one base)
    at positions lo..hi-1 (relative), one row per state.

    The one place where fiber parameters are read off the base.  A rotation
    drives with its angle (`rotation_angles`), a shift with its symbol (the
    one-point base's symbol is always 0).  With `choices` = m the value is
    an index in range(m) picking one of m parameter values; without, it is
    a continuous drive in [0, 1] (a symbol s counts as s / (alphabet_size - 1)).
    """
    if not len(omegas):
        raise ContractError("omegas must be nonempty")
    shape = (len(omegas), window_length(lo, hi))
    if choices == 1:
        return np.zeros(shape, dtype=np.int64)
    if omegas[0].kind == "rotation":
        angles = rotation_angles(omegas, lo, hi)
        if choices is None:
            return angles
        return (angles * choices).astype(np.int64) % choices
    a = omegas[0].spec.alphabet_size
    if choices is not None:     # a symbol below `choices` is its own index
        syms = symbol_rows(omegas, lo, hi)
        return syms % choices if a > choices else syms
    if a <= 1:
        return np.zeros(shape)
    return symbol_rows(omegas, lo, hi).astype(np.float64) / (a - 1)


def param_windows(family, omegas, groups):
    """For each (offsets, h) in `groups`, the windows `params_along([shift_by(
    w, k)], h)[0]` of every state w in `omegas` and offset k, one row per
    (w, k), state-major, cut from one `params_along` read of the positions
    that the groups span: the one place windows are cut off the base orbit."""
    groups = [(np.asarray(ks), h) for ks, h in groups]
    if not all(len(ks) for ks, _ in groups):
        raise ContractError("offsets must be nonempty")
    lo = int(min(ks.min() for ks, _ in groups))   # int: a state offset
    hi = int(max(ks.max() + h for ks, h in groups))
    streams = family.params_along([shift_by(w, lo) for w in omegas], hi - lo)
    return [streams[:, (ks - lo)[:, None] + np.arange(h)].reshape(-1, h) for ks, h in groups]


class FiberFamily:
    """Common surface of all catalog families.

    Families are immutable; every operation is pure.  A family reads the
    base only through `params_along(omegas, n)`, its per-step parameters at
    orbit positions 0..n-1 of each state; the point-level maps `apply_at` and
    `jacobian_at` take one such parameter.  `linear` means the derivative
    does not depend on the manifold point, in which case all minimizations
    over the fiber are exact and need no grid.

    Circle and linear torus families sweep A_n, the minimum n-step log
    expansion: `sweep_steps(ps, state, own, leaf)` steps a
    `sweep_start(grid_size)` state through the parameters `ps`, overwriting
    it only if `own`, and returns it and A_n after each step.  `leaf` says
    that no step follows `ps`: nothing reads the returned state then, so a
    circle family leaves out its last grid image.  One start state, with a
    circle grid's `terms`, serves every root of a sweep call, on any thread.
    """

    family_id = None
    manifold_dim = 1
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

    def params_along(self, omegas, n):
        """Per-step parameters at orbit positions 0..n-1 of each state in
        `omegas`, one row per state."""
        raise NotImplementedError

    # Point-level operations on raw coordinate tuples, at one parameter.
    def apply_at(self, p, coords):
        raise NotImplementedError

    def jacobian_at(self, p, coords):
        """Jacobian as a sequence of rows."""
        raise NotImplementedError

    def param_at(self, omega):
        """The parameter at omega: the one-state, n = 1 case of `params_along`."""
        return self.params_along([omega], 1).item()


class CircleFamily(FiberFamily):
    """Scalar fiber maps of the circle.

    Each family writes its map once, as a monotone lift `lift(p, x, xp,
    terms)` and its derivative `deriv(p, x, xp, terms)`; `xp` is the array
    namespace, numpy for grid sweeps and `math` for single orbits, so both
    evaluate the same expression.  `terms(x, xp)` are the parts of the
    formulas that read x alone (None if there are none); given them, `lift`
    and `deriv` read them instead of evaluating them.  `min_deriv_x` is a
    fiber point where |D phi| is smallest for every parameter.
    """

    manifold_dim = 1
    min_deriv_x = 0.0
    odd = False   # phi(1 - x) = -phi(x) mod 1 and D phi(1 - x) = D phi(x)

    def lift(self, p, x, xp=math, terms=None):
        raise NotImplementedError

    def deriv(self, p, x, xp=math, terms=None):
        raise NotImplementedError

    def terms(self, x, xp=math):
        return None

    def apply(self, p, x, xp=math, terms=None):
        y = self.lift(p, x, xp, terms)
        return mod1(y) if xp is math else mod1_array(y)

    def log_deriv(self, p, x, xp=math, terms=None):
        return xp.log(self.deriv(p, x, xp, terms))

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

    def sweep_points(self, grid_size):
        """How many grid points j / grid_size, from j = 0, a sweep steps:
        only x = 0 if `linear`, j <= grid_size // 2 if `odd`."""
        return 1 if self.linear else grid_size // 2 + 1 if self.odd else grid_size

    def sweep_start(self, grid_size):
        """(the grid's image, at first the grid; its summed log-derivatives,
        a read-only zero; and the grid's read-only `terms`, which only the
        first step reads)."""
        n = self.sweep_points(grid_size)
        grid = np.arange(n) / grid_size
        terms = self.terms(grid, np)
        for t in terms or ():
            t.setflags(write=False)
        return grid, np.broadcast_to(0.0, n), terms

    def sweep_steps(self, ps, state, own, leaf):
        cur, acc, terms = state
        if self.linear:   # the log-derivative ignores x: one cumulative sum
            acc = np.cumsum(np.r_[acc, self.log_deriv(ps, 0.0, np)])
            return (cur, acc[-1:], None), acc[1:]
        mins = np.empty(len(ps))
        last = len(ps) - 1 if leaf else -1   # a leaf's last image is never read
        for i, p in enumerate(ps.tolist()):
            acc = np.add(acc, self.log_deriv(p, cur, np, terms), out=acc if own else None)
            own, mins[i] = True, acc.min()
            cur = None if i == last else self.apply(p, cur, np, terms)
            terms = None   # the start grid's, not its image's
        return (cur, acc, None), mins

    def orbit_log_derivs(self, omega, x0, n):
        """log|D phi| at each of n steps of the orbit of x0."""
        ps = self.params_along([omega], n)[0]
        if self.linear:
            return self.log_deriv(ps, x0, np)
        # apply/log_deriv inlined to their formulas: two fewer calls a step
        lift, deriv = self.lift, self.deriv
        x, ds = float(x0), []
        for p in ps.tolist():
            ds.append(deriv(p, x))
            x = mod1(lift(p, x))
        return np.fromiter(map(math.log, ds), np.float64, n)


class PerturbedDoubling(CircleFamily):
    """x -> 2x + eps(w) sin(2 pi x), eps(w) = eps_max * drive(w).

    eps_max < 1/(2 pi) keeps every realization an expanding local
    diffeomorphism.  The log-derivative Lipschitz bound is the conservative
    envelope 4 pi^2 eps_max / (2 - 2 pi eps_max), sound for all w.
    """

    family_id = "perturbed-doubling"
    expanding = True
    linear = False
    odd = True
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

    def params_along(self, omegas, n):
        """eps at each step."""
        return self.eps_max * base_drive(omegas, 0, n)

    def terms(self, x, xp=math):
        return xp.sin(_TWO_PI * x), xp.cos(_TWO_PI * x)

    # eps = 0.0 skips sin and cos: 2x + 0.0 s = 2x and 2 + 0.0 c = 2 hold
    # exactly in IEEE arithmetic, so the bytes are the general formula's.
    def lift(self, p, x, xp=math, terms=None):
        if isinstance(p, float) and p == 0.0:
            return 2.0 * x
        return 2.0 * x + p * (xp.sin(_TWO_PI * x) if terms is None else terms[0])

    def deriv(self, p, x, xp=math, terms=None):
        if isinstance(p, float) and p == 0.0:
            return 2.0
        return 2.0 + _TWO_PI * p * (xp.cos(_TWO_PI * x) if terms is None else terms[1])


class BernoulliLinear(CircleFamily):
    """x -> d(w) x mod 1 with the multiplier chosen by the symbol at 0.

    Integer multipliers > 1 are genuine expanding circle maps; arbitrary
    positive values are accepted for rate (cocycle) experiments where only
    the derivative matters.
    """

    family_id = "bernoulli-linear"
    linear = True

    def __init__(self, values=(2.0, 3.0)):
        self.values = vals = as_floats(values, "values")
        if not vals or any(v <= 0 for v in vals):
            raise ConfigurationError("values must be nonempty and positive")
        self.expanding = min(vals) > 1.0
        self.sup_dphi = max(vals)
        self.sup_dphi_inv = 1.0 / min(vals)
        self.log_deriv_lipschitz = 0.0

    def params(self):
        return {"values": list(self.values)}

    def params_along(self, omegas, n):
        """Multiplier at each step."""
        return np.asarray(self.values)[base_drive(omegas, 0, n, len(self.values))]

    def lift(self, p, x, xp=math, terms=None):
        return p * x

    def deriv(self, p, x, xp=math, terms=None):
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

    Every cocycle walk reads the read-only (k, 2, 2) table `matrices`, its
    `inverses`, their `dets` (a00 a11 - a01 a10, exact for integer
    matrices), `log_dets` and singular values `svals` (largest first), and
    the index stream `params_along`.  The derivative is the constant matrix
    A(w), so fiber minimizations are exact singular-value computations.
    """

    manifold_dim = 2
    linear = True

    def __init__(self, matrices, label="matrices"):
        try:
            mats = np.array(matrices, dtype=np.float64)
        except ValueError:   # ragged nesting
            raise ConfigurationError(f"{label} must be 2x2") from None
        if not len(mats):
            raise ConfigurationError(f"{label} must be nonempty")
        if mats.shape[1:] != (2, 2):
            raise ConfigurationError(f"{label} must be 2x2")
        a00, a01, a10, a11 = mats.reshape(-1, 4).T
        with np.errstate(over="ignore", invalid="ignore"):
            dets = a00 * a11 - a01 * a10
        if not np.all(np.isfinite(dets)):
            raise ConfigurationError(f"{label} must have finite determinants")
        if np.any(np.abs(dets) < 1e-14):
            raise ConfigurationError(f"{label} must be nonsingular")
        svals = np.linalg.svd(mats, compute_uv=False)
        # the float SVD can lose a tiny singular value, e.g. diag(1e300, 1e-300)
        if not (np.all(np.isfinite(svals)) and svals[:, -1].min() > 0.0):
            raise ConfigurationError(f"{label} must have finite, nonzero singular values")
        self.matrices, self.inverses = mats, np.linalg.inv(mats)
        self.dets, self.log_dets, self.svals = dets, np.log(np.abs(dets)), svals
        for table in (mats, self.inverses, dets, self.log_dets, svals):
            table.setflags(write=False)
        self.sup_dphi = float(svals[:, 0].max())
        self.sup_dphi_inv = float((1.0 / svals[:, -1]).max())
        self.log_deriv_lipschitz = 0.0
        self.expanding = float(svals[:, -1].min()) > 1.0

    def params_along(self, omegas, n):
        """Matrix index along each forward orbit w, Tw, ..., T^{n-1}w."""
        return base_drive(omegas, 0, n, len(self.matrices))

    def apply_at(self, p, coords):
        (a00, a01), (a10, a11) = self.matrices[p].tolist()
        x0, x1 = coords
        return (mod1(a00 * x0 + a01 * x1), mod1(a10 * x0 + a11 * x1))

    def jacobian_at(self, p, coords):
        return self.matrices[p].tolist()

    def sweep_start(self, grid_size):
        """The product so far, renormalized, its log scale and its log |det|."""
        return np.eye(2), 0.0, 0.0

    def sweep_steps(self, ps, state, own, leaf):
        # sigma_min = |det| / sigma_max: the SVD's own sigma_min is rounding
        # noise once sigma_min / sigma_max falls below the unit roundoff
        prod, logscale, logdet = state
        mins = np.empty(len(ps))
        for i, p in enumerate(ps.tolist()):
            prod = self.matrices[p] @ prod
            scale = np.abs(prod).max()
            prod /= scale
            logscale += math.log(scale)
            logdet += self.log_dets[p]
            mins[i] = logdet - logscale - math.log(np.linalg.svd(prod, compute_uv=False)[0])
        return (prod, logscale, logdet), mins


class DiagonalCocycle(LinearTorusFamily):
    """Matrices diag(a(w), b(w)); axes stay invariant."""

    family_id = "diagonal-cocycle"

    def __init__(self, a_values=(2.0,), b_values=(3.0,)):
        self.a_values = a_vals = as_floats(a_values, "a_values")
        self.b_values = b_vals = as_floats(b_values, "b_values")
        if not a_vals or len(a_vals) != len(b_vals):
            raise ConfigurationError(
                "a_values and b_values must be nonempty and of equal length")
        if any(v <= 0 for v in a_vals + b_vals):
            raise ConfigurationError("a_values and b_values must be positive")
        super().__init__([np.diag([a, b]) for a, b in zip(a_vals, b_vals)],
                         "diag(a_values, b_values)")
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
        mats = self.matrices
        # exact: integer entries and |det| = 1 in integer arithmetic
        if not (np.all(mats == np.round(mats)) and all(
                abs(round(a) * round(d) - round(b) * round(c)) == 1
                for (a, b), (c, d) in mats.tolist())):
            raise ConfigurationError("matrices must be integer with |det| = 1")

    def params(self):
        return {"matrices": self.matrices.tolist()}


def check_dim(dim, need):
    """Raise the one dimension-mismatch ContractError unless dim == need."""
    if dim != need:
        raise ContractError(f"dimension mismatch: got dim {dim}, need {need}")


def fiber_derivative(family, omega, x):
    """Exact Jacobian D_x phi_w, an (m, m) float64 array."""
    check_dim(x.dim, family.manifold_dim)
    return np.asarray(family.jacobian_at(family.param_at(omega), x.coords),
                      dtype=np.float64)


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
