"""Certified minimum-expansion rates and tempered constants.

For a base point w and horizon n, the key quantity is the minimum over the
unit tangent bundle of log |D phi^{(n)} v|.  Circle families are minimized
over a grid with an explicit Lipschitz slack, giving a certified bracket
[lower, upper]; families whose derivative ignores the fiber point (scalar
multipliers, linear torus maps) are evaluated exactly.  From the per-n
brackets we build supadditivity residual tables, the limiting uniform rate,
the truncated-infimum constant C(w) for a chosen rate 0 < lambda < A, and
the decay curve that probes temperedness of C along the orbit.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import deterministic_map
from .base import sample_base, shift_by
from .cocycle import unit_direction
from .errors import ConfigurationError, ContractError, UnsupportedOperationError
from .fibers import CircleFamily, LinearTorusFamily

MIN_GRID = 64
DEFAULT_GRID = 4096
DEFAULT_DEPTH = 50
# Truncation depths for x-dependent families are capped where the grid
# slack would exceed this budget; beyond that the lower bounds are vacuous.
SLACK_BUDGET = 0.1


@dataclass(frozen=True)
class SweepResult:
    """Brackets for A_n(w) at every n up to the sweep horizon."""

    uppers: np.ndarray           # grid/exact minimum of log |D phi^{(n)} v|
    lowers: np.ndarray           # certified lower bound
    grid_size: int
    argmin_coords: tuple         # fiber argmin at the final horizon
    argmin_v: tuple              # tangent argmin at the final horizon

    def bracket(self, n):
        return float(self.lowers[n - 1]), float(self.uppers[n - 1])


@dataclass(frozen=True)
class MinExpansionTable:
    omega_id: str
    rows: tuple                  # (n, lower, upper)
    grid_size: int
    slack: float                 # largest certification margin among rows


@dataclass(frozen=True)
class TemperedConstant:
    """Truncated infimum of e^{-lambda n} * (min n-step expansion)."""

    log_value: float
    attained_n: int
    depth: int
    lam: float

    @property
    def value(self):             # may underflow to 0; log_value is exact
        return math.exp(self.log_value) if self.log_value > -700.0 else 0.0


@dataclass(frozen=True)
class TemperednessCurve:
    ns: np.ndarray
    values: np.ndarray           # (1/n) log C(T^n w)

    def last(self):
        return float(self.values[-1])


@dataclass(frozen=True)
class UniformRateEstimate:
    a_estimate: float
    a_std_err: float             # spread of A_{n_max}/n_max across samples
    n_max: int
    samples: int
    trend: tuple                 # (n, mean upper A_n/n, mean lower A_n/n)
    sweeps: tuple = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class CorollaryReport:
    estimate: float
    std_err: float
    samples: int
    verdict: str                 # "positive" | "inconclusive"
    lambda_const: float = None


@dataclass(frozen=True)
class ExpansionCertificate:
    a_estimate: float
    lam: float
    c_samples: tuple             # (omega id, C value, log C, attained n)
    temperedness_curve: TemperednessCurve
    supadditivity_min_residual: float
    verdict: str                 # certified-expanding | inconclusive | violated
    details: dict = field(default_factory=dict)
    rate: UniformRateEstimate = field(default=None, repr=False, compare=False)

    def to_payload(self):
        curve = self.temperedness_curve
        return {
            "a_estimate": self.a_estimate,
            "lambda": self.lam,
            "c_samples": [
                {"omega": oid, "c": c, "log_c": lc, "attained_n": an}
                for (oid, c, lc, an) in self.c_samples
            ],
            "temperedness_curve": {
                "n": [int(v) for v in curve.ns],
                "value": [float(v) for v in curve.values],
            },
            "supadditivity_min_residual": self.supadditivity_min_residual,
            "verdict": self.verdict,
            "details": self.details,
        }


def lipschitz_slack(family, n, grid_size):
    """Half-spacing times the propagated Lipschitz constant of the n-step
    log-derivative: sum_{i<n} L * (sup |Dphi|)^i over 2*grid."""
    lip = family.log_deriv_lipschitz
    if lip == 0.0:
        return 0.0
    s = family.sup_dphi
    if s == 1.0:
        total = lip * n
    else:
        total = lip * (s ** n - 1.0) / (s - 1.0)
    return total / (2.0 * grid_size)


def certified_depth(family, grid_size, budget=SLACK_BUDGET, cap=DEFAULT_DEPTH):
    """Largest horizon whose certification slack stays within the budget."""
    if family.log_deriv_lipschitz == 0.0:
        return cap
    n = 1
    while n < cap and lipschitz_slack(family, n + 1, grid_size) <= budget:
        n += 1
    return n


def _exact_sweep(family, window):
    """Uppers and argmin fields of one window of an x-independent family."""
    if isinstance(family, CircleFamily):
        return np.cumsum(family.log_deriv(window, 0.0, np)), ((0.0,), (1.0,))
    prod, logscale, uppers = np.eye(2), 0.0, np.empty(len(window))
    for i, j in enumerate(window):
        prod = family.matrices[j] @ prod
        scale = np.abs(prod).max()
        prod /= scale
        logscale += math.log(scale)
        svals = np.linalg.svd(prod, compute_uv=False)
        uppers[i] = logscale + math.log(svals[-1])
    vmin = unit_direction(np.linalg.svd(prod)[2][-1])
    return uppers, ((0.0, 0.0), (float(vmin[0]), float(vmin[1])))


def _brackets(family, blocks, grid_size, threads=1):
    """`min_expansion_sweep`'s uppers and lowers (in the blocks' shapes) and
    argmin fields (per window) for blocks of one window or rows of windows.
    Exact families sweep each distinct window; x-dependent circle families
    step the grid once per node of the windows' trie (keyed on parameter
    bytes) depth first, saving (cur, acc) only at branching nodes, with
    `threads` walking root subtrees in parallel."""
    rows = [np.atleast_2d(b) for b in blocks]
    if min(r.shape[1] for r in rows) < 1:
        raise ContractError("n_max must be >= 1")
    if not isinstance(family, (CircleFamily, LinearTorusFamily)):
        raise UnsupportedOperationError(
            "certified minimization covers circle families and linear torus "
            "families; nonlinear higher-dimensional fibers would need sampled, "
            "non-certified minima")
    if family.linear:
        distinct = {w.tobytes(): w for r in rows for w in r}
        swept = {key: _exact_sweep(family, w) for key, w in distinct.items()}
        uppers = [np.reshape([swept[w.tobytes()][0] for w in r], np.shape(b))
                  for r, b in zip(rows, blocks)]
        return (uppers, [u.copy() for u in uppers],
                [swept[w.tobytes()][1] for r in rows for w in r])
    if grid_size < MIN_GRID:
        raise ContractError(f"grid_size must be >= {MIN_GRID}")
    params, kids, index, paths, ends = [None], {}, {}, [], []
    for r in rows:
        paths.append(np.empty(r.shape, np.int32))
        for b, w in enumerate(r):
            node = 0
            for i, (p, key) in enumerate(zip(w.tolist(), w.view(np.uint64).tolist())):
                child = index.setdefault((node, key), len(params))
                if child == len(params):
                    params.append(p)
                    kids.setdefault(node, []).append(child)
                paths[-1][b, i] = node = child
            ends.append(node)
    xs0, stop = np.arange(grid_size) / grid_size, set(ends)
    node_min, argmin = np.empty(len(params)), {}

    def walk(top):   # root subtrees write disjoint nodes
        stack = [(top, xs0, np.zeros(grid_size), False)]
        while stack:
            node, cur, acc, saved = stack.pop()
            acc = np.add(acc, family.log_deriv(params[node], cur, np),
                         out=None if saved else acc)
            node_min[node] = acc.min()
            if node in stop:
                argmin[node] = float(xs0[acc.argmin()])
            cur = family.apply(params[node], cur, np)
            stack += [(k, cur, acc, i > 0)
                      for i, k in enumerate(reversed(kids.get(node, ())))]

    deterministic_map(walk, kids[0], threads)
    slacks = np.array([lipschitz_slack(family, n, grid_size)
                       for n in range(1, max(r.shape[1] for r in rows) + 1)])
    uppers = [node_min[p].reshape(np.shape(b)) for p, b in zip(paths, blocks)]
    return (uppers, [u - slacks[:u.shape[-1]] for u in uppers],
            [((argmin[e],), (1.0,)) for e in ends])


def sweep_windows(family, windows, grid_size, threads=1):
    """`min_expansion_sweep` of each parameter window (any lengths), in
    window order, sweeping each distinct parameter prefix once."""
    return [SweepResult(u, lo, 1 if family.linear else grid_size, *args)
            for u, lo, args in zip(*_brackets(family, list(windows), grid_size, threads))]


def min_expansion_sweep(family, omega, n_max, grid_size=DEFAULT_GRID):
    """Brackets of A_n(w) for every n <= n_max in one orbit sweep."""
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    return sweep_windows(family, [family.params_along(omega, n_max)],
                         grid_size)[0]


def min_log_expansion(family, omega, n, grid_size=DEFAULT_GRID):
    """Certified bracket (lower, upper) for the n-step minimum log expansion."""
    return min_expansion_sweep(family, omega, n, grid_size).bracket(n)


def min_expansion_table(family, omega, n_max, grid_size=DEFAULT_GRID):
    return table_of_sweep(omega, min_expansion_sweep(family, omega, n_max, grid_size))


def table_of_sweep(omega, sweep):
    """The `MinExpansionTable` of omega from a sweep of omega already run."""
    rows = tuple((n,) + sweep.bracket(n) for n in range(1, len(sweep.uppers) + 1))
    slack = max(u - l for (_, l, u) in rows)
    return MinExpansionTable(omega.describe(), rows, sweep.grid_size, slack)


@dataclass(frozen=True)
class SupadditivityReport:
    min_residual: float
    residuals: tuple             # (n, m, residual)


def _supadd_windows(family, omega, N):
    """params_along(T^k w, N - k) for k < N."""
    if N > 20:
        raise ContractError("supadditivity tables use certified horizons N <= 20")
    return [s[k:] for s in [family.params_along(omega, N)] for k in range(N)]


def _supadd_rows(uppers, lowers, N):
    """(n, m, residual) from the brackets of params[k:], k < N, in row k."""
    return [(n, m, float(uppers[0][n + m - 1] - lowers[0][n - 1]
                         - lowers[n][m - 1]))
            for n in range(1, N) for m in range(1, N - n + 1)]


def supadditivity_residuals(family, omega, N=12, grid_size=DEFAULT_GRID):
    """Residuals upper(A_{n+m}) - lower(A_n) - lower(A_m at T^n w), n+m <= N.

    The true minima satisfy A_{n+m} >= A_n + A_m(T^n w), so with certified
    brackets every residual is nonnegative up to roundoff.
    """
    uppers, lowers, _ = _brackets(family, _supadd_windows(family, omega, N),
                                  grid_size)
    rows = _supadd_rows(uppers, lowers, N)
    return SupadditivityReport(min(r for (_, _, r) in rows), tuple(rows))


def uniform_rate_estimate(family, spec, seed, samples, n_max,
                          grid_size=DEFAULT_GRID, threads=1):
    """Sample average of A_n(w)/n with the full trend over n <= n_max.

    Supadditivity makes A_n/n climb toward the limiting uniform rate, so the
    value at n_max is the best available estimate from this horizon.
    """
    if n_max < 4:
        raise ContractError("n_max must be >= 4")
    sweeps = sweep_windows(family, [family.params_along(w, n_max) for w in
                                    sample_base(spec, seed, samples)],
                           grid_size, threads)
    uppers = np.stack([s.uppers for s in sweeps])
    lowers = np.stack([s.lowers for s in sweeps])
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    mean_u = uppers.mean(axis=0) / ns
    mean_l = lowers.mean(axis=0) / ns
    trend = tuple((int(n), float(u), float(l))
                  for n, u, l in zip(range(1, n_max + 1), mean_u, mean_l))
    finals = uppers[:, -1] / n_max
    se = float(finals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return UniformRateEstimate(a_estimate=float(mean_u[-1]), a_std_err=se,
                               n_max=n_max, samples=samples, trend=trend,
                               sweeps=tuple(sweeps))


def tempered_constant(family, omega, lam, depth=DEFAULT_DEPTH,
                      a_estimate=None, grid_size=DEFAULT_GRID):
    """C(w): the truncated infimum over 1 <= n <= depth of
    e^{-lambda n} * exp(certified lower bound of A_n(w)).

    Monotone nonincreasing in depth and strictly positive (the log value is
    always finite; the exponentiated value may underflow for very negative
    lower bounds).
    """
    log_c, attained = tempered_constants(family, [omega], [0], lam, depth,
                                         grid_size, a_estimate)
    return TemperedConstant(float(log_c[0, 0]), int(attained[0, 0]), depth, lam)


def _depth_windows(family, omegas, offsets, depth):
    """params_along(T^k w, depth) for k in `offsets`, one block per orbit w."""
    lo, span = min(offsets), max(offsets) - min(offsets) + depth
    rows = (np.asarray(offsets) - lo)[:, None] + np.arange(depth)
    return [family.params_along(shift_by(w, lo), span)[rows] for w in omegas]


def truncated_infimum(cumulative, lam):
    """log C = min over 1 <= n <= d of (cumulative[..., n - 1] - lam n) and
    the n attaining it, per row of a (..., d) array of cumulative logs."""
    terms = cumulative - lam * np.arange(1, cumulative.shape[-1] + 1)
    k = terms.argmin(axis=-1)
    return np.take_along_axis(terms, k[..., None], -1)[..., 0], k + 1


def tempered_constants(family, omegas, offsets, lam, depth=DEFAULT_DEPTH,
                       grid_size=DEFAULT_GRID, a_estimate=None, threads=1):
    """log C(T^k w) and the n attaining it, as (orbit, offset) arrays, for
    every orbit w in `omegas` and k in `offsets`: one sweep of all windows."""
    if lam <= 0.0:
        raise ConfigurationError("lambda must be positive")
    if a_estimate is not None and lam >= a_estimate:
        raise ConfigurationError(
            f"lambda must be strictly below the uniform rate estimate "
            f"({lam} >= {a_estimate}); the certified range is 0 < lambda < A")
    if depth < 1:
        raise ContractError("depth must be >= 1")
    _, lowers, _ = _brackets(family, _depth_windows(family, omegas, offsets, depth),
                             grid_size, threads)
    return [a.reshape(len(omegas), -1) for a in truncated_infimum(np.vstack(lowers), lam)]


def _curve_fast(family, omega, lam, n_max, depth):
    """log C(T^n w), n = 1..n_max, at once for x-independent circle families."""
    logs = family.orbit_log_derivs(omega, 0.0, n_max + depth)
    csum = np.concatenate([[0.0], np.cumsum(logs)])
    t = csum - lam * np.arange(n_max + depth + 1)
    winmin = sliding_window_view(t[1:], depth).min(axis=1)
    return (winmin[: n_max + 1] - t[: n_max + 1])[1:]


def temperedness_curve(family, spec, seed, lam, n_max, depth=DEFAULT_DEPTH,
                       grid_size=DEFAULT_GRID):
    """(1/n) log C(T^n w) for n = 1..n_max along one sampled orbit.

    Temperedness of C predicts decay to 0; the curve is the empirical probe.
    """
    omega = sample_base(spec, seed, 1)[0]
    return temperedness_curve_at(family, omega, lam, n_max, depth, grid_size)


def temperedness_curve_at(family, omega, lam, n_max, depth=DEFAULT_DEPTH,
                          grid_size=DEFAULT_GRID):
    ns = np.arange(1, n_max + 1)
    if isinstance(family, CircleFamily) and family.linear:
        log_cs = _curve_fast(family, omega, lam, n_max, depth)
    else:
        log_cs = tempered_constants(family, [omega], ns, lam, depth, grid_size)[0][0]
    return TemperednessCurve(ns=ns, values=log_cs / ns)


def one_step_min_expansion(family, omega):
    """Analytic minimum one-step expansion factor D_1(w)."""
    if isinstance(family, LinearTorusFamily):
        svals = np.linalg.svd(family.matrix(omega), compute_uv=False)
        return float(svals[-1])
    return float(family.deriv(family.param_at(omega), family.min_deriv_x))


def variable_rate_corollary(family, spec, seed, samples, per_step_rates=None,
                            a_estimate=None, n_max=10, grid_size=DEFAULT_GRID):
    """Monte Carlo check that the mean log of the per-state rates is positive.

    A positive mean (beyond 3 standard errors) means the constant-rate
    machinery applies; the candidate constant rate is half the estimated
    uniform rate.  A mean consistent with zero or negative, or a single
    sample (no error bar), is reported as inconclusive: the hypothesis
    fails, nothing is broken.
    """
    if per_step_rates is None:
        per_step_rates = lambda w: one_step_min_expansion(family, w)
    omegas = sample_base(spec, seed, samples)
    logs = np.array([math.log(per_step_rates(w)) for w in omegas])
    est = float(logs.mean())
    se = float(logs.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    if samples >= 2 and est > 3.0 * se and est > 0.0:
        if a_estimate is None:
            a_estimate = uniform_rate_estimate(
                family, spec, seed, min(samples, 20), n_max, grid_size).a_estimate
        return CorollaryReport(est, se, samples, "positive",
                               lambda_const=0.5 * a_estimate)
    return CorollaryReport(est, se, samples, "inconclusive")


def build_expansion_certificate(family, spec, seed, samples=20, n_max=12,
                                grid_size=DEFAULT_GRID, lam=None,
                                depth=DEFAULT_DEPTH, curve_n_max=None,
                                temperedness_threshold=0.02,
                                supadd_samples=5, supadd_N=None, threads=1):
    """End-to-end expansion certification for one family over one base.

    Gathers the uniform-rate estimate, per-sample tempered constants at
    lambda (default A/2), an averaged temperedness curve, and supadditivity
    residuals, then issues a three-valued verdict.  Guaranteed inequalities
    failing (negative residuals, nonpositive C) yield "violated"; a
    nonpositive rate estimate or a non-decaying curve yields "inconclusive".
    """
    rate = uniform_rate_estimate(family, spec, seed, samples, n_max,
                                 grid_size, threads)
    a_est = rate.a_estimate
    details = {"trend": [list(t) for t in rate.trend], "n_max": n_max,
               "grid_size": grid_size, "samples": samples,
               "a_std_err": rate.a_std_err}

    # A must be positive beyond its own sampling noise; a marginal system
    # (mean log rate near 0) must not slip through on a lucky draw, and a
    # single sample has no error bar at all.
    if samples < 2 or a_est <= 3.0 * rate.a_std_err or a_est <= 0.0:
        empty = TemperednessCurve(np.array([1]), np.array([0.0]))
        return ExpansionCertificate(a_est, None, (), empty, 0.0,
                                    "inconclusive", details, rate)

    lam = 0.5 * a_est if lam is None else lam
    if not (0.0 < lam < a_est):
        raise ConfigurationError(
            f"lambda must satisfy 0 < lambda < A = {a_est}, got {lam}")

    eff_depth = min(depth, certified_depth(family, grid_size))
    details["depth"] = eff_depth

    omegas = sample_base(spec, seed, samples)
    fast = isinstance(family, CircleFamily) and family.linear
    if curve_n_max is None:
        curve_n_max = 10_000 if fast else 128
    curve_orbits = omegas[:min(samples, 20)]
    n_res = supadd_N if supadd_N is not None else min(n_max, 12)
    # one sweep: c_samples windows, curve windows, supadditivity windows
    blocks = _depth_windows(family, omegas, [0], eff_depth)
    if not fast:
        blocks += _depth_windows(family, curve_orbits, range(1, curve_n_max + 1),
                                 eff_depth)
    top = len(blocks)
    for w in omegas[:supadd_samples]:
        blocks += _supadd_windows(family, w, n_res)
    uppers, lowers, _ = _brackets(family, blocks, grid_size, threads)

    log_c, ks = truncated_infimum(np.vstack(lowers[:top]), lam)
    c_samples = tuple((w.describe(), TemperedConstant(lc, k, eff_depth, lam).value,
                       lc, k) for w, lc, k in zip(omegas, log_c.tolist(), ks.tolist()))
    ns = np.arange(1, curve_n_max + 1)
    if fast:
        log_cs = np.stack([_curve_fast(family, w, lam, curve_n_max, eff_depth)
                           for w in curve_orbits])
    else:
        log_cs = log_c[samples:].reshape(-1, curve_n_max)
    curve = TemperednessCurve(ns, np.mean(log_cs / ns, axis=0))
    min_residual = min(r for i in range(top, len(blocks), n_res) for (_, _, r)
                       in _supadd_rows(uppers[i:i + n_res], lowers[i:i + n_res], n_res))

    if min_residual < -1e-9 or any(lc == -math.inf for (_, _, lc, _) in c_samples):
        verdict = "violated"
    elif abs(curve.last()) >= temperedness_threshold:
        verdict = "inconclusive"
    else:
        verdict = "certified-expanding"
    details["temperedness_threshold"] = temperedness_threshold
    details["curve_n_max"] = curve_n_max
    return ExpansionCertificate(a_est, lam, c_samples, curve, min_residual,
                                verdict, details, rate)
