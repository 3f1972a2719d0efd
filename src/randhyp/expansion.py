"""Certified minimum-expansion rates and tempered constants.

For a base point w and horizon n, the key quantity is the minimum over the
unit tangent bundle of log |D phi^{(n)} v|.  Circle families are minimized
over a grid with an explicit Lipschitz slack, giving a certified bracket
[lower, upper]; families whose derivative ignores the fiber point (scalar
multipliers, linear torus maps) are evaluated exactly.  From the per-n
brackets we build supadditivity residual tables, the limiting uniform rate,
the truncated-infimum constant C(w) for a chosen rate 0 < lambda < A, and
the decay curve that probes temperedness of C along the orbit.

log C(w) is the least term lower(A_n) - lambda n over n <= d, and a
window is swept only to its settled depth: past it, the smallest possible
growth of the remaining steps, the sum of each step's least
log-derivative, outruns lambda and the slack, so no deeper term can fall
to term 1.  Leaving those terms unswept keeps log C and the n attaining it
byte for byte (`settled_depths`).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import deterministic_map
from ._record import Record, field
from .base import sample_base
from .errors import ConfigurationError, ContractError, UnsupportedOperationError
from .fibers import CircleFamily, LinearTorusFamily, param_windows
from .lyapunov import clears_error_bar, std_err

MIN_GRID = 64
MAX_SUPADD_N = 20
DEFAULT_GRID = 4096
DEFAULT_DEPTH = 50
# Truncation depths for x-dependent families are capped where the grid
# slack would exceed this budget; beyond that the lower bounds are vacuous.
SLACK_BUDGET = 0.1


class SweepResult(Record):
    """Brackets for A_n(w) at every n up to the sweep horizon."""

    uppers: np.ndarray           # grid/exact minimum of log |D phi^{(n)} v|
    lowers: np.ndarray           # certified lower bound
    grid_size: int

    def bracket(self, n):
        return float(self.lowers[n - 1]), float(self.uppers[n - 1])


class MinExpansionTable(Record):
    omega_id: str
    rows: tuple                  # (n, lower, upper)
    grid_size: int
    slack: float                 # largest certification margin among rows


class TemperedConstant(Record):
    """Truncated infimum of e^{-lambda n} * (min n-step expansion)."""

    log_value: float
    attained_n: int
    depth: int
    lam: float

    @property
    def value(self):             # may underflow to 0; log_value is exact
        return math.exp(self.log_value) if self.log_value > -700.0 else 0.0


class TemperednessCurve(Record):
    ns: np.ndarray
    values: np.ndarray           # (1/n) log C(T^n w)

    def last(self):
        return float(self.values[-1])


class UniformRateEstimate(Record):
    a_estimate: float
    a_std_err: float             # spread of A_{n_max}/n_max across samples
    n_max: int
    samples: int
    trend: tuple                 # (n, mean upper A_n/n, mean lower A_n/n)
    sweeps: tuple = field(default=(), repr=False, compare=False)


class CorollaryReport(Record):
    estimate: float
    std_err: float
    samples: int
    verdict: str                 # "positive" | "inconclusive"
    lambda_const: float = None


class ExpansionCertificate(Record):
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
    log-derivative: sum_{i<n} L * (sup |Dphi|)^i over 2*grid; inf once
    (sup |Dphi|)^n overflows, so the lower bracket is vacuous there."""
    lip = family.log_deriv_lipschitz
    if lip == 0.0:
        return 0.0
    s = family.sup_dphi
    try:
        total = lip * n if s == 1.0 else lip * (s ** n - 1.0) / (s - 1.0)
    except OverflowError:
        return math.inf
    return total / (2.0 * grid_size)


def certified_depth(family, grid_size, cap):
    """Largest horizon up to `cap` whose certification slack stays within
    SLACK_BUDGET (`cap` itself for families with exact brackets)."""
    n = 1
    while n < cap and lipschitz_slack(family, n + 1, grid_size) <= SLACK_BUDGET:
        n += 1
    return n


def _brackets(family, windows, lengths, grid_size, threads=1):
    """`min_expansion_sweep`'s uppers and lowers of each row of the (N, d)
    parameter table `windows` up to its entry of `lengths`, as (N, d)
    arrays that read +inf past each row's length.
    Sorted by the 64-bit patterns of their parameters, zero past each
    length, the rows form a trie; a node is a sorted range [lo, hi) of rows
    sharing a prefix longer than its parent's, a.  The family steps through
    each unbranched chain in one call, depth first, keeping a state for a
    second child only at branching nodes, and told whether the chain ends
    at a leaf, where no step reads its last image; `threads` walk root
    subtrees in parallel.  Only the first of equal rows is walked.  A node
    writes its minima into its first row of one table; the prefix a row
    shares with the row before it is then gathered column by column."""
    lens = np.asarray(lengths)
    if not len(lens):
        raise ContractError("windows must be nonempty")
    if lens.min() < 1:
        raise ContractError("n_max must be >= 1")
    if not isinstance(family, (CircleFamily, LinearTorusFamily)):
        raise UnsupportedOperationError(
            "certified minimization covers circle families and linear torus "
            "families; nonlinear higher-dimensional fibers would need sampled, "
            "non-certified minima")
    if not family.linear and grid_size < MIN_GRID:
        raise ContractError(f"grid_size must be >= {MIN_GRID}")
    inside = np.arange(windows.shape[1]) < lens[:, None]
    bits = np.where(inside, windows.view(np.uint64), np.uint64(0))
    # Lexicographic on the bits, shorter first on a tie, puts every row
    # before its extensions and keeps each prefix's rows together.
    order = np.lexsort([lens, *bits.T[::-1]])
    bits, lens = bits[order], lens[order]
    differ = bits[1:] != bits[:-1]
    lcp = np.r_[0, np.minimum(np.where(differ.any(1), differ.argmax(1), bits.shape[1]),
                              np.minimum(lens[1:], lens[:-1]))]   # with the previous
    del bits, differ   # not held through the walk
    table = np.zeros(windows.shape)   # row k: sorted row k
    walked = np.flatnonzero(lcp < lens)   # not equal to the row before
    at = list(zip(walked.tolist(), order[walked].tolist()))
    shared, ends = lcp[walked], lens[walked].tolist()
    start = family.sweep_start(grid_size)   # shared, so no root step owns it

    def walk(root):   # root subtrees own disjoint rows
        stack = [(*root, 0, start, False)]
        while stack:
            lo, hi, a, state, own = stack.pop()
            c = int(shared[lo + 1:hi].min()) if hi - lo > 1 else ends[lo]
            k, row = at[lo]
            state, table[k, a:c] = family.sweep_steps(windows[row, a:c], state, own,
                                                      ends[hi - 1] == c)
            lo += ends[lo] == c   # the row ending here
            cuts = [lo, *(lo + 1 + np.flatnonzero(shared[lo + 1:hi] == c)).tolist(), hi]
            stack += [(s, e, c, state, i == 0) for i, (s, e)
                      in enumerate(reversed(list(zip(cuts, cuts[1:])))) if s < e]

    roots = np.flatnonzero(shared == 0).tolist()
    deterministic_map(walk, list(zip(roots, roots[1:] + [len(walked)])), threads)
    ks = np.arange(len(order))
    for m in range(table.shape[1]):   # the prefix each row shares
        src = np.maximum.accumulate(np.where(lcp <= m, ks, 0))
        table[:, m] = table[src, m]
    uppers = np.empty_like(table)
    uppers[order] = table   # back in the rows' order
    del table
    lowers = uppers - [lipschitz_slack(family, n, grid_size)
                       for n in range(1, uppers.shape[1] + 1)]
    for t in (uppers, lowers):   # in place: the tables are the peak's largest
        t[~inside] = np.inf
    return uppers, lowers


def sweep_windows(family, windows, grid_size, threads=1):
    """`min_expansion_sweep` of each parameter window (any lengths), in
    window order, sweeping each distinct parameter prefix once."""
    lens = [len(w) for w in windows]
    width = max(lens, default=0)
    table = np.array([np.pad(w, (0, width - n)) for w, n in zip(windows, lens)])
    return [SweepResult(u[:n], lo[:n], 1 if family.linear else grid_size) for u, lo, n
            in zip(*_brackets(family, table, lens, grid_size, threads), lens)]


def min_expansion_sweep(family, omega, n_max, grid_size=DEFAULT_GRID):
    """Brackets of A_n(w) for every n <= n_max in one orbit sweep."""
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    return sweep_windows(family, family.params_along([omega], n_max), grid_size)[0]


def min_log_expansion(family, omega, n, grid_size=DEFAULT_GRID):
    """Certified bracket (lower, upper) for the n-step minimum log expansion."""
    return min_expansion_sweep(family, omega, n, grid_size).bracket(n)


def min_expansion_table(family, omega, n_max, grid_size=DEFAULT_GRID):
    sweep = min_expansion_sweep(family, omega, n_max, grid_size)
    rows = tuple((n,) + sweep.bracket(n) for n in range(1, n_max + 1))
    slack = max(u - l for (_, l, u) in rows)
    return MinExpansionTable(omega.describe(), rows, sweep.grid_size, slack)


class SupadditivityReport(Record):
    min_residual: float
    residuals: tuple             # (n, m, residual)


def _supadd_windows(family, omegas, N):
    """params_along(T^k w, N) for k < N, one row per (w, k), and the
    lengths N - k that the residuals read."""
    if N < 2:
        raise ContractError("N must be >= 2")
    if N > MAX_SUPADD_N:
        raise ContractError(f"supadditivity tables use certified horizons N <= {MAX_SUPADD_N}")
    return (param_windows(family, omegas, [(range(N), N)])[0],
            np.tile(np.arange(N, 0, -1), len(omegas)))


def _supadd_rows(uppers, lowers, N):
    """(n, m, residual) from the brackets of params[k:], k < N, in row k."""
    return [(n, m, float(uppers[0, n + m - 1] - lowers[0, n - 1] - lowers[n, m - 1]))
            for n in range(1, N) for m in range(1, N - n + 1)]


def supadditivity_residuals(family, omega, N=12, grid_size=DEFAULT_GRID):
    """Residuals upper(A_{n+m}) - lower(A_n) - lower(A_m at T^n w), n+m <= N.

    The true minima satisfy A_{n+m} >= A_n + A_m(T^n w), so with certified
    brackets every residual is nonnegative up to roundoff.
    """
    uppers, lowers = _brackets(family, *_supadd_windows(family, [omega], N), grid_size)
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
    return _rate_estimate(family, *_brackets(family, family.params_along(
        sample_base(spec, seed, samples), n_max), [n_max] * samples, grid_size, threads),
        samples, n_max, grid_size)


def _rate_estimate(family, uppers, lowers, samples, n_max, grid_size):
    """`UniformRateEstimate` of the brackets' first `samples` rows, to n_max."""
    uppers, lowers = uppers[:samples, :n_max], lowers[:samples, :n_max]
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    mean_u = uppers.mean(axis=0) / ns
    mean_l = lowers.mean(axis=0) / ns
    trend = tuple((int(n), float(u), float(l))
                  for n, u, l in zip(range(1, n_max + 1), mean_u, mean_l))
    return UniformRateEstimate(a_estimate=float(mean_u[-1]),
                               a_std_err=std_err(uppers[:, -1] / n_max),
                               n_max=n_max, samples=samples, trend=trend,
                               sweeps=tuple(SweepResult(u, lo, 1 if family.linear
                                                        else grid_size)
                                            for u, lo in zip(uppers, lowers)))


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


def truncated_infimum(cumulative, lam):
    """log C = min over 1 <= n <= d of (cumulative[..., n - 1] - lam n) and
    the n attaining it, per row of a (..., d) array of cumulative logs."""
    terms = cumulative - lam * np.arange(1, cumulative.shape[-1] + 1)
    k = terms.argmin(axis=-1)
    return np.take_along_axis(terms, k[..., None], -1)[..., 0], k + 1


def min_expansion_factors(family, ps):
    """The least one-step expansion factor at each parameter in `ps`: the
    smallest singular value of a torus matrix, |D phi| at `min_deriv_x` for
    a circle family."""
    if isinstance(family, LinearTorusFamily):
        return family.svals[ps, -1]
    return family.deriv(ps, family.min_deriv_x, np)


def settled_depths(family, windows, lam, grid_size):
    """Per row p_0..p_{d-1} of the (N, d) tempered-constant `windows`, the
    depth past which no term of `truncated_infimum` can set the infimum.

    Term n, the lower bracket of A_n less lam n, is at least its floor
    l_0 + ... + l_{n-1} - s_n - lam n, with l_j the log of
    `min_expansion_factors` at p_j and s_n the `lipschitz_slack`.  Term 1
    is at most B, the step-1 log-derivative at the sweep grid's point
    nearest `min_deriv_x` less s_1 and lam: the grid minimum is at most
    any grid value.  The settled depth is the largest m <= d (at least 1)
    whose floor is at most B + eta_m, so every deeper term exceeds
    B >= term 1.  eta_m is 2^12 times the rounding of m-step sums: m float
    additions of steps of size at most M = max(|log sup |D phi||,
    |log sup |D phi^-1||), and a torus matrix's float sigma_min, off by
    2^-52 of its condition number, at most K = sup |D phi| sup |D phi^-1|.
    """
    d = windows.shape[1]
    ns = np.arange(1, d + 1)
    logs = np.log(min_expansion_factors(family, windows))
    slacks = np.array([lipschitz_slack(family, n, grid_size) for n in ns])
    first = logs[:, 0]
    if isinstance(family, CircleFamily):
        j = min(round(family.min_deriv_x * grid_size), family.sweep_points(grid_size) - 1)
        first = np.log(family.deriv(windows[:, 0], j / grid_size, np))
    bound = (first - slacks[0] - lam)[:, None]
    floors = np.cumsum(logs, axis=1) - slacks - lam * ns
    k = family.sup_dphi * family.sup_dphi_inv
    m = max(abs(math.log(family.sup_dphi)), abs(math.log(family.sup_dphi_inv)))
    eta = 2.0 ** -40 * ns * (k + ns * m + slacks + lam * ns + np.abs(bound))
    may_set = floors <= bound + eta
    may_set[:, 0] = True
    return d - may_set[:, ::-1].argmax(axis=1)


def _check_constant_args(lam, depth, a_estimate=None):
    """The rate and truncation depth every tempered constant needs."""
    if not lam > 0.0:
        raise ConfigurationError("lambda must be positive")
    if a_estimate is not None and not lam < a_estimate:
        raise ConfigurationError(
            f"lambda must satisfy 0 < lambda < A = {a_estimate}, got {lam}")
    if depth < 1:
        raise ContractError("depth must be >= 1")


def tempered_constants(family, omegas, offsets, lam, depth=DEFAULT_DEPTH,
                       grid_size=DEFAULT_GRID, a_estimate=None, threads=1):
    """log C(T^k w) and the n attaining it, as (orbit, offset) arrays, for
    every orbit w in `omegas` and k in `offsets`: one sweep of all windows."""
    _check_constant_args(lam, depth, a_estimate)
    windows = param_windows(family, omegas, [(offsets, depth)])[0]
    _, lowers = _brackets(family, windows, settled_depths(family, windows, lam, grid_size),
                          grid_size, threads)
    return [a.reshape(len(omegas), -1) for a in truncated_infimum(lowers, lam)]


def _curve_fast(family, omega, lam, n_max, depth):
    """log C(T^n w), n = 1..n_max, at once for x-independent circle families."""
    logs = family.orbit_log_derivs(omega, 0.0, n_max + depth)
    csum = np.concatenate([[0.0], np.cumsum(logs)])
    t = csum - lam * np.arange(n_max + depth + 1)
    winmin = sliding_window_view(t[1:], depth).min(axis=1)
    return (winmin[: n_max + 1] - t[: n_max + 1])[1:]


def temperedness_curve_at(family, omega, lam, n_max, depth=DEFAULT_DEPTH,
                          grid_size=DEFAULT_GRID):
    """(1/n) log C(T^n w) for n = 1..n_max along the orbit of omega.

    Temperedness of C predicts decay to 0; the curve is the empirical probe.
    """
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1)
    if isinstance(family, CircleFamily) and family.linear:
        _check_constant_args(lam, depth)
        log_cs = _curve_fast(family, omega, lam, n_max, depth)
    else:
        log_cs = tempered_constants(family, [omega], ns, lam, depth, grid_size)[0][0]
    return TemperednessCurve(ns=ns, values=log_cs / ns)


def one_step_min_expansions(family, omegas):
    """Analytic minimum one-step expansion factor D_1(w) of each w in
    `omegas`, from one read of their parameters."""
    return min_expansion_factors(family, family.params_along(omegas, 1)[:, 0]).tolist()


def variable_rate_corollary(family, spec, seed, samples, a_estimate):
    """Monte Carlo check that the mean log of the per-state rates is positive.

    A positive mean (beyond 3 standard errors) means the constant-rate
    machinery applies; the candidate constant rate is half the uniform rate
    estimate `a_estimate`, when that is positive.  A mean consistent with
    zero or negative, or a single sample (no error bar), is reported as
    inconclusive: the hypothesis fails, nothing is broken.
    """
    logs = np.array([math.log(d) for d in one_step_min_expansions(
        family, sample_base(spec, seed, samples))])
    est, se = float(logs.mean()), std_err(logs)
    if clears_error_bar(est, se, samples):
        half = 0.5 * a_estimate if a_estimate > 0 else None
        return CorollaryReport(est, se, samples, "positive", lambda_const=half)
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
    One engine call sweeps the rate and supadditivity windows, which do not
    depend on lambda, and `tempered_constants` a second, the constants and
    the curve of every sample at lambda.
    """
    for name, value in (("depth", depth), ("curve_n_max", curve_n_max),
                        ("supadd_samples", supadd_samples)):
        if value is not None and value < 1:
            raise ContractError(f"{name} must be >= 1")
    if n_max < 4:
        raise ContractError("n_max must be >= 4")
    n_res = supadd_N if supadd_N is not None else min(n_max, 12)
    omegas = sample_base(spec, seed, samples)
    supadd, supadd_lens = _supadd_windows(family, omegas[:supadd_samples], n_res)
    rate_windows = family.params_along(omegas, n_max)
    table = np.zeros((samples + len(supadd), max(n_max, n_res)), rate_windows.dtype)
    table[:samples, :n_max], table[samples:, :n_res] = rate_windows, supadd
    uppers, lowers = _brackets(family, table, np.r_[[n_max] * samples, supadd_lens],
                               grid_size, threads)
    rate = _rate_estimate(family, uppers, lowers, samples, n_max, grid_size)
    a_est = rate.a_estimate
    details = {"trend": [list(t) for t in rate.trend], "n_max": n_max,
               "grid_size": grid_size, "samples": samples,
               "a_std_err": rate.a_std_err}

    # A must be positive beyond its own sampling noise; a marginal system
    # (mean log rate near 0) must not slip through on a lucky draw, and a
    # single sample has no error bar at all.
    if not clears_error_bar(a_est, rate.a_std_err, samples):
        empty = TemperednessCurve(np.array([1]), np.array([0.0]))
        return ExpansionCertificate(a_est, None, (), empty, 0.0,
                                    "inconclusive", details, rate)

    lam = 0.5 * a_est if lam is None else lam
    eff_depth = certified_depth(family, grid_size, depth)
    details["depth"] = eff_depth

    fast = isinstance(family, CircleFamily) and family.linear
    if curve_n_max is None:
        curve_n_max = 10_000 if fast else 128
    # column 0: each sample's constant; columns 1..curve_n_max: its curve
    log_c, ks = tempered_constants(family, omegas, range(1 if fast else curve_n_max + 1),
                                   lam, eff_depth, grid_size, a_est, threads)
    c_samples = tuple((w.describe(), TemperedConstant(lc, k, eff_depth, lam).value, lc, k)
                      for w, lc, k in zip(omegas, log_c[:, 0].tolist(), ks[:, 0].tolist()))
    ns = np.arange(1, curve_n_max + 1)
    log_cs = (np.stack([_curve_fast(family, w, lam, curve_n_max, eff_depth) for w in omegas])
              if fast else log_c[:, 1:])
    curve = TemperednessCurve(ns, np.mean(log_cs / ns, axis=0))
    min_residual = min(r for i in range(samples, len(lowers), n_res) for (_, _, r)
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
