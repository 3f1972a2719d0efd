"""The prefix-sharing sweep engine against a plain per-window step loop."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randhyp import (BaseSystemSpec, FiberFamily, UnsupportedOperationError,
                     make_family, sample_base, shift_by)
from randhyp.expansion import _brackets, lipschitz_slack, min_expansion_sweep, sweep_windows

BASES = {
    "bernoulli": BaseSystemSpec.bernoulli([0.5, 0.5]),
    "markov": BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]),
    "rotation": BaseSystemSpec.rotation(0.6180339887498949),
    "dirac": BaseSystemSpec.dirac(),
}


def swept_points(family, grid_size):
    """How many grid points j / grid_size, from j = 0, a sweep steps: those
    with j <= grid_size // 2 for an odd family, whose other points mirror
    them."""
    return grid_size // 2 + 1 if family.odd else grid_size


def step_loop(family, window, grid_size, points=None):
    """One window swept step by step over the full grid: the definition the
    engine must meet.  Minima are taken over the first `points` grid points
    (all by default)."""
    cur, acc = np.arange(grid_size) / grid_size, np.zeros(grid_size)
    uppers = np.empty(len(window))
    for i, p in enumerate(window):
        acc += family.log_deriv(p, cur, np)
        uppers[i] = acc[:points].min()
        cur = family.apply(p, cur, np)
    slacks = np.array([lipschitz_slack(family, n, grid_size)
                       for n in range(1, len(window) + 1)])
    return uppers, uppers - slacks


def assert_matches_loop(family, windows, grid_size, sweeps):
    """Each sweep has the bytes of the full-grid loop restricted to the
    swept points, and its uppers lie at or above the loop's full-grid
    minima: within 1e-12 up to n = 12, beyond that within a bound growing
    like the float orbit's rounding drift, (sup |D phi|)^n."""
    assert len(sweeps) == len(windows)
    points = swept_points(family, grid_size)
    for w, s in zip(windows, sweeps):
        uppers, lowers = step_loop(family, w, grid_size, points)
        assert s.uppers.tobytes() == uppers.tobytes()
        assert s.lowers.tobytes() == lowers.tobytes()
        assert s.grid_size == grid_size
        full = step_loop(family, w, grid_size)[0]
        past_12 = np.maximum(0, np.arange(1, len(w) + 1) - 12)
        assert np.all(full <= s.uppers)
        assert np.all(s.uppers <= full + 1e-12 * family.sup_dphi ** past_12)


def mixed_windows(family, spec):
    """Windows of lengths 1..20 from several orbits and offsets, with exact
    duplicates and a window that is a prefix of another."""
    omegas = sample_base(spec, 3, 3)
    windows = [family.params_along([shift_by(w, k)], n)[0]
               for w in omegas for k in (0, 1, 5) for n in (1, 2, 7, 20)]
    long = family.params_along(omegas[:1], 20)[0]
    return windows + [long[:9], long.copy(), long[:1], windows[3].copy()]


@pytest.mark.parametrize("grid_size", [64, 65, 4096])
@pytest.mark.parametrize("base", BASES)
def test_windows_match_the_step_loop(base, grid_size):
    fam = make_family("perturbed-doubling")
    windows = mixed_windows(fam, BASES[base])
    assert_matches_loop(fam, windows, grid_size,
                        sweep_windows(fam, windows, grid_size))


EXACT = [
    ("bernoulli-linear", None),
    ("diagonal-cocycle", {"a_values": [2.0, 1.5], "b_values": [3.0, 4.0]}),
    ("random-cat", None),
    ("doubling", None),
]


@pytest.mark.parametrize("base", BASES)
def test_threads_give_the_same_bytes(base):
    for name, params in [("perturbed-doubling", None)] + EXACT[:3]:
        fam = make_family(name, params)
        windows = mixed_windows(fam, BASES[base])
        one, four = (sweep_windows(fam, windows, 256, threads=t) for t in (1, 4))
        for a, b in zip(one, four):
            assert a.uppers.tobytes() == b.uppers.tobytes()
            assert a.lowers.tobytes() == b.lowers.tobytes()


def exact_loop(family, window):
    """Exact per-window uppers of the x-independent families; a torus upper
    is log |det| - log sigma_max of the product."""
    if family.manifold_dim == 1:
        return np.cumsum(family.log_deriv(window, 0.0, np))
    prod, logscale, logdet = np.eye(2), 0.0, 0.0
    uppers = np.empty(len(window))
    for i, j in enumerate(window):
        prod = family.matrices[j] @ prod
        scale = np.abs(prod).max()
        prod /= scale
        logscale += math.log(scale)
        logdet += family.log_dets[j]
        uppers[i] = logdet - logscale - math.log(np.linalg.svd(prod, compute_uv=False)[0])
    return uppers


def rational_min_log_expansions(family, window):
    """log sigma_min of the product P after each step of `window`, with P,
    det P and F = |P|_F^2 exact in rationals: sigma_min = |det P| / sigma_max
    and sigma_max^2 = (F + sqrt(F^2 - 4 det^2)) / 2, whose roots and logs
    mpmath takes at a precision that grows with n."""
    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator
    mats = [[[Fraction(v) for v in row] for row in m] for m in family.matrices.tolist()]
    (p, q), (r, s) = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    out = []
    for n, j in enumerate(window.tolist(), 1):
        (a, b), (c, d) = mats[j]
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        det, frob = p * s - q * r, p * p + q * q + r * r + s * s
        with mpmath.workdps(30 + 2 * n):
            smax = mpmath.sqrt((mp(frob) + mpmath.sqrt(mp(frob * frob - 4 * det * det))) / 2)
            out.append(float(mpmath.log(abs(mp(det))) - mpmath.log(smax)))
    return np.array(out)


@pytest.mark.parametrize("name, params", EXACT[1:3])
@pytest.mark.parametrize("base", ["bernoulli", "dirac"])
def test_torus_brackets_match_exact_arithmetic(name, params, base):
    # the cat map's sigma_min / sigma_max falls below 1e-16 at n = 20: an
    # SVD of the float product cannot give its sigma_min past there
    fam = make_family(name, params)
    for w in sample_base(BASES[base], 7, 3):
        window = fam.params_along([w], 80)[0]
        exact = rational_min_log_expansions(fam, window)
        sweep = min_expansion_sweep(fam, w, 80)
        assert np.all(np.abs(sweep.uppers - exact)
                      <= 1e-12 * np.maximum(1.0, np.abs(exact)))


@pytest.mark.parametrize("name, params", EXACT)
@pytest.mark.parametrize("base", BASES)
def test_exact_families_match_their_loop(name, params, base):
    fam = make_family(name, params)
    windows = mixed_windows(fam, BASES[base])
    sweeps = sweep_windows(fam, windows, 256)
    for w, s in zip(windows, sweeps):
        assert s.uppers.tobytes() == exact_loop(fam, w).tobytes()
        assert s.lowers.tobytes() == s.uppers.tobytes()
        assert s.grid_size == 1


def distinct_prefixes(windows):
    return len({w[:n].tobytes() for w in windows for n in range(1, len(w) + 1)})


def counted_runs(family, monkeypatch):
    """The lengths of the parameter runs of every `sweep_steps` call."""
    runs, sweep_steps = [], family.sweep_steps

    def counted(ps, state, own, leaf):
        runs.append(len(ps))
        return sweep_steps(ps, state, own, leaf)

    monkeypatch.setattr(family, "sweep_steps", counted)
    return runs


@pytest.mark.parametrize("name, params", [("perturbed-doubling", None)] + EXACT)
@pytest.mark.parametrize("base", BASES)
def test_each_distinct_parameter_prefix_is_stepped_once(name, params, base,
                                                        monkeypatch):
    fam = make_family(name, params)
    windows = mixed_windows(fam, BASES[base])
    runs = counted_runs(fam, monkeypatch)
    sweep_windows(fam, windows, 64)
    assert sum(runs) == distinct_prefixes(windows)


@pytest.mark.parametrize("name, params", [("perturbed-doubling", None)] + EXACT)
@pytest.mark.parametrize("base", BASES)
def test_padded_table_rows_hold_their_windows_then_inf(name, params, base,
                                                        monkeypatch):
    # one (N, 20) table, each row padded past its length with the reversed
    # 20-step window: within its length a row has its window's
    # `sweep_windows` bytes, past it +inf, and the padding is never stepped
    fam = make_family(name, params)
    windows = mixed_windows(fam, BASES[base])
    lens = [len(w) for w in windows]
    filler = windows[-3][::-1]
    table = np.array([np.r_[w, filler[n:]] for w, n in zip(windows, lens)])
    sweeps = sweep_windows(fam, windows, 64)
    runs = counted_runs(fam, monkeypatch)
    uppers, lowers = _brackets(fam, table, lens, 64)
    assert sum(runs) == distinct_prefixes(windows)
    assert uppers.shape == lowers.shape == table.shape
    for s, u, lo, n in zip(sweeps, uppers, lowers, lens):
        assert u[:n].tobytes() == s.uppers.tobytes()
        assert lo[:n].tobytes() == s.lowers.tobytes()
        assert np.all(u[n:] == np.inf) and np.all(lo[n:] == np.inf)


def grid_calls(family, grid_size, monkeypatch):
    """Counts of the sin, cos, `apply` and `terms` calls of a sweep over its
    swept points."""
    calls = {"sin": 0, "cos": 0, "apply": 0, "terms": 0}
    shape = (swept_points(family, grid_size),)

    def counted(name, f, at):
        def call(*args, **kwargs):
            calls[name] += np.shape(args[at]) == shape
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "sin", counted("sin", np.sin, 0))
    monkeypatch.setattr(np, "cos", counted("cos", np.cos, 0))
    monkeypatch.setattr(family, "apply", counted("apply", family.apply, 1))
    monkeypatch.setattr(family, "terms", counted("terms", family.terms, 0))
    return calls


def assert_grid_work(family, windows, grid_size, monkeypatch):
    """Trig once per engine call, for the start grid's `terms`, which every
    root step reads; past the roots, only at steps with eps != 0: one cos
    each, and one sin unless the step ends a leaf, whose image no step
    reads.  `apply` runs once per distinct parameter prefix that is not a
    leaf."""
    steps = {w[:n].tobytes(): w[n - 1] for w in windows
             for n in range(1, len(w) + 1)}
    leaves = set(steps) - {w[:n - 1].tobytes() for w in windows
                           for n in range(2, len(w) + 1)}
    later = {k for k, eps in steps.items() if len(k) > 8 and eps != 0.0}
    calls = grid_calls(family, grid_size, monkeypatch)
    sweep_windows(family, windows, grid_size)
    assert calls["terms"] == 1
    assert calls["cos"] == 1 + len(later)
    assert calls["sin"] == 1 + len(later - leaves)
    assert calls["apply"] == len(steps) - len(leaves)


@pytest.mark.parametrize("base", BASES)
def test_grid_trig_only_at_nonzero_eps_and_no_image_at_leaves(base, monkeypatch):
    fam = make_family("perturbed-doubling")
    assert_grid_work(fam, mixed_windows(fam, BASES[base]), 64, monkeypatch)


@pytest.mark.parametrize("threads", [1, 4])
def test_many_nonzero_roots_on_a_fine_grid_match_the_step_loop(threads):
    # a rotation base drives each orbit position with its own angle, so the
    # windows start 24 distinct nonzero roots, all reading one start grid's
    # terms; some roots end a window and go on in a longer one
    fam, grid = make_family("perturbed-doubling"), 1 << 16
    omegas = sample_base(BASES["rotation"], 5, 12)
    windows = [fam.params_along([shift_by(w, k)], n)[0]
               for w in omegas for k, n in ((0, 1), (0, 3), (1, 2))]
    roots = {w[0] for w in windows}
    assert len(roots) == 24 and 0.0 not in roots
    assert_matches_loop(fam, windows, grid, sweep_windows(fam, windows, grid, threads))


def test_the_start_grids_terms_are_its_own_and_read_only():
    # each start state evaluates its own grid's terms, whatever the family
    # swept before
    fam = make_family("perturbed-doubling")
    for grid_size in (64, 65, 64):
        grid, _, terms = fam.sweep_start(grid_size)
        assert [t.tobytes() for t in terms] == [f(2.0 * math.pi * grid).tobytes()
                                                for f in (np.sin, np.cos)]
        for t in terms:
            with pytest.raises(ValueError):
                t[0] = 1.0
    assert make_family("bernoulli-linear").sweep_start(64)[2] is None


@pytest.mark.parametrize("name, a, b", [("bernoulli-linear", 2.0, 3.0),
                                         ("random-cat", 0, 1)])
def test_unbranched_chains_are_stepped_in_one_call(name, a, b, monkeypatch):
    # a long horizon costs one call per trie chain, not one per step
    fam = make_family(name)
    windows = [np.full(2000, a), np.full(2000, b), np.r_[a, np.full(1999, b)]]
    runs = counted_runs(fam, monkeypatch)
    sweep_windows(fam, windows, 64)
    assert sorted(runs) == [1, 1999, 1999, 2000]


class _PointFamily(FiberFamily):
    """A family outside the two certified classes."""

    family_id = "point"

    def params_along(self, omegas, n):
        return np.zeros((len(omegas), n))


def test_other_families_cannot_be_certified():
    with pytest.raises(UnsupportedOperationError):
        sweep_windows(_PointFamily(), [np.zeros(3)], 64)


EPS = (0.0, 0.05, 0.1)   # a 3-symbol parameter alphabet


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EPS), min_size=1, max_size=10),
                min_size=1, max_size=8))
def test_random_window_sets_match_the_step_loop(words):
    fam = make_family("perturbed-doubling")
    windows = [np.array(w) for w in words]
    assert_matches_loop(fam, windows, 64, sweep_windows(fam, windows, 64))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EPS), min_size=1, max_size=10),
                min_size=1, max_size=8))
def test_random_window_sets_skip_zero_eps_trig_and_leaf_images(words):
    fam = make_family("perturbed-doubling")
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_grid_work(fam, [np.array(w) for w in words], 64, monkeypatch)


def branching_depth(windows):
    """Largest number of branching non-root trie nodes above any node."""
    paths = [tuple(w.tobytes()[8 * i:8 * i + 8] for i in range(len(w)))
             for w in windows]
    kids = {}
    for path in paths:
        for n in range(1, len(path)):
            kids.setdefault(path[:n], set()).add(path[n])
    return max(sum(len(kids.get(path[:n], ())) > 1 for n in range(1, len(path)))
               for path in paths)


@pytest.mark.parametrize("words", [
    [(0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 0), (0, 2), (1, 0), (2,)],
    [(0,) * 12, (0,) * 6 + (1,) * 6, (0, 0, 1, 1, 2, 2), (0, 0, 1, 1, 2, 0)],
    [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)],
])
def test_saved_states_stay_within_the_branching_depth(words, monkeypatch):
    # Count live arrays of the swept points by traced memory at every grid
    # step: the grid itself and its two terms, sin and cos, which the start
    # state holds through the call; the (cur, acc) pair being stepped; and
    # two per saved state.
    grid = 1 << 16
    fam = make_family("perturbed-doubling")
    points = swept_points(fam, grid)
    windows = [np.array([EPS[s] for s in word]) for word in words]
    arrays, log_deriv = [], fam.log_deriv

    def counted_log_deriv(p, x, xp, terms=None):
        arrays.append((tracemalloc.get_traced_memory()[0] - base) // (8 * points))
        return log_deriv(p, x, xp, terms)

    monkeypatch.setattr(fam, "log_deriv", counted_log_deriv)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep_windows(fam, windows, grid)
    finally:
        tracemalloc.stop()
    depth = branching_depth(windows)
    assert depth >= 1
    terms = 2
    assert arrays[0] == 1 + terms   # a root step: the grid is its cur
    assert 3 + terms <= max(arrays) <= 3 + terms + 2 * depth
