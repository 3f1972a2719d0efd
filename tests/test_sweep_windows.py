"""The prefix-sharing sweep engine against a plain per-window step loop."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randhyp import BaseSystemSpec, make_family, sample_base, shift_by
from randhyp.expansion import lipschitz_slack, sweep_windows

BASES = {
    "bernoulli": BaseSystemSpec.bernoulli([0.5, 0.5]),
    "markov": BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]),
    "rotation": BaseSystemSpec.rotation(0.6180339887498949),
    "dirac": BaseSystemSpec.dirac(),
}


def step_loop(family, window, grid_size):
    """One window swept step by step: the definition the engine must meet."""
    xs0 = np.arange(grid_size) / grid_size
    cur, acc = xs0.copy(), np.zeros(grid_size)
    uppers = np.empty(len(window))
    for i, p in enumerate(window):
        acc += family.log_deriv(p, cur, np)
        uppers[i] = acc.min()
        cur = family.apply(p, cur, np)
    slacks = np.array([lipschitz_slack(family, n, grid_size)
                       for n in range(1, len(window) + 1)])
    return uppers, uppers - slacks, (float(xs0[int(np.argmin(acc))]),)


def assert_matches_loop(family, windows, grid_size, sweeps):
    assert len(sweeps) == len(windows)
    for w, s in zip(windows, sweeps):
        uppers, lowers, argmin = step_loop(family, w, grid_size)
        assert s.uppers.tobytes() == uppers.tobytes()
        assert s.lowers.tobytes() == lowers.tobytes()
        assert s.argmin_coords == argmin
        assert s.argmin_v == (1.0,)
        assert s.grid_size == grid_size


def mixed_windows(family, spec):
    """Windows of lengths 1..20 from several orbits and offsets, with exact
    duplicates and a window that is a prefix of another."""
    omegas = sample_base(spec, 3, 3)
    windows = [family.params_along(shift_by(w, k), n)
               for w in omegas for k in (0, 1, 5) for n in (1, 2, 7, 20)]
    long = family.params_along(omegas[0], 20)
    return windows + [long[:9], long.copy(), long[:1], windows[3].copy()]


@pytest.mark.parametrize("grid_size", [64, 4096])
@pytest.mark.parametrize("base", BASES)
def test_windows_match_the_step_loop(base, grid_size):
    fam = make_family("perturbed-doubling")
    windows = mixed_windows(fam, BASES[base])
    assert_matches_loop(fam, windows, grid_size,
                        sweep_windows(fam, windows, grid_size))


@pytest.mark.parametrize("base", BASES)
def test_threads_give_the_same_bytes(base):
    fam = make_family("perturbed-doubling")
    windows = mixed_windows(fam, BASES[base])
    one, four = (sweep_windows(fam, windows, 256, threads=t) for t in (1, 4))
    for a, b in zip(one, four):
        assert a.uppers.tobytes() == b.uppers.tobytes()
        assert a.lowers.tobytes() == b.lowers.tobytes()
        assert a.argmin_coords == b.argmin_coords


def exact_loop(family, window):
    """Exact per-window brackets of the x-independent families."""
    if family.manifold_dim == 1:
        return np.cumsum(family.log_deriv(window, 0.0, np))
    prod, logscale, uppers = np.eye(2), 0.0, np.empty(len(window))
    for i, j in enumerate(window):
        prod = family.matrices[j] @ prod
        scale = np.abs(prod).max()
        prod /= scale
        logscale += math.log(scale)
        uppers[i] = logscale + math.log(np.linalg.svd(prod, compute_uv=False)[-1])
    return uppers


@pytest.mark.parametrize("name, params", [
    ("bernoulli-linear", None),
    ("diagonal-cocycle", {"a_values": [2.0, 1.5], "b_values": [3.0, 4.0]}),
    ("random-cat", None),
])
@pytest.mark.parametrize("base", BASES)
def test_exact_families_match_their_loop(name, params, base):
    fam = make_family(name, params)
    windows = mixed_windows(fam, BASES[base])
    sweeps = sweep_windows(fam, windows, 256)
    for w, s in zip(windows, sweeps):
        assert s.uppers.tobytes() == exact_loop(fam, w).tobytes()
        assert s.lowers.tobytes() == s.uppers.tobytes()
        assert s.grid_size == 1
    alone = [sweep_windows(fam, [w], 256)[0] for w in windows]
    assert [s.argmin_v for s in sweeps] == [s.argmin_v for s in alone]


EPS = (0.0, 0.05, 0.1)   # a 3-symbol parameter alphabet


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EPS), min_size=1, max_size=10),
                min_size=1, max_size=8))
def test_random_window_sets_match_the_step_loop(words):
    fam = make_family("perturbed-doubling")
    windows = [np.array(w) for w in words]
    assert_matches_loop(fam, windows, 64, sweep_windows(fam, windows, 64))


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
    # Count live grid-sized arrays by traced memory at every grid step: the
    # grid itself, the (cur, acc) pair being stepped and two per saved state.
    grid = 1 << 16
    fam = make_family("perturbed-doubling")
    windows = [np.array([EPS[s] for s in word]) for word in words]
    arrays, log_deriv = [], fam.log_deriv

    def counted_log_deriv(p, x, xp):
        arrays.append((tracemalloc.get_traced_memory()[0] - base) // (8 * grid))
        return log_deriv(p, x, xp)

    monkeypatch.setattr(fam, "log_deriv", counted_log_deriv)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep_windows(fam, windows, grid)
    finally:
        tracemalloc.stop()
    depth = branching_depth(windows)
    assert depth >= 1
    assert 3 <= max(arrays) <= 3 + 2 * depth
