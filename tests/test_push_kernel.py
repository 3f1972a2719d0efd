"""The blocked prefix-product push kernel against the step-by-step loop."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randhyp import (BaseSystemSpec, make_family, oseledets_spectrum, point,
                     sample_base, shift_by)
from randhyp import cocycle
from randhyp.cocycle import _block_len, push_log_stretches, window_products
from randhyp.splitting import (_bundle_constant_curve, _truncated_log_inf,
                               finite_time_bundles)

FAMILIES = {
    "random-cat": ("random-cat", {}),
    "diagonal-one": ("diagonal-cocycle", {"a_values": [2.0], "b_values": [0.5]}),
    "diagonal-two": ("diagonal-cocycle",
                     {"a_values": [2.0, 0.5], "b_values": [3.0, 4.0]}),
    "parabolic": ("random-cat", {"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}),
    # entries of 1e20 cut the blocks to a few steps
    "huge": ("diagonal-cocycle", {"a_values": [1e20, 3.0], "b_values": [1e-20, 0.5]}),
}
BASES = {
    "dirac": BaseSystemSpec.dirac(),
    "bernoulli": BaseSystemSpec.bernoulli([0.5, 0.5]),
    "markov": BaseSystemSpec.markov([[0.9, 0.1], [0.3, 0.7]]),
    "rotation": BaseSystemSpec.rotation(0.6180339887498949),
}


def step_loop(entries, idx, v):
    """Per-step log stretches of v, renormalized after every matrix."""
    v0, v1 = float(v[0]), float(v[1])
    out = np.empty(len(idx))
    for i, j in enumerate(idx):
        a00, a01, a10, a11 = entries[j]
        w0 = a00 * v0 + a01 * v1
        w1 = a10 * v0 + a11 * v1
        norm = math.sqrt(w0 * w0 + w1 * w1)
        out[i] = math.log(norm)
        v0, v1 = w0 / norm, w1 / norm
    return out


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_matches_step_loop(family, base):
    fam = make_family(*FAMILIES[family])
    w = sample_base(BASES[base], 5, 1)[0]
    rng = np.random.default_rng(0)
    def backward(w, n):
        return fam.params_along([shift_by(w, -n)], n)[0, ::-1]

    def forward(w, n):
        return fam.params_along([w], n)[0]
    for table, indices in ((fam.matrices, forward),
                           (fam.inverses, backward)):
        L = _block_len(table.reshape(-1, 4))
        for n in sorted({1, 2, max(1, L - 1), L, L + 1, 10_000}):
            idx = indices(w, n)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            got = push_log_stretches(table, idx[None], v[None])[0]
            ref = step_loop(table.reshape(-1, 4).tolist(), idx, v)
            assert got.shape == (n,)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_block_products_stay_in_range():
    fam = make_family(*FAMILIES["huge"])
    L = _block_len(fam.matrices.reshape(-1, 4))
    assert 1 <= L <= 5 and (1e20 * math.sqrt(2)) ** L < 1e101
    assert _block_len(make_family("random-cat").matrices.reshape(-1, 4)) == 32


def test_rows_do_not_depend_on_the_batch():
    fam = make_family("random-cat")
    table = np.concatenate([fam.matrices, fam.inverses])
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(table), size=(200, 700))
    v = rng.normal(size=(200, 2))
    batch = push_log_stretches(table, idx, v)
    for r in range(200):
        alone = push_log_stretches(table, idx[r:r + 1], v[r:r + 1])[0]
        assert alone.tobytes() == batch[r].tobytes()


# vector r rides row ROWS[r]: rows 0 and 3 are shared, the order is
# shuffled, and row 2 carries no vector
ROWS = (3, 0, 3, 1, 3, 0)


@pytest.mark.parametrize("side", ["forward", "inverse"])
@pytest.mark.parametrize("family", ["random-cat", "diagonal-one", "diagonal-two", "huge"])
def test_shared_rows_match_one_vector_calls(family, side):
    # each vector's stretches are those of a call that pushes it alone
    fam = make_family(*FAMILIES[family])
    table = fam.matrices if side == "forward" else fam.inverses
    starts = sample_base(BASES["bernoulli"], 11, 4)
    rng = np.random.default_rng(3)
    L = _block_len(table.reshape(-1, 4))
    for n in sorted({1, max(1, L - 1), L, L + 1, 10_000}):
        idx = fam.params_along(starts, n)
        v = rng.normal(size=(len(ROWS), 2))
        got = push_log_stretches(table, idx, v, ROWS)
        assert got.shape == (len(ROWS), n)
        for r, row in enumerate(ROWS):
            alone = push_log_stretches(table, idx[row][None], v[r][None])[0]
            assert got[r].tobytes() == alone.tobytes()


def test_more_vectors_than_a_chunk_holds():
    # a chunk holds _CELLS // L vectors; these span three groups, with a
    # row's vectors split between groups
    fam = make_family("random-cat")
    table = np.concatenate([fam.matrices, fam.inverses])
    group = cocycle._CELLS // _block_len(table.reshape(-1, 4))
    count = 2 * group + 44
    rng = np.random.default_rng(4)
    idx = rng.integers(0, len(table), size=(5, 700))
    rows = rng.choice([0, 1, 3, 4], size=count)
    ranked = np.sort(rows)                  # the kernel groups vectors in row order
    assert count > 2 * group and ranked[group - 1] == ranked[group]
    v = rng.normal(size=(count, 2))
    got = push_log_stretches(table, idx, v, rows)
    for r, row in enumerate(rows):
        alone = push_log_stretches(table, idx[row][None], v[r][None])[0]
        assert got[r].tobytes() == alone.tobytes()


def _two_row_push(family, n, rows=(0, 1, 1, 1)):
    """Forward+inverse table, two random index rows of length n, and a random
    start vector for each entry of `rows`."""
    fam = make_family(*FAMILIES[family])
    table = np.concatenate([fam.matrices, fam.inverses])
    rng = np.random.default_rng(6)
    idx = rng.integers(0, len(table), size=(2, n))
    v = rng.normal(size=(4, 2))
    return table, idx, v[:len(rows)], rows


# SHA-256 of pushes that span many chunks (n = 20 000), recorded before the
# kernel wrote into per-call buffers; like the payload pins, they hold for
# the numpy build and CPU they were recorded on (numpy 2.4.6, x86-64)
MULTI_CHUNK_PINNED = {
    "random-cat": "1f2fcc2f55bdb6ac66bd90378a3a81f935b4e8dce667a504dea14116f3577810",
    "huge": "f0765fe68e0798b34efa4457689427181709de33f7d15eea254a30b1518110fb",
}


@pytest.mark.parametrize("family", MULTI_CHUNK_PINNED)
def test_multi_chunk_push_bytes_are_pinned(family):
    out = push_log_stretches(*_two_row_push(family, 20_000))
    assert out.shape == (4, 20_000)
    assert hashlib.sha256(out.tobytes()).hexdigest() == MULTI_CHUNK_PINNED[family]


@pytest.mark.parametrize("rows", [(0, 1, 1, 1), (1, 0)], ids=["shared", "unshared"])
@pytest.mark.parametrize("family", ["random-cat", "huge"])
def test_output_does_not_depend_on_the_chunk_size(family, rows, monkeypatch):
    table, idx, v, rows = _two_row_push(family, cocycle._CELLS + 1, rows)
    L = _block_len(table.reshape(-1, 4))
    span = max(1, cocycle._CELLS // (len(rows) * L)) * L     # steps a default chunk
    for n in (span - 1, span, span + 1):
        default = push_log_stretches(table, idx[:, :n], v, rows)
        for cells in (L, 3 * L, 4096, 8192, 2 ** 20):
            with monkeypatch.context() as patch:
                patch.setattr(cocycle, "_CELLS", cells)
                got = push_log_stretches(table, idx[:, :n], v, rows)
            assert got.tobytes() == default.tobytes(), (n, cells)


@pytest.mark.parametrize("rows", [(0,), (0, 1, 1, 1)], ids=["one", "shared"])
def test_working_memory_is_bounded_by_the_chunk(rows):
    # the traced peak less the output and the padded index table is the
    # kernel's working memory, which must not grow with the orbit
    work = []
    for n in (10_000, 100_000):
        table, idx, v, rows = _two_row_push("random-cat", n, rows)
        L = _block_len(table.reshape(-1, 4))
        padded = len(idx) * -(-n // L) * L * np.dtype(int).itemsize
        tracemalloc.start()
        try:
            out = push_log_stretches(table, idx, v, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work.append(peak - out.nbytes - padded)
    assert abs(work[1] - work[0]) <= 0.1 * work[0], work


def _carried_blocks(monkeypatch, *push):
    """Block steps the carry loop makes, counted through its one sqrt."""
    count = [0]

    def sqrt(x):
        count[0] += 1
        return math.sqrt(x)
    monkeypatch.setattr(cocycle, "math", type("counted", (), {
        "sqrt": staticmethod(sqrt), "log": staticmethod(math.log)}))
    push_log_stretches(*push)
    return count[0]


def test_coalesced_directions_are_pushed_once(monkeypatch):
    # the three row-1 vectors of random-cat line up (up to sign) within a
    # chunk, so from the second chunk on the carry pushes one of them
    table = make_family("random-cat").matrices
    idx = np.random.default_rng(6).integers(0, len(table), size=(2, 10_000))
    v = np.random.default_rng(7).normal(size=(4, 2))
    blocks = -(-10_000 // _block_len(table.reshape(-1, 4)))
    assert _carried_blocks(monkeypatch, table, idx, v, (0, 1, 1, 1)) < 0.6 * 4 * blocks


def test_distinct_directions_are_all_pushed(monkeypatch):
    # a diagonal pair keeps each axis: row 1's e1, (0.0, -1) and (-0.0, -1)
    # never share their bits, not even one negated, and row 0's e1 shares
    # row 1's only across rows
    table, idx, _, rows = _two_row_push("diagonal-two", 10_000)
    v = [(1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-0.0, -1.0)]
    blocks = -(-10_000 // _block_len(table.reshape(-1, 4)))
    assert _carried_blocks(monkeypatch, table, idx, v, rows) == 4 * blocks


STARTS = ((0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (0.6, -0.8), (-0.6, 0.8))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["random-cat", "inverse", "diagonal-two", "parabolic"]),
       n=st.one_of(st.integers(1, 100), st.integers(1000, 6000)),
       seed=st.integers(0, 2 ** 32 - 1),
       vectors=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 11)),
                        min_size=2, max_size=8))
@example(name="random-cat", n=3000, seed=0, vectors=[(0, 6), (0, 7), (0, 9), (0, 6)])
@example(name="diagonal-two", n=3000, seed=1, vectors=[(0, 3), (1, 3), (0, 6), (1, 7)])
@example(name="inverse", n=3000, seed=2, vectors=[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
@example(name="parabolic", n=3000, seed=3, vectors=[(2, 4), (2, 5), (2, 8), (2, 11)])
def test_batched_rows_equal_their_solo_pushes(name, n, seed, vectors):
    # starts 0-5 are fixed, with 0.0 against -0.0 and pairs of opposite
    # directions among them; 6-8 are random and 9-11 their negatives; a
    # repeat puts one start on a row twice or on two rows
    fam = make_family(*FAMILIES["random-cat" if name == "inverse" else name])
    table = fam.inverses if name == "inverse" else fam.matrices
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(table), size=(3, n))
    random = rng.normal(size=(3, 2))
    starts = np.vstack([STARTS, random, -random])
    rows = [r for r, _ in vectors]
    v = starts[[k for _, k in vectors]]
    got = push_log_stretches(table, idx, v, rows)
    for r, row in enumerate(rows):
        alone = push_log_stretches(table, idx[row][None], v[r][None])[0]
        assert got[r].tobytes() == alone.tobytes(), (r, row)


def test_window_products_match_step_loop_bitwise():
    fam = make_family("random-cat")
    idx = np.random.default_rng(2).integers(0, 2, size=(50, 40))
    left = window_products(fam.matrices, idx)
    right = window_products(fam.matrices, idx, left=False)
    for r in range(50):
        lp, rp = np.eye(2), np.eye(2)
        for j in idx[r]:
            lp = fam.matrices[j] @ lp
            lp /= np.abs(lp).max()
            rp = rp @ fam.matrices[j]
            rp /= np.abs(rp).max()
        assert left[r].tobytes() == lp.tobytes()
        assert right[r].tobytes() == rp.tobytes()


@pytest.mark.parametrize("horizon, depth", [(12, 20), (20, 12)])
@pytest.mark.parametrize("base", BASES)
def test_curve_batch_matches_per_offset(base, horizon, depth):
    fam = make_family("random-cat")
    w = sample_base(BASES[base], 9, 1)[0]
    lam, curve_len = 0.3, 6
    vals1, vals2 = _bundle_constant_curve(fam, w, lam, curve_len, horizon, depth)
    for k in range(1, curve_len + 1):
        state = shift_by(w, k)
        pair = finite_time_bundles(fam, state, point(0.0, 0.0), horizon)
        logs1, logs2 = push_log_stretches(
            np.concatenate([fam.matrices, fam.inverses]),
            [fam.params_along([shift_by(state, -depth)], depth)[0, ::-1]
             + len(fam.matrices),
             fam.params_along([state], depth)[0]], [pair.gamma1, pair.gamma2])
        assert vals1[k - 1] == _truncated_log_inf(logs1, lam, depth) / k
        assert vals2[k - 1] == _truncated_log_inf(logs2, lam, depth) / k


@pytest.mark.parametrize("family", FAMILIES)
def test_spectrum_sum_rule(family):
    fam = make_family(*FAMILIES[family])
    w = sample_base(BASES["bernoulli"], 3, 1)[0]
    n = 5000
    est = oseledets_spectrum(fam, w, point(0.2, 0.7), n)
    logdet = math.fsum(math.log(abs(np.linalg.det(fam.matrices[j])))
                       for j in fam.params_along([w], n)[0])
    assert abs(sum(est.exponents) * n - logdet) <= 1e-12 * max(1.0, abs(logdet))
    if fam.family_id == "random-cat":
        assert est.exponents[0] == -est.exponents[1]
