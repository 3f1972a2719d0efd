"""The blocked push kernel's log growth at cuts against the step-by-step loop."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randhyp import (BaseSystemSpec, make_family, oseledets_spectrum, point,
                     sample_base, shift_by)
from randhyp import cocycle
from randhyp.cocycle import _block_len, _tree, _work, push_log_stretches, window_products

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


def cuts_for(n, L):
    """Cuts at the block edges around L, a few inside, and n."""
    return np.unique(np.clip([1, 2, L - 1, L, L + 1, 2 * L + 3, n // 3, n // 2, n - 1, n], 1, n))


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_matches_step_loop(family, base):
    # G(c) is the fsum of the step loop's first c log stretches, to 1e-12
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
            cuts = cuts_for(n, L)
            got = push_log_stretches(table, idx[None], v[None], cuts)[0]
            logs = step_loop(table.reshape(-1, 4).tolist(), idx, v)
            ref = np.array([math.fsum(logs[:c]) for c in cuts])
            assert got.shape == (len(cuts),)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def hillis_steele_last(p):
    """The last prefix of a Hillis-Steele scan along axis 2 of (2, 2, L, M),
    each entry x0 y0 + x1 y1 of the later times the earlier product."""
    s = 1
    while s < p.shape[2]:
        (e, f), (g, h) = p[:, :, s:]
        (a, b), (c, d) = p[:, :, :-s]
        p = np.concatenate([p[:, :, :s], np.array([[e * a + f * c, e * b + f * d],
                                                  [g * a + h * c, g * b + h * d]])], axis=2)
        s *= 2
    return p[:, :, -1]


@pytest.mark.parametrize("L", [1, 2, 4, 32, 64])
def test_tree_block_products_are_the_scan_last_prefix(L):
    fam = make_family("random-cat")
    table = np.concatenate([fam.matrices, fam.inverses]).reshape(-1, 4)
    cols = np.vstack([table, (1.0, 0.0, 0.0, 1.0)]).T
    chunk = np.random.default_rng(L).integers(0, len(table) + 1, size=(3, 5, L))
    got = _tree(cols, chunk, _work(chunk.size))[-1]
    want = hillis_steele_last(cols[:, chunk.transpose(2, 0, 1)].reshape(2, 2, L, 15))
    assert got.tobytes() == want.tobytes()


def test_block_products_stay_in_range():
    # a block is the largest power of two of steps, up to 64, whose products
    # stay within 1e+-100
    fam = make_family(*FAMILIES["huge"])
    L = _block_len(fam.matrices.reshape(-1, 4))
    assert L == 4 and (1e20 * math.sqrt(2)) ** L < 1e101
    # sqrt(15)^L <= 1e100 allows 170 steps; the cap keeps 64
    assert _block_len(make_family("random-cat").matrices.reshape(-1, 4)) == 64


def test_rows_do_not_depend_on_the_batch():
    fam = make_family("random-cat")
    table = np.concatenate([fam.matrices, fam.inverses])
    rng = np.random.default_rng(1)
    idx = rng.integers(0, len(table), size=(200, 700))
    v = rng.normal(size=(200, 2))
    cuts = np.arange(1, 701)
    batch = push_log_stretches(table, idx, v, cuts)
    for r in range(200):
        alone = push_log_stretches(table, idx[r:r + 1], v[r:r + 1], cuts)[0]
        assert alone.tobytes() == batch[r].tobytes()


# vector r rides row ROWS[r]: rows 0 and 3 are shared, the order is
# shuffled, and row 2 carries no vector
ROWS = (3, 0, 3, 1, 3, 0)


@pytest.mark.parametrize("side", ["forward", "inverse"])
@pytest.mark.parametrize("family", ["random-cat", "diagonal-one", "diagonal-two", "huge"])
def test_shared_rows_match_one_vector_calls(family, side):
    # each vector's growth is that of a call that pushes it alone
    fam = make_family(*FAMILIES[family])
    table = fam.matrices if side == "forward" else fam.inverses
    starts = sample_base(BASES["bernoulli"], 11, 4)
    rng = np.random.default_rng(3)
    L = _block_len(table.reshape(-1, 4))
    for n in sorted({1, max(1, L - 1), L, L + 1, 10_000}):
        idx = fam.params_along(starts, n)
        v = rng.normal(size=(len(ROWS), 2))
        cuts = cuts_for(n, L)
        got = push_log_stretches(table, idx, v, cuts, ROWS)
        assert got.shape == (len(ROWS), len(cuts))
        for r, row in enumerate(ROWS):
            alone = push_log_stretches(table, idx[row][None], v[r][None], cuts)[0]
            assert got[r].tobytes() == alone.tobytes()


def test_more_vectors_than_a_chunk_holds():
    # a group holds _CELLS // L vectors; these span three groups, with a
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
    cuts = np.arange(1, 701, 7)
    got = push_log_stretches(table, idx, v, cuts, rows)
    for r, row in enumerate(rows):
        alone = push_log_stretches(table, idx[row][None], v[r][None], cuts)[0]
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


def certificate_cuts(n, depth=50, batches=20):
    """The splitting certificate's cuts: 1..depth, the batch ends and n."""
    return np.unique(np.concatenate([np.arange(1, depth + 1),
                                     n // batches * np.arange(1, batches + 1), [n]]))


CUTS = {"every": lambda n: np.arange(1, n + 1), "certificate": certificate_cuts}

# SHA-256 of the growth of pushes that span many chunks (n = 20 000), at
# every step and at the certificate's cuts; like tests/payload_hashes.json,
# they hold for the numpy build and CPU they were recorded on (numpy 2.4.6,
# x86-64)
MULTI_CHUNK_PINNED = {
    "random-cat": {
        "every": "7e0b1eba960c72055f0086c7b1f7e802fa8464be14f1f59e498577002b7074db",
        "certificate": "28b0b8fd21176daadc6c52429e767ade33e8531321d932c635ab2e4ef0545b84"},
    "huge": {
        "every": "e4850ae76100da6e93e4bb980082a1d799eeb29630c6815ac7010c0470d0b038",
        "certificate": "c980c6ab8869d133afe8d13032fd26d4585fde3a59aff3dbc4b25aa68d60cdda"},
}


@pytest.mark.parametrize("family", MULTI_CHUNK_PINNED)
def test_multi_chunk_push_bytes_are_pinned(family):
    table, idx, v, rows = _two_row_push(family, 20_000)
    for cuts, pinned in MULTI_CHUNK_PINNED[family].items():
        out = push_log_stretches(table, idx, v, CUTS[cuts](20_000), rows)
        assert out.shape == (4, len(CUTS[cuts](20_000)))
        assert hashlib.sha256(out.tobytes()).hexdigest() == pinned, cuts


@pytest.mark.parametrize("rows", [(0, 1, 1, 1), (1, 0)], ids=["shared", "unshared"])
@pytest.mark.parametrize("family", ["random-cat", "huge"])
def test_output_does_not_depend_on_the_chunk_size(family, rows, monkeypatch):
    table, idx, v, rows = _two_row_push(family, cocycle._CELLS + 1, rows)
    L = _block_len(table.reshape(-1, 4))
    span = max(1, cocycle._CELLS // (len(rows) * L)) * L    # steps the first chunk carries
    for n in (span - 1, span, span + 1):
        for cuts in (np.arange(1, n + 1), certificate_cuts(n, depth=min(50, n))):
            default = push_log_stretches(table, idx[:, :n], v, cuts, rows)
            for cells in (L, 3 * L, 4096, 8192, 2 ** 20):
                with monkeypatch.context() as patch:
                    patch.setattr(cocycle, "_CELLS", cells)
                    got = push_log_stretches(table, idx[:, :n], v, cuts, rows)
                assert got.tobytes() == default.tobytes(), (n, cells)


@pytest.mark.parametrize("rows", [(0,), (0, 1, 1, 1)], ids=["one", "shared"])
def test_working_memory_is_bounded_by_the_chunk(rows):
    # the traced peak less the output and the padded index table is the
    # kernel's working memory, which must not grow with the orbit, at the
    # certificate's cuts nor when every step is a cut
    for cuts in CUTS.values():
        work = []
        for n in (10_000, 100_000):
            table, idx, v, rows = _two_row_push("random-cat", n, rows)
            L = _block_len(table.reshape(-1, 4))
            padded = len(idx) * -(-n // L) * L * np.dtype(int).itemsize
            at = cuts(n)
            tracemalloc.start()
            try:
                out = push_log_stretches(table, idx, v, at, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            work.append(peak - out.nbytes - padded)
        assert abs(work[1] - work[0]) <= 0.1 * work[0], (cuts, work)


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
    carried = -(-10_000 // _block_len(table.reshape(-1, 4))) - 1   # the last block holds n
    assert _carried_blocks(monkeypatch, table, idx, v, [10_000], (0, 1, 1, 1)) < 0.6 * 4 * carried


def test_distinct_directions_are_all_pushed(monkeypatch):
    # a diagonal pair keeps each axis: row 1's e1, (0.0, -1) and (-0.0, -1)
    # never share their bits, not even one negated, and row 0's e1 shares
    # row 1's only across rows
    table, idx, _, rows = _two_row_push("diagonal-two", 10_000)
    v = [(1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-0.0, -1.0)]
    carried = -(-10_000 // _block_len(table.reshape(-1, 4))) - 1
    assert _carried_blocks(monkeypatch, table, idx, v, [10_000], rows) == 4 * carried


def test_opposite_directions_merge_in_every_quadrant(monkeypatch):
    # 2I keeps every direction, so u and -u stay opposite in their
    # quadrants; on each row the second stops being carried after the first
    # chunk, whichever of the pair has the negative first coordinate
    table = [[[2.0, 0.0], [0.0, 2.0]]]
    idx = np.zeros((4, 10_000), dtype=int)
    us = [(0.6, 0.8), (-0.6, 0.8), (-0.6, -0.8), (0.6, -0.8)]
    v = [x for u in us for x in (u, (-u[0], -u[1]))]
    rows = [r for r in range(4) for _ in range(2)]
    L = _block_len(np.reshape(table, (-1, 4)))
    carried = -(-10_000 // L) - 1
    first = cocycle._CELLS // (8 * L)       # blocks in the first chunk, 8 vectors carried
    assert _carried_blocks(monkeypatch, table, idx, v, [10_000], rows) == 4 * (carried + first)


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
    cuts = np.unique(rng.integers(1, n + 1, size=5))
    got = push_log_stretches(table, idx, v, cuts, rows)
    for r, row in enumerate(rows):
        alone = push_log_stretches(table, idx[row][None], v[r][None], cuts)[0]
        assert got[r].tobytes() == alone.tobytes(), (r, row)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["random-cat", "inverse", "huge", "parabolic"]),
       n=st.one_of(st.integers(1, 200), st.integers(1000, 9000)),
       seed=st.integers(0, 2 ** 32 - 1),
       cells=st.sampled_from([64, 512, 4096, 2 ** 16]))
def test_growth_at_a_cut_does_not_depend_on_the_call(name, n, seed, cells):
    # G at a cut has the same bits asked alone, among other cuts, rows and
    # vectors, and at any chunk size; and it is the step loop's fsum
    fam = make_family(*FAMILIES["random-cat" if name == "inverse" else name])
    table = fam.inverses if name == "inverse" else fam.matrices
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(table), size=(3, n))
    v = rng.normal(size=(5, 2))
    rows = [0, 1, 1, 2, 0]
    cuts = np.unique(rng.integers(1, n + 1, size=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cocycle, "_CELLS", cells)
        together = push_log_stretches(table, idx, v, cuts, rows)
    for r, row in enumerate(rows):
        logs = step_loop(table.reshape(-1, 4).tolist(), idx[row], v[r] / np.linalg.norm(v[r]))
        for i, c in enumerate(cuts.tolist()):
            alone = push_log_stretches(table, idx[row][None, :c], v[r][None], [c])[0, 0]
            assert alone.tobytes() == together[r, i].tobytes(), (r, c)
            ref = math.fsum(logs[:c])
            assert abs(alone - ref) <= 1e-12 * max(1.0, abs(ref)), (r, c)


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
