"""Orbit iteration, chain-rule derivative products, and the projectivized
tangent dynamics on the unit tangent bundle.

The induced map on (base state, point, unit vector) steps the base, pushes
the point through the fiber map, and renormalizes the image of the tangent
vector; its per-step log-stretch is the observable whose Birkhoff sums
telescope to the log norm of the full derivative product.  Derivatives are
plain arrays: `cocycle_product` (like `fibers.fiber_derivative`) returns an
(m, m) float64 array.
"""

import math
import struct
from operator import mul

import numpy as np

from ._record import Record
from .base import base_step
from .errors import CocycleOverflowError, ContractError
from .fibers import LinearTorusFamily, ManifoldPoint, check_dim, flips_sign, unit_vectors

_OVERFLOW_LIMIT = 1e300
_CELLS = 4096                   # cells a chunk holds: (carried vector, step) in the
                                # carry, (row, step) and (vector, cut) at the cuts


class UnitTangentPoint(Record):
    """Point of the unit tangent bundle over the skew product."""

    omega: object
    x: ManifoldPoint
    v: tuple

    def __post_init__(self):
        v = tuple(map(float, self.v))
        norm = float(unit_vectors(v)[1][0])
        if not abs(norm - 1.0) <= 1e-12:   # NaN too
            raise ContractError(f"tangent vector must be finite, unit length: |v| = {norm}")
        check_dim(len(v), self.x.dim)
        object.__setattr__(self, "v", v)


def unit_tangent(omega, x, v):
    """Build a unit tangent point, normalizing v; a zero or non-finite v is refused."""
    return UnitTangentPoint(omega, x, tuple(unit_vectors(v)[0]))


def iterate(family, omega, x, n):
    """Forward orbit (x, phi(x), ..., phi^{(n)}(x)); entry 0 is x itself."""
    if n < 0:
        raise ContractError("n must be >= 0")
    out = [x]
    coords = x.coords
    for p in family.params_along([omega], n)[0].tolist():
        coords = family.apply_at(p, coords)
        out.append(ManifoldPoint(coords))
    return out


def cocycle_product(family, omega, x, n):
    """n-step derivative product along the orbit, an (m, m) float64 array.

    Raw products overflow quickly; entries beyond 1e300 raise, pointing to
    the log-space estimators which never form the product.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    m = family.manifold_dim
    prod = np.eye(m)
    coords = x.coords
    for p in family.params_along([omega], n)[0].tolist():
        jac = np.asarray(family.jacobian_at(p, coords), dtype=np.float64)
        prod = jac @ prod
        if np.max(np.abs(prod)) > _OVERFLOW_LIMIT:
            raise CocycleOverflowError(
                "derivative product exceeded 1e300; use the log-space "
                "estimators (top_exponent, birkhoff_sum_phi) instead")
        coords = family.apply_at(p, coords)
    return prod


def unit_tangent_step(family, p):
    """One step of the induced tangent map; the output vector is unit."""
    q, coords, v = family.param_at(p.omega), p.x.coords, p.v
    w = [sum(map(mul, row, v)) for row in family.jacobian_at(q, coords)]
    norm = math.hypot(*w)
    return UnitTangentPoint(base_step(p.omega), ManifoldPoint(family.apply_at(q, coords)),
                            [c / norm for c in w])


def torus_log_growth(family, p, cuts):
    """log |A_{c-1} ... A_0 v| of a torus family's matrices along the base
    orbit of p, at each step count c of the increasing `cuts` (from 1)."""
    idx = family.params_along([p.omega], int(cuts[-1]))
    return push_log_stretches(family.matrices, idx, (p.v,), cuts)[0]


def birkhoff_sum_phi(family, p, n):
    """Sum of the log-stretch observable along n tangent steps.

    Telescopes to log |D_x phi^{(n)} v|, with renormalization along the
    orbit so arbitrarily long orbits stay in range.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    if isinstance(family, LinearTorusFamily):
        return float(torus_log_growth(family, p, [n])[0])
    return math.fsum(orbit_log_stretches(family, p, n).tolist())


def orbit_log_stretches(family, p, n):
    """Per-step log-stretch array along the tangent orbit (length n); on the
    torus, the differences of `torus_log_growth` at 1..n."""
    if isinstance(family, LinearTorusFamily):
        return np.diff(torus_log_growth(family, p, np.arange(1, n + 1)), prepend=0.0)
    return family.orbit_log_derivs(p.omega, p.x.x, n)


def _block_len(table):
    """Steps per block: the largest power of two, at most 64, whose block
    products all stay within 1e+-100.  A tree costs L - 1 products a block
    whatever L; longer blocks carry fewer steps in Python but lengthen the
    prefix work in the blocks that hold a cut."""
    a00, a01, a10, a11 = table.T  # g >= |A|_F, |A^-1|_F = |A|_F / |det A|
    fro = np.sqrt(a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11)
    g = float(np.max(np.maximum(fro, fro / np.abs(a00 * a11 - a01 * a10))))
    steps = int(min(64, max(1.0, math.log(1e100) / math.log(g))))
    return 1 << (steps.bit_length() - 1)


def _matmul(later, earlier, out, tmp):
    """later @ earlier over (2, 2, ...) stacks, into out: each entry
    x0 y0 + x1 y1, rounded as written."""
    np.multiply(later[:, :1], earlier[None, 0], out=out)
    return np.add(out, np.multiply(later[:, 1:], earlier[None, 1], out=tmp), out=out)


def _tree(cols, chunk, work):
    """The levels of the pairwise tree over the blocks of (R, m, L) table
    indices, in `work` (gather, levels, prefixes, product temp): level k
    holds the (2, 2, L >> k, R * m) products of 2^k steps.  A block's
    product, the top level, is the last prefix of a Hillis-Steele scan over
    the block, bit for bit."""
    R, m, L = chunk.shape
    p = np.take(cols, chunk.transpose(2, 0, 1), axis=1, mode="clip",  # "raise" would buffer `out`
                out=work[0][:4 * L * R * m].reshape(4, L, R, m)).reshape(2, 2, L, R * m)
    levels, at = [p], 0
    while p.shape[2] > 1:
        size = 2 * p.shape[2] * R * m
        shape = (2, 2, p.shape[2] // 2, R * m)
        p = _matmul(p[:, :, 1::2], p[:, :, ::2], work[1][at:at + size].reshape(shape),
                    work[3][:size].reshape(shape))
        levels.append(p)
        at += size
    return levels


def _work(cells):
    """Buffers for chunks of up to `cells` (row, step) cells: the gather,
    the tree levels, the prefixes and a product temp."""
    return np.split(np.empty(14 * cells), [4 * cells, 8 * cells, 12 * cells])


def _exclusive_prefixes(levels, work):
    """The product of the steps before each step of a block, from its
    `_tree` levels by a down-sweep: a right child's prefix is its left
    sibling times its parent's."""
    L, M = levels[0].shape[2:]
    prefix = work[2][:4 * L * M].reshape(2, 2, L, M)
    prefix[:, :, 0] = np.eye(2)[:, :, None]
    for nodes in reversed(levels[:-1]):
        s = L // nodes.shape[2]     # steps a node
        _matmul(nodes[:, :, ::2], prefix[:, :, ::2 * s], prefix[:, :, s::2 * s],
                work[3][:2 * nodes[0, 0].size].reshape(2, 2, -1, M))
    return prefix


def push_log_stretches(table, idx, v, cuts, rows=None):
    """Log growth of directions pushed through 2x2 matrices, at step counts.

    table: k matrices, (k, 2, 2) or (k, 4) rows (a00, a01, a10, a11); idx:
    (R, n) indices into it; v: (B, 2) start vectors, v_r on row rows[r]
    (default r); cuts: increasing step counts in 1..n.  Entry [r, i] is
    G(cuts[i]), G(c) = log |A_{c-1} ... A_0 v_r|, A_j = table[idx[rows[r], j]].

    Rows are cut into L-step blocks (`_block_len`), whatever the cuts.  Each
    block's product comes from a pairwise tree; a direction u is carried
    from block to block, renormalized, and the log of each block's stretch
    is added to a running sum S in block order.  Only a block that holds a
    cut gets prefix products, from its tree by a down-sweep, and G(c) =
    S + log |P_j u| there, P_j the product of the block's first j matrices.
    So G(c) reads only A_0..A_{c-1} and v, and its bits depend on no other
    cut, row, vector or chunk.  The blocks are carried a chunk at a time and
    each chunk's cuts are read before the next, so the working memory, in
    buffers each call reuses, is bounded by _CELLS however many cuts there
    are.  After a chunk, a vector whose carried direction has the bits of an
    earlier one's on its row, or of its negative (exact negation keeps every
    stretch's bits), stops being carried: from then on it adds that vector's
    terms to its own sum, so it still equals its solo push.
    """
    table = np.asarray(table, dtype=np.float64).reshape(-1, 4)
    cols = np.vstack([table, (1.0, 0.0, 0.0, 1.0)]).T
    L = _block_len(table)
    cuts = np.asarray(cuts)
    width = -(-int(cuts[-1]) // L) * L
    idx = np.asarray(idx)
    v = np.asarray(v, dtype=np.float64)
    rows = np.arange(len(v)) if rows is None else np.asarray(rows)
    order = np.argsort(rows, kind="stable")     # a row's vectors share its blocks
    units = (v / np.hypot(v[:, :1], v[:, 1:])).tolist()
    out = np.empty((len(v), len(cuts)))
    padded = np.full((len(idx), width), len(table))
    padded[:, :idx.shape[1]] = idx[:, :width]
    work = _work(min(_CELLS, len(set(rows.tolist())) * width))
    for vecs in np.split(order, range(_CELLS // L, len(v), _CELLS // L)):
        scanned, local = np.unique(rows[vecs], return_inverse=True)
        _push(cols, padded, scanned, L, [units[i] for i in vecs], local, cuts, out, vecs, work)
    return out


def _push(cols, padded, scanned, L, units, local, cuts, out, vecs, work):
    """G at the cuts into out[vecs], for the vectors riding the `scanned`
    rows.  The carry records each vector's running sum S and carried
    direction at the start of each held block; once the unread cuts reach
    _CELLS // V, or their blocks _CELLS // (R L), `_cut_growth` reads them.
    A chunk spans at most _CELLS // (carried L) and _CELLS // V blocks; the
    block of the last cut is not carried through, its cuts read the final
    sums and directions."""
    R, V, last = len(scanned), len(units), (int(cuts[-1]) - 1) // L
    rank = local.tolist()
    root, sums = list(range(V)), [0.0] * V  # root: the vector whose terms one adds
    held, at = [], [[] for _ in range(V)]   # the unread held blocks, (S, u) at their start
    b0 = c0 = c1 = 0
    while b0 < last:
        carried = sum(i == j for i, j in enumerate(root))
        m = min(max(1, _CELLS // (carried * L)), max(1, _CELLS // V), last - b0)
        c2 = int(np.searchsorted(cuts, (b0 + m) * L, side="right"))
        new = sorted(set(((cuts[c1:c2] - 1) // L).tolist()))
        slot = dict(zip(new, range(len(held), len(held) + len(new))))
        held += new
        chunk = padded[scanned, b0 * L:(b0 + m) * L].reshape(R, m, L)
        prods = _tree(cols, chunk, work)[-1].reshape(4, R, m).tolist()
        terms, sqrt, log = {}, math.sqrt, math.log
        for i, j in enumerate(root):
            s, rec = sums[i], at[i]
            if j == i:
                u0, u1 = units[i]
                terms[i] = logs = []
                for b, e, f, g, h in zip(range(b0, b0 + m), *(p[rank[i]] for p in prods)):
                    if b in slot:
                        rec.append((s, u0, u1))
                    w0 = e * u0 + f * u1
                    w1 = g * u0 + h * u1
                    norm = sqrt(w0 * w0 + w1 * w1)
                    t = log(norm)
                    logs.append(t)
                    s += t
                    u0 = w0 / norm
                    u1 = w1 / norm
                units[i] = (u0, u1)
            else:
                for b, t in zip(range(b0, b0 + m), terms[j]):
                    if b in slot:
                        rec.append((s,) + at[j][slot[b]][1:])
                    s += t
            sums[i] = s
        b0, c1 = b0 + m, c2
        if c1 - c0 >= max(1, _CELLS // V) or len(held) * R * L >= _CELLS:
            for a, b, g in _cut_growth(cols, padded, scanned, L, held, at, local, cuts[c0:c1],
                                       work):
                out[vecs, c0 + a:c0 + b] = g
            held, at, c0 = [], [[] for _ in range(V)], c1
        if b0 < last:
            first = {}
            for i in terms:
                u0, u1 = units[i]   # -u stretches as u does, bit for bit
                if flips_sign(u0, u1):
                    u0, u1 = -u0, -u1
                j = first.setdefault((rank[i], struct.pack("2d", u0, u1)), i)
                if j != i:
                    root = [j if r == i else r for r in root]
    held.append(last)
    for i, j in enumerate(root):
        at[i].append((sums[i], *units[j]))
    for a, b, g in _cut_growth(cols, padded, scanned, L, held, at, local, cuts[c0:], work):
        out[vecs, c0 + a:c0 + b] = g


def _cut_growth(cols, padded, scanned, L, held, at, local, cuts, work):
    """G at cuts in the `held` blocks, as (first, end, (V, end - first))
    runs of the cuts: S + log |A_j (E_j u)|, (S, u) = at[:, h] at the start
    of block held[h] and E_j the product of its steps before its step j.  A
    run takes at most _CELLS // V cuts and _CELLS // (R L) blocks."""
    R, V = len(scanned), len(at)
    held, at = np.array(held), np.array(at)
    cut_block, cut_step = np.divmod(cuts - 1, L)
    c0 = 0
    while c0 < len(cuts):
        h0 = np.searchsorted(held, cut_block[c0])
        hb = held[h0:h0 + max(1, _CELLS // (R * L))]
        c1 = min(c0 + max(1, _CELLS // V), np.searchsorted(cut_block, hb[-1], side="right"))
        hb = hb[:np.searchsorted(hb, cut_block[c1 - 1]) + 1]
        j, k = cut_step[c0:c1], np.searchsorted(hb, cut_block[c0:c1])
        span = 1 << int(j.max()).bit_length()  # steps past the last cut are not read
        levels = _tree(cols, padded[scanned[:, None, None], hb[:, None] * L + np.arange(span)],
                       work)
        pick = (j * R + local[:, None]) * len(hb) + k   # (V, cuts) into (span, R, blocks)
        a = np.take(levels[0].reshape(4, -1), pick, axis=1)
        e = np.take(_exclusive_prefixes(levels, work).reshape(4, -1), pick, axis=1)
        s, u0, u1 = np.take(at, h0 + k, axis=1).transpose(2, 0, 1)
        x0, x1 = e[0] * u0 + e[1] * u1, e[2] * u0 + e[3] * u1
        w0, w1 = a[0] * x0 + a[1] * x1, a[2] * x0 + a[3] * x1
        yield c0, c1, s + np.log(np.sqrt(w0 * w0 + w1 * w1))
        c0 = c1


def window_products(matrices, idx, left=True):
    """A_{n-1} ... A_0 (`left`) or A_0 ... A_{n-1} of matrices[idx[r]], per row.

    One batched matmul and renormalization per step: each row gets the
    bytes of the one-matrix step loop, whatever the batch."""
    prod = np.broadcast_to(np.eye(2), (len(idx), 2, 2))
    for mats in np.asarray(matrices)[np.asarray(idx).T]:
        prod = mats @ prod if left else prod @ mats
        prod /= np.abs(prod).max(axis=(1, 2), keepdims=True)
    return prod
