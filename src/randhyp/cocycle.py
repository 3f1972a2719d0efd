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
from .fibers import LinearTorusFamily, ManifoldPoint, check_dim

_OVERFLOW_LIMIT = 1e300
_CELLS = 4096                   # (vector, step) cells pushed at a time


class UnitTangentPoint(Record):
    """Point of the unit tangent bundle over the skew product."""

    omega: object
    x: ManifoldPoint
    v: tuple

    def __post_init__(self):
        v = tuple(map(float, self.v))
        norm = math.hypot(*v)
        if abs(norm - 1.0) > 1e-12:
            raise ContractError(f"tangent vector must be unit length, |v| = {norm}")
        check_dim(len(v), self.x.dim)
        object.__setattr__(self, "v", v)


def unit_tangent(omega, x, v):
    """Build a unit tangent point, normalizing v."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ContractError("tangent vector must be nonzero")
    return UnitTangentPoint(omega, x, tuple(v / norm))


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


def birkhoff_sum_phi(family, p, n):
    """Sum of the log-stretch observable along n tangent steps.

    Telescopes to log |D_x phi^{(n)} v|, with renormalization every step so
    arbitrarily long orbits stay in range.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    return math.fsum(orbit_log_stretches(family, p, n).tolist())


def orbit_log_stretches(family, p, n):
    """Per-step log-stretch array along the tangent orbit (length n)."""
    if isinstance(family, LinearTorusFamily):
        idx = family.params_along([p.omega], n)
        return push_log_stretches(family.matrices, idx, (p.v,))[0]
    return family.orbit_log_derivs(p.omega, p.x.x, n)


def _block_len(table):
    """Steps per block: at most 32, and every block product within 1e+-100."""
    a00, a01, a10, a11 = table.T  # g >= |A|_F, |A^-1|_F = |A|_F / |det A|
    fro = np.sqrt(a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11)
    g = float(np.max(np.maximum(fro, fro / np.abs(a00 * a11 - a01 * a10))))
    return int(min(32, max(1.0, math.log(1e100) / math.log(g))))


def push_log_stretches(table, idx, v, rows=None):
    """Per-step log stretches of directions pushed through 2x2 matrices.

    table: k matrices, (k, 2, 2) or (k, 4) rows (a00, a01, a10, a11); idx:
    (R, n) indices into it; v: (B, 2) start vectors, v_r on row rows[r]
    (default r).  Entry [r, j] is log |A_j u|, A_i = table[idx[rows[r], i]],
    u the unit direction of A_{j-1} ... A_0 v_r.  Each L-step block of a row
    gets its prefix products P_j from one Hillis-Steele scan (log2 L passes)
    for all its vectors, and the stretch |P_j u| / |P_{j-1} u|; u is carried
    and renormalized between blocks.  Chunks of about _CELLS (vector, step)
    cells start on block boundaries and P_j reads only A_0..A_j, so a
    vector's bytes depend on no other row, vector, chunk or padding.  Each
    vector group's chunks reuse its buffers through numpy's `out=`.  After a
    chunk, a vector whose carried direction has the bits of an earlier one's
    on its row, or of its negative (exact negation keeps every stretch's
    bits), leaves the group and copies that vector's stretches from the next
    chunk on; later chunks hold more blocks of the fewer vectors left.
    """
    table = np.asarray(table, dtype=np.float64).reshape(-1, 4)
    cols = np.vstack([table, (1.0, 0.0, 0.0, 1.0)]).T
    L = _block_len(table)
    n = np.shape(idx)[1]
    width = -(-n // L) * L
    padded = np.full((len(idx), width), len(table))
    padded[:, :n] = idx
    v = np.asarray(v, dtype=np.float64)
    rows = np.arange(len(v)) if rows is None else np.asarray(rows)
    order = np.argsort(rows, kind="stable")     # a row's vectors share its scan
    units = (v / np.hypot(v[:, :1], v[:, 1:])).tolist()
    out = np.empty((len(v), n))
    for vecs in np.split(order, range(_CELLS // L, len(v), _CELLS // L)):
        scanned, local = np.unique(rows[vecs], return_inverse=True)
        R, copies, t0 = len(scanned), [], 0     # copies: (vector, source, from step)
        scan = np.empty((2, 4 * min(R * width, _CELLS)))  # ping-pong (4, L, R, m) prefixes
        work = np.empty((3, min(len(vecs) * width, _CELLS)))  # scan temp, then w0, w1, logs
        while t0 < width:
            V = len(vecs)
            nb = max(1, min(width // L, _CELLS // (V * L)))     # blocks a chunk
            chunk = padded[scanned, t0:t0 + nb * L].reshape(R, -1, L).transpose(2, 0, 1)
            m = chunk.shape[2]
            p, q = (b[:4 * L * R * m].reshape(4, L, R, m) for b in scan)
            np.take(cols, chunk, axis=1, out=p, mode="clip")  # "raise" would buffer `out`
            s = 1
            while s < L:
                q[:, :s] = p[:, :s]
                e, f, g, h = p[:, s:]
                a, b, c, d = p[:, :-s]
                tmp = work[0, :(L - s) * R * m].reshape(L - s, R, m)
                for o, (x, y, z, w) in zip(q[:, s:], ((e, a, f, c), (e, b, f, d),
                                                      (g, a, h, c), (g, b, h, d))):
                    np.add(np.multiply(x, y, out=o), np.multiply(z, w, out=tmp), out=o)
                p, q, s = q, p, 2 * s
            s0, s1 = [], []             # each vector's block-start directions
            for i, r in zip(vecs.tolist(), local.tolist()):
                u0, u1 = units[i]
                for e, f, g, h in zip(*p[:, -1, r].tolist()):
                    s0.append(u0)
                    s1.append(u1)
                    w0, w1 = e * u0 + f * u1, g * u0 + h * u1
                    norm = math.sqrt(w0 * w0 + w1 * w1)
                    u0, u1 = w0 / norm, w1 / norm
                units[i] = (u0, u1)
            u0, u1 = np.reshape(s0, (V, m)), np.reshape(s1, (V, m))
            w0, w1, logs = (b[:L * V * m].reshape(L, V, m) for b in work)
            for w, k in ((w0, 0), (w1, 2)):     # w = p_k u0 + p_{k+1} u1, per vector
                for c, u, o in ((k, u0, w), (k + 1, u1, logs)):
                    x = p[c] if V == R else np.take(p[c], local, axis=1, out=o, mode="clip")
                    np.multiply(x, u, out=o)
                np.add(w, logs, out=w)
            norm = np.add(np.multiply(w0, w0, out=w0), np.multiply(w1, w1, out=w1), out=w0)
            np.sqrt(norm, out=norm)
            logs[0] = norm[0]
            np.divide(norm[1:], norm[:-1], out=logs[1:])
            np.log(logs, out=logs)
            out[vecs, t0:t0 + nb * L] = logs.transpose(1, 2, 0).reshape(V, -1)[:, :n - t0]
            t0 += nb * L
            if t0 < width and V > R:    # a vector whose carried direction is bitwise an
                first, keep = {}, []    # earlier one's on its row copies that vector
                for i, r in zip(vecs.tolist(), local.tolist()):
                    u0, u1 = units[i]   # -u stretches as u does, bit for bit
                    if u0 < 0 or (u0 == 0 and u1 < 0):
                        u0, u1 = -u0, -u1
                    j = first.setdefault((r, struct.pack("2d", u0, u1)), i)
                    keep.append(j == i)
                    if j != i:
                        copies.append((i, j, t0))
                vecs, local = vecs[keep], local[keep]
        for i, j, t in reversed(copies):    # latest first, so a chain's source is full
            out[i, t:] = out[j, t:]
    return out


def window_products(matrices, idx, left=True):
    """A_{n-1} ... A_0 (`left`) or A_0 ... A_{n-1} of matrices[idx[r]], per row.

    One batched matmul and renormalization per step: each row gets the
    bytes of the one-matrix step loop, whatever the batch."""
    prod = np.broadcast_to(np.eye(2), (len(idx), 2, 2))
    for mats in np.asarray(matrices)[np.asarray(idx).T]:
        prod = mats @ prod if left else prod @ mats
        prod /= np.abs(prod).max(axis=(1, 2), keepdims=True)
    return prod
