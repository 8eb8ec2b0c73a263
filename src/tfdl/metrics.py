"""Distribution distances used to score sample quality on 2D point sets.

``mmd_rbf`` never holds a whole kernel matrix: it builds each kernel in
square tiles of at most ``_MMD_TILE`` (256) points a side, so one tile's
float64 values (512 KiB) stay in cache. A tile's exponents
``-gamma |u_i - v_j|^2`` come from one GEMM of inner dimension d + 2: the
points are lifted, once per kernel, to rows ``[u, |u|^2, 1]`` and columns
``[2 gamma v, -gamma, -gamma |v|^2]``, whose product is the exponent. The
exponent's rounding grows with ``|u|^2 + |v|^2``, so the points are first
centred, which leaves every distance unchanged: a self-kernel's on their own
mean, the cross kernel's on the midpoint of the two means. The exponent is
then clamped at 0, so rounding never gives a kernel above 1, and
exponentiated and summed in place.

The two self-kernels are symmetric with a unit diagonal, so only the tiles on
and above the diagonal are built; the diagonal of a diagonal tile is set to
exactly 0 before the ``exp``, so the diagonal counts as exactly n. Every tile
of one call is computed in one preallocated ``256²`` buffer, aligned to a
cache line, so the tiles allocate nothing.

Both metrics raise ``NumericsError`` on a non-finite point, where a NaN
would otherwise read as a perfect score or win a timestep search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, check_counts


@dataclass(frozen=True)
class MetricReport:
    sliced_w2: float
    mmd_rbf: float
    n_samples: int
    seed: int


def _sliced_w2_dirs(a, b, dirs):
    """Mean 1D transport distance (sorted-difference RMS) over given directions;
    each direction's projections are one contiguous row, sorted in place."""
    pa, pb = dirs @ a.T, dirs @ b.T
    pa.sort(axis=1)
    pb.sort(axis=1)
    pa -= pb
    return float(np.mean(np.sqrt(np.mean(np.square(pa, out=pa), axis=1))))


def _point_sets(a, b, min_rows, dim=None):
    """Both point sets as float64 arrays of shape (n, d): 2-D, of one dimension
    d (``dim`` when given) and at least ``min_rows`` rows each, else
    ``ValueError`` naming the set; a non-finite point raises ``NumericsError``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, v in (("a", a), ("b", b)):
        if v.ndim != 2 or len(v) < min_rows or v.shape[1] != (dim or a.shape[1]):
            raise ValueError(f"{name} has shape {v.shape}; both point sets must be (n, d) with "
                             f"n >= {min_rows} and one dimension d{f' = {dim}' if dim else ''}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericsError("point sets must be finite")
    return a, b


def sliced_w2(a, b, n_proj=64, seed=0):
    """Sliced 2-Wasserstein distance of two (n, 2) point sets of one size over
    ``n_proj`` >= 1 random unit directions (else ``ValueError``); non-finite
    points raise ``NumericsError``."""
    a, b = _point_sets(a, b, 1, dim=2)
    if len(a) != len(b):
        raise ValueError(f"a and b sizes differ: {len(a)} vs {len(b)} rows")
    check_counts(n_proj=n_proj)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, n_proj)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return _sliced_w2_dirs(a, b, dirs)


_MMD_TILE = 256  # side of the square kernel tiles held in memory at once
_CACHE_LINE = 64  # bytes


def _cache_aligned_buffer(n):
    """An uninitialised float64 array of ``n`` values starting on a cache line.
    malloc aligns only to 16 bytes, and on an x86-64 core ``exp`` over a tile
    that starts mid-line ran about 10% slower, which made ``mmd_rbf``'s time
    depend on where earlier allocations had left the heap."""
    raw = np.empty(n + _CACHE_LINE // 8)
    start = (-raw.ctypes.data % _CACHE_LINE) // 8
    return raw[start:start + n]


def _lift(u, centre, gamma):
    """The points ``u``, less ``centre``, lifted to rows ``[u, |u|^2, 1]`` and
    to columns ``[2 gamma u, -gamma, -gamma |u|^2]``: the product of the row of
    a point ``u`` and the column of a point ``v`` is ``-gamma |u - v|^2``."""
    u = u - centre
    sq = np.einsum("ij,ij->i", u, u)
    ones = np.ones(len(u))
    rows = np.column_stack([u, sq, ones])
    cols = np.vstack([2.0 * gamma * u.T, -gamma * ones, -gamma * sq])
    return rows, cols


def _tile_sum(rows, cols, buf, diagonal=False):
    """Sum of exp(rows @ cols) over one tile, computed in place in a contiguous
    view of ``buf``. The exponent is clamped at 0, and on a self-kernel's
    diagonal tile its diagonal is set to exactly 0, so the kernel never exceeds
    1 and the diagonal sums to n."""
    tile = buf[:len(rows) * cols.shape[1]].reshape(len(rows), cols.shape[1])
    np.matmul(rows, cols, out=tile)
    np.minimum(tile, 0.0, out=tile)
    if diagonal:
        np.fill_diagonal(tile, 0.0)
    return np.exp(tile, out=tile).sum()


def _kernel_sum(rows, cols, buf):
    """Kernel sum over all pairs of two lifted sets, built in square tiles."""
    return sum(_tile_sum(rows[i:i + _MMD_TILE], cols[:, j:j + _MMD_TILE], buf)
               for i in range(0, len(rows), _MMD_TILE)
               for j in range(0, cols.shape[1], _MMD_TILE))


def _self_kernel_sum(rows, cols, buf):
    """Kernel sum over all pairs of one lifted set, using the kernel's symmetry:
    tiles on the diagonal are summed in full and each tile above it counts twice."""
    total = 0.0
    for i in range(0, len(rows), _MMD_TILE):
        block = rows[i:i + _MMD_TILE]
        total += _tile_sum(block, cols[:, i:i + _MMD_TILE], buf, diagonal=True)
        for j in range(i + _MMD_TILE, len(rows), _MMD_TILE):
            total += 2.0 * _tile_sum(block, cols[:, j:j + _MMD_TILE], buf)
    return total


def mmd_rbf(a, b, bandwidth=1.0):
    """Unbiased squared maximum mean discrepancy with an RBF kernel, clamped at 0.

    ``a`` and ``b`` are (n, d) point sets of one dimension d with n >= 2 each,
    else ``ValueError``. Each self-kernel's diagonal is exp(0) = 1 exactly, so
    it counts as n. Non-finite points raise ``NumericsError``; a bandwidth that
    is not positive and finite or so small that 1/(2 bandwidth^2) is not raises
    ``ValueError``.
    """
    a, b = _point_sets(a, b, 2)
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    two_sq = 2.0 * float(bandwidth) ** 2
    gamma = 1.0 / two_sq if two_sq > 0 else np.inf
    if not np.isfinite(gamma):
        raise ValueError(f"bandwidth {bandwidth} is too small: 1/(2 bandwidth^2) is not finite")
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    mid = 0.5 * (mean_a + mean_b)
    na, nb = len(a), len(b)
    buf = _cache_aligned_buffer(_MMD_TILE * _MMD_TILE)
    est = ((_self_kernel_sum(*_lift(a, mean_a, gamma), buf) - na) / (na * (na - 1))
           + (_self_kernel_sum(*_lift(b, mean_b, gamma), buf) - nb) / (nb * (nb - 1))
           - 2.0 * _kernel_sum(_lift(a, mid, gamma)[0], _lift(b, mid, gamma)[1], buf)
           / (na * nb))
    if not np.isfinite(est):
        raise NumericsError("the kernel exponent overflowed")
    return max(0.0, float(est))


def evaluate(samples, reference, seed=0):
    """Bundle both metrics, at their default projection count and bandwidth, of
    two (n, 2) point sets of one size n >= 2 (which the metrics check)."""
    return MetricReport(sliced_w2=sliced_w2(samples, reference, seed=seed),
                        mmd_rbf=mmd_rbf(samples, reference), n_samples=len(samples), seed=seed)
