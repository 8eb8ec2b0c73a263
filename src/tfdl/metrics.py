"""Distribution distances used to score sample quality on 2D point sets.

``mmd_rbf`` never holds a whole kernel matrix: it builds each kernel in
square tiles of at most ``_MMD_TILE`` (256) points a side, so one tile's
float64 temporary (512 KiB) stays in cache. The two self-kernels are
symmetric with a unit diagonal, so only the tiles on and above the diagonal
are built, and the diagonal counts as exactly n (``exp(-0) = 1``). Every tile
of one call is computed in place in one preallocated ``(2, 256²)`` buffer, so
the tiles allocate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricReport:
    sliced_w2: float
    mmd_rbf: float
    n_samples: int
    seed: int


def _sliced_w2_dirs(a, b, dirs):
    """Mean 1D transport distance (sorted-difference RMS) over given directions."""
    pa = np.sort(a @ dirs.T, axis=0)
    pb = np.sort(b @ dirs.T, axis=0)
    return float(np.mean(np.sqrt(np.mean((pa - pb) ** 2, axis=0))))


def sliced_w2(a, b, n_proj=64, seed=0):
    """Sliced 2-Wasserstein distance over random unit directions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("batches must be nonempty")
    if len(a) != len(b):
        raise ValueError(f"batch sizes differ: {len(a)} vs {len(b)}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, n_proj)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return _sliced_w2_dirs(a, b, dirs)


_MMD_TILE = 256  # side of the square kernel tiles held in memory at once


def _tile_sum(u, v, gamma, buf):
    """Sum of exp(-gamma * |u_i - v_j|^2) over the pairs of one tile, computed
    in contiguous ``(len(u), len(v))`` views of the two rows of ``buf``."""
    n = len(u) * len(v)
    sq = buf[0, :n].reshape(len(u), len(v))
    d = buf[1, :n].reshape(len(u), len(v))
    np.subtract(u[:, 0, None], v[:, 0], out=sq)
    sq *= sq
    for k in range(1, u.shape[1]):
        np.subtract(u[:, k, None], v[:, k], out=d)
        d *= d
        sq += d
    sq *= -gamma
    return np.exp(sq, out=sq).sum()


def _kernel_sum(u, v, gamma, buf):
    """Kernel sum over all pairs of ``u`` and ``v``, built in square tiles."""
    return sum(_tile_sum(u[i:i + _MMD_TILE], v[j:j + _MMD_TILE], gamma, buf)
               for i in range(0, len(u), _MMD_TILE) for j in range(0, len(v), _MMD_TILE))


def _self_kernel_sum(u, gamma, buf):
    """Kernel sum over all pairs of ``u``, using the kernel's symmetry: tiles
    on the diagonal are summed in full and each tile above it counts twice."""
    total = 0.0
    for i in range(0, len(u), _MMD_TILE):
        rows = u[i:i + _MMD_TILE]
        total += _tile_sum(rows, rows, gamma, buf)
        for j in range(i + _MMD_TILE, len(u), _MMD_TILE):
            total += 2.0 * _tile_sum(rows, u[j:j + _MMD_TILE], gamma, buf)
    return total


def mmd_rbf(a, b, bandwidth=1.0):
    """Unbiased squared maximum mean discrepancy with an RBF kernel, clamped at 0.

    Each self-kernel's diagonal is exp(0) = 1 exactly, so it counts as n.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("the unbiased estimate needs at least 2 samples per side")
    gamma = 1.0 / (2.0 * bandwidth ** 2)
    na, nb = len(a), len(b)
    buf = np.empty((2, _MMD_TILE * _MMD_TILE))
    est = ((_self_kernel_sum(a, gamma, buf) - na) / (na * (na - 1))
           + (_self_kernel_sum(b, gamma, buf) - nb) / (nb * (nb - 1))
           - 2.0 * _kernel_sum(a, b, gamma, buf) / (na * nb))
    return max(0.0, float(est))


def evaluate(samples, reference, n_proj=64, seed=0, bandwidth=1.0):
    """Bundle both metrics against a reference set of equal size."""
    n = min(len(samples), len(reference))
    return MetricReport(
        sliced_w2=sliced_w2(samples[:n], reference[:n], n_proj=n_proj, seed=seed),
        mmd_rbf=mmd_rbf(samples[:n], reference[:n], bandwidth=bandwidth),
        n_samples=n, seed=seed)
