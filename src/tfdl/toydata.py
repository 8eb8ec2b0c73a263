"""2D synthetic conditional datasets with analytic structure.

Every dataset carries integer class labels (needed by the guidance machinery
even when there is a single class) and its pooled per-coordinate standard
deviation ``sigma_d``, the scalar data scale used throughout the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StateError, check_counts, check_sigma_d

DATASET_NAMES = ("gauss-mix", "two-moons", "checkerboard")
MOON_NOISE = 0.08   # standard deviation of the Gaussian jitter on the two moons
CHECKER_EXTENT = 2.0  # the checkerboard fills the square [-extent, extent]²
CHECKER_TILES = 4     # tiles per side of that square, alternating in class


@dataclass(frozen=True)
class Dataset:
    name: str
    points: np.ndarray          # (n, 2)
    labels: np.ndarray          # (n,) ints in [0, n_classes)
    sigma_d: float
    n_classes: int = field(default=1)

    def __post_init__(self):
        check_sigma_d(self.sigma_d)

    def __len__(self):
        return len(self.points)


def _gauss_mix(rng, n, components, comp_std, radius):
    if components == 1:
        means = np.zeros((1, 2))
    else:
        ang = 2 * np.pi * np.arange(components) / components
        means = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    labels = rng.integers(0, components, n)
    pts = means[labels] + comp_std * rng.standard_normal((n, 2))
    return pts, labels, components


def _two_moons(rng, n):
    labels = rng.integers(0, 2, n)
    theta = rng.uniform(0.0, np.pi, n)
    pts = np.empty((n, 2))
    top = labels == 0
    pts[top, 0] = np.cos(theta[top])
    pts[top, 1] = np.sin(theta[top])
    pts[~top, 0] = 1.0 - np.cos(theta[~top])
    pts[~top, 1] = 0.5 - np.sin(theta[~top])
    pts += MOON_NOISE * rng.standard_normal((n, 2))
    pts -= np.array([0.5, 0.25])  # center the pair of arcs at the origin
    return pts, labels, 2


def _checkerboard(rng, n):
    pts = rng.uniform(-CHECKER_EXTENT, CHECKER_EXTENT, (n, 2))
    ij = np.floor((pts + CHECKER_EXTENT) / (2 * CHECKER_EXTENT / CHECKER_TILES)).astype(int)
    ij = np.clip(ij, 0, CHECKER_TILES - 1)
    labels = (ij[:, 0] + ij[:, 1]) % 2
    return pts, labels, 2


def generate(name, n, seed, components=3, comp_std=0.3, radius=2.0):
    """Draw a named dataset deterministically from ``seed``."""
    if n < 2:
        raise ValueError("need at least 2 points to estimate sigma_d")
    rng = np.random.default_rng(seed)
    if name == "gauss-mix":
        pts, labels, k = _gauss_mix(rng, n, components, comp_std, radius)
    elif name == "two-moons":
        pts, labels, k = _two_moons(rng, n)
    elif name == "checkerboard":
        pts, labels, k = _checkerboard(rng, n)
    else:
        raise ConfigurationError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    with np.errstate(over="ignore"):  # an overflowing spread is Dataset's error to raise
        sigma_d = float(np.std(pts))
    return Dataset(name, pts, labels.astype(np.int64), sigma_d, k)


def minibatch_arrays(ds, b, rng):
    """Uniform with-replacement batch: x0 of shape (b, 2), labels of shape (b,)."""
    check_counts(b=b)
    if len(ds) == 0:
        raise StateError("cannot sample from an empty dataset")
    idx = rng.integers(0, len(ds), b)
    return ds.points[idx], ds.labels[idx]


def batch_arrays(batch):
    """An (x0, y) batch as float64 points and a label array (the net checks its dtype)."""
    x0, y = batch
    return np.asarray(x0, dtype=np.float64), np.asarray(y)

