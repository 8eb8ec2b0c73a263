"""Flat parameter vectors with named segments, plus an Adam optimizer."""

from __future__ import annotations

import numpy as np

from .autodiff import Var
from .errors import NumericsError


class ParamVector:
    """One flat float64 vector carved into named, shaped segments.

    Segment views share memory with the flat vector, so in-place edits of a
    view are visible through ``flat`` and vice versa.
    """

    def __init__(self, segments):
        self.names = [name for name, _ in segments]
        self.shapes = {name: tuple(shape) for name, shape in segments}
        self.slices = {}
        off = 0
        for name, shape in segments:
            n = int(np.prod(shape)) if shape else 1
            self.slices[name] = slice(off, off + n)
            off += n
        self.flat = np.zeros(off, dtype=np.float64)

    @property
    def size(self):
        return self.flat.size

    def __getitem__(self, name):
        return self.flat[self.slices[name]].reshape(self.shapes[name])

    def __setitem__(self, name, value):
        self[name][...] = value

    def __iter__(self):
        return iter(self.names)

    def copy(self):
        out = ParamVector([(n, self.shapes[n]) for n in self.names])
        out.flat[:] = self.flat
        return out

    def as_vars(self):
        """Fresh tape leaves for every segment (leaves view the live values)."""
        return {name: Var(self[name]) for name in self.names}

    def gradient_from(self, leaves):
        """Pack per-segment ``Var.grad`` arrays into one flat vector."""
        g = np.zeros_like(self.flat)
        for name in self.names:
            leaf = leaves[name]
            if leaf.grad is not None:
                g[self.slices[name]] = leaf.grad.ravel()
        return g


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor


class Adam:
    """Adam on a flat parameter vector; raises on non-finite updates."""

    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat, grad):
        """Update ``flat`` in place with one Adam step on ``grad``."""
        self.t += 1
        np.multiply(self.m, BETA1, out=self.m)
        self.m += (1.0 - BETA1) * grad
        np.multiply(self.v, BETA2, out=self.v)
        self.v += (1.0 - BETA2) * grad * grad
        denom = np.sqrt(self.v / (1.0 - BETA2 ** self.t))
        denom += EPS
        flat -= (self.lr / (1.0 - BETA1 ** self.t)) * self.m / denom
        if not np.all(np.isfinite(flat)):
            raise NumericsError("non-finite parameters or gradient")
