"""Composed rule-table entries that the library does not run, kept as oracles.

The velocity net reaches SiLU through the fused ``dense_silu`` entry, its
embeddings through ``sincos`` and its softmax through ``attention``. The
composed entries below are what those fused entries are compared against:
``dense_silu`` with ``silu(x @ W + b)``, ``sincos`` with ``cat([sin, cos])``,
and the attention block with a graph of ``swap_last`` and ``softmax``. They are
built with ``Prim`` like the library's entries, so they run in all three modes,
and ``ORACLES`` joins them to the per-entry rule sweep.
"""

import numpy as np

from tfdl.autodiff import Prim, _swap


def _sigmoid(x):
    # tanh form avoids overflow warnings at large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _silu_fwd(x):
    s = _sigmoid(x)
    return x * s, s


def _silu(x):
    # x * _sigmoid(x) with the same operations in the same order, in one buffer
    s = 0.5 * x
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    s *= x
    return s


def _softmax(z, axis=-1):
    m = z - z.max(axis=axis, keepdims=True)
    e = np.exp(m)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_rule(t, x, s, axis=-1):
    # the Jacobian diag(s) - s sᵀ is symmetric, so this rule also transposes
    st = s * t
    return st - s * st.sum(axis=axis, keepdims=True)


def _cat_jvp(ts, xs, r, axis=-1):
    return np.concatenate([np.zeros_like(x) if t is None else t for t, x in zip(ts, xs)],
                          axis=axis)


def _cat_vjp(g, xs, r, live, axis=-1):
    parts = np.split(g, np.cumsum([x.shape[axis] for x in xs])[:-1], axis=axis)
    return [parts[i] for i in live]


silu = Prim("silu", _silu, lambda t, x, s: t * (s * (1.0 + x * (1.0 - s))), fwd=_silu_fwd)
softmax = Prim("softmax", _softmax, _softmax_rule)
swap_last = Prim("swap_last", _swap)
cat = Prim("cat", lambda xs, axis=-1: np.concatenate(xs, axis=axis), _cat_jvp, _cat_vjp,
           arity=None)

ORACLES = {p.name: p for p in (silu, softmax, swap_last, cat)}
