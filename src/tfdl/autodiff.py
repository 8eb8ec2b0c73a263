"""Array-valued automatic differentiation on float64 numpy arrays.

Every differentiable operation is one ``Prim`` entry of a single rule table
(``PRIMITIVES``): its primal function, a linear tangent rule, and a transpose
only where the tangent rule is not its own (elementwise rules scale by a
diagonal Jacobian). A linear entry omits its tangent rule, which is then the
primal applied to the tangent. An entry may also give a forward that returns a
residual for the rules (``dense_silu`` keeps its halved pre-activation and
``1 + tanh``); without one the residual is the output. The primal and that
forward compute the output with the same operations, so every mode gives
bit-identical values.

One rule convention. An entry's operands are its first ``arity`` arguments,
or one list when ``arity`` is ``None``; further arguments are static
parameters. Its rules get the operands as a list ``xs`` and the residual
``r``: ``jvp(ts, xs, r, *params)`` returns the output tangent, with ``None``
in ``ts`` for each constant operand, and ``vjp(g, xs, r, live, *params)``
returns the gradients of the operands indexed by ``live`` only, so constants
cost no work. A fixed-arity entry may give one rule per operand instead,
``rule(t, *xs, r, *params)``, a tuple of them when it has two operands;
``Prim`` lists them once, summing the operands' tangents and summing each
gradient back to its operand's shape (the reverse of numpy broadcasting).
``dense_silu`` and ``attention`` write the list form.

Three fused entries keep the velocity net's tape short. ``attention`` is the
whole attention block (projections, QK RMS norm, softmax, output projection)
with hand-derived rules, so a block is one tape node. ``dense_silu([x, W, b])``
is ``silu(x @ W + b)`` as one node: it forms ``u = x @ (W/2) + b/2`` and
returns ``u·(1 + tanh u)``. Halving a normal float is exact, so this equals the
composed graph bit for bit, and its rules keep the order of operations of the
composed SiLU oracle (``silu`` in ``tests/oracles.py``), so its tangents and
gradients do too. ``sincos(x)`` returns ``[sin x | cos x]`` along the last
axis and keeps that output as its residual, so neither rule evaluates a
transcendental.

One interpreter. ``Prim.__call__`` reads every call of an entry: in one pass
over the operands it takes their values and notes the traced (live) ones. An
entry called on plain ndarrays runs its primal. Otherwise it runs its forward
(or its primal, whose output is then the residual) and wraps the output in the
type of its traced operands, which are plain records:

* ``Dual`` — forward mode. Carries (primal, tangent) pairs; ``jvp`` gives the
  output's tangent.
* ``Var``  — reverse mode. A tape node whose parents are the live operands and
  whose closure applies ``vjp``; ``backward()`` accumulates
  gradients in reverse topological order. It consumes the tape as it goes:
  once a node's VJP has run, the node drops its closure (and with it the
  operand values and residual it holds), its parents and its gradient, so
  the walk frees the tape instead of holding it until the tape is dropped.
  Only the leaves and the node ``backward`` was called on keep gradients, and
  a second ``backward`` through a consumed node raises.

Plain ndarrays mix freely with either type and are treated as constants,
which is how stop-gradient and frozen-module semantics are expressed: a
branch evaluated on raw arrays simply never enters the tape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Dual", "Var", "PRIMITIVES", "primal", "sin", "cos", "sincos", "exp", "sqrt", "relu",
    "dense_silu", "neg", "power", "vsum", "vmean", "reshape", "take_rows", "add", "sub",
    "mul", "div", "matmul", "attention",
]


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    nd = len(shape)
    while g.ndim > nd:
        g = g.sum(axis=0)
    axes = tuple(i for i in range(nd) if shape[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class _Traced:
    """Arithmetic operators of ``Dual`` and ``Var``, mapped onto table entries."""

    __slots__ = ()
    __array_ufunc__ = None  # keep numpy from absorbing us in mixed expressions

    def __add__(self, o):
        return add(self, o)

    def __radd__(self, o):
        return add(o, self)

    def __sub__(self, o):
        return sub(self, o)

    def __rsub__(self, o):
        return sub(o, self)

    def __mul__(self, o):
        return mul(self, o)

    def __rmul__(self, o):
        return mul(o, self)

    def __truediv__(self, o):
        return div(self, o)

    def __rtruediv__(self, o):
        return div(o, self)

    def __matmul__(self, o):
        return matmul(self, o)

    def __rmatmul__(self, o):
        return matmul(o, self)

    def __pow__(self, k):
        return power(self, k)

    def __neg__(self):
        return neg(self)


class Dual(_Traced):
    """Forward-mode dual array: primal ``p`` and tangent ``t`` of equal shape."""

    __slots__ = ("p", "t")

    def __init__(self, primal, tangent=None):
        self.p = np.asarray(primal, dtype=np.float64)
        if tangent is None:
            self.t = np.zeros_like(self.p)
        else:
            t = np.asarray(tangent, dtype=np.float64)
            self.t = np.broadcast_to(t, self.p.shape) if t.shape != self.p.shape else t


class Var(_Traced):
    """Reverse-mode tape node holding value ``v`` and accumulated ``grad``."""

    __slots__ = ("v", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.v = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) node into the tape's leaves.

        The walk consumes the tape: each interior node drops its closure, its
        parents and its gradient once its VJP has run, so operand values and
        residuals are freed along the way. Leaves and this node keep their
        gradients; a second ``backward`` through a consumed node raises.
        """
        if seed is None:
            if self.v.size != 1:
                raise ValueError("backward() without seed requires a scalar node")
            seed = np.ones_like(self.v)
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise RuntimeError("backward() through a tape that an earlier "
                                   "backward() consumed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.asarray(seed, dtype=np.float64)
        while topo:
            node = topo.pop()
            if node._vjp is None:
                continue
            if node.grad is not None:
                for p, g in zip(node._parents, node._vjp(node.grad)):
                    p.grad = g if p.grad is None else p.grad + g
            node._vjp = node._parents = None
            if node is not self:
                node.grad = None


def primal(x):
    """Underlying primal value of any of the three array kinds."""
    if isinstance(x, Dual):
        return x.p
    if isinstance(x, Var):
        return x.v
    return np.asarray(x)


# -- the table entry ---------------------------------------------------------

def _listed(jvps, vjps):
    """List-form rules from per-operand rules ``rule(t, *xs, r, *params)``."""

    def jvp(ts, xs, r, *params, **kw):
        out = None
        for rule, t in zip(jvps, ts):
            if t is not None:
                d = rule(t, *xs, r, *params, **kw)
                out = d if out is None else out + d
        return out

    def vjp(g, xs, r, live, *params, **kw):
        return [_unbroadcast(vjps[i](g, *xs, r, *params, **kw), xs[i].shape) for i in live]

    return jvp, vjp


class Prim:
    """One table entry; the module docstring gives the rule conventions.

    ``fwd``, when given, returns (output, residual) for the traced modes;
    plain arrays keep the primal, whose temporaries numpy can reuse.
    """

    def __init__(self, name, primal, jvp=None, vjp=None, fwd=None, arity=1):
        self.name, self.primal, self.fwd, self.arity = name, primal, fwd, arity
        if arity is not None:  # per-operand rules: a function, or a tuple of them
            if jvp is None:  # linear: the tangent rule is the primal itself
                jvp = lambda t, x, r, *params, **kw: primal(t, *params, **kw)
            vjp = vjp or jvp
            if arity == 1:
                jvp, vjp = (jvp,), (vjp,)
            jvp, vjp = _listed(jvp, vjp)
        self.jvp, self.vjp = jvp, vjp

    def __call__(self, *args, **kw):
        n = self.arity
        xs = args[0] if n is None else args[:n]
        vals, live = [], []  # operand values; indices of the traced operands
        for x in xs:
            if isinstance(x, _Traced):
                live.append(len(vals))
                x = x.p if type(x) is Dual else x.v
            vals.append(x)
        if not live:
            return self.primal(*args, **kw)
        params = args[1 if n is None else n:]
        ops = (vals,) if n is None else vals
        if self.fwd is None:
            y = r = self.primal(*ops, *params, **kw)
        else:
            y, r = self.fwd(*ops, *params, **kw)
        if type(xs[live[0]]) is Dual:
            ts = [None] * len(vals)
            for i in live:
                ts[i] = xs[i].t
            return Dual(y, self.jvp(ts, vals, r, *params, **kw))
        vjp = self.vjp
        return Var(y, [xs[i] for i in live], lambda g: vjp(g, vals, r, live, *params, **kw))


# -- the rule table ----------------------------------------------------------

def _swap(x):
    return np.asarray(x).swapaxes(-1, -2)


def _sincos(x):
    return np.concatenate([np.sin(x), np.cos(x)], axis=-1)


def _sincos_jvp(t, x, sc):
    n = x.shape[-1]
    return np.concatenate([t * sc[..., n:], -t * sc[..., :n]], axis=-1)


def _sincos_vjp(g, x, sc):
    n = x.shape[-1]
    return g[..., :n] * sc[..., n:] - g[..., n:] * sc[..., :n]


# -- the fused dense + SiLU layer ----------------------------------------------
# silu(z) = z·sigmoid(z) = u·(1 + tanh u) with u = z/2 = x @ (W/2) + b/2; the
# residual is (u, 1 + tanh u), and s = (1 + tanh u)/2 is the SiLU oracle's sigmoid.

def _dense_half(x, W, b):
    u = x @ (0.5 * W)
    u += 0.5 * b
    return u


def _dense_silu(xs):
    u = _dense_half(*xs)
    y = np.tanh(u)
    y += 1.0
    y *= u
    return y


def _dense_silu_fwd(xs):
    u = _dense_half(*xs)
    a = np.tanh(u)
    a += 1.0
    return u * a, (u, a)


def _times_slope(t, u, a):
    """``t·silu'(z)`` with silu'(z) = s·(1 + z·(1 - s)), s = a/2 and z = 2u,
    in one buffer; products in the order of the SiLU oracle's rule."""
    d = 2.0 - a
    d *= u
    d += 1.0
    d *= 0.5 * a
    d *= t
    return d


def _dense_silu_jvp(ts, xs, r):
    (tx, tW, tb), (x, W, b) = ts, xs
    tz = None if tx is None else tx @ W
    if tW is not None:
        tz = x @ tW if tz is None else tz + x @ tW
    if tb is not None:
        tz = tb if tz is None else tz + tb
    return _times_slope(tz, *r)


def _dense_silu_vjp(g, xs, r, live):
    x, W, b = xs
    gz = _times_slope(g, *r)
    grads = (lambda: gz @ W.T, lambda: x.T @ gz, lambda: gz.sum(axis=0))
    return [grads[i]() for i in live]


# ndarray methods: the numpy functions add a dispatch layer that costs more
# than the arithmetic on the small arrays of a tape
def _sum(x, axis=None, keepdims=False):
    return np.asarray(x).sum(axis=axis, keepdims=keepdims)


def _mean(x, axis=None, keepdims=False):
    return np.asarray(x).mean(axis=axis, keepdims=keepdims)


def _spread(g, x, axis, keepdims, scale=None):
    """Transpose of a reduction: broadcast ``g`` back over the reduced axes."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g if scale is None else g / scale, x.shape)


def _sum_vjp(g, x, r, axis=None, keepdims=False):
    return _spread(g, x, axis, keepdims)


def _mean_vjp(g, x, r, axis=None, keepdims=False):
    n = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])
    return _spread(g, x, axis, keepdims, n)


def _take_rows_vjp(g, x, r, idx):
    # scatter-add as one GEMM with the one-hot (rows, len(idx)) matrix of idx
    idx = np.asarray(idx).ravel() % x.shape[0]
    onehot = (idx == np.arange(x.shape[0])[:, None]).astype(np.float64)
    return (onehot @ g.reshape(idx.size, -1)).reshape(x.shape)


# -- the fused attention block -----------------------------------------------
# One node per block over [h, wq, wk, wv, wo]: each row of h is n_tokens tokens
# of width d. The projections are GEMMs over all B·n_tokens tokens at once, and
# every reduction over a short axis is a GEMV, which numpy runs faster than a
# reduction over a last axis only 8 or 16 wide.

_RMS_EPS = 1e-30  # keeps 0/0 finite without breaking positive-scale invariance


def _row_sums(a, scale=1.0):
    """``scale`` times the sums over the last axis of ``a``, kept as an axis."""
    n = a.shape[-1]
    return (a.reshape(-1, n) @ np.full(n, scale)).reshape(a.shape[:-1] + (1,))


def _rms_normalize(q):
    """Scale the rows of ``q`` to unit RMS in place; return it and 1/RMS."""
    r = (_row_sums(q * q, 1.0 / q.shape[1]) + _RMS_EPS) ** -0.5
    q *= r
    return q, r


def _rms_rule(t, qn, r):
    # Jacobian r·(I - qn qnᵀ/d) per token: symmetric, so it also transposes
    return r * (t - qn * _row_sums(qn * t, 1.0 / qn.shape[1]))


def _attn_softmax_rule(t, s):
    # the softmax Jacobian diag(s) - s sᵀ per row: symmetric, so it also
    # transposes; the sums are GEMVs
    st = s * t
    return st - s * _row_sums(st)


def _attention_fwd(xs, n_tokens, qk_norm):
    h, wq, wk, wv, wo = xs
    x = h.reshape(len(h) * n_tokens, -1)
    tokens = (len(h), n_tokens, x.shape[1])
    q, k, v = x @ wq, x @ wk, x @ wv
    rq = rk = None
    if qk_norm:
        q, rq = _rms_normalize(q)
        k, rk = _rms_normalize(k)
    q3, k3, v3 = q.reshape(tokens), k.reshape(tokens), v.reshape(tokens)
    z = q3 @ _swap(k3)
    z *= 1.0 / np.sqrt(x.shape[1])
    if not qk_norm:
        # shift by the largest of the row's n_tokens² logits (a query whose
        # logits all lie ~700 below it would underflow); QK-normed logits lie
        # within ±sqrt(d), so their exp can neither overflow nor vanish
        z -= z.reshape(len(h), -1).max(axis=1)[:, None, None]
    s = np.exp(z, out=z)
    s /= _row_sums(s)
    o = (s @ v3).reshape(x.shape)
    return (o @ wo).reshape(h.shape), (x, q3, k3, v3, rq, rk, s, o)


def _attention_jvp(ts, xs, res, n_tokens, qk_norm):
    th, twq, twk, twv, two = ts
    h, wq, wk, wv, wo = xs
    x, q3, k3, v3, rq, rk, s, o = res
    tx = np.zeros(x.shape) if th is None else th.reshape(x.shape)
    tq, tk, tv = (tx @ w if tw is None else tx @ w + x @ tw
                  for w, tw in ((wq, twq), (wk, twk), (wv, twv)))
    if qk_norm:
        tq = _rms_rule(tq, q3.reshape(x.shape), rq)
        tk = _rms_rule(tk, k3.reshape(x.shape), rk)
    tz = q3 @ _swap(tk.reshape(q3.shape))
    tz += tq.reshape(q3.shape) @ _swap(k3)
    tz *= 1.0 / np.sqrt(x.shape[1])
    to = _attn_softmax_rule(tz, s) @ v3
    to += s @ tv.reshape(v3.shape)
    out = to.reshape(x.shape) @ wo
    if two is not None:
        out += o @ two
    return out.reshape(h.shape)


def _attention_vjp(g, xs, res, live, n_tokens, qk_norm):
    h, wq, wk, wv, wo = xs
    x, q3, k3, v3, rq, rk, s, o = res
    g = g.reshape(o.shape)
    go = (g @ wo.T).reshape(v3.shape)
    gv = (_swap(s) @ go).reshape(x.shape)
    gz = _attn_softmax_rule(go @ _swap(v3), s)
    gz *= 1.0 / np.sqrt(x.shape[1])
    gq = (gz @ k3).reshape(x.shape)
    gk = (_swap(gz) @ q3).reshape(x.shape)
    if qk_norm:
        gq = _rms_rule(gq, q3.reshape(x.shape), rq)
        gk = _rms_rule(gk, k3.reshape(x.shape), rk)
    grads = (lambda: (gq @ wq.T + gk @ wk.T + gv @ wv.T).reshape(h.shape),
             lambda: x.T @ gq, lambda: x.T @ gk, lambda: x.T @ gv, lambda: o.T @ g)
    return [grads[i]() for i in live]


sin = Prim("sin", np.sin, lambda t, x, r: t * np.cos(x))
cos = Prim("cos", np.cos, lambda t, x, r: -t * np.sin(x))
exp = Prim("exp", np.exp, lambda t, x, e: t * e)
sqrt = Prim("sqrt", np.sqrt, lambda t, x, y: 0.5 * t / y)
relu = Prim("relu", lambda x: np.maximum(x, 0.0), lambda t, x, r: np.where(x > 0, t, 0.0))
sincos = Prim("sincos", _sincos, _sincos_jvp, _sincos_vjp)
dense_silu = Prim("dense_silu", _dense_silu, _dense_silu_jvp, _dense_silu_vjp,
                  fwd=_dense_silu_fwd, arity=None)
power = Prim("power", lambda x, k: x ** k, lambda t, x, r, k: t * (k * x ** (k - 1.0)))
neg = Prim("neg", np.negative)
vsum = Prim("vsum", _sum, vjp=_sum_vjp)
vmean = Prim("vmean", _mean, vjp=_mean_vjp)
reshape = Prim("reshape", lambda x, shape: np.asarray(x).reshape(shape),
               vjp=lambda g, x, r, shape: g.reshape(x.shape))
take_rows = Prim("take_rows", lambda x, idx: x[idx], vjp=_take_rows_vjp)
add = Prim("add", np.add, (lambda t, a, b, r: t, lambda t, a, b, r: t), arity=2)
sub = Prim("sub", np.subtract, (lambda t, a, b, r: t, lambda t, a, b, r: -t), arity=2)
mul = Prim("mul", np.multiply, (lambda t, a, b, r: t * b, lambda t, a, b, r: a * t), arity=2)
div = Prim("div", np.true_divide, (lambda t, a, b, r: t / b,
                                   lambda t, a, b, r: -t * a / (b * b)), arity=2)
matmul = Prim("matmul", np.matmul, (lambda t, a, b, r: t @ b, lambda t, a, b, r: a @ t),
              vjp=(lambda g, a, b, r: g @ _swap(b), lambda g, a, b, r: _swap(a) @ g), arity=2)
attention = Prim("attention", lambda xs, n_tokens, qk_norm: _attention_fwd(xs, n_tokens, qk_norm)[0],
                 _attention_jvp, _attention_vjp, fwd=_attention_fwd, arity=None)

# the rule table: every entry this module defines, and no other
PRIMITIVES = {p.name: p for p in list(globals().values()) if isinstance(p, Prim)}
