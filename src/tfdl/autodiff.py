"""Array-valued automatic differentiation on float64 numpy arrays.

Every differentiable operation is one entry of a single rule table
(``PRIMITIVES``). An entry gives its primal function once, one linear tangent
rule per argument, and the transpose of a rule only where the rule is not its
own transpose: elementwise rules scale by a diagonal Jacobian and softmax's
Jacobian is symmetric, so those serve both directions. A linear entry omits
its tangent rule, which is then the primal applied to the tangent. An entry
may also give a forward that returns a residual for the rules (SiLU keeps its
sigmoid); without one the residual is the output.

Calling an entry interprets it in one of three modes, chosen by its arguments:

* plain ndarrays go straight to the primal function;
* ``Dual`` — forward mode. Carries (primal, tangent) pairs; the output tangent
  is the sum of the tangent rules of the arguments that carry one.
* ``Var``  — reverse mode. Records a tape node whose vector-Jacobian product
  applies each live argument's transpose and sums it back to that argument's
  shape; ``backward()`` accumulates gradients by reverse topological order.

Rules are called as ``rule(t, *primal_args, residual, *params)``: ``(t, x, r)``
for a unary entry, ``(t, a, b, r)`` for a binary one, ``(ts, xs, r)`` for
``cat``. Plain ndarrays mix freely with either type and are treated as
constants, which is how stop-gradient and frozen-module semantics are
expressed: a branch evaluated on raw arrays simply never enters the tape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Dual", "Var", "PRIMITIVES", "primal", "sin", "cos", "exp", "log", "sqrt",
    "tanh", "relu", "silu", "softmax", "neg", "power", "vsum", "vmean",
    "reshape", "swap_last", "take_rows", "add", "sub", "mul", "div", "matmul",
    "cat",
]

PRIMITIVES = {}


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
        """Accumulate gradients of this (scalar) node into the tape."""
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
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            for p, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                p.grad = g if p.grad is None else p.grad + g


def primal(x):
    """Underlying primal value of any of the three array kinds."""
    if isinstance(x, Dual):
        return x.p
    if isinstance(x, Var):
        return x.v
    return np.asarray(x)


# -- the three interpreters --------------------------------------------------

class Prim:
    """One table entry; see the module docstring for the rule conventions."""

    def __init__(self, name, primal, jvp=None, vjp=None):
        self.name, self.primal = name, primal
        self.jvp = jvp or (lambda t, x, r, *params, **kw: primal(t, *params, **kw))
        self.vjp = vjp or self.jvp
        PRIMITIVES[name] = self


class Unary(Prim):
    """Entry with one differentiable argument plus static parameters.

    ``fwd``, when given, returns (output, residual) for the tangent-carrying
    modes; plain arrays keep the primal, whose temporaries numpy can reuse.
    """

    def __init__(self, name, primal, jvp=None, vjp=None, fwd=None):
        super().__init__(name, primal, jvp, vjp)
        self.fwd = fwd

    def __call__(self, x, *params, **kw):
        if isinstance(x, Dual):
            xp = x.p
        elif isinstance(x, Var):
            xp = x.v
        else:
            return self.primal(x, *params, **kw)
        if self.fwd is None:
            y = r = self.primal(xp, *params, **kw)
        else:
            y, r = self.fwd(xp, *params, **kw)
        if isinstance(x, Dual):
            return Dual(y, self.jvp(x.t, xp, r, *params, **kw))
        vjp = self.vjp
        return Var(y, (x,), lambda g: (vjp(g, xp, r, *params, **kw),))


class Binary(Prim):
    """Entry with two differentiable, broadcasting arguments."""

    def __call__(self, a, b):
        da, db = isinstance(a, Dual), isinstance(b, Dual)
        if da or db:
            ap, bp = (a.p if da else a), (b.p if db else b)
            y = self.primal(ap, bp)
            ja, jb = self.jvp
            if da and db:
                return Dual(y, ja(a.t, ap, bp, y) + jb(b.t, ap, bp, y))
            return Dual(y, ja(a.t, ap, bp, y) if da else jb(b.t, ap, bp, y))
        va, vb = isinstance(a, Var), isinstance(b, Var)
        if not (va or vb):
            return self.primal(a, b)
        ap, bp = (a.v if va else a), (b.v if vb else b)
        y = self.primal(ap, bp)
        ga, gb = self.vjp
        if va and vb:
            return Var(y, (a, b), lambda g: (_unbroadcast(ga(g, ap, bp, y), ap.shape),
                                             _unbroadcast(gb(g, ap, bp, y), bp.shape)))
        if va:
            return Var(y, (a,), lambda g: (_unbroadcast(ga(g, ap, bp, y), ap.shape),))
        return Var(y, (b,), lambda g: (_unbroadcast(gb(g, ap, bp, y), bp.shape),))


class Nary(Prim):
    """Entry over a list of differentiable arguments."""

    def __call__(self, xs, *params, **kw):
        if any(isinstance(x, Dual) for x in xs):
            ps = [x.p if isinstance(x, Dual) else np.asarray(x, dtype=np.float64) for x in xs]
            ts = [x.t if isinstance(x, Dual) else np.zeros_like(p) for x, p in zip(xs, ps)]
            y = self.primal(ps, *params, **kw)
            return Dual(y, self.jvp(ts, ps, y, *params, **kw))
        live = [i for i, x in enumerate(xs) if isinstance(x, Var)]
        if not live:
            return self.primal(xs, *params, **kw)
        vals = [x.v if isinstance(x, Var) else np.asarray(x, dtype=np.float64) for x in xs]
        y = self.primal(vals, *params, **kw)
        vjp = self.vjp

        def back(g):
            gs = vjp(g, vals, y, *params, **kw)
            return tuple(gs[i] for i in live)

        return Var(y, tuple(xs[i] for i in live), back)


# -- the rule table ----------------------------------------------------------

def _swap(x):
    return np.asarray(x).swapaxes(-1, -2)


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
    st = s * t
    return st - s * st.sum(axis=axis, keepdims=True)


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
    out = np.zeros(x.shape)
    np.add.at(out, idx, g)
    return out


def _cat_vjp(g, xs, r, axis=-1):
    return np.split(g, np.cumsum([x.shape[axis] for x in xs])[:-1], axis=axis)


sin = Unary("sin", np.sin, lambda t, x, r: t * np.cos(x))
cos = Unary("cos", np.cos, lambda t, x, r: -t * np.sin(x))
exp = Unary("exp", np.exp, lambda t, x, e: t * e)
log = Unary("log", np.log, lambda t, x, r: t / x)
sqrt = Unary("sqrt", np.sqrt, lambda t, x, y: 0.5 * t / y)
tanh = Unary("tanh", np.tanh, lambda t, x, y: t * (1.0 - y * y))
relu = Unary("relu", lambda x: np.maximum(x, 0.0), lambda t, x, r: np.where(x > 0, t, 0.0))
silu = Unary("silu", _silu, lambda t, x, s: t * (s * (1.0 + x * (1.0 - s))),
             fwd=_silu_fwd)
softmax = Unary("softmax", _softmax, _softmax_rule)
power = Unary("power", lambda x, k: x ** k, lambda t, x, r, k: t * (k * x ** (k - 1.0)))
neg = Unary("neg", np.negative)
vsum = Unary("vsum", _sum, vjp=_sum_vjp)
vmean = Unary("vmean", _mean, vjp=_mean_vjp)
reshape = Unary("reshape", lambda x, shape: np.asarray(x).reshape(shape),
                vjp=lambda g, x, r, shape: g.reshape(x.shape))
swap_last = Unary("swap_last", _swap)
take_rows = Unary("take_rows", lambda x, idx: x[idx], vjp=_take_rows_vjp)
add = Binary("add", np.add, (lambda t, a, b, r: t, lambda t, a, b, r: t))
sub = Binary("sub", np.subtract, (lambda t, a, b, r: t, lambda t, a, b, r: -t))
mul = Binary("mul", np.multiply, (lambda t, a, b, r: t * b, lambda t, a, b, r: a * t))
div = Binary("div", np.true_divide, (lambda t, a, b, r: t / b,
                                     lambda t, a, b, r: -t * a / (b * b)))
matmul = Binary("matmul", np.matmul, (lambda t, a, b, r: t @ b, lambda t, a, b, r: a @ t),
                vjp=(lambda g, a, b, r: g @ _swap(b), lambda g, a, b, r: _swap(a) @ g))
cat = Nary("cat", lambda xs, axis=-1: np.concatenate(xs, axis=axis), vjp=_cat_vjp)
