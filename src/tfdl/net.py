"""Conditional velocity network for 2D points.

An MLP (SiLU; width 128 and depth 4 by default) with a single-head attention
block over a token reshaping of the hidden state, placed before hidden layer
``depth // 2``; the net is built from a ``NetSpec``, which holds every
hyperparameter. Time enters through a sinusoidal embedding of
``c_noise_scale * t`` at ``width // 2`` frequencies, whose sines and cosines
fill a row of the width; the guidance scale enters through an embedding of
``0.1 * cfg`` added to the time embedding; class conditions come from a
learned table with one reserved null row for the unconditional branch.
The attention block is one table entry, ``autodiff.attention``, with its own
forward, JVP and transpose, so a tape holds one node per block; each
dense+SiLU layer (``autodiff.dense_silu``) and each sinusoidal embedding
(``autodiff.sincos``) is one node too.
``x`` is (n, 2) with n >= 1, and a label ``y`` has an integer dtype. Each of
``t``, ``cfg`` and ``y`` is a scalar, one value for the whole batch (as in
every sampling step), or has one entry per row of ``x``: ``_prep`` checks each
rule once, raising ``ValueError`` that names the argument, and is the one
place a scalar label is repeated per row. A scalar ``t`` or ``cfg`` is
embedded once per call, as one row that broadcasts over the batch.

``forward`` decides once per call whether any input or parameter is a ``Dual``
or ``Var``; such a forward runs as one pass. A plain forward runs in row
blocks (below) and, when ``t`` and ``cfg`` are both scalars and hidden layer 0
comes before the attention block (``depth >= 2``), folds: layer 0's input
``x @ in_w + in_b + cond`` then has only ``n_classes + 3`` distinct terms, so
the input layer and the conditioning fold into one
``dense_silu([x | onehot(y)], W_fold, h0_b)``, where ``W_fold`` stacks
``in_w @ h0_w`` on ``(cls_table + in_b + emb_t + emb_c) @ h0_w`` (one row per
class, the null class included). Per row this removes one of the net's
``depth`` width x width GEMMs and the (rows x width) passes that build
``cond`` and the layer's input, at a cost of ``(n_classes + 3) * width**2``
multiply-adds per row block. Every sampling step, search candidate and Euler
step takes this path; array ``t`` or ``cfg``, traced forwards and depth 1 do
not, so no training forward changes. The folded and the generic forward of
the same inputs differ only by rounding.

A plain forward of more than ``_ROW_BLOCK`` (512) rows runs in consecutive
blocks of at most that many rows. At a few thousand rows each ``(B, width)``
float64 temporary outgrows a core's L2 cache, and the ~30 elementwise,
attention and SiLU passes of a forward would each stream it from L3 or
memory; a block's temporaries stay in cache. Rows are independent (the
attention mixes only the tokens of one row), so blocking changes GEMM
rounding and nothing else.

The same forward code runs in three modes: plain ndarrays for inference,
``Dual`` arrays for exact forward-mode tangents (jvp), and tape ``Var`` leaves
for reverse-mode gradients (value_and_grad).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Dual, attention, dense_silu, primal, reshape, sincos, take_rows
from .errors import ConfigurationError, NumericsError, check_fields
from .optim import ParamVector

_ROW_BLOCK = 512  # rows per block of a plain forward; keeps temporaries in L2
N_TOKENS = 8       # tokens a hidden row splits into for the attention block


@dataclass(frozen=True)
class NetSpec:
    """The net's hyperparameters besides its class count: the run config's
    ``net`` section, and with ``n_classes`` a checkpoint's rebuild metadata."""
    width: int = field(default=128, metadata={"ge": 1})
    depth: int = field(default=4, metadata={"ge": 1})
    qk_norm: bool = True
    c_noise_scale: float = field(default=1.0, metadata={"gt": 0})

    def __post_init__(self):
        check_fields(self)
        if self.width % N_TOKENS:
            raise ConfigurationError(f"NetSpec.width must be divisible by n_tokens ({N_TOKENS}), "
                                     f"not {self.width}")


def net_segments(n_classes, spec):
    """(name, shape) of each parameter segment of a net, in storage order.

    A pure function of the class count and ``NetSpec``, so a checkpoint's
    layout can be checked before any net is allocated.
    """
    w, d = spec.width, spec.width // N_TOKENS
    segs = [("time_freq", (w // 2,)), ("cls_table", (n_classes + 1, w)),
            ("cfg_proj", (w, w)), ("in_w", (2, w)), ("in_b", (w,))]
    for i in range(spec.depth):
        segs += [(f"h{i}_w", (w, w)), (f"h{i}_b", (w,))]
    segs += [(f"attn_{k}", (d, d)) for k in ("wq", "wk", "wv", "wo")]
    return segs + [("out_w", (w, 2)), ("out_b", (2,))]


def _traced(v):
    return isinstance(v, (Dual, ad.Var))


class VelocityNet:
    """F(x, t, y, cfg) with value, forward-mode JVP, and reverse-mode gradient.

    ``self.spec`` is the only place the net reads a hyperparameter; ``seed``
    draws the initial weights, and ``zero_out`` starts the output head at zero.
    """

    def __init__(self, n_classes, spec=NetSpec(), seed=0, zero_out=True):
        self.n_classes = n_classes
        self.spec = spec
        self.params = p = ParamVector(net_segments(n_classes, spec))
        rng, w = np.random.default_rng(seed), spec.width
        # top frequency capped so central differences at h=1e-5 stay a valid
        # oracle for the tangents: truncation ~ (f*h*|tan|)^2/6 per dimension
        p["time_freq"] = np.geomspace(1.0, 300.0, w // 2)
        p["cls_table"] = 0.02 * rng.standard_normal(p.shapes["cls_table"])
        p["in_w"] = rng.standard_normal((2, w)) / np.sqrt(2.0)
        for i in range(spec.depth):
            p[f"h{i}_w"] = rng.standard_normal((w, w)) * np.sqrt(2.0 / w)
        d = w // N_TOKENS
        for name in ("attn_wq", "attn_wk", "attn_wv"):
            p[name] = rng.standard_normal((d, d)) / np.sqrt(d)
        # attn_wo starts at zero: the block begins as an identity residual
        if not zero_out:
            p["out_w"] = rng.standard_normal((w, 2)) / np.sqrt(w)
            p["out_b"] = 0.01 * rng.standard_normal(2)

    # -- shared forward ------------------------------------------------------

    def _attn(self, P, h):
        return attention([h, P["attn_wq"], P["attn_wk"], P["attn_wv"], P["attn_wo"]],
                         n_tokens=N_TOKENS, qk_norm=self.spec.qk_norm)

    @staticmethod
    def _embed(P, v, scale):
        """Sinusoidal embedding of ``scale * v``: one row per entry of ``v``,
        and one row that broadcasts against the batch for a scalar ``v``."""
        return sincos(reshape(v * scale, (-1, 1)) * P["time_freq"])

    @staticmethod
    def _folded_layer0(P, x, y, emb_t, emb_c):
        """Hidden layer 0 as ``dense_silu([x | onehot(y)], W_fold, h0_b)``; the
        rows of ``W_fold`` are ``in_w @ h0_w`` and, per class, the layer's input
        at x = 0 times ``h0_w``."""
        rows = np.concatenate([P["in_w"], P["cls_table"] + P["in_b"] + emb_t + emb_c])
        w_fold = rows @ P["h0_w"]
        xy = np.zeros((len(y), w_fold.shape[0]))
        xy[:, :2] = x
        xy[np.arange(len(y)), 2 + y] = 1.0
        return dense_silu([xy, w_fold, P["h0_b"]])

    def _core(self, P, x, t, y, cfg, fold=False, collect_hidden=False):
        """One pass of the net; ``fold`` computes hidden layer 0 folded."""
        emb_t = self._embed(P, t, self.spec.c_noise_scale)
        emb_c = self._embed(P, cfg, 0.1) @ P["cfg_proj"]
        if fold:
            h = self._folded_layer0(P, x, y, emb_t, emb_c)
            hidden, first = [h], 1
        else:
            cond = emb_t + take_rows(P["cls_table"], y) + emb_c
            h = x @ P["in_w"] + P["in_b"] + cond
            hidden, first = [], 0
        for i in range(first, self.spec.depth):
            if i == self.spec.depth // 2:
                h = h + self._attn(P, h)
            h = dense_silu([h, P[f"h{i}_w"], P[f"h{i}_b"]])
            if collect_hidden:
                hidden.append(h)
        out = h @ P["out_w"] + P["out_b"]
        return (out, hidden) if collect_hidden else out

    def _prep(self, x, t, y, cfg):
        """The call contract, one check per rule (``ValueError`` naming the
        argument): ``x`` (n, 2) with n >= 1; ``t``, ``cfg`` and ``y`` a scalar or
        one entry per row; ``y`` an integer dtype (no bool) and a valid class;
        ``x``, ``t`` and ``cfg`` finite (else ``NumericsError`` naming it)."""
        if not _traced(x):
            x = np.asarray(x, dtype=np.float64)
        xs = primal(x).shape
        if len(xs) != 2 or xs[0] < 1 or xs[1] != 2:
            raise ValueError(f"x has shape {xs}; the net takes shape (n, 2) with n >= 1")
        n = xs[0]
        if not _traced(t):
            t = np.asarray(t, dtype=np.float64)
        if not _traced(cfg):
            cfg = np.asarray(0.0 if cfg is None else cfg, dtype=np.float64)
        y = np.asarray(y)
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"y has dtype {y.dtype}; a label takes an integer dtype")
        for name, v in (("t", t), ("y", y), ("cfg", cfg)):
            shape = primal(v).shape
            if shape not in ((), (n,)):
                raise ValueError(f"{name} has shape {shape}; a batch of shape {xs} "
                                 f"takes a scalar or shape ({n},)")
        for name, v in (("x", x), ("t", t), ("cfg", cfg)):
            if not np.all(np.isfinite(primal(v))):
                raise NumericsError(f"{name} is a non-finite network input")
        if np.any(y < 0) or np.any(y > self.n_classes):
            raise ValueError(f"y holds a class outside the embedding table [0, {self.n_classes}]")
        return x, t, np.full(n, y) if y.ndim == 0 else y, cfg

    # -- public evaluation ----------------------------------------------------

    def forward(self, x, t, y, cfg=None, params=None, return_hidden=False):
        """Velocity prediction, shape (B, 2).

        ``t``, ``cfg`` and ``y`` are each a scalar or one entry per row. A
        ``Dual`` or ``Var`` input or parameter makes it one traced pass; a
        plain forward runs in row blocks, folding hidden layer 0 when ``t``
        and ``cfg`` are scalars and ``depth >= 2``.
        """
        x, t, y, cfg = self._prep(x, t, y, cfg)
        P = self.params if params is None else params
        if any(_traced(v) for v in (x, t, cfg, *(P[name] for name in P))):
            return self._core(P, x, t, y, cfg, collect_hidden=return_hidden)
        fold = t.ndim == cfg.ndim == 0 and self.spec.depth >= 2
        n = len(y)
        if n <= _ROW_BLOCK:
            return self._core(P, x, t, y, cfg, fold, collect_hidden=return_hidden)
        blocks = [slice(i, i + _ROW_BLOCK) for i in range(0, n, _ROW_BLOCK)]
        parts = [self._core(P, x[b], t[b] if t.ndim else t, y[b], cfg[b] if cfg.ndim else cfg,
                            fold, collect_hidden=return_hidden)
                 for b in blocks]
        if not return_hidden:
            return np.concatenate(parts)
        outs, hidden = zip(*parts)
        return np.concatenate(outs), [np.concatenate(layer) for layer in zip(*hidden)]

    def jvp(self, x, t, y, cfg, x_tan, t_tan):
        """Value and exact directional derivative along ``x_tan``, of the shape
        of ``x``, and ``t_tan``, of shape (n,) (else ``ValueError`` naming it)."""
        x, t, y, cfg = self._prep(x, t, y, cfg)
        for name, tan, want in (("x_tan", x_tan, x.shape), ("t_tan", t_tan, x.shape[:1])):
            if np.shape(tan) != want:
                raise ValueError(f"{name} has shape {np.shape(tan)}, not {want} (x is {x.shape})")
        t = np.broadcast_to(t, x.shape[:1])
        out = self._core(self.params, Dual(x, x_tan), Dual(t, t_tan), y, cfg)
        if not np.all(np.isfinite(out.t)):
            raise NumericsError("non-finite JVP tangent")
        return out.p, out.t

    def value_and_grad(self, loss_fn):
        """Evaluate ``loss_fn(param_leaves)`` and return (value, flat gradient)."""
        leaves = self.params.as_vars()
        loss = loss_fn(leaves)
        if not np.all(np.isfinite(loss.v)):
            raise NumericsError("non-finite loss")
        loss.backward()
        return float(loss.v), self.params.gradient_from(leaves)

    def time_embed_sensitivity(self, t):
        """Norm of the time-embedding derivative d emb(c_noise(t))/dt."""
        td = Dual(np.asarray([t], dtype=np.float64), np.ones(1))
        emb = self._embed(self.params, td, self.spec.c_noise_scale)
        return float(np.sqrt(np.sum(emb.t ** 2)))

    # -- construction helpers ---------------------------------------------

    def spawn(self, c_noise_scale=None):
        """Copy of this net, optionally with a different noise scale."""
        other = VelocityNet(self.n_classes, self.spec if c_noise_scale is None
                            else replace(self.spec, c_noise_scale=c_noise_scale))
        other.params.flat[:] = self.params.flat
        return other

    def meta(self):
        """Static hyperparameters needed to rebuild the net from a checkpoint."""
        return {"n_classes": self.n_classes, **asdict(self.spec)}

