"""Flow-matching teacher: pretraining, guided velocity, and the Euler loop.

The teacher is trained on data standardized to unit scale (points divided by
the dataset's sigma_d); the TrigFlow-side bookkeeping lives in the adapter
that wraps it. Noise is standard Gaussian per the flow-matching convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import vmean, vsum
from .errors import NumericsError, TrainingDivergence, check_counts, check_fields
from .optim import Adam
from .schedule import fm_perturb
from .toydata import batch_arrays, minibatch_arrays


@dataclass
class TeacherConfig:
    lr: float = field(default=8e-4, metadata={"gt": 0})
    iters: int = field(default=2000, metadata={"ge": 1})
    batch: int = field(default=256, metadata={"ge": 1})
    uncond_drop_prob: float = field(default=0.1, metadata={"ge": 0, "le": 1})
    log_every: int = field(default=100, metadata={"ge": 1})

    __post_init__ = check_fields


def _fm_objective(net, params, x0, y, t, z):
    """Mean of ||v(x_t, t, y) - (z - x0)||^2 in any evaluation mode."""
    v = net.forward(fm_perturb(x0, z, t), t, y, cfg=0.0, params=params)
    target = z - x0
    return vmean(vsum((v - target) * (v - target), axis=1))


def _draw_fm_noise(n, n_classes, y, rng, uncond_drop_prob):
    t = rng.uniform(0.0, 1.0, n)
    z = rng.standard_normal((n, 2))
    y = y.copy()
    if uncond_drop_prob > 0:
        drop = rng.uniform(0.0, 1.0, n) < uncond_drop_prob
        y[drop] = n_classes  # null class
    return t, z, y


def fm_loss(net, cfg, batch, rng):
    """Flow-matching loss on one batch: fresh t, z and class drops at ``cfg``'s rate."""
    x0, y = batch_arrays(batch)
    t, z, y = _draw_fm_noise(len(x0), net.n_classes, y, rng, cfg.uncond_drop_prob)
    return float(np.asarray(_fm_objective(net, None, x0, y, t, z)))


def train_teacher(net, ds, cfg, rng):
    """Adam-train the net on minibatches divided by ``ds.sigma_d`` (standardized
    data), with a cosine learning-rate decay from ``cfg.lr``; returns (net, loss curve)."""
    opt = Adam(net.params.size, cfg.lr)
    curve = []
    for it in range(cfg.iters):
        opt.lr = cfg.lr * 0.5 * (1.0 + np.cos(np.pi * it / cfg.iters))
        x0, y = minibatch_arrays(ds, cfg.batch, rng)
        x0 = x0 / ds.sigma_d
        t, z, y = _draw_fm_noise(cfg.batch, net.n_classes, y, rng, cfg.uncond_drop_prob)
        try:
            val, grad = net.value_and_grad(
                lambda P: _fm_objective(net, P, x0, y, t, z))
            opt.step(net.params.flat, grad)
        except (NumericsError, FloatingPointError) as exc:
            raise TrainingDivergence(it, str(exc)) from exc
        if it % cfg.log_every == 0 or it == cfg.iters - 1:
            curve.append((it, val))
    return net, curve


def cfg_velocity(net, x, t, y, scale, params=None):
    """Guided velocity v_u + scale * (v_c - v_u) at a scalar scale, from two
    passes (unconditional, then conditional); one pass, and exact, at 0 and 1."""
    y = np.asarray(y)
    if np.any(y >= net.n_classes):
        raise ValueError("cfg_velocity needs a real class condition, not the null class")
    if scale == 1.0:
        return net.forward(x, t, y, cfg=0.0, params=params)
    v_u = net.forward(x, t, net.n_classes, cfg=0.0, params=params)
    if scale == 0.0:
        return v_u
    v_c = net.forward(x, t, y, cfg=0.0, params=params)
    return v_u + (v_c - v_u) * scale


def euler_integrate(velocity, n, y, t_start, steps, sigma_d, rng):
    """Euler-integrate dx/dt = sigma_d * velocity(x, t, y) from t_start down to 0.

    The grid is uniform with ``steps`` steps and the initial state is
    ``sigma_d`` times standard Gaussian noise of ``n`` >= 1 points.
    """
    check_counts(n=n, steps=steps)
    x = sigma_d * rng.standard_normal((n, 2))
    ts = np.linspace(t_start, 0.0, steps + 1)
    for i in range(steps):
        v = velocity(x, ts[i], y)
        x = x + ((ts[i + 1] - ts[i]) * sigma_d) * np.asarray(v)
        if not np.all(np.isfinite(x)):
            raise NumericsError(f"non-finite state at Euler step {i}")
    return x


def euler_sample_fm(net, n, steps, y, scale, rng):
    """Euler-integrate the flow ODE from t=1 down to 0 on a uniform grid.

    Works in the teacher's standardized space: the initial state is standard
    Gaussian and outputs carry unit data scale.
    """
    return euler_integrate(lambda x, t, y: cfg_velocity(net, x, t, y, scale),
                           n, y, 1.0, steps, 1.0, rng)
