"""Training-free adaptation of a flow-matching net to the trigonometric schedule.

A flow-matching model cannot directly denoise cos/sin-scheduled data: the time
domains, data scales, and prediction targets all differ. The adapter fixes all
three with closed-form maps,

    t_fm     = sin(t) / (sin(t) + cos(t))
    lambda   = sqrt(t_fm^2 + (1 - t_fm)^2)
    x_fm     = (x / sigma_d) * lambda
    output   = [(1 - 2 t_fm) x_fm + (1 - 2 t_fm + 2 t_fm^2) v(x_fm, t_fm)] / lambda

which preserve the signal-to-noise ratio exactly and are differentiable, so
both forward-mode tangents and reverse-mode gradients flow through them.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import primal, reshape, sqrt
from .errors import DomainError
from .schedule import HALF_PI
from .teacher import cfg_velocity, euler_integrate


def _check_trig_domain(t):
    tp = primal(t)
    if np.any(tp < 0) or np.any(tp > HALF_PI + 1e-12):
        raise DomainError("trig time outside [0, pi/2]")


def t_fm_of(t_trig):
    """Map a trig-schedule time to the flow-matching time of equal SNR."""
    _check_trig_domain(t_trig)
    s, c = ad.sin(t_trig), ad.cos(t_trig)
    return s / (s + c)


def scale_factor(t_fm):
    """Data-scale correction sqrt(t_fm^2 + (1 - t_fm)^2); minimum at 0.5."""
    omt = 1.0 - t_fm
    return sqrt(t_fm * t_fm + omt * omt)


class TrigFlowAdapter:
    """Wraps one flow-matching net as a trig-schedule velocity model.

    ``teacher_cfg=True`` evaluates the inner net with explicit two-branch
    guidance (the scale combines conditional and unconditional passes);
    otherwise the scale is consumed by the net's own guidance embedding.
    """

    def __init__(self, inner, sigma_d, teacher_cfg=False):
        if sigma_d <= 0:
            raise ValueError("sigma_d must be positive")
        self.inner = inner
        self.sigma_d = float(sigma_d)
        self.teacher_cfg = teacher_cfg

    def _to_fm(self, x, t):
        """Flow-matching time, scale factor and input for trig-schedule (x, t)."""
        tf = t_fm_of(t)
        lam = scale_factor(tf)
        return tf, lam, (x * (1.0 / self.sigma_d)) * reshape(lam, (-1, 1))

    def velocity(self, x, t, y, cfg=None, params=None):
        """Trig-schedule velocity estimate from raw-scale input x."""
        tf, lam, x_fm = self._to_fm(x, t)
        if self.teacher_cfg:
            v = cfg_velocity(self.inner, x_fm, tf, y, 1.0 if cfg is None else cfg,
                             params=params)
        else:
            v = self.inner.forward(x_fm, tf, y, cfg=cfg, params=params)
        a = reshape(1.0 - tf * 2.0, (-1, 1))
        b = reshape(1.0 - tf * 2.0 + tf * tf * 2.0, (-1, 1))
        return (a * x_fm + b * v) * reshape(lam ** -1.0, (-1, 1))

    def consistency(self, x, t, y, cfg=None, params=None):
        """Solution-point prediction cos(t) x - sin(t) sigma_d F(x/sigma_d, t)."""
        _check_trig_domain(t)
        ct = reshape(ad.cos(t), (-1, 1))
        st = reshape(ad.sin(t), (-1, 1))
        return ct * x - st * (self.velocity(x, t, y, cfg=cfg, params=params) * self.sigma_d)

    def features(self, x, t, y, params=None):
        """Hidden activations of the unguided conditional inner pass at raw-scale x."""
        tf, _, x_fm = self._to_fm(x, t)
        return self.inner.forward(x_fm, tf, y, cfg=0.0, params=params, return_hidden=True)[1]


def euler_sample_trig(adapter, n, steps, y, cfg, rng):
    """Euler-integrate the trig-schedule ODE from t=pi/2 down to 0."""
    return euler_integrate(lambda x, t, y: adapter.velocity(x, t, y, cfg=cfg),
                           n, y, HALF_PI, steps, adapter.sigma_d, rng)
