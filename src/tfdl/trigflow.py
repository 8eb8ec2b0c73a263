"""Training-free adaptation of a flow-matching net to the trigonometric schedule.

A flow-matching model cannot directly denoise cos/sin-scheduled data: the time
domains, data scales, and prediction targets all differ. The paper fixes all
three with differentiable closed-form maps that preserve the SNR exactly,

    t_fm     = sin(t) / (sin(t) + cos(t))
    lambda   = sqrt(t_fm^2 + (1 - t_fm)^2)  = 1 / (sin(t) + cos(t))
    x_fm     = (x / sigma_d) * lambda
    F        = [(1 - 2 t_fm) x_fm + (1 - 2 t_fm + 2 t_fm^2) v(x_fm, t_fm)] / lambda
             = (1 - 2 t_fm) x / sigma_d + lambda v(x_fm, t_fm)
    cos(t) x - sigma_d sin(t) F = lambda (x - sigma_d sin(t) v(x_fm, t_fm))

The second forms follow from sin^2 t + cos^2 t = 1 and are the ones evaluated;
the last is the consistency prediction, so it takes one inner pass.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import primal, reshape, sqrt
from .errors import DomainError, check_sigma_d
from .schedule import HALF_PI
from .teacher import cfg_velocity, euler_integrate


def _trig_maps(t):
    """sin t, t_fm and lambda = 1 / (sin t + cos t) as a column, for trig times
    in [0, pi/2]; one domain check, one sin and one cos."""
    tp = primal(t)
    if not np.all((tp >= 0) & (tp <= HALF_PI + 1e-12)):
        raise DomainError("trig time outside [0, pi/2]")
    s = ad.sin(t)
    sc = s + ad.cos(t)
    return s, s / sc, reshape(1.0 / sc, (-1, 1))


def t_fm_of(t_trig):
    """Map a trig-schedule time to the flow-matching time of equal SNR."""
    return _trig_maps(t_trig)[1]


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
        self.inner = inner
        self.sigma_d = check_sigma_d(sigma_d)
        self.teacher_cfg = teacher_cfg

    def _flow_velocity(self, x_fm, tf, y, cfg, params):
        if not self.teacher_cfg:
            return self.inner.forward(x_fm, tf, y, cfg=cfg, params=params)
        return cfg_velocity(self.inner, x_fm, tf, y, 1.0 if cfg is None else cfg, params=params)

    def velocity(self, x, t, y, cfg=None, params=None):
        """Trig-schedule velocity estimate from raw-scale input x."""
        _, tf, lam = _trig_maps(t)
        xs = x * (1.0 / self.sigma_d)
        v = self._flow_velocity(xs * lam, tf, y, cfg, params)
        return reshape(1.0 - tf * 2.0, (-1, 1)) * xs + lam * v

    def consistency(self, x, t, y, cfg=None, params=None):
        """Solution-point prediction cos(t) x - sin(t) sigma_d F(x/sigma_d, t)."""
        s, tf, lam = _trig_maps(t)
        v = self._flow_velocity((x * (1.0 / self.sigma_d)) * lam, tf, y, cfg, params)
        return lam * (x - reshape(s * self.sigma_d, (-1, 1)) * v)

    def features(self, x, t, y):
        """Hidden activations, one (B, width) array per layer, of the unguided
        conditional inner pass at raw-scale x under the frozen inner net's own
        parameters; a traced ``x`` stays traced."""
        _, tf, lam = _trig_maps(t)
        x_fm = (x * (1.0 / self.sigma_d)) * lam
        return self.inner.forward(x_fm, tf, y, cfg=0.0, return_hidden=True)[1]


def euler_sample_trig(adapter, n, steps, y, cfg, rng):
    """Euler-integrate the trig-schedule ODE from t=pi/2 down to 0."""
    return euler_integrate(lambda x, t, y: adapter.velocity(x, t, y, cfg=cfg),
                           n, y, HALF_PI, steps, adapter.sigma_d, rng)
