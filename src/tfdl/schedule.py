"""Noise-schedule families and training-time distributions.

Two interpolation schemes between clean data and Gaussian noise, each one
plain function that the pipeline calls:

* flow-matching  — ``fm_perturb``: (1 - t) x0 + t z on [0, 1]
* trigflow       — ``trig_perturb``: cos t x0 + sin t z on [0, pi/2]

Neither scales the noise: TrigFlow noise has the data standard deviation
sigma_d because the callers (``distill.draw``, ``multistep_sample``) pass
sigma_d·z. A ``Schedule`` adds the alpha/sigma maps, the time domain and, for
trigflow, sigma_d; ``perturb`` checks the domain before it interpolates.

All times are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .autodiff import primal
from .errors import DomainError, check_fields, check_sigma_d

HALF_PI = np.pi / 2


@dataclass(frozen=True)
class Schedule:
    family: str
    alpha: Callable
    sigma: Callable
    t_max: float
    sigma_d: Optional[float] = None


def flow_matching():
    return Schedule("flow-matching", lambda t: 1.0 - t, lambda t: np.asarray(t, dtype=np.float64), 1.0)


def trigflow(sigma_d):
    return Schedule("trigflow", np.cos, np.sin, HALF_PI, check_sigma_d(sigma_d))


def _check_domain(sched, t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0) & (t <= sched.t_max)):
        raise DomainError(f"time outside [0, {sched.t_max}] for {sched.family}")
    return t


def _rows(c, x):
    """Coefficient ``c`` of a per-row time, with a trailing axis when ``x`` (an
    array, ``Dual`` or ``Var``) has more dimensions, so each row of ``x`` is
    scaled by its own value."""
    return c[..., None] if 0 < np.ndim(c) < primal(x).ndim else c


def fm_perturb(x0, z, t):
    """Flow-matching noisy point (1 - t) x0 + t z; ``t`` a scalar or one per row."""
    return _rows(1.0 - t, x0) * x0 + _rows(t, x0) * z


def trig_perturb(x0, z, t):
    """TrigFlow noisy point cos(t) x0 + sin(t) z; ``t`` a scalar or one per row."""
    return _rows(np.cos(t), x0) * x0 + _rows(np.sin(t), x0) * z


def perturb(sched, x0, z, t):
    """Noisy point alpha(t)*x0 + sigma(t)*z, with ``t`` checked against the domain."""
    t = _check_domain(sched, t)
    x0 = np.asarray(x0, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x0.shape != z.shape:
        raise ValueError("x0 and z shapes differ")
    return (trig_perturb if sched.family == "trigflow" else fm_perturb)(x0, z, t)


def snr(sched, t):
    """Signal-to-noise ratio alpha(t)^2 / sigma(t)^2."""
    t = _check_domain(sched, t)
    s = np.asarray(sched.sigma(t))
    if np.any(s <= 0):
        raise DomainError("SNR is infinite where sigma(t) = 0")
    a = np.asarray(sched.alpha(t))
    return a * a / (s * s)


@dataclass(frozen=True)
class TimestepDistribution:
    """t = arctan(exp(tau)/sigma_d), tau ~ N(p_mean, p_std^2), with an extra
    atom of mass ``max_time_prob`` at exactly t = pi/2; ``sample_t`` takes the
    data's sigma_d where the times are drawn. The bounds on ``p_mean`` and
    ``p_std`` cost nothing: at tau = +-10 a time is already within 5e-5 * sigma_d
    of pi/2 (or 5e-5 / sigma_d of 0), and exp(tau) overflows only 70 standard
    deviations out."""

    p_mean: float = field(metadata={"ge": -10, "le": 10})
    p_std: float = field(metadata={"gt": 0, "le": 10})
    max_time_prob: float = field(default=0.0, metadata={"ge": 0, "le": 1})

    __post_init__ = check_fields


def mix_max_time(t, p, rng):
    """Move each time to pi/2 with probability p, one uniform draw per time."""
    if p <= 0:
        return t
    xi = rng.uniform(0.0, 1.0, len(t))
    return np.where(xi < p, HALF_PI, t)


def sample_t(dist, sigma_d, rng, size):
    """``size`` training timesteps in (0, pi/2] from ``dist`` for data scale ``sigma_d``."""
    tau = rng.normal(dist.p_mean, dist.p_std, size)
    return mix_max_time(np.arctan(np.exp(tau) / sigma_d), dist.max_time_prob, rng)
