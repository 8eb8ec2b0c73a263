"""Shared fixtures: analytic oracle nets and session-scoped trained models."""

import os

# The nets multiply matrices of a few dozen rows, where a second BLAS thread
# adds no speed but busy-waits on a second core; with one thread per process
# the suite keeps its wall time on a loaded host, and the end-to-end fixture
# can run its seeds in parallel processes. Must precede the numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

import tfdl
from tfdl.autodiff import reshape
from tfdl.trigflow import TrigFlowAdapter


def fresh_process_env(**extra):
    """Environment of a child Python process that imports this checkout's tfdl."""
    src = os.path.dirname(os.path.dirname(tfdl.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


class AnalyticGaussianFM:
    """Closed-form optimal flow velocity for matched unit Gaussians.

    For data and noise both standard normal the conditional-expectation
    velocity is v(x, t) = (2t - 1) / ((1 - t)^2 + t^2) * x. Written with the
    generic ops so duals and tape nodes propagate through it.
    """

    n_classes = 1

    def forward(self, x, t, y, cfg=None, params=None, return_hidden=False):
        coef = (t * 2.0 - 1.0) / ((1.0 - t) * (1.0 - t) + t * t)
        v = reshape(coef, (-1, 1)) * x
        return (v, [v]) if return_hidden else v


class ZeroFM:
    """Inner net that predicts zero velocity everywhere."""

    n_classes = 1

    def forward(self, x, t, y, cfg=None, params=None, return_hidden=False):
        v = x * 0.0
        return (v, [v]) if return_hidden else v


class ConstFM:
    """Inner net with a constant prediction, for coefficient arithmetic checks."""

    n_classes = 1

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    def forward(self, x, t, y, cfg=None, params=None, return_hidden=False):
        v = x * 0.0 + self.value
        return (v, [v]) if return_hidden else v


@pytest.fixture(scope="session")
def analytic_adapter():
    return TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=0.7, teacher_cfg=True)


@pytest.fixture(scope="session")
def gauss_ds():
    return tfdl.generate("gauss-mix", 20000, seed=0)


@pytest.fixture(scope="session")
def teacher(gauss_ds):
    """Teacher trained with the default 2000-iteration budget."""
    net = tfdl.VelocityNet(gauss_ds.n_classes, seed=1)
    net, curve = tfdl.train_teacher(net, gauss_ds, tfdl.TeacherConfig(),
                                    np.random.default_rng(1))
    return net, curve


@pytest.fixture(scope="session")
def small_ds():
    # large n keeps the empirical conditional-mean field close to the ideal
    # Gaussian one, which the teacher-convergence oracle compares against
    return tfdl.generate("gauss-mix", 20000, seed=3, components=1, comp_std=0.5, radius=0.0)


@pytest.fixture
def tiny_state(gauss_ds, teacher):
    """Distillation state advanced a handful of steps, for contract tests.

    Function-scoped: several tests mutate head parameters or optimizer state.
    """
    net, _ = teacher
    cfg = tfdl.DistillConfig(iters=5, batch=32)
    rng = np.random.default_rng(9)
    state, _ = tfdl.run_distill(net, gauss_ds, cfg, rng, seed=5)
    return state, cfg
