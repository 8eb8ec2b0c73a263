"""The call contract of the public entry points, one row per (entry point, bad
argument). Each bad call raises the row's exception class, and its message
starts with the name of the argument at fault: the library's own check fired,
not an error from inside numpy. Add a row for each malformed call found later."""

import re

import numpy as np
import pytest

from tfdl.distill import DistillConfig
from tfdl.errors import ConfigurationError, NumericsError
from tfdl.metrics import sliced_w2
from tfdl.net import NetSpec, VelocityNet
from tfdl.runio import RunConfig
from tfdl.sampler import default_schedule, multistep_sample, search_timesteps
from tfdl.teacher import euler_integrate
from tfdl.trigflow import TrigFlowAdapter

NET = VelocityNet(3, spec=NetSpec(width=16, depth=1))
ADAPTER = TrigFlowAdapter(NET, 1.0)
X = np.zeros((10, 2))


def _jvp(x_tan, t_tan):
    return NET.jvp(X, 0.5, 0, 0.0, x_tan, t_tan)


def _sample(n):
    return multistep_sample(ADAPTER, default_schedule(2, 1.0), n, 0, 0.0,
                            np.random.default_rng(0))


def _search(steps=2, n_eval=16):
    return search_timesteps(ADAPTER, lambda s: float(np.mean(s ** 2)), steps, [0.4, 0.8],
                            n_eval, 0, 0.0)


def _euler(n):
    return euler_integrate(lambda x, t, y: x, n, 0, 1.0, 2, 1.0, np.random.default_rng(0))


# (id, bad call, exception class, the name its message starts with)
ROWS = [
    ("jvp-t_tan-one-entry", lambda: _jvp(np.zeros((10, 2)), np.zeros(1)), ValueError, "t_tan"),
    ("jvp-t_tan-three-entries", lambda: _jvp(np.zeros((10, 2)), np.zeros(3)), ValueError,
     "t_tan"),
    ("jvp-x_tan-one-row", lambda: _jvp(np.zeros((1, 2)), np.zeros(10)), ValueError, "x_tan"),
    ("jvp-x_tan-three-rows", lambda: _jvp(np.zeros((3, 2)), np.zeros(10)), ValueError, "x_tan"),
    ("forward-y-1.7", lambda: NET.forward(X, 0.5, 1.7), ValueError, "y"),
    ("forward-y-True", lambda: NET.forward(X, 0.5, True), ValueError, "y"),
    ("forward-y-float-array", lambda: NET.forward(X, 0.5, np.ones(10)), ValueError, "y"),
    ("forward-x-zero-rows", lambda: NET.forward(np.zeros((0, 2)), 0.5, 0), ValueError, "x"),
    ("forward-x-three-columns", lambda: NET.forward(np.zeros((10, 3)), 0.5, 0), ValueError,
     "x"),
    ("forward-x-1d", lambda: NET.forward(np.zeros(4), 0.5, 0), ValueError, "x"),
    ("forward-x-scalar", lambda: NET.forward(0.0, 0.5, 0), ValueError, "x"),
    ("forward-x-nan", lambda: NET.forward(np.full((10, 2), np.nan), 0.5, 0), NumericsError,
     "x"),
    ("forward-t-nan", lambda: NET.forward(X, np.nan, 0), NumericsError, "t"),
    ("forward-cfg-inf", lambda: NET.forward(X, 0.5, 0, np.inf), NumericsError, "cfg"),
    ("multistep_sample-n-0", lambda: _sample(0), ValueError, "n"),
    ("multistep_sample-n--1", lambda: _sample(-1), ValueError, "n"),
    ("multistep_sample-n-2.5", lambda: _sample(2.5), ValueError, "n"),
    ("multistep_sample-n-True", lambda: _sample(True), ValueError, "n"),
    ("search_timesteps-n_eval-0", lambda: _search(n_eval=0), ValueError, "n_eval"),
    ("search_timesteps-steps-0", lambda: _search(steps=0), ValueError, "steps"),
    ("search_timesteps-steps--1", lambda: _search(steps=-1), ValueError, "steps"),
    ("search_timesteps-steps-2.5", lambda: _search(steps=2.5), ValueError, "steps"),
    ("euler_integrate-n-0", lambda: _euler(0), ValueError, "n"),
    ("sliced_w2-1d", lambda: sliced_w2(np.zeros(4), np.ones(4)), ValueError, "a"),
    ("sliced_w2-3-columns", lambda: sliced_w2(np.zeros((4, 3)), np.ones((4, 3))), ValueError,
     "a"),
    ("sliced_w2-b-3-columns", lambda: sliced_w2(np.zeros((4, 2)), np.ones((4, 3))), ValueError,
     "b"),
    ("sliced_w2-n_proj-0", lambda: sliced_w2(np.zeros((4, 2)), np.ones((4, 2)), n_proj=0),
     ValueError, "n_proj"),
    ("sliced_w2-n_proj-2.5", lambda: sliced_w2(np.zeros((4, 2)), np.ones((4, 2)), n_proj=2.5),
     ValueError, "n_proj"),
    ("RunConfig-eval_cfg_scale-1e300", lambda: RunConfig(eval_cfg_scale=1e300),
     ConfigurationError, "RunConfig.eval_cfg_scale"),
    ("RunConfig-eval_cfg_scale--1", lambda: RunConfig(eval_cfg_scale=-1.0),
     ConfigurationError, "RunConfig.eval_cfg_scale"),
    ("DistillConfig-cfg_scales-4.0-1e300", lambda: DistillConfig(cfg_scales=(4.0, 1e300)),
     ConfigurationError, "DistillConfig.cfg_scales"),
]


@pytest.mark.parametrize("call, exc, name", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_bad_argument_raises_naming_it(call, exc, name):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is exc, repr(info.value)
    assert re.match(rf"{re.escape(name)}\b", str(info.value)), str(info.value)
