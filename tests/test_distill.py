"""Distillation-loop contracts: tangents, stop-gradient, hinge losses, warmup."""

import ctypes
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import tfdl
from conftest import AnalyticGaussianFM, fresh_process_env
from tfdl.distill import (DistillConfig, _generator_objective, _tangent_and_value,
                          adaptive_weight, draw, hinge_disc, hinge_gen, init_distill,
                          scm_objective, scm_target)
from tfdl.errors import TrainingDivergence
from tfdl.schedule import HALF_PI, TimestepDistribution, mix_max_time
from tfdl.toydata import minibatch_arrays
from tfdl.trigflow import TrigFlowAdapter


def _analytic_state():
    """Teacher and student both the matched-Gaussian closed form (F == 0)."""
    ds = tfdl.generate("gauss-mix", 512, seed=0, components=1, comp_std=1.0, radius=0.0)
    cfg = DistillConfig(batch=16)
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    state = init_distill(tfdl.VelocityNet(1, seed=0), ds, cfg, seed=0)
    state.student = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    state.teacher = adapter
    return state


def test_tangent_warmup_start_has_no_jvp_term():
    # r = 0 leaves only the -cos^2(t) (sd F - dx/dt) term
    state = _analytic_state()
    rng = np.random.default_rng(1)
    x_t = rng.standard_normal((8, 2))
    t = rng.uniform(0.2, 1.2, 8)
    y = np.zeros(8, dtype=int)
    g = _tangent_and_value(state, x_t, t, y, 1.0, r=0.0, tangent_c=0.1)[0]
    # analytic stub: F == 0 and dx/dt == 0, so the r=0 tangent is exactly 0
    np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-12)


def test_tangent_matched_gaussian_closed_form():
    state = _analytic_state()
    rng = np.random.default_rng(2)
    x_t = rng.standard_normal((16, 2))
    t = rng.uniform(0.1, 1.4, 16)
    y = np.zeros(16, dtype=int)
    r = 0.7
    g = _tangent_and_value(state, x_t, t, y, 1.0, r=r, tangent_c=0.1)[0]
    raw = -r * (np.cos(t) * np.sin(t))[:, None] * x_t
    expect = raw / (np.linalg.norm(raw, axis=1, keepdims=True) + 0.1)
    np.testing.assert_allclose(g, expect, atol=1e-10)


def test_tangent_norm_strictly_below_one(tiny_state):
    state, _ = tiny_state
    rng = np.random.default_rng(3)
    x_t = 2.0 * rng.standard_normal((64, 2))
    t = rng.uniform(0.05, HALF_PI, 64)
    y = rng.integers(0, 3, 64)
    g = _tangent_and_value(state, x_t, t, y, 4.5, r=1.0, tangent_c=0.1)[0]
    norms = np.linalg.norm(g, axis=1)
    assert np.all(norms < 1.0)


def test_hinge_saturation_and_zero_head_values():
    two = [np.full(8, 2.0)]
    minus_two = [np.full(8, -2.0)]
    zeros = [np.zeros(8), np.zeros(8)]
    assert float(hinge_disc(two, minus_two)) == 0.0
    assert float(hinge_disc(zeros, zeros)) == 4.0  # 2 per head
    assert float(hinge_gen([np.full(8, 3.0)] * 4)) == -12.0


def test_disc_loss_zero_heads_and_nonnegative(gauss_ds, tiny_state):
    state, cfg = tiny_state
    batch = minibatch_arrays(gauss_ds, 32, np.random.default_rng(4))
    loss = tfdl.disc_loss(state, cfg, batch, np.random.default_rng(5))
    assert loss >= 0.0
    state.heads.params.flat[:] = 0.0
    loss0 = tfdl.disc_loss(state, cfg, batch, np.random.default_rng(6))
    assert loss0 == pytest.approx(2.0 * state.heads.n_heads, abs=1e-12)


def test_gen_adv_constant_heads(gauss_ds, tiny_state):
    state, cfg = tiny_state
    state.heads.params.flat[:] = 0.0
    for k in range(state.heads.n_heads):
        state.heads.params[f"h{k}_b2"] = 3.0
    batch = minibatch_arrays(gauss_ds, 16, np.random.default_rng(7))
    loss = tfdl.gen_adv_loss(state, cfg, batch, np.random.default_rng(8))
    assert loss == pytest.approx(-3.0 * state.heads.n_heads, abs=1e-12)


def test_scm_loss_with_equal_params_and_zero_tangent(gauss_ds, tiny_state):
    # squared term vanishes, leaving -mean w(t)
    state, cfg = tiny_state
    rng = np.random.default_rng(9)
    d = draw(state, replace(cfg, cfg_scales=(4.5,)), minibatch_arrays(gauss_ds, 32, rng), rng,
             adversarial=False)
    x_t = np.cos(d.t)[:, None] * d.x0 + np.sin(d.t)[:, None] * d.z
    f = np.asarray(state.student.velocity(x_t, d.t, d.y, cfg=d.cfg))
    loss = scm_objective(state, d, (np.zeros_like(f), f))
    w = np.asarray(adaptive_weight(state.wphi, d.t))
    assert float(loss) == pytest.approx(-float(np.mean(w)), abs=1e-12)


def test_adaptive_weight_scalar_fixed_point():
    # minimizing e^w L - w over w gives e^w L = 1, loss = 1 + ln L
    L = 0.37
    w_grid = np.linspace(-5, 5, 20001)
    vals = np.exp(w_grid) * L - w_grid
    w_star = w_grid[np.argmin(vals)]
    assert np.exp(w_star) * L == pytest.approx(1.0, abs=1e-3)
    assert vals.min() == pytest.approx(1.0 + np.log(L), abs=1e-6)


def test_stop_gradient_paths_excluded(gauss_ds, tiny_state):
    """Analytic generator gradient equals FD with the stop-grad branch frozen."""
    state, config = tiny_state
    rng = np.random.default_rng(10)
    d = draw(state, config, minibatch_arrays(gauss_ds, 12, rng), rng, adversarial=False)
    d = replace(d, t_gan=d.t.copy(), s=np.full(len(d.t), 0.8))
    target = scm_target(state, config, d, 0.8)

    sp = state.student.inner.params
    wp = state.wphi.params

    def value():
        return float(_generator_objective(state, config, d, target)[0])

    leaves_s = sp.as_vars()
    leaves_w = wp.as_vars()
    total, _, _ = _generator_objective(state, config, d, target, leaves_s, leaves_w)
    total.backward()
    grad = sp.gradient_from(leaves_s)

    h = 1e-6
    idx = np.random.default_rng(11).integers(0, sp.size, 24)
    for i in idx:
        orig = sp.flat[i]
        sp.flat[i] = orig + h
        lp = value()
        sp.flat[i] = orig - h
        lm = value()
        sp.flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - grad[i]) < 1e-6 * max(1.0, abs(fd))


def test_frozen_modules_not_updated_by_step(gauss_ds, tiny_state):
    state, config = tiny_state
    teacher_before = state.teacher.inner.params.flat.copy()
    state.opt_heads.lr = 0.0  # isolate the generator phase's effect on heads
    heads_before = state.heads.params.flat.copy()
    tfdl.distill_step(state, config, gauss_ds, np.random.default_rng(12))
    np.testing.assert_array_equal(state.teacher.inner.params.flat, teacher_before)
    np.testing.assert_array_equal(state.heads.params.flat, heads_before)


def test_stopgrad_view_numerically_equal(tiny_state):
    state, _ = tiny_state
    assert state.student_stopgrad.inner.params.flat is state.student.inner.params.flat


def test_student_consistency_shape(tiny_state):
    state, _ = tiny_state
    x = np.zeros((3, 2))
    y = np.zeros(3, dtype=int)
    out = np.asarray(state.student.consistency(x, np.full(3, HALF_PI), y, cfg=4.5))
    assert out.shape == (3, 2)


def test_warmup_ratio_in_step(gauss_ds, teacher):
    net, _ = teacher
    config = DistillConfig(iters=2, batch=8, warmup_steps=5)
    state = init_distill(net, gauss_ds, config, seed=0)
    state.step = 2
    row = tfdl.distill_step(state, config, gauss_ds, np.random.default_rng(13))
    assert row["r"] == 0.5  # (2 + 0.5) / 5
    assert row["iter"] == 2 and state.step == 3
    state.step = 20
    row = tfdl.distill_step(state, config, gauss_ds, np.random.default_rng(14))
    assert row["r"] == 1.0


# the public losses read every setting from the config they are given, so a
# non-default guidance scale, tangent_c and time distribution reach them too
LOSS_CONFIGS = [
    pytest.param({}, id="default"),
    pytest.param({"cfg_scales": (3.0,), "tangent_c": 0.05,
                  "gen_tdist": TimestepDistribution(0.3, 1.2, 0.25)}, id="non-default"),
]


@pytest.mark.parametrize("settings", LOSS_CONFIGS)
def test_lambda_zero_total_equals_scm_loss(gauss_ds, teacher, settings):
    net, _ = teacher
    config = DistillConfig(iters=1, batch=16, lambda_adv=0.0, **settings)
    state = init_distill(net, gauss_ds, config, seed=1)
    probe = np.random.default_rng(15)
    # from the same generator state, the public loss makes the step's draws
    expected = tfdl.scm_loss(state, config, minibatch_arrays(gauss_ds, config.batch, probe),
                             probe, r=0.5 / config.warmup_steps)
    row = tfdl.distill_step(state, config, gauss_ds, np.random.default_rng(15))
    assert row["adv_g"] == 0.0 and row["adv_d"] == 0.0
    assert row["scm_loss"] == expected


@pytest.mark.parametrize("settings", LOSS_CONFIGS)
def test_hybrid_adv_d_equals_disc_loss(gauss_ds, teacher, settings):
    net, _ = teacher
    config = DistillConfig(iters=1, batch=16, **settings)
    state = init_distill(net, gauss_ds, config, seed=1)
    probe = np.random.default_rng(17)
    expected = tfdl.disc_loss(state, config, minibatch_arrays(gauss_ds, config.batch, probe),
                              probe)
    row = tfdl.distill_step(state, config, gauss_ds, np.random.default_rng(17))
    assert isinstance(expected, float)
    assert row["adv_d"] == expected


@pytest.mark.parametrize("lambda_adv,message", [(0.5, "non-finite network input"),
                                                (0.0, "non-finite JVP")])
def test_divergence_reports_full_step(gauss_ds, teacher, lambda_adv, message):
    # hybrid: the discriminator phase fails first; consistency-only: the JVP
    net, _ = teacher
    config = DistillConfig(iters=4, batch=8, lambda_adv=lambda_adv)
    state = init_distill(net, gauss_ds, config, seed=2)
    rng = np.random.default_rng(18)
    for _ in range(3):
        tfdl.distill_step(state, config, gauss_ds, rng)
    state.student.inner.params["in_w"] = np.nan
    with pytest.raises(TrainingDivergence, match=message) as err:
        tfdl.distill_step(state, config, gauss_ds, rng)
    assert err.value.iteration == 3


def test_max_time_mixing_statistics():
    rng = np.random.default_rng(16)
    t = np.full(10 ** 5, 0.3)
    mixed = mix_max_time(t, 0.5, rng)
    frac = np.mean(mixed == HALF_PI)
    assert 0.49 <= frac <= 0.51


def test_gen_tdist_defaults():
    config = DistillConfig()
    assert (config.gen_tdist.p_mean, config.gen_tdist.p_std) == (0.0, 1.6)
    assert config.gen_tdist.max_time_prob == 0.5
    assert (config.disc_tdist.p_mean, config.disc_tdist.p_std) == (-0.6, 1.0)
    assert config.disc_tdist.max_time_prob == 0.0
    assert config.lambda_adv == 0.5


def test_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(lambda_adv=-0.1)
    with pytest.raises(ValueError):
        DistillConfig(warmup_steps=0)
    with pytest.raises(ValueError):
        DistillConfig(use_scm=False, lambda_adv=0.0)
    with pytest.raises(ValueError):
        TimestepDistribution(0.0, -1.0)


_THREAD_PROBE = """
import json
import numpy as np
import tfdl
ds = tfdl.generate("gauss-mix", 4000, seed=0)
_, rows = tfdl.run_distill(tfdl.VelocityNet(3, seed=1, zero_out=False), ds,
                           tfdl.DistillConfig(iters=8), np.random.default_rng(0))
print(json.dumps(rows))
"""


def test_metric_rows_do_not_depend_on_blas_threads():
    # grad_norm sums its squares with numpy's own pairwise sum: a threaded BLAS
    # dot splits the sum by thread and moved it in the last digits on 2 of 8 rows
    rows = [json.loads(subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE], env=fresh_process_env(OPENBLAS_NUM_THREADS=n),
        capture_output=True, text=True, check=True, timeout=300).stdout)
        for n in ("1", "2")]
    assert len(rows[0]) == 8
    assert rows[0] == rows[1]


_FAULT_PROBE = """
import resource
import numpy as np
import tfdl
from tfdl.distill import distill_step, init_distill

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

ds = tfdl.generate("gauss-mix", 2000, 0)
config = tfdl.DistillConfig()
state = init_distill(tfdl.VelocityNet(3, seed=1), ds, config, seed=0)
rng = np.random.default_rng(0)
for _ in range(3):
    distill_step(state, config, ds, rng)
f0 = minflt()
for _ in range(10):
    distill_step(state, config, ds, rng)
per_step = (minflt() - f0) / 10

net = tfdl.VelocityNet(3, seed=1)
tfdl.train_teacher(net, ds, tfdl.TeacherConfig(iters=3, batch=256), rng)
f0 = minflt()
tfdl.train_teacher(net, ds, tfdl.TeacherConfig(iters=20, batch=256), rng)
print(per_step, (minflt() - f0) / 20)
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_steady_state_training_takes_few_page_faults():
    # A fresh process: the test process's own heap history would move the
    # count. Unpinned, glibc trims and regrows the heap on every step, at about
    # 2400 minor faults per distill step and 90 per teacher iteration.
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=fresh_process_env(),
                         capture_output=True, text=True, check=True, timeout=300)
    per_step, per_iter = map(float, out.stdout.split())
    assert per_step < 100
    assert per_iter < 10
