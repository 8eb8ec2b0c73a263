"""Acceptance gate: one test per exit criterion, each at its pinned tolerance.

Criteria 11-13 share the session-scoped end-to-end pipelines (three seeds of
teacher pretraining + hybrid distillation). The ablation (criterion 12) adds
consistency-only and adversarial-only arms and is marked slow; run it with
``pytest -m slow tests/test_acceptance.py``.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import tfdl
from conftest import AnalyticGaussianFM
from tfdl.distill import (_generator_objective, _tangent_and_value, adaptive_weight, draw,
                          init_distill, scm_target)
from tfdl.metrics import sliced_w2
from tfdl.net import NetSpec
from tfdl.optim import Adam
from tfdl.sampler import StepSchedule, default_schedule, multistep_sample, search_timesteps
from tfdl.schedule import HALF_PI, TimestepDistribution, flow_matching, sample_t, snr, trigflow
from tfdl.teacher import euler_sample_fm
from tfdl.toydata import minibatch_arrays
from tfdl.trigflow import TrigFlowAdapter, euler_sample_trig, t_fm_of

EVAL_N = 4096
EVAL_CFG = 4.5
SEEDS = (0, 1, 2)


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _eval_setup(ds, seed=99):
    rng = np.random.default_rng(seed)
    ref = ds.points[rng.integers(0, len(ds), EVAL_N)]
    y = rng.integers(0, ds.n_classes, EVAL_N)
    return ref, y


def _e2e_run(gauss_ds, seed, net=None):
    """Teacher (unless given) + hybrid-distilled student for one pipeline seed."""
    if net is None:
        net = tfdl.VelocityNet(gauss_ds.n_classes, seed=seed + 1)
        net, _ = tfdl.train_teacher(net, gauss_ds, tfdl.TeacherConfig(),
                                    np.random.default_rng(seed + 1))
    cfg = tfdl.DistillConfig()
    state, _ = tfdl.run_distill(net, gauss_ds, cfg, np.random.default_rng(seed + 11),
                                seed=seed + 21)
    return net, state


@pytest.fixture(scope="session")
def e2e_runs(gauss_ds, teacher):
    """Teacher + hybrid-distilled student for three pipeline seeds.

    Seed 0's teacher (net seed 1, rng seed 1, default config) is the session
    ``teacher`` fixture, so it is trained once. The seeds are independent and
    deterministic, so each runs in its own forked process.
    """
    given = {0: teacher[0]}
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=len(SEEDS), mp_context=ctx) as pool:
        futures = {seed: pool.submit(_e2e_run, gauss_ds, seed, given.get(seed))
                   for seed in SEEDS}
        return {seed: f.result() for seed, f in futures.items()}


def _student_w2(gauss_ds, state, steps, ref, y, sched=None):
    sched = sched or default_schedule(steps, gauss_ds.sigma_d)
    pts = multistep_sample(state.student, sched, EVAL_N, y, EVAL_CFG,
                           np.random.default_rng(7))
    return sliced_w2(pts, ref, seed=5)


def _teacher_w2(gauss_ds, net, ref, y):
    pts = gauss_ds.sigma_d * euler_sample_fm(net, EVAL_N, 50, y, EVAL_CFG,
                                             np.random.default_rng(7))
    return sliced_w2(pts, ref, seed=5)


def test_criterion_01_transformation_lossless_analytic():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=0.7, teacher_cfg=True)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 2))
    t = rng.uniform(0.0, HALF_PI, 1000)
    v = np.asarray(adapter.velocity(x, t, np.zeros(1000, dtype=int), cfg=1.0))
    worst = np.abs(v).max()
    assert worst <= 1e-10
    _report(1, f"closed-form velocity transforms to zero (max |F| = {worst:.2e})")


def test_criterion_02_transformation_lossless_empirical(gauss_ds, teacher):
    net, _ = teacher
    ref, y = _eval_setup(gauss_ds)
    w_fm = _teacher_w2(gauss_ds, net, ref, y)
    adapter = TrigFlowAdapter(net, gauss_ds.sigma_d, teacher_cfg=True)
    pts = euler_sample_trig(adapter, EVAL_N, 50, y, EVAL_CFG, np.random.default_rng(7))
    w_tg = sliced_w2(pts, ref, seed=5)
    rel = abs(w_fm - w_tg) / w_fm
    assert rel <= 0.10
    _report(2, f"50-step flow vs trig Euler agree: {w_fm:.4f} vs {w_tg:.4f} "
               f"({rel:.2%} relative)")


def test_criterion_03_jvp_against_finite_differences():
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(1)
    for trial in range(10):
        net = tfdl.VelocityNet(3, seed=100 + trial, zero_out=False)
        x = rng.standard_normal((10, 2))
        t = rng.uniform(0.05, 1.4, 10)
        y = rng.integers(0, 3, 10)
        cfg = rng.uniform(0, 5, 10)
        x_tan = rng.standard_normal((10, 2))
        t_tan = rng.standard_normal(10)
        _, tan = net.jvp(x, t, y, cfg, x_tan, t_tan)
        fd = (net.forward(x + h * x_tan, t + h * t_tan, y, cfg)
              - net.forward(x - h * x_tan, t - h * t_tan, y, cfg)) / (2 * h)
        rel = np.abs(tan - fd).max() / max(np.abs(fd).max(), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4
    _report(3, f"forward-mode tangents match central differences "
               f"(100 probes, worst rel err {worst:.2e})")


def test_criterion_04_snr_preserved():
    fm, tg = flow_matching(), trigflow(0.5)
    t = np.random.default_rng(2).uniform(1e-3, HALF_PI - 1e-3, 1000)
    rel = np.abs(snr(tg, t) - snr(fm, t_fm_of(t))) / snr(tg, t)
    assert rel.max() <= 1e-10
    _report(4, f"SNR preserved by the time map (worst rel dev {rel.max():.2e})")


def test_criterion_05_boundary_condition(teacher, gauss_ds):
    net, _ = teacher
    adapter = TrigFlowAdapter(net, gauss_ds.sigma_d, teacher_cfg=True)
    rng = np.random.default_rng(3)
    x = 2.0 * rng.standard_normal((1000, 2))
    f = np.asarray(adapter.consistency(x, np.zeros(1000),
                                       rng.integers(0, 3, 1000), cfg=EVAL_CFG))
    worst = np.abs(f - x).max()
    assert worst <= 1e-14
    _report(5, f"consistency prediction is the identity at t=0 (max dev {worst:.2e})")


def test_criterion_06_time_embedding_factor():
    net1 = tfdl.VelocityNet(2, seed=4)
    net1000 = net1.spawn(c_noise_scale=1000.0)
    worst = 0.0
    for t in (0.05, 0.3, 0.7, 1.2):
        ratio = net1000.time_embed_sensitivity(t) / net1.time_embed_sensitivity(t)
        worst = max(worst, abs(ratio - 1000.0) / 1000.0)
    assert worst <= 1e-6
    _report(6, f"time-derivative amplification factor is 1000 (worst rel dev {worst:.2e})")


def test_criterion_07_qk_norm_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 2))
    t = rng.uniform(0.05, 1.4, 16)
    y = rng.integers(0, 3, 16)
    diffs = {}
    for qk_norm in (True, False):
        net = tfdl.VelocityNet(3, spec=NetSpec(qk_norm=qk_norm), seed=6, zero_out=False)
        net.params["attn_wo"] = rng.standard_normal(net.params.shapes["attn_wo"])
        base = net.forward(x, t, y, cfg=0.0)
        net.params["attn_wq"] = net.params["attn_wq"] * 3.0
        net.params["attn_wk"] = net.params["attn_wk"] * 3.0
        diffs[qk_norm] = np.abs(net.forward(x, t, y, cfg=0.0) - base).max()
    assert diffs[True] <= 1e-10
    assert diffs[False] > 1e-3
    _report(7, f"QK normalization cancels Q/K rescaling ({diffs[True]:.2e} with, "
               f"{diffs[False]:.2e} without)")


def test_criterion_08_stop_gradient_and_frozen_contracts(gauss_ds, teacher):
    net, _ = teacher
    config = tfdl.DistillConfig(batch=12)
    state = init_distill(net, gauss_ds, config, seed=7)
    # advance a little so student and teacher genuinely differ
    step_rng = np.random.default_rng(8)
    for _ in range(3):
        tfdl.distill_step(state, config, gauss_ds, step_rng)

    # batch, then z, t, cfg, the max-time mix t_gan (p = 0.5) and s
    rng = np.random.default_rng(9)
    d = draw(state, config, minibatch_arrays(gauss_ds, 12, rng), rng)
    target = scm_target(state, config, d, 0.9)

    sp, wp = state.student.inner.params, state.wphi.params

    def live_value():
        return float(_generator_objective(state, config, d, target)[0])

    leaves_s, leaves_w = sp.as_vars(), wp.as_vars()
    total, _, _ = _generator_objective(state, config, d, target, leaves_s, leaves_w)
    total.backward()
    grads = {"student": (sp, sp.gradient_from(leaves_s)),
             "wphi": (wp, wp.gradient_from(leaves_w))}

    h = 1e-5
    worst = 0.0
    coord_rng = np.random.default_rng(10)
    for pv, grad in grads.values():
        for i in coord_rng.integers(0, pv.size, 16):
            orig = pv.flat[i]
            pv.flat[i] = orig + h
            lp = live_value()
            pv.flat[i] = orig - h
            lm = live_value()
            pv.flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(fd)))
    assert worst < 1e-8

    # frozen modules receive no update from a full alternating step
    teacher_before = state.teacher.inner.params.flat.copy()
    state.opt_heads.lr = 0.0
    heads_before = state.heads.params.flat.copy()
    tfdl.distill_step(state, config, gauss_ds, step_rng)
    assert np.array_equal(state.teacher.inner.params.flat, teacher_before)
    assert np.array_equal(state.heads.params.flat, heads_before)
    _report(8, f"stop-gradient and frozen paths contribute nothing "
               f"(worst FD deviation {worst:.2e})")


def test_criterion_09_max_time_fraction():
    dist = TimestepDistribution(0.0, 1.6, max_time_prob=0.5)
    draws = sample_t(dist, 0.5, np.random.default_rng(11), 10 ** 5)
    frac = float(np.mean(draws == HALF_PI))
    assert 0.49 <= frac <= 0.51
    _report(9, f"max-time atom hit {frac:.4f} of draws at p=0.5")


def test_criterion_10_adaptive_weight_fixed_point(gauss_ds, teacher):
    net, _ = teacher
    config = tfdl.DistillConfig(batch=64)
    state = init_distill(net, gauss_ds, config, seed=12)
    rng = np.random.default_rng(13)
    t_grid = np.linspace(0.15, 1.5, 8)
    xs, ts, losses = [], [], []
    for tv in t_grid:
        x0, y = minibatch_arrays(gauss_ds, 64, rng)
        z = gauss_ds.sigma_d * rng.standard_normal((64, 2))
        t = np.full(64, tv)
        x_t = np.cos(tv) * x0 + np.sin(tv) * z
        g, f_sg = _tangent_and_value(state, x_t, t, y, EVAL_CFG, 1.0, config.tangent_c)
        f_live = np.asarray(state.student.velocity(x_t, t, y, cfg=EVAL_CFG))
        per = np.sum((f_live - f_sg - g) ** 2, axis=1) / 2.0
        ts.append(t)
        losses.append(per)
    ts = np.concatenate(ts)
    losses = np.concatenate(losses)

    opt = Adam(state.wphi.params.size, 1e-2)
    for _ in range(1500):
        leaves = state.wphi.params.as_vars()
        w = adaptive_weight(state.wphi, ts, params=leaves)
        from tfdl.autodiff import exp as vexp, vmean
        obj = vmean(vexp(w) * losses - w)
        obj.backward()
        opt.step(state.wphi.params.flat, state.wphi.params.gradient_from(leaves))

    products = []
    for i, tv in enumerate(t_grid):
        w = np.asarray(adaptive_weight(state.wphi, np.array([tv]))).item()
        lbar = float(np.mean(losses[i * 64:(i + 1) * 64]))
        products.append(np.exp(w) * lbar)
    products = np.asarray(products)
    assert np.all(products >= 0.5) and np.all(products <= 2.0)
    _report(10, f"adaptive weight drives e^w L into [{products.min():.3f}, "
                f"{products.max():.3f}]")


def test_criterion_11_end_to_end_distillation(gauss_ds, e2e_runs):
    ref, y = _eval_setup(gauss_ds)
    student_w2, teacher_w2 = [], []
    for seed in SEEDS:
        net, state = e2e_runs[seed]
        teacher_w2.append(_teacher_w2(gauss_ds, net, ref, y))
        student_w2.append(_student_w2(gauss_ds, state, 2, ref, y))
    med_s, med_t = float(np.median(student_w2)), float(np.median(teacher_w2))
    assert med_s <= 2.0 * med_t
    _report(11, f"2-step student W2 median {med_s:.4f} <= 2x teacher Euler-50 "
                f"median {med_t:.4f}")


@pytest.mark.slow
def test_criterion_12_ablation_direction(gauss_ds, e2e_runs):
    ref, y = _eval_setup(gauss_ds)
    finals = {"hybrid": [], "scm": [], "gan": []}
    for seed in SEEDS:
        net, hybrid_state = e2e_runs[seed]
        finals["hybrid"].append(_student_w2(gauss_ds, hybrid_state, 2, ref, y))
        for tag, kw in (("scm", {"lambda_adv": 0.0}), ("gan", {"use_scm": False})):
            cfg = tfdl.DistillConfig(**kw)
            state, _ = tfdl.run_distill(net, gauss_ds, cfg, np.random.default_rng(seed + 11),
                                        seed=seed + 21)
            finals[tag].append(_student_w2(gauss_ds, state, 2, ref, y))
    med = {k: float(np.median(v)) for k, v in finals.items()}
    assert med["hybrid"] <= med["scm"]
    assert med["hybrid"] <= med["gan"]
    _report(12, f"hybrid W2 {med['hybrid']:.4f} <= consistency-only {med['scm']:.4f} "
                f"and adversarial-only {med['gan']:.4f}")


def test_criterion_13_timestep_search_sanity(gauss_ds, e2e_runs):
    _, state = e2e_runs[SEEDS[0]]
    ref, y = _eval_setup(gauss_ds, seed=101)
    y = y[:2048]
    ref = ref[:2048]

    def metric(samples):
        return sliced_w2(samples, ref, seed=5)

    grid = [0.4, 0.6, 0.8, 1.0, 1.1, 1.2, 1.3, 1.4]
    searched, table = search_timesteps(state.student, metric, 2, grid, 2048,
                                       y, EVAL_CFG, eval_seed=17)
    crn = np.random.default_rng(17)
    default = default_schedule(2, gauss_ds.sigma_d)
    w_default = metric(multistep_sample(state.student, default, 2048, y, EVAL_CFG, crn))
    crn = np.random.default_rng(17)
    w_searched = metric(multistep_sample(state.student, searched, 2048, y, EVAL_CFG, crn))
    assert w_searched <= w_default + 1e-12
    _report(13, f"searched schedule {[round(t, 3) for t in searched.times]} scores "
                f"{w_searched:.4f} <= default {w_default:.4f}")


def test_monotone_refinement_with_searched_schedules(gauss_ds, e2e_runs):
    # more steps with per-count searched schedules should not hurt (median
    # over five evaluation seeds)
    _, state = e2e_runs[SEEDS[0]]
    ref, y = _eval_setup(gauss_ds, seed=103)
    y, ref = y[:2048], ref[:2048]

    def metric(samples):
        return sliced_w2(samples, ref, seed=5)

    # dense at the bottom: the greedy search may walk toward small renoise
    # times and needs candidates under every choice it makes
    grid = [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]
    sched1, _ = search_timesteps(state.student, metric, 1, grid, 2048, y,
                                 EVAL_CFG, eval_seed=19)
    sched4, _ = search_timesteps(state.student, metric, 4, grid, 2048, y,
                                 EVAL_CFG, eval_seed=19)
    w1, w4 = [], []
    for es in range(5):
        rng = np.random.default_rng(300 + es)
        w1.append(metric(multistep_sample(state.student, sched1, 2048, y, EVAL_CFG, rng)))
        rng = np.random.default_rng(300 + es)
        w4.append(metric(multistep_sample(state.student, sched4, 2048, y, EVAL_CFG, rng)))
    assert np.median(w4) <= np.median(w1)
