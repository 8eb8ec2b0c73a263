"""Schedule transformation: time/scale maps, velocity adaptation, sampling."""

import numpy as np
import pytest

import tfdl
from conftest import AnalyticGaussianFM, ConstFM, ZeroFM
from tfdl.autodiff import Dual, cos, reshape, sin, vsum
from tfdl.errors import DomainError
from tfdl.schedule import HALF_PI, flow_matching, snr, trigflow
from tfdl.teacher import cfg_velocity
from tfdl.trigflow import TrigFlowAdapter, euler_sample_trig, scale_factor, t_fm_of


def test_t_fm_of_reference_points():
    assert t_fm_of(np.pi / 4) == pytest.approx(0.5, abs=1e-15)
    assert t_fm_of(0.0) == 0.0
    assert t_fm_of(HALF_PI) == pytest.approx(1.0, abs=1e-15)
    assert t_fm_of(np.arctan(1 / 3)) == pytest.approx(0.25, abs=1e-14)


def test_t_fm_of_domain_error():
    with pytest.raises(DomainError):
        t_fm_of(-0.1)
    with pytest.raises(DomainError):
        t_fm_of(1.7)


def test_scale_factor_reference_points():
    assert scale_factor(0.0) == 1.0
    assert scale_factor(1.0) == 1.0
    assert scale_factor(0.5) == pytest.approx(np.sqrt(0.5), abs=1e-15)
    grid = np.linspace(0, 1, 1001)
    assert np.argmin(scale_factor(grid)) == 500


def test_scale_identities():
    # lambda(t_fm) cos(t) = 1 - t_fm, lambda(t_fm) sin(t) = t_fm, and so
    # lambda(t_fm) (sin(t) + cos(t)) = 1, the closed form the adapter evaluates
    t = np.random.default_rng(0).uniform(0, HALF_PI, 1000)
    tf = t_fm_of(t)
    lam = scale_factor(tf)
    assert np.abs(lam * np.cos(t) - (1 - tf)).max() <= 1e-12
    assert np.abs(lam * np.sin(t) - tf).max() <= 1e-12
    assert np.abs(lam * (np.sin(t) + np.cos(t)) - 1).max() <= 1e-12


def test_snr_preserved_by_time_map():
    fm, tg = flow_matching(), trigflow(0.5)
    t = np.random.default_rng(1).uniform(1e-3, HALF_PI - 1e-3, 1000)
    s_t = snr(tg, t)
    s_f = snr(fm, t_fm_of(t))
    assert (np.abs(s_t - s_f) / s_t).max() <= 1e-10


def test_analytic_velocity_transforms_to_zero(analytic_adapter):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1000, 2))
    t = rng.uniform(0, HALF_PI, 1000)
    v = analytic_adapter.velocity(x, t, np.zeros(1000, dtype=int), cfg=1.0)
    assert np.abs(v).max() <= 1e-10


def test_coefficients_at_quarter_pi():
    # at t_fm = 0.5 the data term vanishes and the output is v / sqrt(2)
    value = np.array([0.3, -1.1])
    adapter = TrigFlowAdapter(ConstFM(value), sigma_d=0.5, teacher_cfg=True)
    x = np.random.default_rng(3).standard_normal((4, 2))
    out = adapter.velocity(x, np.full(4, np.pi / 4), np.zeros(4, dtype=int), cfg=1.0)
    np.testing.assert_allclose(out, np.tile(value / np.sqrt(2.0), (4, 1)), atol=1e-14)


def test_zero_net_zero_at_half_time():
    adapter = TrigFlowAdapter(ZeroFM(), sigma_d=1.0, teacher_cfg=True)
    x = np.random.default_rng(4).standard_normal((4, 2))
    out = adapter.velocity(x, np.full(4, np.pi / 4), np.zeros(4, dtype=int), cfg=1.0)
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_consistency_boundary_identity(analytic_adapter):
    x = np.random.default_rng(5).standard_normal((1000, 2))
    f = analytic_adapter.consistency(x, np.zeros(1000), np.zeros(1000, dtype=int), cfg=1.0)
    assert np.abs(f - x).max() <= 1e-14


def test_consistency_matched_gaussian_is_posterior_mean(analytic_adapter):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((64, 2))
    t = rng.uniform(0, HALF_PI, 64)
    f = analytic_adapter.consistency(x, t, np.zeros(64, dtype=int), cfg=1.0)
    np.testing.assert_allclose(f, np.cos(t)[:, None] * x, atol=1e-10)


def test_consistency_pure_prediction_at_max_time():
    value = np.array([0.7, 0.2])
    sd = 0.8
    adapter = TrigFlowAdapter(ConstFM(value), sigma_d=sd, teacher_cfg=True)
    x = np.random.default_rng(7).standard_normal((4, 2))
    f = adapter.consistency(x, np.full(4, HALF_PI), np.zeros(4, dtype=int), cfg=1.0)
    expect = -sd * adapter.velocity(x, np.full(4, HALF_PI), np.zeros(4, dtype=int), cfg=1.0)
    np.testing.assert_allclose(f, expect, atol=1e-12)


def test_euler_trig_matched_gaussian_reproduces_data_law(analytic_adapter):
    sd = analytic_adapter.sigma_d
    out = euler_sample_trig(analytic_adapter, 4096, 25, 0, 1.0, np.random.default_rng(8))
    # velocity is identically zero: the output is exactly the initial noise,
    # which already follows the data law N(0, sigma_d^2 I)
    np.testing.assert_allclose(
        out, sd * np.random.default_rng(8).standard_normal((4096, 2)), atol=1e-10)
    assert abs(out.std() - sd) < 0.05 * sd


def test_euler_trig_deterministic(analytic_adapter):
    a = euler_sample_trig(analytic_adapter, 16, 5, 0, 1.0, np.random.default_rng(9))
    b = euler_sample_trig(analytic_adapter, 16, 5, 0, 1.0, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_adapter_jvp_matches_finite_differences():
    rng = np.random.default_rng(10)
    net = tfdl.VelocityNet(2, seed=11, zero_out=False)
    adapter = TrigFlowAdapter(net, sigma_d=0.6)
    x = rng.standard_normal((6, 2))
    t = rng.uniform(0.05, HALF_PI - 0.05, 6)
    y = rng.integers(0, 2, 6)
    x_tan = rng.standard_normal((6, 2))
    t_tan = rng.standard_normal(6)
    from tfdl.autodiff import Dual
    out = adapter.velocity(Dual(x, x_tan), Dual(t, t_tan), y, cfg=4.5)
    h = 1e-5
    fp = np.asarray(adapter.velocity(x + h * x_tan, t + h * t_tan, y, cfg=4.5))
    fm_ = np.asarray(adapter.velocity(x - h * x_tan, t - h * t_tan, y, cfg=4.5))
    fd = (fp - fm_) / (2 * h)
    rel = np.abs(out.t - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert rel < 1e-4


def test_trig_euler_self_convergence(gauss_ds, teacher):
    # halving the step size changes the metric by less than the coarse-grid
    # discretization error itself
    from tfdl.metrics import sliced_w2
    net, _ = teacher
    adapter = TrigFlowAdapter(net, gauss_ds.sigma_d, teacher_cfg=True)
    rng = np.random.default_rng(12)
    ref = gauss_ds.points[rng.integers(0, len(gauss_ds), 4096)]
    y = rng.integers(0, gauss_ds.n_classes, 4096)
    w = {}
    for steps in (25, 50, 100):
        pts = euler_sample_trig(adapter, 4096, steps, y, 4.5, np.random.default_rng(13))
        w[steps] = sliced_w2(pts, ref, seed=5)
    # |W(25) - W(50)| bounds the 25-step discretization error estimate
    assert abs(w[50] - w[100]) <= abs(w[25] - w[50]) + 0.02


def test_adapter_value_identical_in_every_mode():
    # the stop-gradient value the distillation takes from the JVP pass must be
    # the plain forward bit for bit, and so must the tape value
    from tfdl.autodiff import Dual, Var
    rng = np.random.default_rng(14)
    net = tfdl.VelocityNet(2, seed=15, zero_out=False)
    x = rng.standard_normal((8, 2))
    t = rng.uniform(0.05, HALF_PI - 0.05, 8)
    y = rng.integers(0, 2, 8)
    for teacher_cfg in (False, True):
        adapter = TrigFlowAdapter(net, sigma_d=0.6, teacher_cfg=teacher_cfg)
        plain = adapter.velocity(x, t, y, cfg=4.5)
        dual = adapter.velocity(Dual(x, rng.standard_normal((8, 2))), Dual(t, np.ones(8)), y, cfg=4.5)
        tape = adapter.velocity(Var(x), Var(t), y, cfg=4.5)
        np.testing.assert_array_equal(dual.p, plain)
        np.testing.assert_array_equal(tape.v, plain)


# -- the closed forms against the paper's maps composed one at a time --------

def _composed_velocity(adapter, x, t, y, cfg, params=None):
    """The output map [(1 - 2 t_fm) x_fm + (1 - 2 t_fm + 2 t_fm^2) v] / lambda,
    built from t_fm_of and scale_factor: the oracle of the adapter."""
    tf = t_fm_of(t)
    lam = reshape(scale_factor(tf), (-1, 1))
    x_fm = (x * (1.0 / adapter.sigma_d)) * lam
    if adapter.teacher_cfg:
        v = cfg_velocity(adapter.inner, x_fm, tf, y, cfg, params=params)
    else:
        v = adapter.inner.forward(x_fm, tf, y, cfg=cfg, params=params)
    a = reshape(1.0 - tf * 2.0, (-1, 1))
    b = reshape(1.0 - tf * 2.0 + tf * tf * 2.0, (-1, 1))
    return (a * x_fm + b * v) / lam


def _composed_consistency(adapter, x, t, y, cfg, params=None):
    """cos(t) x - sigma_d sin(t) F from the composed output map."""
    f = _composed_velocity(adapter, x, t, y, cfg, params=params)
    return reshape(cos(t), (-1, 1)) * x - reshape(sin(t), (-1, 1)) * (f * adapter.sigma_d)


def _assert_close(new, old):
    """Agreement to 1e-12 relative to the largest entry. Entrywise relative
    error is unbounded where an entry cancels far below its terms (a tangent
    that crosses zero, a gradient entry summed over the batch)."""
    assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


@pytest.mark.parametrize("teacher_cfg", [False, True])
def test_adapter_matches_composed_maps_in_every_mode(teacher_cfg):
    # the closed forms round differently from the composed maps, so they agree
    # to 1e-12, not bit for bit; t includes both ends and pi/4
    rng = np.random.default_rng(16)
    net = tfdl.VelocityNet(2, seed=17, zero_out=False)
    n = 96
    t = np.concatenate([[0.0, np.pi / 4, HALF_PI], rng.uniform(0, HALF_PI, n - 3)])
    x, x_tan = rng.standard_normal((2, n, 2))
    y = rng.integers(0, 2, n)
    seed = rng.standard_normal((n, 2))
    for sigma_d in (0.3, 1.44):
        adapter = TrigFlowAdapter(net, sigma_d, teacher_cfg=teacher_cfg)
        for name, oracle in (("velocity", _composed_velocity),
                             ("consistency", _composed_consistency)):
            method = getattr(adapter, name)
            _assert_close(method(x, t, y, cfg=4.5), oracle(adapter, x, t, y, 4.5))
            new = method(Dual(x, x_tan), Dual(t, np.ones(n)), y, cfg=4.5)
            old = oracle(adapter, Dual(x, x_tan), Dual(t, np.ones(n)), y, 4.5)
            _assert_close(new.p, old.p)
            _assert_close(new.t, old.t)
            grads = []
            for f in (lambda P: method(x, t, y, cfg=4.5, params=P),
                      lambda P: oracle(adapter, x, t, y, 4.5, params=P)):
                leaves = net.params.as_vars()
                vsum(f(leaves) * seed).backward()
                grads.append(net.params.gradient_from(leaves))
            _assert_close(*grads)
