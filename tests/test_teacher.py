"""Teacher pretraining, guided velocity, and flow-ODE sampling."""

import numpy as np
import pytest

import tfdl
from conftest import AnalyticGaussianFM, ZeroFM
from tfdl.errors import TrainingDivergence
from tfdl.net import _ROW_BLOCK
from tfdl.teacher import cfg_velocity, euler_sample_fm, fm_loss, train_teacher


class PerfectNet:
    """Stub predicting exactly z - x0 for a fixed (x0, z) pairing.

    fm_loss perturbs x0 with the z it draws; the stub recovers the target
    from the interpolation identity x_t = (1-t) x0 + t z.
    """

    n_classes = 1

    def __init__(self, x0, z):
        self.x0 = x0
        self.z = z

    def forward(self, x, t, y, cfg=None, params=None):
        return self.z - self.x0


def test_fm_loss_zero_for_perfect_net():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((64, 2))
    y = np.zeros(64, dtype=int)
    seed_rng = np.random.default_rng(1)
    t = seed_rng.uniform(0, 1, 64)
    z = seed_rng.standard_normal((64, 2))
    net = PerfectNet(x0, z)
    # replay the same draw inside fm_loss
    loss = fm_loss(net, tfdl.TeacherConfig(uncond_drop_prob=0.0), (x0, y),
                   np.random.default_rng(1))
    assert loss == 0.0


def test_fm_loss_zero_net_matches_gaussian_moment():
    # E||z - x0||^2 = 2 (sigma0^2 + sigma_z^2) = 4 for standardized data
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((8192, 2))
    y = np.zeros(8192, dtype=int)
    net = tfdl.VelocityNet(1, seed=0)  # zero output head
    loss = fm_loss(net, tfdl.TeacherConfig(), (x0, y), np.random.default_rng(3))
    assert abs(loss - 4.0) < 0.4


def test_fm_loss_non_negative(gauss_ds):
    net = tfdl.VelocityNet(gauss_ds.n_classes, seed=1, zero_out=False)
    batch = tfdl.minibatch_arrays(gauss_ds, 32, np.random.default_rng(4))
    assert fm_loss(net, tfdl.TeacherConfig(), batch, np.random.default_rng(5)) >= 0.0


def test_train_teacher_reduces_loss(small_ds):
    """Training removes >90% of the reducible loss above the analytic floor.

    The regression target carries irreducible conditional variance: for
    matched unit Gaussians the optimal expected loss is
    2 * integral_0^1 [2 - (2t-1)^2/(2t^2-2t+1)] dt / 2 = pi, against 4.0 for
    the zero predictor, so the raw final/initial ratio can never reach 0.1.
    The excess above the floor is what convergence drives to zero.
    """
    floor = np.pi
    net = tfdl.VelocityNet(small_ds.n_classes, seed=2)
    init = net.spawn()
    net, curve = train_teacher(net, small_ds, tfdl.TeacherConfig(iters=2000),
                               np.random.default_rng(6))
    assert np.all(np.isfinite(net.params.flat))
    # paired evaluation: identical (x0, t, z) draws for both nets
    x0 = small_ds.points[:16384] / small_ds.sigma_d
    y = small_ds.labels[:16384]
    no_drop = tfdl.TeacherConfig(uncond_drop_prob=0.0)
    loss_init = fm_loss(init, no_drop, (x0, y), np.random.default_rng(77))
    loss_final = fm_loss(net, no_drop, (x0, y), np.random.default_rng(77))
    assert loss_final - floor < 0.1 * (loss_init - floor)


def test_train_teacher_rejects_zero_iters(small_ds):
    net = tfdl.VelocityNet(small_ds.n_classes, seed=3)
    with pytest.raises(ValueError):
        train_teacher(net, small_ds, tfdl.TeacherConfig(iters=0), np.random.default_rng(0))


def test_train_teacher_divergence_reports_iteration(small_ds):
    # forced blow-ups: at lr 1e30 the loss overflows at iteration 2; at an
    # infinite lr Adam's first update is already non-finite. The config
    # rejects an infinite lr, so it is set after construction.
    for lr, iteration in [(1e30, 2), (float("inf"), 0)]:
        net = tfdl.VelocityNet(small_ds.n_classes, seed=4)
        cfg = tfdl.TeacherConfig(iters=5)
        cfg.lr = lr
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergence) as err:
                train_teacher(net, small_ds, cfg, np.random.default_rng(1))
        # the loop names its own iteration, once; Adam adds no count of its own
        assert err.value.iteration == iteration
        assert str(err.value).count("diverged") == 1


def test_train_teacher_deterministic(small_ds, tmp_path):
    from tfdl.runio import save_net
    outs = []
    for run in range(2):
        net = tfdl.VelocityNet(small_ds.n_classes, seed=5)
        net, _ = train_teacher(net, small_ds, tfdl.TeacherConfig(iters=50),
                               np.random.default_rng(7))
        path = tmp_path / f"t{run}.ckpt"
        save_net(path, net)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cfg_velocity_special_scales():
    rng = np.random.default_rng(8)
    net = tfdl.VelocityNet(3, seed=6, zero_out=False)
    x = rng.standard_normal((5, 2))
    t = rng.uniform(0, 1, 5)
    y = rng.integers(0, 3, 5)
    null = np.full(5, net.n_classes)
    np.testing.assert_array_equal(cfg_velocity(net, x, t, y, 1.0),
                                  net.forward(x, t, y, cfg=0.0))
    np.testing.assert_array_equal(cfg_velocity(net, x, t, y, 0.0),
                                  net.forward(x, t, null, cfg=0.0))


def test_cfg_velocity_affine_in_scale():
    rng = np.random.default_rng(9)
    net = tfdl.VelocityNet(3, seed=7, zero_out=False)
    x = rng.standard_normal((5, 2))
    t = rng.uniform(0, 1, 5)
    y = rng.integers(0, 3, 5)
    mid = cfg_velocity(net, x, t, y, 4.5)
    lo = cfg_velocity(net, x, t, y, 4.0)
    hi = cfg_velocity(net, x, t, y, 5.0)
    np.testing.assert_allclose(mid, 0.5 * (lo + hi), rtol=0, atol=1e-12)


def test_scalar_label_equals_per_row_labels():
    # cfg_velocity and the Euler loop hand a scalar label to the net as given
    rng = np.random.default_rng(14)
    net = tfdl.VelocityNet(3, seed=10, zero_out=False)
    n = 2 * _ROW_BLOCK + 3
    x, t = rng.standard_normal((n, 2)), rng.uniform(0, 1, n)
    np.testing.assert_array_equal(cfg_velocity(net, x, t, 1, 4.5),
                                  cfg_velocity(net, x, t, np.full(n, 1), 4.5))
    np.testing.assert_array_equal(
        euler_sample_fm(net, n, 3, 1, 4.5, np.random.default_rng(15)),
        euler_sample_fm(net, n, 3, np.full(n, 1), 4.5, np.random.default_rng(15)))


def test_cfg_velocity_rejects_null_condition():
    net = tfdl.VelocityNet(2, seed=8)
    with pytest.raises(ValueError):
        cfg_velocity(net, np.zeros((1, 2)), 0.5, np.array([net.n_classes]), 4.0)


def test_euler_analytic_velocity_keeps_gaussian_std():
    # matched-Gaussian closed form transports N(0, I) onto itself
    out = euler_sample_fm(AnalyticGaussianFM(), 4096, 50, 0, 1.0,
                          np.random.default_rng(10))
    std = out.std()
    assert abs(std - 1.0) < 0.05


def test_euler_zero_velocity_is_identity():
    rng_a = np.random.default_rng(11)
    out = euler_sample_fm(ZeroFM(), 16, 1, 0, 1.0, rng_a)
    np.testing.assert_array_equal(out, np.random.default_rng(11).standard_normal((16, 2)))


def test_euler_deterministic():
    net = tfdl.VelocityNet(1, seed=9, zero_out=False)
    a = euler_sample_fm(net, 32, 10, 0, 1.0, np.random.default_rng(12))
    b = euler_sample_fm(net, 32, 10, 0, 1.0, np.random.default_rng(12))
    np.testing.assert_array_equal(a, b)


def test_euler_rejects_zero_steps():
    with pytest.raises(ValueError):
        euler_sample_fm(ZeroFM(), 4, 0, 0, 1.0, np.random.default_rng(0))


def test_teacher_approximates_analytic_velocity(small_ds):
    # single-Gaussian training should recover the closed-form field
    net = tfdl.VelocityNet(small_ds.n_classes, seed=10)
    net, _ = train_teacher(net, small_ds, tfdl.TeacherConfig(iters=2000),
                           np.random.default_rng(13))
    grid = np.linspace(-1, 1, 5)
    xs = np.array([[a, b] for a in grid for b in grid])
    err, norm = 0.0, 0.0
    for tv in np.arange(0.1, 0.95, 0.1):
        t = np.full(len(xs), tv)
        target = ((2 * tv - 1) / ((1 - tv) ** 2 + tv ** 2)) * xs
        pred = net.forward(xs, t, np.zeros(len(xs), dtype=int), cfg=0.0)
        err += np.sum((pred - target) ** 2)
        norm += np.sum(target ** 2)
    assert np.sqrt(err / norm) < 0.10
