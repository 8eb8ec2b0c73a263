"""Schedule families, SNR, and timestep sampling distributions."""

import numpy as np
import pytest

from tfdl.errors import DomainError
from tfdl.schedule import (HALF_PI, TimestepDistribution, flow_matching,
                           perturb, sample_t, snr, trigflow)


def test_perturb_trig_boundaries():
    sched = trigflow(0.5)
    x0 = np.array([[1.0, -2.0]])
    z = np.array([[0.3, 0.4]])
    np.testing.assert_array_equal(perturb(sched, x0, z, 0.0), x0)
    np.testing.assert_allclose(perturb(sched, x0, z, HALF_PI), z, atol=1e-16)


def test_perturb_fm_interpolates():
    sched = flow_matching()
    out = perturb(sched, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.25)
    np.testing.assert_allclose(out, [0.75, 0.25], rtol=0, atol=0)


def test_perturb_domain_error():
    with pytest.raises(DomainError):
        perturb(flow_matching(), np.zeros(2), np.zeros(2), 1.5)
    for sched in (flow_matching(), trigflow(0.5)):
        with pytest.raises(DomainError):
            perturb(sched, np.zeros(2), np.zeros(2), np.nan)
        with pytest.raises(DomainError):
            snr(sched, np.nan)


def test_snr_values():
    assert np.isclose(snr(flow_matching(), 0.25), 9.0, rtol=1e-14)
    assert np.isclose(snr(trigflow(1.0), np.arctan(1 / 3)), 9.0, rtol=1e-12)
    assert np.isclose(snr(trigflow(1.0), np.pi / 4), 1.0, rtol=1e-14)


def test_snr_infinite_at_zero():
    with pytest.raises(DomainError):
        snr(flow_matching(), 0.0)


def test_snr_strictly_decreasing():
    sched = trigflow(0.5)
    t = np.sort(np.random.default_rng(0).uniform(1e-3, HALF_PI - 1e-3, 300))
    vals = snr(sched, t)
    assert np.all(np.diff(vals) < 0)


def test_trig_unit_norm():
    sched = trigflow(0.5)
    t = np.random.default_rng(1).uniform(0, HALF_PI, 1000)
    dev = np.abs(sched.alpha(t) ** 2 + sched.sigma(t) ** 2 - 1.0)
    assert dev.max() <= 1e-12


def test_sample_t_always_max_time():
    dist = TimestepDistribution(0.0, 1.6, max_time_prob=1.0)
    draws = sample_t(dist, 0.5, np.random.default_rng(0), 1000)
    assert np.all(draws == HALF_PI)


def test_sample_t_max_time_fraction():
    dist = TimestepDistribution(0.0, 1.6, max_time_prob=0.5)
    draws = sample_t(dist, 0.5, np.random.default_rng(0), 10 ** 5)
    frac = np.mean(draws == HALF_PI)
    assert 0.49 <= frac <= 0.51


def test_sample_t_open_interval():
    dist = TimestepDistribution(0.0, 1.6, max_time_prob=0.0)
    draws = sample_t(dist, 0.5, np.random.default_rng(2), 10 ** 5)
    assert np.all(draws > 0.0) and np.all(draws < HALF_PI)


def test_sample_t_never_exceeds_bounds():
    dist = TimestepDistribution(-0.6, 1.0, max_time_prob=0.3)
    draws = sample_t(dist, 1.3, np.random.default_rng(3), 10 ** 4)
    assert np.all(draws > 0.0) and np.all(draws <= HALF_PI)
