"""Step schedules, few-step sampling, and the sequential timestep search."""

import numpy as np
import pytest

import tfdl
from conftest import AnalyticGaussianFM
from tfdl.errors import ConfigurationError
from tfdl.metrics import sliced_w2
from tfdl.net import _ROW_BLOCK, NetSpec
from tfdl.sampler import (SEARCH_GRID, StepSchedule, default_schedule, multistep_sample,
                          search_timesteps)
from tfdl.schedule import HALF_PI
from tfdl.trigflow import TrigFlowAdapter


def test_default_schedules():
    one = default_schedule(1, 0.5)
    assert one.times == (HALF_PI, 0.0)
    two = default_schedule(2, 0.5)
    assert two.times[0] == pytest.approx(np.arctan(400.0), abs=1e-15)
    assert two.times[0] == pytest.approx(1.56830, abs=1e-5)
    assert two.times[1:] == (1.3, 0.0)
    four = default_schedule(4, 0.5)
    assert four.times == (np.arctan(400.0), 1.3, 1.1, 0.6, 0.0)


def test_default_schedule_rejects_other_counts():
    with pytest.raises(ConfigurationError):
        default_schedule(3, 0.5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule((1.0, 0.5))          # does not end at 0
    with pytest.raises(ValueError):
        StepSchedule((0.5, 1.0, 0.0))     # not decreasing
    with pytest.raises(ValueError):
        StepSchedule((2.0, 0.0))          # above pi/2


def test_one_step_from_max_time_gives_data_mean():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    out = multistep_sample(adapter, StepSchedule((HALF_PI, 0.0)), 256, 0, 1.0,
                           np.random.default_rng(0))
    # consistency prediction cos(t) x vanishes at t = pi/2
    assert np.abs(out).max() <= 1e-12


def test_small_start_time_is_near_identity():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    t0 = 1e-6
    rng = np.random.default_rng(1)
    out = multistep_sample(adapter, StepSchedule((t0, 0.0)), 64, 0, 1.0, rng)
    start = np.random.default_rng(1).standard_normal((64, 2))
    np.testing.assert_allclose(out, start, atol=1e-6)


def test_two_step_differs_from_one_step():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    one = multistep_sample(adapter, default_schedule(1, 1.0), 64, 0, 1.0,
                           np.random.default_rng(2))
    two = multistep_sample(adapter, default_schedule(2, 1.0), 64, 0, 1.0,
                           np.random.default_rng(2))
    assert np.abs(one - two).max() > 0


def test_consistency_called_once_per_step():
    calls = []

    class CountingAdapter:
        sigma_d = 1.0

        def consistency(self, x, t, y, cfg=None, params=None):
            calls.append(float(t[0]))
            return np.asarray(x) * 0.5

    for steps in (1, 2, 4):
        calls.clear()
        sched = default_schedule(steps, 1.0)
        multistep_sample(CountingAdapter(), sched, 8, 0, 1.0, np.random.default_rng(3))
        assert len(calls) == steps
        assert calls == list(sched.times[:-1])


def _quadratic_metric(center):
    def metric(samples):
        return float(np.mean((samples - center) ** 2))
    return metric


def test_search_returns_valid_schedule_and_table():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    metric = _quadratic_metric(np.zeros(2))
    sched, table = search_timesteps(adapter, metric, 2, [0.4, 0.8, 1.3], 128,
                                    0, 1.0, eval_seed=7)
    assert sched.steps == 2 and sched.times[-1] == 0.0
    assert all(a > b for a, b in zip(sched.times, sched.times[1:]))
    idx = [row[0] for row in table]
    assert set(idx) == {0, 1}


def test_search_one_step_table_has_one_row_per_tmax():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    sched, table = search_timesteps(adapter, _quadratic_metric(np.zeros(2)), 1,
                                    [0.5], 64, 0, 1.0, eval_seed=3)
    assert sched.steps == 1
    assert [row[0] for row in table] == [0, 0, 0, 0]  # one per n-grid entry


def test_search_minimum_over_superset_not_worse():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    metric = _quadratic_metric(np.array([0.1, -0.2]))

    def rescore(times):
        rng = np.random.default_rng(11)
        return metric(multistep_sample(adapter, StepSchedule(times), 256, 0, 1.0, rng))

    sched, table = search_timesteps(adapter, metric, 2, [0.6, 0.9, 1.3], 256,
                                    0, 1.0, eval_seed=11)
    searched = rescore(sched.times)
    # the searched schedule can only improve on any schedule inside the grid
    for cand in (0.6, 0.9, 1.3):
        assert searched <= rescore((sched.times[0], cand, 0.0)) + 1e-12


def test_search_argmin_reproducible():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    metric = _quadratic_metric(np.zeros(2))
    a, _ = search_timesteps(adapter, metric, 2, [0.4, 0.8, 1.2], 128, 0, 1.0, eval_seed=5)
    b, tab = search_timesteps(adapter, metric, 2, [0.4, 0.8, 1.2], 128, 0, 1.0, eval_seed=5)
    assert a.times == b.times
    # independently recomputing the winner's metric reproduces its table score
    rng = np.random.default_rng(5)
    val = metric(multistep_sample(adapter, b, 128, 0, 1.0, rng))
    best_row = min((r for r in tab if r[0] == 1), key=lambda r: r[2])
    assert val == pytest.approx(best_row[2], rel=1e-12)


def test_search_empty_grid_rejected():
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    with pytest.raises(ValueError):
        search_timesteps(adapter, _quadratic_metric(np.zeros(2)), 2, [], 32, 0, 1.0)


ORACLE_GRID = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]
ORACLE_N = _ROW_BLOCK + 100  # a VelocityNet pass crosses a row-block boundary


def _analytic_case(n):
    adapter = TrigFlowAdapter(AnalyticGaussianFM(), sigma_d=1.0, teacher_cfg=True)
    ref = np.random.default_rng(1).standard_normal((n, 2)) * 0.7 + 0.3
    return adapter, 0, lambda samples: sliced_w2(samples, ref, seed=3)


def _velocity_net_case(n):
    net = tfdl.VelocityNet(2, spec=NetSpec(width=16, depth=1, n_freq=8), seed=4)
    labels = np.random.default_rng(2).integers(0, 2, n)
    return TrigFlowAdapter(net, 0.8), labels, _quadratic_metric(np.array([0.1, -0.2]))


@pytest.mark.parametrize("make_case", [_analytic_case, _velocity_net_case])
def test_search_table_equals_naive_rescoring(make_case):
    # every row must be exactly the score of sampling its full schedule afresh
    adapter, y, metric = make_case(ORACLE_N)
    for steps in (1, 2, 3, 4):
        sched, table = search_timesteps(adapter, metric, steps, ORACLE_GRID, ORACLE_N, y,
                                        2.0, eval_seed=7)
        assert sched.steps == steps
        assert sorted({row[0] for row in table}) == list(range(steps))
        for k, c, score in table:
            cand = StepSchedule(sched.times[:k] + (c, 0.0))
            rng = np.random.default_rng(7)
            assert score == metric(multistep_sample(adapter, cand, ORACLE_N, y, 2.0, rng))


def test_search_one_consistency_call_per_candidate():
    calls = []

    class CountingAdapter:
        sigma_d = 1.0

        def consistency(self, x, t, y, cfg=None, params=None):
            calls.append(float(t[0]))
            return np.asarray(x) * 0.5

    def spread(samples):
        # favours the largest renoise time, so the walk descends one grid point per round
        return -float(np.mean(samples ** 2))

    for steps in (1, 2, 4):
        calls.clear()
        sched, table = search_timesteps(CountingAdapter(), spread, steps, ORACLE_GRID, 8,
                                        0, 1.0, eval_seed=3)
        assert sched.steps == steps
        assert calls == [c for _, c, _ in table]


def test_search_weak_student_reaches_all_steps():
    # an untrained net favours the smallest time in every round; the walk must
    # still leave room below each pick instead of running out of candidates
    net = tfdl.VelocityNet(2, spec=NetSpec(width=16, depth=1, n_freq=8), seed=4)
    adapter = TrigFlowAdapter(net, 0.8)
    ds = tfdl.generate("gauss-mix", 2000, seed=0, components=2)
    rng = np.random.default_rng(0)
    ref = ds.points[rng.integers(0, len(ds), 256)]
    y = rng.integers(0, 2, 256)
    for steps in (3, 4):
        sched, table = search_timesteps(adapter, lambda s: sliced_w2(s, ref, seed=3), steps,
                                        SEARCH_GRID, 256, y, 4.5, eval_seed=3)
        assert sched.steps == steps
        for k, c, _ in table:
            assert sum(0.0 < g < c for g in SEARCH_GRID) >= steps - 1 - k


def test_search_grid_too_short_rejected_up_front():
    calls = []

    class CountingAdapter:
        sigma_d = 1.0

        def consistency(self, x, t, y, cfg=None, params=None):
            calls.append(t)
            return np.asarray(x)

    with pytest.raises(ConfigurationError):
        search_timesteps(CountingAdapter(), _quadratic_metric(np.zeros(2)), 4,
                         [0.0, 0.3, 0.6], 8, 0, 1.0)
    assert calls == []


def _unrestricted_greedy(adapter, metric, steps, grid, n, y, cfg, eval_seed):
    """Greedy walk offering every grid point below the previous pick, each
    scored by sampling its full schedule afresh."""
    rows, times = [], []
    cands = [float(np.arctan(nn / adapter.sigma_d)) for nn in (50.0, 100.0, 200.0, 400.0)]
    for k in range(steps):
        if k:
            cands = [c for c in grid if 0.0 < c < times[-1]]
        scores = [metric(multistep_sample(adapter, StepSchedule(tuple(times) + (c, 0.0)), n, y,
                                          cfg, np.random.default_rng(eval_seed)))
                  for c in cands]
        rows += [(k, c, s) for c, s in zip(cands, scores)]
        times.append(cands[int(np.argmin(scores))])
    return tuple(times) + (0.0,), rows


@pytest.mark.parametrize("make_case", [_analytic_case, _velocity_net_case])
def test_search_feasibility_keeps_a_succeeding_schedule(make_case):
    # the feasibility filter only drops rows a successful walk never picks:
    # the schedule and the scores of every surviving row stay as they were
    adapter, y, metric = make_case(64)
    expect_times, expect_rows = _unrestricted_greedy(adapter, metric, 4, ORACLE_GRID, 64, y,
                                                     2.0, eval_seed=7)
    sched, table = search_timesteps(adapter, metric, 4, ORACLE_GRID, 64, y, 2.0, eval_seed=7)
    assert sched.times == expect_times
    assert set(table) < set(expect_rows)
