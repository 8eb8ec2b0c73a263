"""Few-step sampling schedules and the sequential timestep search.

A ``StepSchedule`` lists strictly decreasing times ending at 0. Sampling
alternates solution-point prediction with renoising at the next time using
fresh noise. The search optimizes the maximum time first (as arctan(n/sigma_d)
over an n-grid), then each later timestep in order with earlier ones held
fixed, scoring every candidate with common random numbers. Because earlier
steps and noise draws are shared, a round reuses the previous winner's
prediction and costs one consistency pass per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .net import broadcast_rows
from .schedule import HALF_PI, trig_perturb

TMAX_N_GRID = (50.0, 100.0, 200.0, 400.0)
# candidate times of the later search rounds: 0.05, 0.1, 0.15, then 0.2 to 1.5 by 0.1
SEARCH_GRID = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3,
               1.4, 1.5)


@dataclass(frozen=True)
class StepSchedule:
    times: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if len(ts) < 2 or ts[-1] != 0.0:
            raise ValueError("schedule must end at 0.0")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ValueError("schedule times must be strictly decreasing")
        if ts[0] > HALF_PI or any(t < 0 for t in ts):
            raise ValueError("schedule times must lie in [0, pi/2]")

    @property
    def steps(self):
        return len(self.times) - 1


def default_schedule(steps, sigma_d):
    """Reference inference schedules for 1, 2, and 4 steps."""
    if steps == 1:
        return StepSchedule((HALF_PI, 0.0))
    t_max = float(np.arctan(200.0 / sigma_d))
    if steps == 2:
        return StepSchedule((t_max, 1.3, 0.0))
    if steps == 4:
        return StepSchedule((t_max, 1.3, 1.1, 0.6, 0.0))
    raise ConfigurationError(f"unsupported step count {steps}; expected 1, 2 or 4")


def _step(student, x, t, y, cfg, z=None):
    """Renoise prediction ``x`` to time ``t`` with ``z`` (none on the first
    step, where ``x`` is the initial noise), then predict the solution point."""
    if z is not None:
        x = trig_perturb(x, z, t)
    return np.asarray(student.consistency(x, np.full(len(x), t), y, cfg=cfg))


def multistep_sample(student, sched, n, y, cfg, rng):
    """Alternate solution prediction and renoising along the schedule."""
    sd = student.sigma_d
    y = broadcast_rows(y, n, np.int64)
    x = sd * rng.standard_normal((n, 2))
    for i, t in enumerate(sched.times[:-1]):
        z = sd * rng.standard_normal((n, 2)) if i else None
        x = _step(student, x, t, y, cfg, z)
    return x


def search_timesteps(student, metric_fn, steps, grid, n_eval, y, cfg, eval_seed=0):
    """Greedy sequential schedule search minimizing ``metric_fn`` on samples.

    Every candidate is scored with the same random numbers (``eval_seed``), so
    score differences reflect the schedule alone; each score equals that of
    ``multistep_sample`` with ``default_rng(eval_seed)``. The candidates of round
    k share the first k steps and noise draws, so a round renoises the previous
    winner's prediction with one fresh draw and costs one ``student.consistency``
    pass per candidate. Round k offers only candidates that leave at least
    ``steps - 1 - k`` positive grid points below them, so the walk always
    reaches ``steps`` steps; a grid too short for that raises
    ``ConfigurationError`` before any pass. Returns the best schedule and the
    score table as (step_index, candidate_t, metric) rows.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("candidate grid must be nonempty")
    sd = student.sigma_d

    def feasible(cands, k):
        # keep a candidate only if the steps - 1 - k later rounds can each
        # still take a lower positive grid point
        return [c for c in cands if sum(0.0 < g < c for g in grid) >= steps - 1 - k]

    tmax_cands = feasible([float(np.arctan(nn / sd)) for nn in TMAX_N_GRID], 0)
    if not tmax_cands:
        raise ConfigurationError(f"a {steps}-step search needs {steps - 1} positive grid "
                                 "points below the largest maximum time")
    y = broadcast_rows(y, n_eval, np.int64)
    rng = np.random.default_rng(eval_seed)
    table, times = [], []

    def run_round(k, cands, x, z):
        outs = [_step(student, x, c, y, cfg, z) for c in cands]
        vals = [float(metric_fn(out)) for out in outs]
        table.extend((k, c, val) for c, val in zip(cands, vals))
        best = int(np.argmin(vals))
        times.append(cands[best])
        return outs[best]

    xhat0 = run_round(0, tmax_cands, sd * rng.standard_normal((n_eval, 2)), None)
    for k in range(1, steps):
        cands = feasible([c for c in grid if 0.0 < c < times[-1]], k)
        xhat0 = run_round(k, cands, xhat0, sd * rng.standard_normal((n_eval, 2)))
    return StepSchedule(tuple(times) + (0.0,)), table
