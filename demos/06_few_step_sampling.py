"""Timestep schedules: defaults versus the sequential grid search.

Distills a student, then searches inference timesteps the hierarchical way:
best maximum time first (over arctan(n/sigma_d) candidates), then each later
timestep with the earlier ones frozen, scoring every candidate with common
random numbers.

Run:  python demos/06_few_step_sampling.py   (several minutes on one core)
"""

import os

import numpy as np

import tfdl
from tfdl.metrics import sliced_w2
from tfdl.runio import write_csv
from tfdl.sampler import SEARCH_GRID, default_schedule, multistep_sample, search_timesteps

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)
CFG_SCALE = 4.5

ds = tfdl.generate("gauss-mix", 20000, seed=0)
net = tfdl.VelocityNet(ds.n_classes, seed=1)
net, _ = tfdl.train_teacher(net, ds, tfdl.TeacherConfig(), np.random.default_rng(1))
state, _ = tfdl.run_distill(net, ds, tfdl.DistillConfig(), np.random.default_rng(2),
                            seed=3)
print("student ready")

eval_rng = np.random.default_rng(11)
ref = ds.points[eval_rng.integers(0, len(ds), 2048)]
y = eval_rng.integers(0, ds.n_classes, 2048)


def metric(samples):
    return sliced_w2(samples, ref, seed=5)


for steps in (1, 2, 4):
    searched, table = search_timesteps(state.student, metric, steps, SEARCH_GRID, 2048,
                                       y, CFG_SCALE, eval_seed=17)
    default = default_schedule(steps, ds.sigma_d)
    crn = np.random.default_rng(17)
    w_def = metric(multistep_sample(state.student, default, 2048, y, CFG_SCALE, crn))
    crn = np.random.default_rng(17)
    w_sea = metric(multistep_sample(state.student, searched, 2048, y, CFG_SCALE, crn))
    print(f"\n{steps}-step default  {[round(t, 3) for t in default.times]}  -> {w_def:.4f}")
    print(f"{steps}-step searched {[round(t, 3) for t in searched.times]}  -> {w_sea:.4f}")
    write_csv(os.path.join(OUT, f"search_{steps}step.csv"),
              ["step_index", "candidate_t", "metric"], table)
print(f"\nwrote score tables to {OUT}")
