"""Full hybrid distillation run: consistency loss + adversarial heads.

Pretrains the teacher, distills a few-step student with the alternating
discriminator/generator loop, and reports sliced Wasserstein distances for
1/2/4-step sampling against the teacher's 50-step Euler baseline.

Run:  python demos/05_distillation.py   (several minutes on one core)
"""

import os

import numpy as np

import tfdl
from tfdl.metrics import sliced_w2
from tfdl.runio import scatter_svg, write_csv
from tfdl.sampler import default_schedule, multistep_sample
from tfdl.teacher import euler_sample_fm

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)
CFG_SCALE = 4.5

ds = tfdl.generate("gauss-mix", 20000, seed=0)
net = tfdl.VelocityNet(ds.n_classes, seed=1)
net, _ = tfdl.train_teacher(net, ds, tfdl.TeacherConfig(), np.random.default_rng(1))
print("teacher ready")

config = tfdl.DistillConfig()          # 4000 alternating steps, lambda = 0.5
state, rows = tfdl.run_distill(net, ds, config, np.random.default_rng(2), seed=3)
header = ["iter", "scm_loss", "adv_g", "adv_d", "grad_norm", "r", "t_mean"]
write_csv(os.path.join(OUT, "distill_metrics.csv"), header,
          [[r[h] for h in header] for r in rows])
print("distilled; last row:",
      {k: round(rows[-1][k], 4) for k in ("scm_loss", "adv_g", "adv_d", "r")})

eval_rng = np.random.default_rng(9)
ref = ds.points[eval_rng.integers(0, len(ds), 4096)]
y = eval_rng.integers(0, ds.n_classes, 4096)

teacher_samples = ds.sigma_d * euler_sample_fm(net, 4096, 50, y, CFG_SCALE,
                                               np.random.default_rng(7))
w_teacher = sliced_w2(teacher_samples, ref, seed=5)
print(f"\nteacher 50-step Euler:  sliced_w2 = {w_teacher:.4f}")
for steps in (1, 2, 4):
    sched = default_schedule(steps, ds.sigma_d)
    pts = multistep_sample(state.student, sched, 4096, y, CFG_SCALE,
                           np.random.default_rng(7))
    w = sliced_w2(pts, ref, seed=5)
    print(f"student {steps}-step:        sliced_w2 = {w:.4f}")
    scatter_svg(os.path.join(OUT, f"student_{steps}step.svg"), pts, y,
                title=f"student, {steps} step(s)")
print(f"\nwrote metrics CSV and sample scatters to {OUT}")
