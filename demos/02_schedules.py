"""Noise schedules, their SNR, and the training-time distributions.

Shows the linear and trigonometric interpolation families side by side, the
signal-to-noise match realized by the time map, and the shape of the
timestep distributions used for the student and the discriminator.

Run:  python demos/02_schedules.py
"""

import numpy as np

from tfdl.schedule import (HALF_PI, TimestepDistribution, flow_matching,
                           perturb, sample_t, snr, trigflow)
from tfdl.trigflow import t_fm_of

fm = flow_matching()
tg = trigflow(sigma_d=0.5)

print("time     alpha_fm sigma_fm   alpha_tg sigma_tg   snr_fm(t_fm)  snr_tg(t)")
for t in (0.1, 0.4, np.pi / 4, 1.2, 1.5):
    tf = t_fm_of(t)
    print(f"t={t:4.2f}   {fm.alpha(tf):7.4f} {fm.sigma(tf):8.4f}"
          f"   {tg.alpha(t):8.4f} {tg.sigma(t):8.4f}"
          f"   {snr(fm, tf):11.5f}  {snr(tg, t):10.5f}")

x0 = np.array([[1.0, 0.0]])
z = np.array([[0.0, 1.0]])
print("\nperturb checks: fm t=0.25 ->", perturb(fm, x0, z, 0.25)[0],
      " trig t=0 ->", perturb(tg, x0, z, 0.0)[0])

rng = np.random.default_rng(0)
gen = TimestepDistribution(0.0, 1.6, max_time_prob=0.5)
disc = TimestepDistribution(-0.6, 1.0, max_time_prob=0.0)
g = sample_t(gen, tg.sigma_d, rng, 10 ** 5)
d = sample_t(disc, tg.sigma_d, rng, 10 ** 5)
print(f"\nstudent timestep draws: median {np.median(g[g < HALF_PI]):.3f}, "
      f"max-time fraction {np.mean(g == HALF_PI):.3f}")
print(f"critic timestep draws:  median {np.median(d):.3f}, "
      f"max-time fraction {np.mean(d == HALF_PI):.3f}")
hist, edges = np.histogram(d, bins=10, range=(0, HALF_PI))
print("critic draw histogram over [0, pi/2]:")
for h, lo in zip(hist, edges):
    print(f"  {lo:4.2f}+ {'#' * (60 * h // hist.max())}")
