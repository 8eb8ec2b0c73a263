"""Golden seeded replay: one small pipeline run whose arrays are checked in.

``run()`` trains a width-32 teacher (depth 2, so 16 time frequencies;
3,506 parameters) for 20 iterations at batch 64 on a 4,000-point ``gauss-mix``,
distills it for 6 steps at batch 32 twice (hybrid, and with
``lambda_adv=0``), draws 1-, 2- and 4-step samples of 256 points from the
hybrid student and runs a 2-step timestep search over the CLI's grid. It
returns every resulting array by name; ``tests/replay.npz`` is the record
that ``tests/test_replay.py`` compares a fresh run against.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/replay.py            # rewrite the record and print
                                                      # each array's worst difference
    PYTHONPATH=src python3 tests/replay.py OUT.npz    # write this run's arrays to OUT.npz

A change that alters rounding on purpose rewrites the record with the first
form and logs the printed differences; any other change leaves it untouched.
"""

import os
import sys

import numpy as np

import tfdl
from tfdl.distill import DistillConfig
from tfdl.metrics import sliced_w2
from tfdl.net import NetSpec
from tfdl.sampler import SEARCH_GRID, search_timesteps

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "replay.npz")
TOLERANCE = 1e-12   # worst difference relative to the array's largest entry
METRIC_KEYS = ("iter", "scm_loss", "adv_g", "adv_d", "grad_norm", "r", "t_mean")
N_SAMPLES = 256


def run():
    """The seeded run's arrays, by name."""
    ds = tfdl.generate("gauss-mix", 4000, seed=0)
    net = tfdl.VelocityNet(ds.n_classes, spec=NetSpec(width=32, depth=2), seed=1)
    net, curve = tfdl.train_teacher(net, ds, tfdl.TeacherConfig(iters=20, batch=64),
                                    np.random.default_rng(1))
    out = {"teacher_params": net.params.flat.copy(),
           "teacher_loss": np.array([v for _, v in curve])}
    for tag, lambda_adv in (("hybrid", 0.5), ("scm", 0.0)):
        config = DistillConfig(iters=6, batch=32, lambda_adv=lambda_adv)
        state, rows = tfdl.run_distill(net, ds, config, np.random.default_rng(2), seed=2)
        out[f"{tag}_student"] = state.student.inner.params.flat.copy()
        out[f"{tag}_wphi"] = state.wphi.params.flat.copy()
        out[f"{tag}_metrics"] = np.array([[row[k] for k in METRIC_KEYS] for row in rows],
                                         dtype=np.float64)
        if tag == "hybrid":
            out["hybrid_heads"] = state.heads.params.flat.copy()
            student = state.student
    rng = np.random.default_rng(3)
    y = rng.integers(0, ds.n_classes, N_SAMPLES)
    for steps in (1, 2, 4):
        out[f"samples_{steps}step"] = tfdl.multistep_sample(
            student, tfdl.default_schedule(steps, ds.sigma_d), N_SAMPLES, y, 4.5,
            np.random.default_rng([3, steps]))
    ref = ds.points[rng.integers(0, len(ds), N_SAMPLES)]
    _, table = search_timesteps(student, lambda s: sliced_w2(s, ref, seed=3), 2, SEARCH_GRID,
                                N_SAMPLES, y, 4.5, eval_seed=3)
    out["search_table"] = np.array(table, dtype=np.float64)
    return out


def worst_differences(new, old):
    """Per array of the record ``old``: the largest entrywise difference of
    ``new`` relative to the record's largest entry (0.0 when bit-identical,
    inf when the array is missing or its shape differs). Entrywise relative
    error is not used: it is unbounded on entries that cancel to near 0."""
    diffs = {}
    for name in old:
        if name not in new or np.shape(new[name]) != np.shape(old[name]):
            diffs[name] = float("inf")
            continue
        scale = float(np.max(np.abs(old[name]), initial=0.0)) or 1.0
        diffs[name] = float(np.max(np.abs(new[name] - old[name]), initial=0.0)) / scale
    for name in set(new) - set(old):
        diffs[name] = float("inf")
    return diffs


def report(diffs):
    """One line per array: bit-identical, or its worst relative difference."""
    return "\n".join(f"{name:16s} " + ("bit-identical" if d == 0.0 else f"{d:.3e}")
                     for name, d in sorted(diffs.items()))


def main(argv):
    arrays = run()
    if argv:
        np.savez(argv[0], **arrays)
        return 0
    if os.path.exists(RECORD):
        with np.load(RECORD) as old:
            print(report(worst_differences(arrays, dict(old))))
    np.savez(RECORD, **arrays)
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
