"""Command-line driver: pretrain, distill, sample, search-steps, eval, plot.

Every subcommand reads a JSON run configuration and writes its artifacts into
the output directory, which is created at the first write. Exit codes: 0
success, 2 usage error, 3 unreadable config or a missing, malformed or
mismatched checkpoint (made for another dataset, or a student given to
``distill``), 1 anything else: also a floating-point overflow, invalid
operation or division by zero, which numpy raises here (underflow stays
silent), naming the training iteration when there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import runio
from .distill import run_distill
from .errors import ConfigurationError
from .metrics import evaluate, sliced_w2
from .net import VelocityNet
from .sampler import SEARCH_GRID, default_schedule, multistep_sample, search_timesteps
from .teacher import train_teacher
from .toydata import generate
from .trigflow import TrigFlowAdapter


def _out(args, name):
    """Path of the artifact ``name``; creates the output directory on first use."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_checked(path, ds, role=None):
    """(net, role) of checkpoint ``path`` after checking that it was made for
    the dataset ``ds`` (its sigma_d and class count) and, if given, has ``role``."""
    net, meta = runio.load_net(path)
    checks = (("role", meta.get("role"), role), ("sigma_d", meta.get("sigma_d"), ds.sigma_d),
              ("n_classes", net.n_classes, ds.n_classes))
    bad = [f"{key} {got!r} (expected {want!r})" for key, got, want in checks
           if want is not None and got != want]
    if bad:
        raise ConfigurationError(f"checkpoint {path} does not fit this run: {', '.join(bad)}")
    return net, meta.get("role")


def _adapter_from_ckpt(path, ds):
    net, role = _load_checked(path, ds)
    return TrigFlowAdapter(net, ds.sigma_d, teacher_cfg=role == "teacher")


def _write_dataset(args, ds):
    runio.write_samples_csv(_out(args, "dataset.csv"), ds.points, ds.labels)
    runio.scatter_svg(_out(args, "dataset.svg"), ds.points, ds.labels,
                      title=f"{ds.name} (n={len(ds)})")


def _sample(cfg, args):
    """``eval_samples`` points from the ``--ckpt`` net at ``--steps`` steps.

    Returns (dataset, rng, labels, points); the rng has drawn the labels and noise.
    """
    ds = generate(**asdict(cfg.dataset))
    student = _adapter_from_ckpt(args.ckpt, ds)
    rng = np.random.default_rng(cfg.eval_seed)
    y = rng.integers(0, ds.n_classes, cfg.eval_samples)
    sched = default_schedule(args.steps, student.sigma_d)
    pts = multistep_sample(student, sched, cfg.eval_samples, y, cfg.eval_cfg_scale, rng)
    return ds, rng, y, pts


def cmd_pretrain(cfg, args):
    ds = generate(**asdict(cfg.dataset))
    net = VelocityNet(ds.n_classes, cfg.net, seed=cfg.teacher_seed)
    rng = np.random.default_rng(cfg.teacher_seed)
    net, curve = train_teacher(net, ds, cfg.teacher, rng)
    runio.save_net(_out(args, "teacher.ckpt"), net, {"sigma_d": ds.sigma_d, "role": "teacher"})
    runio.write_csv(_out(args, "teacher_loss.csv"), ["iter", "loss"], curve)
    _write_dataset(args, ds)
    print(f"teacher trained for {cfg.teacher.iters} iters; final loss {curve[-1][1]:.4f}")
    return 0


def cmd_distill(cfg, args):
    ds = generate(**asdict(cfg.dataset))
    teacher_net, _ = _load_checked(args.ckpt, ds, role="teacher")
    rng = np.random.default_rng(cfg.distill_seed)
    every = max(1, cfg.distill.iters // 4)

    def on_step(state, row):
        k = state.step
        if k % every == 0:
            runio.save_net(_out(args, f"student_{k:06d}.ckpt"), state.student.inner,
                           {"sigma_d": ds.sigma_d, "role": "student"})

    state, rows = run_distill(teacher_net, ds, cfg.distill, rng,
                              seed=cfg.distill_seed, on_step=on_step)
    runio.save_net(_out(args, "student.ckpt"), state.student.inner,
                   {"sigma_d": ds.sigma_d, "role": "student"})
    header = ["iter", "scm_loss", "adv_g", "adv_d", "grad_norm", "r", "t_mean"]
    runio.write_csv(_out(args, "distill_metrics.csv"), header,
                    [[row[h] for h in header] for row in rows])
    print(f"distilled for {cfg.distill.iters} steps; final consistency loss "
          f"{rows[-1]['scm_loss']:.4f}")
    return 0


def cmd_sample(cfg, args):
    _, _, y, pts = _sample(cfg, args)
    runio.write_samples_csv(_out(args, f"samples_{args.steps}step.csv"), pts, y)
    runio.scatter_svg(_out(args, f"samples_{args.steps}step.svg"), pts, y,
                      title=f"{args.steps}-step samples")
    print(f"wrote {len(pts)} samples at {args.steps} step(s)")
    return 0


def cmd_search_steps(cfg, args):
    ds = generate(**asdict(cfg.dataset))
    student = _adapter_from_ckpt(args.ckpt, ds)
    rng = np.random.default_rng(cfg.eval_seed)
    ref = ds.points[rng.integers(0, len(ds), cfg.eval_samples)]
    y = rng.integers(0, ds.n_classes, cfg.eval_samples)

    def metric(samples):
        return sliced_w2(samples, ref, seed=cfg.eval_seed)

    sched, table = search_timesteps(student, metric, args.steps, SEARCH_GRID,
                                    cfg.eval_samples, y, cfg.eval_cfg_scale,
                                    eval_seed=cfg.eval_seed)
    runio.write_csv(_out(args, "search_table.csv"),
                    ["step_index", "candidate_t", "metric"], table)
    with open(_out(args, "schedule.json"), "w") as fh:
        json.dump({"steps": args.steps, "times": list(sched.times)}, fh, indent=2)
    print(f"searched {args.steps}-step schedule: {[round(t, 4) for t in sched.times]}")
    return 0


def cmd_eval(cfg, args):
    ds, rng, _, pts = _sample(cfg, args)
    ref = ds.points[rng.integers(0, len(ds), cfg.eval_samples)]
    report = evaluate(pts, ref, seed=cfg.eval_seed)
    path = _out(args, f"eval_{args.steps}step.json")
    with open(path, "w") as fh:
        json.dump(report.__dict__, fh, indent=2, sort_keys=True)
    print(f"sliced_w2={report.sliced_w2:.4f} mmd_rbf={report.mmd_rbf:.5f} -> {path}")
    return 0


def cmd_plot(cfg, args):
    ds = generate(**asdict(cfg.dataset))
    _write_dataset(args, ds)
    print(f"plotted {ds.name} to {args.out}")
    return 0


# subcommand -> (handler, flags it reads besides --config/--out, seed its --seed replaces)
COMMANDS = {"pretrain": (cmd_pretrain, ("--seed",), "teacher_seed"),
            "distill": (cmd_distill, ("--seed", "--ckpt"), "distill_seed"),
            "sample": (cmd_sample, ("--seed", "--ckpt", "--steps"), "eval_seed"),
            "search-steps": (cmd_search_steps, ("--seed", "--ckpt", "--steps"), "eval_seed"),
            "eval": (cmd_eval, ("--seed", "--ckpt", "--steps"), "eval_seed"),
            "plot": (cmd_plot, (), None)}

FLAGS = {"--seed": {"type": int, "default": None},
         "--ckpt": {"required": True},
         "--steps": {"type": int, "choices": (1, 2, 4), "default": 2}}


def _parser():
    p = argparse.ArgumentParser(prog="tfdl")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    return p


def cli(argv):
    """Run one subcommand; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    handler, _, seed_key = COMMANDS[args.command]
    try:
        with open(args.config) as fh:
            cfg = runio.RunConfig.from_json(fh.read())
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, **{seed_key: args.seed})
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: bad config {args.config}: {exc}", file=sys.stderr)
        return 3
    args.out = args.out or cfg.out_dir
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return handler(cfg, args)
    except (FileNotFoundError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
