"""Benchmark launcher: pins the environment, runs one workload, prints the result.

    python3 perfbench/run.py --workload {train,sample,search} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: the library is imported from ``src/``
there and nowhere else. BLAS is pinned to one thread and ``TFDL_THREADS`` is
removed, so all load comes from this one process on one core.

The line before last on standard output records the environment and every
timing, in CPU and in wall-clock milliseconds, as median, tail and sample
count; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they
are the per-layer ones, and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "sample", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import tfdl from this checkout's ``src``; exit non-zero without it."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import tfdl
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tfdl from {src}: {exc}")
    if not os.path.abspath(tfdl.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: tfdl was imported from {tfdl.__file__}, not from {src}")


def git_sha():
    """Commit of the checkout from ``.git`` (None when it is not a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_sha": git_sha(),
            "threads": {k: os.environ.get(k) for k in [*PINNED, "TFDL_THREADS"]}}


def summary(seconds):
    """Median, tail percentile and count of per-unit times, in ms.

    The tail is the highest percentile with at least ten samples beyond it,
    or the maximum when there are fewer than twenty samples.
    """
    ms = sorted(s * 1e3 for s in seconds)
    out = {"median": statistics.median(ms), "n": len(ms)}
    if len(ms) >= 20:
        q = int(100 * (1 - 10 / len(ms)))
        out[f"p{q}"] = statistics.quantiles(ms, n=100)[q - 1]
    else:
        out["max"] = ms[-1]
    return out


def end_to_end(run, names):
    def median_ms(name):
        values = run.timings.get(name)
        return statistics.median(values) * 1e3 if values else None

    return {"main_cpu_ms": {"value": median_ms(names["main"]), "unit": "ms"},
            "aux_cpu_ms": {"value": median_ms(names["aux"]), "unit": "ms"},
            "quality_w2": {"value": run.quality, "unit": "data_units"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"}}


def per_layer(run, loop, setup, teacher_chunk):
    """Per-layer figures from span totals of the traced cycles and set-ups.

    Times and counts are per traced cycle, except ``teacher.iter_self_ms``
    (per teacher iteration), ``distill.step_self_ms`` (per step) and the
    ``runio`` figures (per set-up).
    """
    cycles = max(len(run.cycle_s[True]), 1)

    def get(key, field, table=loop):
        return table.get(key, (0, 0, 0, 0))[field]

    def ms(key, field=1):
        return get(key, field) / 1e6 / cycles

    def count(key, field=0):
        return get(key, field) / cycles

    def own_ms_per(key, units):
        n = get(key, 0) * units
        return get(key, 2) / 1e6 / n if n else 0.0

    repeats = max(len(run.setup_s), 1)
    values = {
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms"),
        "autodiff.backward_calls": (count("autodiff.backward"), "count"),
    }
    for mode in ("plain", "dual", "var"):
        values[f"net.forward_{mode}_ms"] = (ms(f"net.forward.{mode}"), "ms")
        values[f"net.forward_{mode}_rows"] = (count(f"net.forward.{mode}", 3), "rows")
    values.update({
        "trigflow.velocity_self_ms": (sum(ms(f"trigflow.{k}", 2) for k in
                                          ("velocity", "consistency", "features")), "ms"),
        "trigflow.features_calls": (count("trigflow.features"), "count"),
        "optim.adam_ms": (ms("optim.adam"), "ms"),
        "optim.adam_calls": (count("optim.adam"), "count"),
        "teacher.iter_self_ms": (own_ms_per("teacher.train", teacher_chunk), "ms"),
        "distill.step_self_ms": (own_ms_per("distill.step", 1), "ms"),
        "sampler.multistep_self_ms": (ms("sampler.multistep", 2), "ms"),
        "sampler.multistep_calls": (count("sampler.multistep"), "count"),
        "sampler.search_self_ms": (ms("sampler.search", 2), "ms"),
        "metrics.sliced_w2_ms": (ms("metrics.sliced_w2"), "ms"),
        "metrics.sliced_w2_calls": (count("metrics.sliced_w2"), "count"),
        "metrics.mmd_rbf_ms": (ms("metrics.mmd_rbf"), "ms"),
        "toydata.minibatch_ms": (ms("toydata.minibatch"), "ms"),
        "schedule.sample_t_ms": (ms("schedule.sample_t"), "ms"),
        "runio.save_ms": (get("runio.save", 1, setup) / 1e6 / repeats, "ms"),
        "runio.load_ms": (get("runio.load", 1, setup) / 1e6 / repeats, "ms"),
        "runio.ckpt_bytes": (run.ckpt_bytes, "bytes"),
        "trace.overhead_frac": (statistics.median(run.cycle_s[True])
                                / statistics.median(run.cycle_s[False]) - 1.0
                                if run.cycle_s[True] and run.cycle_s[False] else 0.0,
                                "frac"),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PINNED)          # before numpy loads OpenBLAS
    os.environ.pop("TFDL_THREADS", None)
    import_library()
    import tracer
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tr = tracer.Tracer()
    run = workloads.Run(args.seed, args.seconds, tr, bool(args.trace), OUT)
    run.check("tracing off: every traced name holds the library's original", tr.unwrapped())
    names = workloads.WORKLOADS[args.workload](run)
    loop_spans = tr.reset()
    run.check("tracing off: every traced name holds the library's original", tr.unwrapped())

    env = environment()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env,
            "cpu_ms": {k: summary(v) for k, v in sorted(run.timings.items())},
            "wall_ms": {k: summary(v) for k, v in sorted(run.wall.items())},
            "setup_s": run.setup_s, "errors": run.errors}
    if args.trace:
        metrics = per_layer(run, tracer.totals(loop_spans), tracer.totals(run.setup_spans),
                            workloads.TEACHER_CHUNK)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({**info, "metrics": metrics,
                       "setup_spans": tracer.dump(run.setup_spans),
                       "loop_spans": tracer.dump(loop_spans)}, fh)
        info["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = end_to_end(run, names)
    print(json.dumps(info))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
