"""Smoke checks of the benchmark harness.

A shortened run of each workload must emit every end-to-end metric of
``BENCHMARK.json`` with its unit, and a shortened traced run every per-layer
metric. This is a plain script, kept out of the repository's test suite
because each shortened run repeats the workload's set-up. Run it from the
root of the repository:

    python3 perfbench/smoke.py

It prints one line per check and exits non-zero if any check fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(cwd, workload, trace, seconds=0.5):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "11", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def check_refuses_to_run_without_the_library():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(tmp, "train", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def check_tracer_restores_every_original():
    import tracer
    tr = tracer.Tracer()
    assert tr.unwrapped()
    tr.install()
    assert not tr.unwrapped()
    tr.uninstall()
    assert tr.unwrapped()


def check_self_time_subtracts_child_coverage():
    import tracer
    spans = [["root", 0, 100, None, None],
             ["a", 10, 30, 0, None],
             ["b", 40, 90, 0, None],
             ["c", 50, 60, 2, None]]
    assert tracer.self_times(spans) == [30, 20, 40, 10]


def checks():
    yield "self_time_subtracts_child_coverage", check_self_time_subtracts_child_coverage, ()
    yield "tracer_restores_every_original", check_tracer_restores_every_original, ()
    yield "refuses_to_run_without_the_library", check_refuses_to_run_without_the_library, ()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            yield (f"run_emits_every_metric[{workload}-{trace}]",
                   check_run_emits_every_metric, (workload, trace))


def main():
    failed = 0
    for name, check, args in checks():
        try:
            check(*args)
        except Exception:
            failed += 1
            print(f"FAIL {name}", flush=True)
            traceback.print_exc()
        else:
            print(f"ok   {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
