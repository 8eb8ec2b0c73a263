"""Golden replay: a fresh seeded run agrees with the checked-in record.

The run is ``replay.run()`` (see ``tests/replay.py``). It is made in a child
process under one and under two BLAS threads, so a result that depends on how
a threaded BLAS splits a sum fails here too.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import replay
from conftest import fresh_process_env


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seeded_run_matches_record(tmp_path, threads):
    out = tmp_path / "run.npz"
    subprocess.run([sys.executable, os.path.abspath(replay.__file__), str(out)],
                   env=fresh_process_env(OPENBLAS_NUM_THREADS=threads), check=True,
                   timeout=300)
    with np.load(out) as new, np.load(replay.RECORD) as old:
        diffs = replay.worst_differences(dict(new), dict(old))
    print(f"replay under {threads} BLAS thread(s):\n{replay.report(diffs)}")
    worse = {name: d for name, d in diffs.items() if not d <= replay.TOLERANCE}
    assert not worse, f"arrays off the record by more than {replay.TOLERANCE}: {worse}"


def test_worst_differences_is_relative_to_the_largest_entry():
    old = {"a": np.array([1e-20, 100.0]), "b": np.zeros(2)}
    new = {"a": np.array([2e-20, 100.0 + 1e-10]), "b": np.zeros(2)}
    diffs = replay.worst_differences(new, old)
    assert diffs["a"] == pytest.approx(1e-12, rel=1e-3)
    assert diffs["b"] == 0.0
    assert replay.worst_differences({"a": old["a"]}, old)["b"] == float("inf")
    assert replay.worst_differences({**old, "a": np.zeros(3)}, old)["a"] == float("inf")
