"""The benchmark's span tracer (``perfbench/tracer.py``) patches library
functions and methods by name. These tests resolve every name it traces and
check its evaluation-mode split of ``VelocityNet.forward``, so a renamed or
moved name fails here and not only when the benchmark runs."""

import importlib.util
import pathlib

import numpy as np

from tfdl.autodiff import Dual, vsum
from tfdl.net import NetSpec, VelocityNet

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_resolves_every_target_and_uninstalls():
    tracer = tracing.Tracer()  # resolves each target through owner.__dict__
    assert {span for *_, span in tracer._sites} == {span for *_, span in tracing.TARGETS}
    assert tracer.unwrapped()
    tracer.install()
    try:
        assert tracer.installed and not tracer.unwrapped()
    finally:
        tracer.uninstall()
    assert tracer.unwrapped()


def test_forward_mode_tells_dual_var_and_plain_apart():
    net = VelocityNet(3, spec=NetSpec(width=16, depth=1), seed=0, zero_out=False)
    x = np.random.default_rng(0).standard_normal((5, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        net.forward(x, 0.5, 1)
        net.forward(Dual(x, np.ones_like(x)), 0.5, 1)
        net.value_and_grad(lambda P: vsum(net.forward(x, 0.5, 1, params=P)))
    finally:
        tracer.uninstall()
    spans = tracer.reset()
    assert [attrs for name, *_, attrs in spans if name == "net.forward"] == [
        ("plain", 5), ("dual", 5), ("var", 5)]
    assert "autodiff.backward" in tracing.totals(spans)
