"""Span tracing of tfdl's public functions, installed from outside the library.

``Tracer`` replaces each traced function or method with a wrapper that records
a span (name, start, end, parent span, attributes) in memory, and puts the
original objects back on ``uninstall``. Nothing under ``src/tfdl`` is edited:
the wrappers are set on every module attribute (and class attribute) that
holds the original object, so calls made inside the library, through the
names a module imported, are traced too.

Self time is a span's duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

from tfdl.autodiff import Dual, Var, primal

# (module, attribute path, span name); a dotted path names a method
TARGETS = (
    ("tfdl.autodiff", "Var.backward", "autodiff.backward"),
    ("tfdl.net", "VelocityNet.forward", "net.forward"),
    ("tfdl.trigflow", "TrigFlowAdapter.velocity", "trigflow.velocity"),
    ("tfdl.trigflow", "TrigFlowAdapter.consistency", "trigflow.consistency"),
    ("tfdl.trigflow", "TrigFlowAdapter.features", "trigflow.features"),
    ("tfdl.optim", "Adam.step", "optim.adam"),
    ("tfdl.teacher", "train_teacher", "teacher.train"),
    ("tfdl.distill", "distill_step", "distill.step"),
    ("tfdl.sampler", "multistep_sample", "sampler.multistep"),
    ("tfdl.sampler", "search_timesteps", "sampler.search"),
    ("tfdl.metrics", "evaluate", "metrics.evaluate"),
    ("tfdl.metrics", "sliced_w2", "metrics.sliced_w2"),
    ("tfdl.metrics", "mmd_rbf", "metrics.mmd_rbf"),
    ("tfdl.toydata", "minibatch_arrays", "toydata.minibatch"),
    ("tfdl.schedule", "sample_t", "schedule.sample_t"),
    ("tfdl.runio", "save_net", "runio.save"),
    ("tfdl.runio", "load_net", "runio.load"),
)

def forward_mode(args, kwargs):
    """Evaluation mode of a ``VelocityNet.forward`` call and its row count.

    ``dual`` when an input carries a forward-mode tangent, ``var`` when an
    input or parameter leaf is on the reverse-mode tape, else ``plain``.
    """
    names = ("x", "t", "y", "cfg", "params")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    x, t, cfg = bound.get("x"), bound.get("t"), bound.get("cfg")
    params = bound.get("params")
    inputs = (x, t, cfg)
    if any(isinstance(v, Dual) for v in inputs):
        mode = "dual"
    elif (any(isinstance(v, Var) for v in inputs)
          or (isinstance(params, dict) and isinstance(next(iter(params.values())), Var))):
        mode = "var"
    else:
        mode = "plain"
    shape = getattr(primal(x), "shape", ())
    rows = shape[0] if len(shape) == 2 else 1
    return mode, rows


def self_times(spans):
    """Self time (ns) of every span: duration minus child coverage."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            children[sp[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def totals(spans):
    """{key: [calls, total_ns, self_ns, rows]} per span name, and per name and
    mode for spans that carry one."""
    out = {}
    for (name, start, end, _, attrs), own in zip(spans, self_times(spans)):
        keys = [name] if attrs is None else [name, f"{name}.{attrs[0]}"]
        for key in keys:
            acc = out.setdefault(key, [0, 0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += own
            acc[3] += attrs[1] if attrs is not None else 0
    return out


def dump(spans):
    """Spans as JSON-ready rows: name, start and end in microseconds from the
    first span, parent index, attributes."""
    t0 = spans[0][1] if spans else 0
    return [[name, (s - t0) / 1e3, (e - t0) / 1e3, parent, attrs]
            for name, s, e, parent, attrs in spans]


class Tracer:
    """In-memory span recorder over the library's public functions."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, attrs]
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._sites = self._find_sites()

    @staticmethod
    def _find_sites():
        """Every (owner, attribute, original object, span name) to patch."""
        sites = []
        # loaded library modules, whose globals may hold an imported copy
        modules = [m for name, m in sys.modules.items()
                   if name == "tfdl" or name.startswith("tfdl.")]
        for modname, path, span in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            sites.append((owner, attr, original, span))
            if cls_path:
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original and not (mod is owner and name == attr):
                        sites.append((mod, name, original, span))
        return sites

    @property
    def installed(self):
        return bool(self._patches)

    def unwrapped(self):
        """True when every traced name holds the library's original object."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original, _ in self._sites)

    def _open(self, name, attrs=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else None, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrap(self, fn, span):
        is_forward = span == "net.forward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span, forward_mode(args[1:], kwargs) if is_forward else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def install(self):
        if self.installed:
            return
        wrappers = {}
        for owner, attr, original, span in self._sites:
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, span)
            setattr(owner, attr, wrappers[key])
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset(self):
        """Return the spans recorded so far and start an empty record."""
        done, self.spans = self.spans, []
        return done

    @contextlib.contextmanager
    def span(self, name):
        """One span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
