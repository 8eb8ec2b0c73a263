"""The three benchmark workloads: train, sample and search.

Each workload is a closed loop with one caller: a cycle of library calls runs
again only after the previous cycle returned, until the run's time is up.
The library is driven from outside, through its public functions.

All three start from the same set-up, a short training recipe with a fixed
seed (``RECIPE_SEED``): a teacher pretrained for ``RECIPE_TEACHER_ITERS``
iterations and a student distilled from it for ``RECIPE_DISTILL_STEPS``
steps. The model is thus the same for every workload seed, so ``quality_w2``
reads the same number on every seed up to its reference set and sampling
noise. The workload seed drives everything the loop feeds the library: the
training streams of ``train``, and the reference set, class labels, sampling
noise and ``eval_seed`` of ``sample`` and ``search``.
"""

from __future__ import annotations

import copy
import importlib
import os
import time

import numpy as np

# by module: the package namespace re-exports functions under module names
toydata, net_mod, teacher, distill, sampler, metrics, runio, trigflow = (
    importlib.import_module(f"tfdl.{name}") for name in
    ("toydata", "net", "teacher", "distill", "sampler", "metrics", "runio", "trigflow"))

RECIPE_SEED = 0
DATASET = "gauss-mix"
N_DATA = 20000
RECIPE_TEACHER_ITERS = 60
RECIPE_DISTILL_STEPS = 10
TEACHER_BATCH = 256
TEACHER_CHUNK = 10          # teacher iterations per train_teacher call in a cycle
DISTILL_CHUNK = 4           # distillation steps per cycle
N_SAMPLE = 4096
N_SEARCH = 2048
SEARCH_STEPS = 4
CFG_SCALE = 4.5
# the candidate grid of `tfdl search-steps`
SEARCH_GRID = [0.05, 0.1, 0.15] + [round(t, 2) for t in np.arange(0.2, 1.55, 0.1)]
RESCORES = 3                # re-scores of the chosen schedule per search cycle
SETUP_REPEATS = 3
MIN_CYCLES = 2
# quality_w2 must beat this multiple of the score of plain Gaussian noise
QUALITY_CEILING = 4.0

# failures the library signals: NumericsError/TrainingDivergence are
# ArithmeticError, ConfigurationError/DomainError are ValueError, StateError
# is RuntimeError
LIBRARY_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def derive(seed, tag):
    """A 32-bit seed for one input stream of the workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def reference(seed, tag, n):
    """A fresh draw of the data set: points to score against and class labels."""
    return toydata.generate(DATASET, n, derive(seed, tag))


class Run:
    """Counts, checks and timings of one benchmark run."""

    def __init__(self, seed, seconds, tracer, trace, out_dir):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.trace = trace
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.timings = {}                  # name -> CPU seconds per unit
        self.wall = {}                     # name -> wall-clock seconds per unit
        self.cycle_s = {False: [], True: []}
        self.setup_s = []
        self.setup_spans = []
        self.quality = None
        self.ckpt_bytes = 0

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(name)
        return ok

    def time(self, name, fn, *args, units=1, **kwargs):
        """Call ``fn``, recording its CPU and wall-clock time per unit.

        The process is single-threaded (BLAS pinned to one thread), so its CPU
        time is the time the operation held the one core; unlike wall-clock
        time it leaves out time the host gave the core to other guests.
        """
        w0, c0 = time.perf_counter(), time.process_time()
        out = fn(*args, **kwargs)
        c1, w1 = time.process_time(), time.perf_counter()
        self.timings.setdefault(name, []).append((c1 - c0) / units)
        self.wall.setdefault(name, []).append((w1 - w0) / units)
        return out

    def setup(self, fn):
        """Run the set-up ``SETUP_REPEATS`` times (traced in a traced run)."""
        if self.trace:
            self.tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                out = fn()
                self.setup_s.append(time.perf_counter() - t0)
        finally:
            self.tracer.uninstall()
        self.setup_spans = self.tracer.reset()
        return out

    def loop(self, cycle):
        """Closed loop of ``cycle(i)`` for the run's seconds.

        In a traced run every second cycle runs with the tracer installed, so
        the traced and untraced cycle times compare like for like.
        """
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_CYCLES or time.perf_counter() < deadline:
            traced = self.trace and i % 2 == 1
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                if traced:
                    with self.tracer.span("bench.cycle"):
                        ok = cycle(i)
                else:
                    ok = cycle(i)
            except LIBRARY_ERRORS as exc:
                self.check(f"cycle {i}: {type(exc).__name__}: {exc}", False)
                return
            finally:
                self.tracer.uninstall()
            self.cycle_s[traced].append(time.perf_counter() - t0)
            if not ok:
                return
            i += 1


def finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


def train_recipe(ds):
    """The fixed short training run: pretrained teacher and distill state."""
    net = net_mod.VelocityNet(ds.n_classes, seed=RECIPE_SEED + 1)
    rng = np.random.default_rng(RECIPE_SEED + 2)
    net, curve = teacher.train_teacher(
        net, ds, teacher.TeacherConfig(iters=RECIPE_TEACHER_ITERS, batch=TEACHER_BATCH), rng)
    config = distill.DistillConfig()
    state = distill.init_distill(net, ds, config, seed=RECIPE_SEED + 3)
    rng = np.random.default_rng(RECIPE_SEED + 4)
    rows = [distill.distill_step(state, config, ds, rng) for _ in range(RECIPE_DISTILL_STEPS)]
    return net, state, config, curve, rows


def recipe_dataset():
    return toydata.generate(DATASET, N_DATA, RECIPE_SEED)


def quality_ceiling(run, ref, sigma_d):
    """Sliced W2 of plain N(0, sigma_d^2) noise against ``ref``, times the factor."""
    noise = sigma_d * np.random.default_rng(derive(run.seed, 99)).standard_normal(ref.shape)
    return QUALITY_CEILING * metrics.sliced_w2(noise, ref)


def check_quality(run, value, ceiling):
    run.quality = value
    run.check("quality_w2 is finite", np.isfinite(value))
    run.check(f"quality_w2 {value:.4f} below the ceiling {ceiling:.4f}", value < ceiling)


def distill_losses(row):
    return [row[k] for k in ("adv_d", "scm_loss", "adv_g", "grad_norm")]


# -- train ---------------------------------------------------------------------

def train(run):
    """Teacher pretraining chunks at batch 256, then hybrid distillation steps."""
    def setup():
        ds = recipe_dataset()
        return ds, train_recipe(ds)

    ds, (net, state, config, curve, rows) = run.setup(setup)
    run.check("recipe losses finite",
              finite([v for _, v in curve], *[distill_losses(r) for r in rows]))

    ref = reference(run.seed, 1, N_SAMPLE)
    pts = sampler.multistep_sample(state.student, sampler.default_schedule(2, ds.sigma_d),
                                   N_SAMPLE, ref.labels, CFG_SCALE,
                                   np.random.default_rng(derive(run.seed, 2)))
    run.check("student samples finite", finite(pts))
    check_quality(run, metrics.sliced_w2(pts, ref.points),
                  quality_ceiling(run, ref.points, ds.sigma_d))

    # replay: one seeded distillation step from two copies of the same state
    rng = np.random.default_rng(derive(run.seed, 3))
    a, b = copy.deepcopy((state, rng)), copy.deepcopy((state, rng))
    row_a = distill.distill_step(a[0], config, ds, a[1])
    row_b = distill.distill_step(b[0], config, ds, b[1])
    run.check("distill step replays bit-identically",
              row_a == row_b and all(
                  np.array_equal(x.params.flat, y.params.flat) for x, y in
                  ((a[0].student.inner, b[0].student.inner), (a[0].wphi, b[0].wphi),
                   (a[0].heads, b[0].heads))))

    live = net.spawn()              # keeps the distillation teacher fixed
    teacher_rng = np.random.default_rng(derive(run.seed, 4))
    distill_rng = np.random.default_rng(derive(run.seed, 5))
    chunk = teacher.TeacherConfig(iters=TEACHER_CHUNK, batch=TEACHER_BATCH)

    def cycle(i):
        _, curve = run.time("teacher_ms_per_iter", teacher.train_teacher,
                            live, ds, chunk, teacher_rng, units=TEACHER_CHUNK)
        ok = run.check("teacher losses finite", finite([v for _, v in curve]))
        for _ in range(DISTILL_CHUNK):
            row = run.time("distill_ms_per_step", distill.distill_step,
                           state, config, ds, distill_rng)
            ok = run.check("distill losses finite", finite(distill_losses(row))) and ok
        return ok

    run.loop(cycle)
    return {"main": "distill_ms_per_step", "aux": "teacher_ms_per_iter"}


# -- sample and search: a checkpointed student ---------------------------------

def student_setup(run):
    """Recipe training, then a save_net/load_net round trip of the student."""
    path = os.path.join(run.out_dir, f"student-{os.getpid()}.ckpt")

    def setup():
        ds = recipe_dataset()
        _, state, *_ = train_recipe(ds)
        runio.save_net(path, state.student.inner, {"sigma_d": ds.sigma_d})
        run.ckpt_bytes = os.path.getsize(path)
        net, meta = runio.load_net(path)
        os.remove(path)
        return ds, state, trigflow.TrigFlowAdapter(net, meta["sigma_d"])

    ds, state, student = run.setup(setup)
    run.check("checkpoint round trip is exact",
              np.array_equal(student.inner.params.flat, state.student.inner.params.flat))
    return ds, student


def sample(run):
    """A fixed student samples 4096 points at 1, 2 and 4 steps; evaluate scores
    the 2-step output."""
    ds, student = student_setup(run)
    ref = reference(run.seed, 1, N_SAMPLE)
    scheds = {k: sampler.default_schedule(k, ds.sigma_d) for k in (1, 2, 4)}
    first = {}

    def draw(i, k):
        rng = np.random.default_rng([derive(run.seed, 2), i, k])
        return sampler.multistep_sample(student, scheds[k], N_SAMPLE, ref.labels,
                                        CFG_SCALE, rng)

    def sweep(i):
        return {k: run.time(f"sample_ms_{k}step", draw, i, k) for k in scheds}

    def cycle(i):
        out = run.time("sample_ms_sweep", sweep, i)
        report = run.time("eval_ms", metrics.evaluate, out[2], ref.points)
        if i == 0:
            first.update(pts=out[2], report=report)
        ok = run.check("samples finite", finite(*out.values()))
        return run.check("evaluate finite and non-negative",
                         np.isfinite(report.sliced_w2) and report.mmd_rbf >= 0) and ok

    run.loop(cycle)
    if first:
        run.check("2-step sample replays bit-identically",
                  np.array_equal(draw(0, 2), first["pts"]))
        check_quality(run, first["report"].sliced_w2,
                      quality_ceiling(run, ref.points, ds.sigma_d))
    return {"main": "sample_ms_sweep", "aux": "eval_ms"}


def search(run):
    """Greedy 4-step timestep search on 2048 points over the CLI's grid."""
    ds, student = student_setup(run)
    ref = reference(run.seed, 1, N_SEARCH)
    eval_seed = derive(run.seed, 2)
    first = {}

    def score(samples):
        return metrics.sliced_w2(samples, ref.points, seed=eval_seed)

    def rescore_fn(sched):
        """One candidate's cost in the search: sample with eval_seed, then score."""
        return score(sampler.multistep_sample(student, sched, N_SEARCH, ref.labels,
                                              CFG_SCALE, np.random.default_rng(eval_seed)))

    def cycle(i):
        sched, table = run.time("search_ms", sampler.search_timesteps, student, score,
                                SEARCH_STEPS, SEARCH_GRID, N_SEARCH, ref.labels,
                                CFG_SCALE, eval_seed=eval_seed)
        best = min(v for k, _, v in table if k == SEARCH_STEPS - 1)
        rescores = [run.time("rescore_ms", rescore_fn, sched) for _ in range(RESCORES)]
        first.setdefault("table", table)
        first.setdefault("best", best)
        ok = run.check("search scores finite", finite([v for *_, v in table]))
        ok = run.check("searched schedule is a valid StepSchedule",
                       isinstance(sched, sampler.StepSchedule) and sched.steps == SEARCH_STEPS
                       and sampler.StepSchedule(sched.times) == sched) and ok
        ok = run.check("recorded score equals a re-score with the same eval_seed",
                       all(r == best for r in rescores)) and ok
        return run.check("search replays bit-identically", table == first["table"]) and ok

    run.loop(cycle)
    if first:
        check_quality(run, first["best"], quality_ceiling(run, ref.points, ds.sigma_d))
    return {"main": "search_ms", "aux": "rescore_ms"}


WORKLOADS = {"train": train, "sample": sample, "search": search}
