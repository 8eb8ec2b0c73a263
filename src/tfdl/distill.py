"""Hybrid consistency + adversarial distillation of a pretrained flow teacher.

One training step alternates a discriminator update and a generator update:

* discriminator — hinge loss on multiple small heads reading hidden features
  of the frozen teacher, evaluated on renoised real and generated points;
* generator — continuous-time consistency loss whose target tangent comes
  from one exact forward-mode JVP of the stop-gradient student (warmed up by
  a ramp r and normalized per sample to ||g||/(||g||+c)), plus an adaptive
  log-variance weight head on t, plus the hinge generator term.

A phase is draws, then a target, then pure objectives. ``draw`` makes every
random draw of a phase into one ``StepDraws``; ``scm_target`` evaluates the
stop-gradient target (g, f_sg) once; ``disc_objective``, ``scm_objective`` and
``adv_objective`` are deterministic in (state, draws[, target]), on the tape
when given Var leaves. The step and the public losses share these objectives
and read every setting (times, guidance scales, tangent_c) from one DistillConfig.

Stop-gradient and frozen-module semantics are structural: those branches are
evaluated on plain arrays and never enter the reverse-mode tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import (Dual, dense_silu, exp as vexp, primal, relu, reshape, sincos, vmean,
                       vsum)
from .errors import ConfigurationError, NumericsError, TrainingDivergence, check_fields
from .optim import Adam, ParamVector
from .schedule import TimestepDistribution, mix_max_time, sample_t, trig_perturb
from .toydata import batch_arrays, minibatch_arrays
from .trigflow import TrigFlowAdapter

DATA_DIM = 2


@dataclass
class DistillConfig:
    lr: float = field(default=1e-4, metadata={"gt": 0})
    iters: int = field(default=4000, metadata={"ge": 1})
    batch: int = field(default=96, metadata={"ge": 1})
    lambda_adv: float = field(default=0.5, metadata={"ge": 0})
    # tangent ramp length in steps: r = min(1, (step + 0.5) / warmup_steps)
    warmup_steps: int = field(default=500, metadata={"ge": 1})
    tangent_c: float = field(default=0.1, metadata={"gt": 0})
    gen_tdist: TimestepDistribution = TimestepDistribution(0.0, 1.6, 0.5)   # frozen: shareable
    disc_tdist: TimestepDistribution = TimestepDistribution(-0.6, 1.0, 0.0)
    cfg_scales: tuple[float, ...] = (4.0, 4.5, 5.0)
    use_scm: bool = True
    head_width: int = field(default=64, metadata={"ge": 1})
    wphi_width: int = field(default=32, metadata={"ge": 1})

    def __post_init__(self):
        check_fields(self)
        if not self.use_scm and self.lambda_adv == 0:
            raise ConfigurationError("DistillConfig.use_scm must be true when lambda_adv is 0: "
                                     "at least one of the two loss terms must be on")


class ScalarHeads:
    """Small MLPs, head k on inputs of ``in_dims[k]`` features: a dense+SiLU
    layer of ``width`` units, then one scalar per row. Weights start as scaled
    normals drawn head by head, biases at zero. LADD's discriminator is one
    head per tapped teacher depth; sCM's w(t) is one head (``adaptive_weight``)."""

    def __init__(self, in_dims, width, seed=0):
        self.n_heads = len(in_dims)
        self.params = ParamVector([seg for k, d in enumerate(in_dims) for seg in (
            (f"h{k}_w1", (d, width)), (f"h{k}_b1", (width,)),
            (f"h{k}_w2", (width, 1)), (f"h{k}_b2", (1,)))])
        rng = np.random.default_rng(seed)
        for k, d in enumerate(in_dims):
            self.params[f"h{k}_w1"] = rng.standard_normal((d, width)) / np.sqrt(d)
            self.params[f"h{k}_w2"] = rng.standard_normal((width, 1)) / np.sqrt(width)

    def scores(self, inputs, params=None):
        """One (B,) array of scalar outputs per head, head k reading ``inputs[k]``."""
        P = self.params if params is None else params
        out = []
        for k, f in enumerate(inputs):
            h = dense_silu([f, P[f"h{k}_w1"], P[f"h{k}_b1"]])
            out.append(reshape(h @ P[f"h{k}_w2"] + P[f"h{k}_b2"], (-1,)))
        return out


_WPHI_FREQS = np.geomspace(1.0, 1e3, 64)   # frequencies of w(t)'s time embedding


def adaptive_weight(wphi, t, params=None):
    """sCM's adaptive log-weight w(t): the single head of ``wphi`` on the
    sinusoidal embedding ``[sin | cos](t * _WPHI_FREQS)``, one value per time."""
    emb = sincos(np.asarray(t, dtype=np.float64).reshape(-1, 1) * _WPHI_FREQS)
    return wphi.scores([emb], params)[0]


@dataclass
class DistillState:
    """Everything the alternating loop updates or freezes.

    ``student_stopgrad`` is the same adapter evaluated outside the tape: it is
    numerically identical to the student at all times and contributes no
    gradient. ``step`` counts completed alternating steps.
    """

    student: TrigFlowAdapter
    teacher: TrigFlowAdapter
    heads: ScalarHeads
    wphi: ScalarHeads
    opt_student: Adam
    opt_wphi: Adam
    opt_heads: Adam
    step: int = 0

    @property
    def student_stopgrad(self):
        return self.student


def init_distill(teacher_net, ds, config, seed=0):
    """Build the training state: student starts as a copy of the teacher."""
    student_net = teacher_net.spawn()
    teacher = TrigFlowAdapter(teacher_net, ds.sigma_d, teacher_cfg=True)
    student = TrigFlowAdapter(student_net, ds.sigma_d, teacher_cfg=False)
    spec = teacher_net.spec
    heads = ScalarHeads([spec.width] * spec.depth, config.head_width, seed=seed + 1)
    wphi = ScalarHeads([2 * len(_WPHI_FREQS)], config.wphi_width, seed=seed + 2)
    return DistillState(
        student=student, teacher=teacher, heads=heads, wphi=wphi,
        opt_student=Adam(student_net.params.size, config.lr),
        opt_wphi=Adam(wphi.params.size, config.lr),
        opt_heads=Adam(heads.params.size, config.lr),
    )


# -- draws -------------------------------------------------------------------

@dataclass(frozen=True)
class StepDraws:
    """One phase's batch and draws: consistency time t, its max-time mix t_gan
    and the discriminator time s (both None for a non-adversarial draw)."""

    x0: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: np.ndarray
    cfg: float
    t_gan: np.ndarray | None = None
    s: np.ndarray | None = None


def draw(state, config, batch, rng, adversarial=True):
    """Draw z, the base t and cfg, then (adversarial) t_gan and s for a batch,
    from the times and guidance scales of ``config``."""
    x0, y = batch_arrays(batch)
    b, sd = len(x0), state.student.sigma_d
    z = sd * rng.standard_normal((b, DATA_DIM))
    t = sample_t(replace(config.gen_tdist, max_time_prob=0.0), sd, rng, b)
    cfg = float(rng.choice(config.cfg_scales))
    if not adversarial:
        return StepDraws(x0, y, z, t, cfg)
    t_gan = mix_max_time(t, config.gen_tdist.max_time_prob, rng)
    return StepDraws(x0, y, z, t, cfg, t_gan, sample_t(config.disc_tdist, sd, rng, b))


# -- consistency branch ------------------------------------------------------

def _tangent_and_value(state, x_t, t, y, cfg, r, tangent_c):
    """Normalized target tangent g plus the stop-gradient student value."""
    sd = state.student.sigma_d
    dxdt = sd * np.asarray(state.teacher.velocity(x_t, t, y, cfg=cfg))
    out = state.student_stopgrad.velocity(Dual(x_t, dxdt), Dual(t, np.ones_like(t)), y, cfg=cfg)
    f_sg, df_dt = out.p, out.t
    if not np.all(np.isfinite(df_dt)):
        raise NumericsError("non-finite JVP in consistency tangent")
    ct, st = np.cos(t)[:, None], np.sin(t)[:, None]
    g = -ct * ct * (sd * f_sg - dxdt) - r * ct * st * (x_t + sd * df_dt)
    return g / (np.linalg.norm(g, axis=1, keepdims=True) + tangent_c), f_sg


def scm_target(state, config, d, r):
    """Stop-gradient target (g, f_sg) of the consistency loss at draws ``d``."""
    return _tangent_and_value(state, trig_perturb(d.x0, d.z, d.t), d.t, d.y, d.cfg, r,
                              config.tangent_c)


def scm_objective(state, d, target, student_leaves=None, wphi_leaves=None):
    """Consistency loss at draws ``d``; the target (g, f_sg) enters as a constant."""
    g, f_sg = target
    f_live = state.student.velocity(trig_perturb(d.x0, d.z, d.t), d.t, d.y, cfg=d.cfg,
                                    params=student_leaves)
    w = adaptive_weight(state.wphi, d.t, params=wphi_leaves)
    resid = f_live - (f_sg + g)
    per = vexp(w) * (1.0 / DATA_DIM) * vsum(resid * resid, axis=1) - w
    return vmean(per)


# -- adversarial branch ------------------------------------------------------

def hinge_disc(real_scores, fake_scores):
    """Hinge discriminator objective summed over heads."""
    loss = 0.0
    for d_real, d_fake in zip(real_scores, fake_scores):
        loss = loss + vmean(relu(1.0 - d_real)) + vmean(relu(1.0 + d_fake))
    return loss


def hinge_gen(fake_scores):
    """Hinge generator objective: negative mean score summed over heads."""
    loss = 0.0
    for d_fake in fake_scores:
        loss = loss - vmean(d_fake)
    return loss


def _fake_clean(state, d, student_leaves=None):
    """Generated clean points from data renoised to t_gan; tape-mode iff leaves given."""
    return state.student.consistency(trig_perturb(d.x0, d.z, d.t_gan), d.t_gan, d.y,
                                     cfg=d.cfg, params=student_leaves)


def disc_objective(state, d, head_leaves=None):
    """Hinge discriminator loss on frozen-teacher features (real vs fake)."""
    xhat0 = np.asarray(_fake_clean(state, d))
    # one doubled teacher pass covers both the real and the generated batch
    both = state.teacher.features(
        np.concatenate([trig_perturb(d.x0, d.z, d.s), trig_perturb(xhat0, d.z, d.s)]),
        np.concatenate([d.s, d.s]), np.concatenate([d.y, d.y]))
    n = len(d.x0)
    return hinge_disc(state.heads.scores([f[:n] for f in both], params=head_leaves),
                      state.heads.scores([f[n:] for f in both], params=head_leaves))


def adv_objective(state, d, student_leaves=None):
    """Generator hinge term: negative mean head score on generated points."""
    xhat0 = _fake_clean(state, d, student_leaves)
    return hinge_gen(state.heads.scores(state.teacher.features(trig_perturb(xhat0, d.z, d.s),
                                                               d.s, d.y)))


def scm_loss(state, config, batch, rng, r=1.0):
    """Value of the consistency loss on a fresh draw (no adversarial term)."""
    d = draw(state, config, batch, rng, adversarial=False)
    return float(scm_objective(state, d, scm_target(state, config, d, r)))


def disc_loss(state, config, batch, rng):
    """Hinge discriminator loss on a fresh draw."""
    return float(disc_objective(state, draw(state, config, batch, rng)))


def gen_adv_loss(state, config, batch, rng):
    """Generator hinge term on a fresh draw."""
    return float(adv_objective(state, draw(state, config, batch, rng)))


# -- alternating step --------------------------------------------------------

def _generator_objective(state, config, d, target, student_leaves=None, wphi_leaves=None):
    """(total, consistency, adversarial) generator loss at draws ``d``.

    With Var leaves this builds the tape; with plain parameters it evaluates
    the same number, which is how the stop-gradient contract is probed.
    """
    total = scm_val = adv_val = 0.0
    if config.use_scm:
        total = scm_objective(state, d, target, student_leaves, wphi_leaves)
        scm_val = float(primal(total))
    if config.lambda_adv > 0:
        adv = adv_objective(state, d, student_leaves)
        adv_val = float(primal(adv))
        total = total + config.lambda_adv * adv
    return total, scm_val, adv_val


def distill_step(state, config, ds, rng):
    """One discriminator update followed by one generator update."""
    adversarial = config.lambda_adv > 0
    r = min(1.0, (state.step + 0.5) / config.warmup_steps)
    metrics = {"iter": state.step, "adv_d": 0.0}
    try:
        if adversarial:
            d = draw(state, config, minibatch_arrays(ds, config.batch, rng), rng)
            head_leaves = state.heads.params.as_vars()
            d_obj = disc_objective(state, d, head_leaves)
            d_obj.backward()
            state.opt_heads.step(state.heads.params.flat,
                                 state.heads.params.gradient_from(head_leaves))
            metrics["adv_d"] = float(d_obj.v)

        d = draw(state, config, minibatch_arrays(ds, config.batch, rng), rng, adversarial)
        target = scm_target(state, config, d, r) if config.use_scm else None
        student_leaves = state.student.inner.params.as_vars()
        wphi_leaves = state.wphi.params.as_vars()
        total, scm_val, adv_val = _generator_objective(state, config, d, target,
                                                       student_leaves, wphi_leaves)
        total.backward()
        g_student = state.student.inner.params.gradient_from(student_leaves)
        state.opt_student.step(state.student.inner.params.flat, g_student)
        if config.use_scm:
            state.opt_wphi.step(state.wphi.params.flat,
                                state.wphi.params.gradient_from(wphi_leaves))
    except NumericsError as exc:
        raise TrainingDivergence(state.step, str(exc)) from exc
    state.step += 1

    metrics.update({"scm_loss": scm_val, "adv_g": adv_val,
                    "grad_norm": float(np.sqrt(np.sum(g_student * g_student))),
                    "r": r, "t_mean": float(np.mean(d.t))})
    return metrics


def run_distill(teacher_net, ds, config, rng, seed=0, on_step=None):
    """Run the full alternating loop; returns (state, metric rows)."""
    state = init_distill(teacher_net, ds, config, seed=seed)
    rows = []
    for _ in range(config.iters):
        rows.append(distill_step(state, config, ds, rng))
        if on_step is not None:
            on_step(state, rows[-1])
    return state, rows
