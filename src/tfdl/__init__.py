"""tfdl: a desk-scale laboratory for hybrid consistency distillation.

Pipeline on 2D synthetic data: pretrain a flow-matching teacher, adapt it
losslessly to the trigonometric noise schedule, distill a few-step student
with a continuous-time consistency loss (exact forward-mode tangents) plus
adversarial feature heads on the frozen teacher, then sample in 1/2/4 steps.
"""

from .distill import (AdaptiveWeight, DiscriminatorHeads, DistillConfig,
                      DistillState, disc_loss, distill_step, gen_adv_loss,
                      init_distill, one_step_generate, run_distill, scm_loss,
                      scm_tangent)
from .metrics import MetricReport, evaluate, mmd_rbf, sliced_w2
from .net import VelocityNet
from .sampler import StepSchedule, default_schedule, multistep_sample, search_timesteps
from .schedule import (Schedule, TimestepDistribution, flow_matching,
                       perturb, sample_t, snr, trigflow)
from .teacher import TeacherConfig, cfg_velocity, euler_sample_fm, fm_loss, train_teacher
from .toydata import Dataset, generate, minibatch_arrays
from .trigflow import TrigFlowAdapter, euler_sample_trig, scale_factor, t_fm_of

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
