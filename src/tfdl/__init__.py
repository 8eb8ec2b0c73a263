"""tfdl: a desk-scale laboratory for hybrid consistency distillation.

Pipeline on 2D synthetic data: pretrain a flow-matching teacher, adapt it
losslessly to the trigonometric noise schedule, distill a few-step student
with a continuous-time consistency loss (exact forward-mode tangents) plus
adversarial feature heads on the frozen teacher, then sample in 1/2/4 steps.

Importing the package pins glibc's malloc thresholds for the whole process
(mmap above 4 MiB, trim above 64 MiB), so freed heap memory up to 64 MiB stays
with the process; on other C libraries nothing is set.
"""

import ctypes


def _pin_heap():
    """Fix glibc's mmap and trim thresholds for the process.

    A training step allocates and frees a few MB of parameter- and batch-sized
    temporaries. With glibc's dynamic thresholds the heap is trimmed back to
    the OS after each step and regrown, page fault by page fault, on the next.
    Setting both thresholds turns the dynamic adjustment off: every per-step
    temporary (at most 0.7 MB) is served from a heap that keeps up to 64 MiB
    free, while arrays above 4 MiB are still mapped and returned on free.
    Either setting alone disables the adjustment and leaves the other
    threshold low, which is why both are set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_pin_heap()

from .distill import DistillConfig, disc_loss, distill_step, gen_adv_loss, run_distill, scm_loss
from .metrics import sliced_w2
from .net import VelocityNet
from .sampler import default_schedule, multistep_sample
from .teacher import TeacherConfig, train_teacher
from .toydata import Dataset, generate, minibatch_arrays

# the names reached as tfdl.<name> by the README tour, the demos and the tests;
# everything else is imported from its module (tfdl.schedule, tfdl.trigflow, ...)
__all__ = ["Dataset", "DistillConfig", "TeacherConfig", "VelocityNet", "default_schedule",
           "disc_loss", "distill_step", "gen_adv_loss", "generate", "minibatch_arrays",
           "multistep_sample", "run_distill", "scm_loss", "sliced_w2", "train_teacher"]
__version__ = "0.1.0"
