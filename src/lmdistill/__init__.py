"""Desk-scale toolkit for training small recurrent LMs by teacher-ensemble
knowledge distillation with trust-regularized loss weighting, plus N-best
rescoring of speech hypotheses."""

import ctypes
import glob
import os
import sys

# One BLAS thread, pinned before numpy loads: its count changes GEMM bits and oversubscribes
# the package's own threads. Overwritten, not defaulted: a value the user sets is a knob.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
if "numpy" in sys.modules:  # its BLAS read the variables at load: set the OpenBLAS it bundles
    for _lib in glob.glob(os.path.join(os.path.dirname(os.path.dirname(
            sys.modules["numpy"].__file__)), "numpy.libs", "libscipy_openblas64_*.so")):
        try:
            ctypes.CDLL(_lib).scipy_openblas_set_num_threads64_(1)
        except (OSError, AttributeError):  # not loadable, or no such symbol: as unpinned
            pass

from .data import BpttBatch, TokenStream, Vocabulary, bptt_batches, build_vocab, encode
from .errors import (ConfigError, DataError, FormatError, NumericError, ShapeError,
                     TrainingError, UserError)
from .losses import DistillLossSpec, distill_loss
from .model import (ForwardResult, LmModel, LmState, ModelConfig, build_model,
                    model_forward, param_count)
from .checkpoint import load_checkpoint, save_checkpoint
from .regularization import DropoutSpec, activation_reg, variational_mask
from .rescore import (NbestEntry, RescoreConfig, WerReport, combine_and_select,
                      parse_nbest, rescore_nbest, wer)
from .training import TeacherEnsemble, TrainConfig, perplexity, step_loss, train

__version__ = "0.1.0"
