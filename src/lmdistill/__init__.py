"""Desk-scale toolkit for training small recurrent LMs by teacher-ensemble
knowledge distillation with trust-regularized loss weighting, plus N-best
rescoring of speech hypotheses."""

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
