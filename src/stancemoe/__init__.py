# synthetic is not imported here: ``python -m stancemoe.synthetic`` would
# otherwise find it already in sys.modules and warn
from . import ablation, checkpoint, encoder, experts, head, metrics, model, ops, text, train

from .encoder import EncoderOutput, ToyEncoderParams, encode, read_embedding_store
from .experts import EXPERT_NAMES, ExpertBank, run_all_experts
from .head import classify, fuse, gate_forward
from .metrics import MetricsReport, confusion, macro_metrics
from .model import ModelParams, model_forward
from .ops import LinearParams, grad_check, softmax
from .text import CueLexicon, TokenizedExample, Vocab, load_dataset, stratified_kfold, tokenize
from .train import (
    EnsembleModel,
    FoldArtifact,
    TrainConfig,
    ensemble_forward,
    fold_weights,
    label_smoothed_ce,
    run_kfold,
    train_fold,
)

__version__ = "0.1.0"
