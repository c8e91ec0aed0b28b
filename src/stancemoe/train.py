"""Label-smoothed cross-entropy training, per-fold optimization, K-fold
orchestration, and F1-weighted logit ensembling."""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import numbers
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .experts import EXPERT_NAMES
from .metrics import MetricsReport, metrics_from_labels
from .model import (ENCODER_MODES, ModelParams, PreparedRows, head_experts, model_backward,
                    model_forward)
from .ops import Region, log_softmax, softmax
from .text import N_CLASSES, TokenizedExample, Vocab, stratified_kfold

logger = logging.getLogger(__name__)


class NonFiniteGradientError(RuntimeError):
    """An optimizer step saw a NaN/Inf gradient; the step was aborted."""


_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


@dataclass
class TrainConfig:
    """Hyperparameters and model options; defaults are the standard recipe."""

    max_len: int = 128
    batch_size: int = 16
    epochs: int = 10
    learning_rate: float = 5e-5
    k: int = 10
    label_smoothing: float = 0.25
    seed: int = 42
    hidden_dim: int = 64
    cnn_filters: int = 8
    contrast_scale: float = 3.0
    epsilon: float = 1e-8
    encoder: str = "toy"  # "toy" or "precomputed"
    freeze_encoder: bool = False
    embeddings_path: str | None = None  # SMEB1 store for precomputed mode
    active_experts: tuple[str, ...] = EXPERT_NAMES
    head: str = "moe"  # "moe", "stacked" or "fusion"
    weight_decay: float = 0.0
    grad_clip: float | None = None
    warmup_steps: int = 0
    cue_lexicon: str | None = None  # lexicon file paths; None = packaged defaults
    contrast_lexicon: str | None = None

    def __post_init__(self):
        self._check_fields()
        self.active_experts = tuple(self.active_experts)
        self.validate()

    def _check_fields(self) -> None:
        """Reject a value of the wrong type by its key: an int field takes an
        integer, a float field a real number (neither takes a bool), an
        optional field also None, and active_experts a list of names; then
        reject a float that is not finite."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if optional and value is None:
                continue
            if f.name == "active_experts":
                ok = (isinstance(value, (list, tuple))
                      and all(isinstance(name, str) for name in value))
            else:
                ok = (isinstance(value, _FIELD_KINDS[kind])
                      and (kind == "bool" or not isinstance(value, bool)))
            if not ok:
                raise TypeError(f"config key {f.name} must be {f.type}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")

    def validate(self) -> None:
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        for key, low in (("k", 2), ("epochs", 1), ("max_len", 2), ("batch_size", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        for key in ("learning_rate", "hidden_dim", "cnn_filters", "contrast_scale", "epsilon"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("seed", "warmup_steps", "weight_decay"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative, got {getattr(self, key)}")
        for key in ("cue_lexicon", "contrast_lexicon", "embeddings_path"):
            if getattr(self, key) == "":
                raise ValueError(f"{key} must be a file path or null, got an empty string")
        head_experts(self.head, self.active_experts)
        if self.encoder not in ENCODER_MODES:
            raise ValueError(f"encoder must be one of {ENCODER_MODES}, got {self.encoder!r}")
        if self.embeddings_path is not None and self.encoder == "toy":
            raise ValueError('embeddings_path is set but encoder is "toy"; the store is '
                             'read only with encoder="precomputed"')
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        return cls(**d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def architecture(self, vocab_size: int) -> ModelParams:
        """This recipe's model, declared from its settings and holding no
        array yet."""
        return ModelParams(vocab_size, d=self.hidden_dim, max_len=self.max_len,
                           n_filters=self.cnn_filters, contrast_scale=self.contrast_scale,
                           eps=self.epsilon, head=self.head, active_experts=self.active_experts,
                           encoder_mode=self.encoder, freeze_encoder=self.freeze_encoder)

    def build_model(self, vocab_size: int, rng: np.random.Generator) -> ModelParams:
        """This recipe's model, drawn from ``rng``, to train."""
        return self.architecture(vocab_size).draw(rng)


# --- label-smoothed cross entropy ----------------------------------------

def smoothed_targets(gold, alpha: float) -> np.ndarray:
    """(1 - alpha) * onehot(gold) + alpha / 3; B gold labels give (B, 3)
    targets."""
    onehot = np.arange(N_CLASSES) == np.asarray(gold)[..., None]
    return alpha / N_CLASSES + (1.0 - alpha) * onehot


def label_smoothed_ce(logits: np.ndarray, gold: int, alpha: float) -> float:
    """The loss of :func:`label_smoothed_ce_grad`, without its gradient."""
    return label_smoothed_ce_grad(logits, gold, alpha)[0]


def label_smoothed_ce_grad(logits: np.ndarray, gold, alpha: float):
    """Cross entropy against the smoothed target, in logit space so a zero
    softmax never reaches a log, and its gradient softmax(z) - target.  A
    logit vector gives a float loss; (B, 3) logits with B gold labels give
    the B losses and the (B, 3) gradient."""
    log_probs = log_softmax(logits)
    y = smoothed_targets(gold, alpha)
    loss = -(y * log_probs).sum(axis=-1)
    return (float(loss) if log_probs.ndim == 1 else loss), softmax(logits) - y


# --- optimizer -------------------------------------------------------------

# the moment decay rates and the denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over the :class:`~stancemoe.ops.Region` of a
    drawn model's flat buffers that its
    :meth:`~stancemoe.model.ModelParams.trainable_params` returns.

    The two moment estimates and a scratch array are one (3, n) allocation
    over the region, so a step allocates no array of parameter size and
    walks no tensor: it takes the gradients' global norm, writes the
    update into the gradient region in whole-array passes, subtracts it
    from the value region and zeroes the gradients with one fill.  Memory
    of the region that no triple names, such as the CNN stack's padding
    taps, keeps a zero gradient and so its value.  A non-zero
    ``weight_decay`` is applied decoupled from the moment estimates.  The
    step that takes the values' L2 norm from finite to non-finite (a NaN,
    an inf or a value too large to square) raises FloatingPointError
    naming the first such tensor, before any overflow warning could.
    """

    @np.errstate(over="ignore")
    def __init__(self, params: Region, lr: float, weight_decay: float = 0.0):
        if not isinstance(params, Region):
            raise TypeError("Adam steps the region of a model's flat buffers that its "
                            f"trainable_params() returns, not a {type(params).__name__}")
        if params.grads is None:
            raise ValueError("the model keeps no flat gradient buffer: it is forward-only "
                             "(trained, loaded or stacked) or a pickled copy")
        self.params, self._value, self._grad = params, params.values, params.grads
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m, self.v, self._tmp = np.zeros((3, self._value.size))  # one allocation
        self._finite = math.isfinite(self._value @ self._value)  # the values' L2 norm

    @np.errstate(over="ignore", invalid="ignore")  # what overflows is named below
    def step(self, lr_scale: float = 1.0, max_norm: float | None = None) -> float:
        """One update at ``lr_scale`` times the rate, the gradients first scaled
        down to a global L2 norm of ``max_norm`` when over it; returns their norm."""
        value, grad, tmp, m, v = self._value, self._grad, self._tmp, self.m, self.v
        norm = float(np.sqrt(grad @ grad))
        if not math.isfinite(norm):  # a NaN or inf, or finite squares that overflow
            for name, _, g in self.params:
                if not np.isfinite(g).all():
                    raise NonFiniteGradientError(f"non-finite gradient in {name}")
        if max_norm is not None and norm > max_norm:
            grad *= max_norm / norm
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        lr = self.lr * lr_scale
        # in place; each element sees the same operations, in the same order,
        # as m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        # update = lr * m_hat / (sqrt(v_hat) + eps), which ends up in grad
        np.square(grad, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += tmp
        grad *= 1.0 - ADAM_BETA1
        m *= ADAM_BETA1
        m += grad
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, bc1, out=grad)
        grad /= tmp
        grad *= lr
        value -= grad
        if self.weight_decay:
            np.multiply(lr * self.weight_decay, value, out=grad)
            value -= grad
        grad.fill(0.0)
        finite, self._finite = self._finite, math.isfinite(value @ value)
        if finite and not self._finite:
            name = next((n for n, w, _ in self.params if not math.isfinite(np.vdot(w, w))),
                        "the parameters")
            raise FloatingPointError(f"the update made the L2 norm of {name} non-finite")
        return norm


# --- per-fold training ------------------------------------------------------

@dataclass
class FoldArtifact:
    """One trained fold: parameters plus its validation scores."""

    fold_index: int
    params: ModelParams
    val_metrics: MetricsReport
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def val_macro_f1(self) -> float:
        return self.val_metrics.macro_f1


@dataclass
class EnsembleModel:
    """All fold artifacts with their normalized logit-averaging weights.

    Building an ensemble stacks its folds: ``stacked`` is the fold-stacked
    model (:meth:`ModelParams.stack`) that every ensemble prediction runs,
    holding each parameter once as a (K, ...) array, and every fold's
    tensors become views into it, so a write to a fold is seen by the next
    prediction.  The stack and its folds are forward-only and keep no
    gradient buffers.  A fold belongs to one ensemble at a time: building another
    from the same folds re-points them to the new stack.
    """

    folds: list[FoldArtifact]
    weights: np.ndarray
    stacked: ModelParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not self.folds:
            raise ValueError("an ensemble needs at least one fold")
        if self.weights.shape != (len(self.folds),):
            raise ValueError("one weight per fold required")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()
                and self.weights.any()):
            raise ValueError("fold weights must be finite, non-negative and not all "
                             f"zero, got {self.weights.tolist()}")
        self.stacked = ModelParams.stack([art.params for art in self.folds])

    def average(self, per_fold: np.ndarray) -> np.ndarray:
        """The weighted average over the leading fold axis of a (K, ...) array."""
        flat = per_fold.reshape(len(self.weights), -1)
        return (self.weights @ flat).reshape(per_fold.shape[1:])


# padded rows of an encoder-less model's sub-batch, in units of max_len:
# its activations grow linearly in rows.  On the benchmark's precomputed
# training (T 13-128, batch 16, one BLAS thread) run_kfold ran 1.21x as
# fast as under the attention bound alone with 4, 1.11x with 2, 1.12x with 8
ROWS_PER_MAX_LEN = 4


def length_buckets(lengths, max_len: int, folds: int = 1,
                   encoder: bool = True) -> list[np.ndarray]:
    """Split the positions of ``lengths`` into sub-batches for padded stacks.

    Positions are sorted by length (ties keep their input order) and taken
    greedily: a sub-batch grows while the number of folds times its size
    times the square of its longest length stays within max_len ** 2, so
    no (K, B, T, T) attention stack is larger than that of one max_len
    sequence in one model.  A model without an encoder builds no such
    stack, so its sub-batch may also grow while its padded rows, folds
    times size times longest length, stay within ROWS_PER_MAX_LEN *
    max_len; either bound lets it grow, so its sub-batches are never
    smaller than an encoder model's.  Every position is in exactly one
    sub-batch; one over both bounds on its own runs alone.
    """
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    cap, row_cap = max_len * max_len, ROWS_PER_MAX_LEN * max_len
    buckets, start = [], 0
    for i in range(1, len(order) + 1):
        if i < len(order):
            T = int(lengths[order[i]])
            rows = folds * (i - start + 1) * T
            if rows * T <= cap or (not encoder and rows <= row_cap):
                continue  # position i joins the current sub-batch
        buckets.append(order[start:i])
        start = i
    return buckets


def _forward_buckets(params: ModelParams, examples, store=None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Forward a list of examples in length-bucketed sub-batches, whose
    bounds (:func:`length_buckets`) count the folds of a fold-stacked model
    and let a model without an encoder take up to ROWS_PER_MAX_LEN *
    max_len padded rows; returns the logits and gate weights in input
    order, (n, 3) and (n, E) for one model, with a leading fold axis for a
    fold stack.  A non-finite logit raises FloatingPointError naming the
    first example, in input order, that has one."""
    lead = (params.n_folds,) if params.n_folds else ()
    logits = np.empty(lead + (len(examples), N_CLASSES))
    gates = np.empty(lead + (len(examples), len(params.active_experts)))
    lengths = [len(ex.token_ids) for ex in examples]
    for part in length_buckets(lengths, params.max_len, params.n_folds or 1,
                               encoder=params.encoder is not None):
        sub = [examples[i] for i in part]
        out = model_forward(params, sub, store)
        logits[..., part, :] = out.logits
        gates[..., part, :] = out.gate_weights
        del out  # frees this bucket's activations before the next bucket's forward
    _check_logits(logits, examples)
    return logits, gates


def _check_logits(logits: np.ndarray, examples) -> None:
    """Raises FloatingPointError naming the first of the n ``examples``, in
    input order, whose (n, 3) logits, or (K, n, 3) for a fold stack, hold a
    non-finite value."""
    if np.isfinite(logits).all():
        return
    finite = np.isfinite(logits).all(axis=-1)  # (n,), or (K, n)
    bad = examples[int(np.argwhere(~finite)[:, -1].min())].id
    raise FloatingPointError(f"non-finite logits for example {bad!r}")


def predict_logits(params: ModelParams, examples, store=None) -> np.ndarray:
    """Forward a dataset in length-bucketed sub-batches; returns an (n, 3)
    logit matrix in input order, or the (K, n, 3) logits of every fold of a
    fold-stacked model.  Runs at one BLAS thread (:func:`_one_blas_thread`),
    so the logits are the same bytes at any thread count."""
    with _one_blas_thread():
        return _forward_buckets(params, examples, store)[0]


def evaluate_model(params: ModelParams, examples, store=None) -> MetricsReport:
    """Metrics of a single model's argmax predictions on labeled examples.
    Rejects a fold stack, whose folds an ensemble weights."""
    if params.n_folds:
        raise ValueError(f"evaluate_model scores one model, not a stack of {params.n_folds} "
                         f"folds; use evaluate_ensemble on the ensemble")
    logits = predict_logits(params, examples, store)
    preds = logits.argmax(axis=1)
    golds = [ex.label for ex in examples]
    return metrics_from_labels(golds, preds)


def train_fold(config: TrainConfig, train_examples, val_examples, vocab_size: int,
               seed: int, store=None, fold_index: int = 0) -> FoldArtifact:
    """Train one model on the train split and score it on the validation split.

    Mini-batches are drawn from a seeded shuffle each epoch; the last
    partial batch is trained, not dropped.  Each mini-batch runs as
    length-bucketed padded sub-batches (:func:`length_buckets`, with the
    row bound when the model has no encoder) whose gradients add up to the
    mini-batch mean.  Fully deterministic for a fixed seed.  A non-finite
    gradient raises NonFiniteGradientError naming the parameter, and a
    non-finite loss or an update that makes a parameter's L2 norm
    non-finite FloatingPointError naming the first such example or tensor.
    These, and any FloatingPointError or RuntimeWarning raised as an error,
    carry "fold f, epoch e, step s: " or "fold f, validation: " in front.

    The returned model is forward-only, like a loaded fold: the optimizer
    state and the gradient buffers are freed when training ends, before the
    validation pass.
    """
    if not train_examples or not val_examples:
        raise ValueError("train and validation splits must be non-empty")
    rng = np.random.default_rng(seed)
    params = config.build_model(vocab_size, rng)
    adam = Adam(params.trainable_params(), lr=config.learning_rate,
                weight_decay=config.weight_decay)
    lengths = np.array([len(ex.token_ids) for ex in train_examples])
    labels = np.array([ex.label for ex in train_examples])
    step = 0
    epoch_losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_examples))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            step += 1
            batch = order[start : start + config.batch_size]
            inv = 1.0 / len(batch)
            bad = len(train_examples)  # the first example with a non-finite loss
            try:
                for part in length_buckets(lengths[batch], params.max_len,
                                           encoder=params.encoder is not None):
                    rows = batch[part]
                    sub = [train_examples[i] for i in rows]
                    out = model_forward(params, sub, store)
                    losses, dlogits = label_smoothed_ce_grad(
                        out.logits, labels[rows], config.label_smoothing
                    )
                    finite = np.isfinite(losses)
                    if not finite.all():
                        bad = min(bad, rows[~finite].min())
                    model_backward(params, sub, out, dlogits * inv)
                    del out  # frees this record before the next sub-batch's forward
                    epoch_loss += float(losses.sum()) / len(train_examples)
                scale = min(1.0, step / config.warmup_steps) if config.warmup_steps else 1.0
                # clips, updates, and zeroes the gradients for the next batch
                adam.step(lr_scale=scale, max_norm=config.grad_clip)
                if bad < len(train_examples):
                    raise FloatingPointError(
                        f"non-finite loss for example {train_examples[bad].id!r}")
            except (NonFiniteGradientError, FloatingPointError, RuntimeWarning) as err:
                raise type(err)(f"fold {fold_index}, epoch {epoch}, step {step}: {err}") from err
        epoch_losses.append(epoch_loss)
        logger.debug("fold %d epoch %d: mean loss %.4f", fold_index, epoch, epoch_loss)
    del adam  # its moment estimates and flat buffers
    params.drop_grads()

    val_labels = {ex.label for ex in val_examples}
    if len(val_labels) < N_CLASSES:
        logger.warning("fold %d: validation split is missing %d class(es); "
                       "their F1 is 0 by convention",
                       fold_index, N_CLASSES - len(val_labels))
    try:
        val_metrics = evaluate_model(params, val_examples, store)
    except (FloatingPointError, RuntimeWarning) as err:
        raise type(err)(f"fold {fold_index}, validation: {err}") from err
    return FoldArtifact(fold_index=fold_index, params=params,
                        val_metrics=val_metrics, epoch_losses=epoch_losses)


def fold_weights(f1s) -> np.ndarray:
    """Normalize validation macro-F1 scores into ensemble weights.

    All-zero scores fall back to uniform weights.
    """
    f1s = np.asarray(f1s, dtype=np.float64)
    total = f1s.sum()
    if total == 0.0:
        return np.full(len(f1s), 1.0 / len(f1s))
    return f1s / total


# --- K-fold training in forked workers ---------------------------------------

@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS numpy ships
    (``scipy_openblas_..._num_threads64_`` in numpy 2's wheels,
    ``openblas_...64_`` or ``openblas_...`` before), or None; looked up
    once a process."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _one_blas_thread:
    """Pins numpy's OpenBLAS, where found, to one thread, and restores its
    count on exit.  Named and used as a function, like
    ``contextlib.nullcontext``; a class rather than a generator, and it sets
    no count that is already one, as every prediction enters it."""

    __slots__ = ("before",)

    def __enter__(self):
        blas = _openblas()
        self.before = blas[0]() if blas else 1
        if self.before != 1:
            blas[1](1)

    def __exit__(self, *exc):
        if self.before != 1:
            _openblas()[1](self.before)


def _train_share(train, folds) -> dict:
    """{fold: its artifact, or the Exception it raised}, stopping at the
    first failure, as the serial run does."""
    done = {}
    for j in folds:
        try:
            done[j] = train(j)
        except Exception as err:
            done[j] = err
            break
    return done


# CPython 3.12 and later warn, in the parent, when forking a process with
# more than one OS thread; numpy's OpenBLAS keeps idle pool threads
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead"


def _fork_worker(train, folds, workers: list) -> None:
    """Forks a worker that trains ``folds`` and appends its [pipe read end,
    folds, pid] to ``workers``.  The entry is appended before the fork, so
    an exception raised here after the fork loses neither the worker nor
    its pipe; the pid stays None until it is read from the pipe, where the
    worker writes it first (:func:`_worker_pid`), so this process trains
    on without waiting for the worker to start."""
    sys.stdout.flush()  # or the child would write this process's buffered output again
    sys.stderr.flush()
    parent = os.getpid()
    read, write = os.pipe()
    try:
        workers.append([read, folds, None])
        _widen_pipe(write)
        with warnings.catch_warnings():
            # OpenBLAS's own fork handler stops its pool threads first, so the
            # child's BLAS starts consistent; the package starts no thread
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            os.fork()
    finally:
        if os.getpid() != parent:
            _worker(train, folds, write)
        os.close(write)


def _widen_pipe(fd: int) -> None:
    """Enlarges the pipe of ``fd`` to Linux's limit for an unprivileged
    process, so a worker whose pickled share fits writes it all and exits
    while this process still trains; elsewhere, or where the call is
    refused, such a worker waits for the reader."""
    import fcntl

    try:
        with open("/proc/sys/fs/pipe-max-size", "rb") as limit:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, int(limit.read()))
    except (AttributeError, OSError, ValueError):
        pass


def _worker(train, folds, write: int) -> NoReturn:
    """A forked worker: writes its pid, then pickles its share, down the
    pipe.  It always ends in os._exit, so it never returns into the
    parent's frames or runs the parent's exit handlers."""
    status = 1
    try:
        with open(write, "wb") as pipe:
            pipe.write(os.getpid().to_bytes(8, "little"))
            pipe.flush()
            pickle.dump(_train_share(train, folds), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


def _worker_pid(read: int) -> int | None:
    """The pid a worker writes first down its pipe (one atomic write);
    None if it ended before writing it, or was never forked."""
    head = os.read(read, 8)
    return int.from_bytes(head, "little") if head else None


def _train_folds(train, k: int, jobs: int) -> dict:
    """{fold: artifact or Exception} of folds 0..k-1: worker w of jobs - 1
    forked ones trains the folds j with j % jobs == w, and this process
    trains the rest meanwhile.  Every worker is reaped on every path, and
    one still running when this returns or raises is killed first.  A
    worker that ends without sending its share raises RuntimeError naming
    its folds and exit status."""
    workers = []  # [read end, folds, pid] of each worker not yet reaped
    try:
        for w in range(1, jobs):
            _fork_worker(train, range(w, k, jobs), workers)
        done = _train_share(train, range(0, k, jobs))
        while workers:
            fd, folds, _ = workers[0]
            pid = workers[0][2] = _worker_pid(fd)
            try:
                with open(fd, "rb", closefd=False) as pipe:
                    done.update(pickle.load(pipe))  # streamed, one array at a time
            except (EOFError, pickle.UnpicklingError):
                status = (os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                          if pid else "unknown")
                os.close(workers.pop(0)[0])
                raise RuntimeError(f"the worker training folds {list(folds)} exited with "
                                   f"status {status} without sending them") from None
            os.waitpid(pid, 0)
            os.close(workers.pop(0)[0])
        return done
    finally:
        for fd, _, pid in workers:
            pid = pid or _worker_pid(fd)
            os.close(fd)
            if pid:
                os.kill(pid, signal.SIGKILL)  # a no-op for one that has exited
                os.waitpid(pid, 0)


def run_kfold(config: TrainConfig, examples, vocab: Vocab, store=None,
              jobs: int | None = None) -> EnsembleModel:
    """Stratified K-fold training; fold j is seeded with ``seed + j``.

    The folds train in ``jobs`` processes (None: one per usable CPU; at
    most K): this one and forked workers, which inherit the inputs and
    send back only their trained, forward-only folds.  Without os.fork or
    an OpenBLAS thread count to pin, the default is 1.  Throughout, numpy's
    OpenBLAS is pinned to one thread, so the trained bytes depend on
    neither ``jobs`` nor the process's thread count.  A failure raises the
    error of the lowest failing fold, as the serial run does.

    A store's rows are checked and pooled into their statistics once, as
    :class:`~stancemoe.model.PreparedRows`, before any fold trains: an id
    the store lacks, or rows of the wrong width or count, fail here.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    splits = stratified_kfold(examples, config.k, config.seed)
    k = len(splits)
    if jobs is None:
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        jobs = usable if hasattr(os, "fork") and _openblas() is not None else 1
    jobs = min(jobs, k)
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"jobs={jobs} trains folds in forked processes, and this "
                         "platform has no os.fork")
    if jobs > 1 and _openblas() is None:
        blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        logger.warning("cannot pin the thread count of numpy's BLAS (%s): %d fold "
                       "processes share the CPUs at its own count, and the trained "
                       "bytes may depend on it", blas.get("name", "unknown"), jobs)

    def train(j: int) -> FoldArtifact:
        return train_fold(config, [examples[i] for i in splits[j][0]],
                          [examples[i] for i in splits[j][1]], len(vocab),
                          config.seed + j, store, j)

    with _one_blas_thread():
        if store is not None:  # checked and pooled once; every fold worker inherits it
            store = PreparedRows(config.architecture(len(vocab)), examples, store)
        done = _train_folds(train, k, jobs)
    failed = [j for j in sorted(done) if isinstance(done[j], Exception)]
    if failed:
        raise done[failed[0]]
    artifacts = [done[j] for j in range(k)]
    weights = fold_weights([a.val_macro_f1 for a in artifacts])
    return EnsembleModel(folds=artifacts, weights=weights)


# --- ensemble inference -----------------------------------------------------

def ensemble_forward(ensemble: EnsembleModel, examples, store=None):
    """Weighted-logit ensemble prediction for one example or a list.

    The fold-stacked model gives every fold's logits and gate weights in
    one forward pass per example, or per length bucket of a list (the
    buckets of :func:`predict_logits`).  Returns (logits, probs, predicted
    class, weight-averaged gate vector): (3,), (3,), an int and (E,) for
    one example; (n, 3), (n, 3), (n,) and (n, E) for a list of n, where E
    is the number of active experts.  Argmax ties resolve to the lowest
    class index.  A non-finite fold logit raises FloatingPointError naming
    the example (the first in input order, for a list).  Runs at one BLAS
    thread, as :func:`predict_logits` does.
    """
    single = isinstance(examples, TokenizedExample)
    with _one_blas_thread():
        if single:
            out = model_forward(ensemble.stacked, examples, store)
            fold_logits, fold_gates = out.logits, out.gate_weights
            _check_logits(fold_logits[..., None, :], [examples])
        else:
            fold_logits, fold_gates = _forward_buckets(ensemble.stacked, examples, store)
    logits = ensemble.average(fold_logits)
    classes = logits.argmax(axis=-1)
    return (logits, softmax(logits), int(classes) if single else classes,
            ensemble.average(fold_gates))


def evaluate_ensemble(ensemble: EnsembleModel, examples, store=None
                      ) -> tuple[MetricsReport, np.ndarray]:
    """Ensemble metrics over labeled examples, with the (n, 3) logits of
    :func:`ensemble_forward` on the list."""
    logits, _, preds, _ = ensemble_forward(ensemble, examples, store)
    return metrics_from_labels([ex.label for ex in examples], preds), logits


def training_report(ensemble: EnsembleModel, config: TrainConfig, examples,
                    store=None) -> dict:
    """Per-fold validation scores plus ensemble metrics on the training data
    (in-sample; a held-out set sees the ensemble through ``eval``)."""
    folds = [
        {
            "fold": art.fold_index,
            "val_accuracy": art.val_metrics.accuracy,
            "val_macro_f1": art.val_macro_f1,
            "weight": float(w),
        }
        for art, w in zip(ensemble.folds, ensemble.weights)
    ]
    report, _ = evaluate_ensemble(ensemble, examples, store)
    return {
        "config": config.to_dict(),
        "n_examples": len(examples),
        "folds": folds,
        "ensemble": {"split": "train", **report.to_dict()},
    }


# --- gradient verification hook ---------------------------------------------

def head_loss_fn(params: ModelParams, example: TokenizedExample, alpha: float,
                 store=None):
    """Closure for :func:`stancemoe.ops.grad_check` over the full model loss.

    Returns (f, tensors): each call of ``f`` zeroes the gradient buffers,
    runs forward + backward, and returns the scalar loss.
    """
    def f() -> float:
        params.zero_grads()
        out = model_forward(params, example, store)
        loss, dlogits = label_smoothed_ce_grad(out.logits, example.label, alpha)
        model_backward(params, example, out, dlogits)
        return loss

    return f, params.trainable_params()
