"""The three benchmark workloads, their timing loop and correctness gate.

Every workload is one closed-loop caller in one process, repeating one
session until the time is up: load the inputs (timed as set-up), train a
stratified K-fold ensemble with ``run_kfold``, and predict a held-out set
with ``ensemble_forward``, each call issued when the previous returns.
Machine noise on a shared host comes in bursts of a second or more, so
the three stages alternate through the whole run rather than running as
phases, and every metric is a median over many short samples.

What differs between workloads is the input:

* train-short: short planted-token texts and the live toy encoder;
* train-long: the same recipe on texts of 13 to 128 tokens;
* predict-store: a saved precomputed-encoder checkpoint predicting from an
  SMEB1 embedding store; its training stage retrains the checkpoint's
  recipe on the stored embeddings.

The library is always reached through module attributes (``train.run_kfold``
and so on), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import grid
import inputs
import tracing
from stancemoe import checkpoint, encoder, metrics, text, train

# ensemble macro-F1 the held-out predictions must reach
# (chance is 1/3; 30 seeds of each workload all scored above 0.73)
F1_FLOOR = 0.5
MIN_SESSIONS = 3
TRACED_SESSIONS = 3
SAMPLE = 8  # held-out examples re-predicted fold by fold in the cross-check
PROB_TOL = 1e-12
LOGIT_TOL = 1e-10

END_TO_END_UNITS = {
    "train_ex_per_s": "examples/s",
    "predict_ex_per_s": "examples/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "heldout_macro_f1": "ratio",
}

# per-layer metric suffix -> (unit, which direction is better)
_LAYER_KINDS = (
    (".self_ms", "ms", "lower"),
    (".calls", "count", "lower"),
    (".busy_frac", "ratio", "lower"),
    (".recompute_per_backward", "calls/backward", "lower"),
    (".gflop_per_s", "GFLOP/s", "higher"),
    (".mb_per_s", "MB/s", "higher"),
    (".overhead_frac", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    out = []
    for name in tracing.metric_names() + ["trace.overhead_frac"]:
        out += [(name, u, b) for suffix, u, b in _LAYER_KINDS if name.endswith(suffix)]
    return out + [(name, "us", "lower") for name in grid.metric_names()]


@dataclass
class Loaded:
    """Everything a workload reads, after its load calls."""

    config: train.TrainConfig
    train_examples: list
    vocab: text.Vocab
    heldout: list
    store: dict | None = None
    ensemble: train.EnsembleModel | None = None  # the saved model, if any


@dataclass
class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, n_bad: int, what: str) -> None:
        if n_bad:
            self.failed += n_bad
            self.problems.append(f"{n_bad} x {what}")


def setup(workload: str, paths: dict, seed: int) -> Loaded:
    """The load calls a user makes before the first step or prediction."""
    if workload == "predict-store":
        ckpt = checkpoint.load_checkpoint(paths["model"])
        max_len = ckpt.config.max_len
        heldout, _ = text.load_dataset(paths["heldout"], ckpt.lexicon, max_len, vocab=ckpt.vocab)
        train_ex, _ = text.load_dataset(paths["train"], ckpt.lexicon, max_len, vocab=ckpt.vocab)
        store, _ = encoder.read_embedding_store(paths["store"])
        return Loaded(ckpt.config, train_ex, ckpt.vocab, heldout, store, ckpt.ensemble)
    lexicon = text.default_lexicon()
    train_ex, vocab = text.load_dataset(paths["train"], lexicon, inputs.MAX_LEN)
    heldout, _ = text.load_dataset(paths["heldout"], lexicon, inputs.MAX_LEN, vocab=vocab)
    return Loaded(inputs.train_config(workload, seed), train_ex, vocab, heldout)


def kfold_work(config: train.TrainConfig, examples) -> tuple[int, int]:
    """(training examples, optimizer steps) of one run_kfold call."""
    sizes = [len(tr) for tr, _ in text.stratified_kfold(examples, config.k, config.seed)]
    steps = sum(math.ceil(n / config.batch_size) for n in sizes)
    return config.epochs * sum(sizes), config.epochs * steps


def train_once(loaded: Loaded) -> train.EnsembleModel:
    return train.run_kfold(loaded.config, loaded.train_examples, loaded.vocab, loaded.store)


def predict_pass(ensemble: train.EnsembleModel, examples, store=None):
    """Predict every example the way ``stancemoe predict`` does.

    Returns (logits, probs, classes, seconds of each block of
    inputs.CYCLE consecutive predictions).  Every block of long rows holds
    the same mix of lengths, so block times are comparable samples.
    """
    n = len(examples)
    logits, probs = np.empty((n, 3)), np.empty((n, 3))
    classes = np.empty(n, dtype=np.intp)
    block_s = []
    t0 = time.perf_counter()
    for i, ex in enumerate(examples):
        logits[i], probs[i], classes[i], _ = train.ensemble_forward(ensemble, ex, store)
        if (i + 1) % inputs.CYCLE == 0:
            t1 = time.perf_counter()
            block_s.append(t1 - t0)
            t0 = t1
    return logits, probs, classes, block_s


# --- correctness gate -----------------------------------------------------

def bad_predictions(logits: np.ndarray, probs: np.ndarray, classes: np.ndarray) -> int:
    """Rows with a non-finite output, probabilities not summing to 1 within
    1e-12, or a class other than the argmax of the logits."""
    ok = np.isfinite(logits).all(axis=1) & np.isfinite(probs).all(axis=1)
    ok &= np.abs(probs.sum(axis=1) - 1.0) <= PROB_TOL
    ok &= classes == logits.argmax(axis=1)
    return int((~ok).sum())


def bad_folds(ensemble: train.EnsembleModel) -> int:
    """Folds with a non-finite parameter or epoch loss."""
    return sum(
        not (all(np.isfinite(v).all() for _, v, _ in art.params.named_params())
             and np.isfinite(art.epoch_losses).all())
        for art in ensemble.folds)


def sample_mismatches(ensemble: train.EnsembleModel, examples, logits: np.ndarray,
                      store=None) -> int:
    """Rows whose ensemble logits differ from sum_j w_j predict_logits(fold_j)
    by more than 1e-10."""
    ref = sum(w * train.predict_logits(art.params, examples, store)
              for w, art in zip(ensemble.weights, ensemble.folds))
    return int((np.abs(ref - logits) > LOGIT_TOL).any(axis=1).sum())


def macro_f1(examples, classes) -> float:
    return metrics.metrics_from_labels([ex.label for ex in examples], classes).macro_f1


# --- machine-speed calibration ----------------------------------------------
#
# On a shared host the same code runs up to twice as fast or slow for tens
# of seconds at a time, longer than one run.  A fixed loop is timed before
# and after every session, and that session's timings are scaled to the
# speed at which the loop takes CALIBRATION_REFERENCE_S.  When the host is
# busy, dispatch-bound code on tiny vectors slows more than d = 64
# arithmetic, so the loop mixes both, as the workloads do; either half alone
# tracked the workloads worse.  It lives here and not in the package, so a
# change to the package moves the scaled figures exactly as it moves the
# raw ones.

CALIBRATION_REFERENCE_S = 3.3e-3
CALIBRATION_REPEATS = 3


class Calibrator:
    """Times a fixed loop to tell how fast the machine runs right now."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m, self._v = rng.standard_normal((8, 8)), rng.standard_normal(8)
        self._w, self._u = rng.standard_normal((64, 64)), rng.standard_normal(64)
        self._x = rng.standard_normal((16, 64))

    def _loop(self) -> float:
        total, recent = 0.0, {}
        for i in range(300):  # dispatch-bound: tiny vectors and a dict
            y = self._m @ self._v + self._v
            e = np.exp(y - y.max())
            recent[i % 7] = e / e.sum()
            total += float(recent[i % 7][0]) + len(recent)
        for _ in range(50):  # arithmetic on d = 64 rows
            h = np.tanh(self._w @ self._u)
            z = self._x @ self._w.T
            e = np.exp(z - z.max(axis=1, keepdims=True))
            total += float(h @ self._u) + float((e / e.sum(axis=1, keepdims=True)).sum())
            total += float(np.outer(h, self._u)[0, 0])
        return total

    def slowdown(self) -> float:
        """Median loop time over the reference; above 1 when running slow."""
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            self._loop()
            times.append(time.perf_counter() - t0)
        return float(np.median(times)) / CALIBRATION_REFERENCE_S


# --- timing ---------------------------------------------------------------

@dataclass
class Session:
    """One load, train and predict cycle, with the stage timings."""

    setup_s: float
    train_s: float
    loaded: Loaded
    ensemble: train.EnsembleModel  # trained in this session
    predictor: train.EnsembleModel  # the saved model when there is one
    outputs: tuple  # predict_pass result


def session(workload: str, paths: dict, seed: int) -> Session:
    t0 = time.perf_counter()
    loaded = setup(workload, paths, seed)
    t1 = time.perf_counter()
    ensemble = train_once(loaded)
    t2 = time.perf_counter()
    predictor = loaded.ensemble or ensemble
    outputs = predict_pass(predictor, loaded.heldout, loaded.store)
    return Session(t1 - t0, t2 - t1, loaded, ensemble, predictor, outputs)


def gate(s: Session, n_steps: int, reference_logits: np.ndarray, tally: Tally) -> None:
    """Count one session's operations and check its outputs."""
    tally.attempted += n_steps + len(s.loaded.heldout)
    tally.check(bad_folds(s.ensemble), "fold with non-finite parameters or losses")
    check_pass(s.outputs, reference_logits, tally)


def summary(values, raw=None) -> dict:
    """Median and quartiles of values, with the median of the raw values."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "n": len(values),
            "raw_median": float(np.median(values if raw is None else raw))}


def measure(workload: str, paths: dict, seed: int, seconds: float, tally: Tally) -> dict:
    """Untraced run: returns {metric: summary dict} for every end-to-end
    metric.  Each session's timings are scaled by the mean slowdown measured
    just before and just after it."""
    raw = {"setup_s": [], "train_ex_per_s": [], "predict_ex_per_s": []}
    scaled = {name: [] for name in raw}
    slowdowns = []
    reference, f1, n_train = None, None, None
    calibrator = Calibrator()
    before = calibrator.slowdown()
    deadline = time.perf_counter() + seconds
    while len(slowdowns) < MIN_SESSIONS or time.perf_counter() < deadline:
        gc.collect()
        s = session(workload, paths, seed)
        if reference is None:
            n_train, n_steps = kfold_work(s.loaded.config, s.loaded.train_examples)
            reference = s.outputs[0]
            f1 = check_heldout(s.predictor, s.loaded.heldout, s.outputs, s.loaded.store, tally)
        gate(s, n_steps, reference, tally)
        samples = {"setup_s": [s.setup_s], "train_ex_per_s": [n_train / s.train_s],
                   "predict_ex_per_s": [inputs.CYCLE / t for t in s.outputs[3]]}
        del s  # the next session loads afresh, so memory holds one copy
        after = calibrator.slowdown()
        slowdown = (before + after) / 2
        before = after
        slowdowns.append(slowdown)
        for name, values in samples.items():
            raw[name] += values
            factor = 1.0 / slowdown if name == "setup_s" else slowdown
            scaled[name] += [v * factor for v in values]
    out = {name: summary(scaled[name], raw[name]) for name in raw}
    out["peak_rss_mb"] = summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    out["heldout_macro_f1"] = summary([f1])
    out["calibration_slowdown"] = summary(slowdowns)
    return out


def check_pass(outputs, reference_logits: np.ndarray, tally: Tally) -> None:
    """Gate one prediction pass; it must also repeat the first pass exactly."""
    logits, probs, classes, _ = outputs
    tally.check(bad_predictions(logits, probs, classes), "malformed prediction")
    tally.check(int((logits != reference_logits).any(axis=1).sum()),
                "prediction differing from the first pass")


def check_heldout(ensemble, heldout, outputs, store, tally: Tally) -> float:
    """Cross-check a sample fold by fold and gate the held-out macro-F1,
    which is returned."""
    logits, _, classes, _ = outputs
    tally.check(sample_mismatches(ensemble, heldout[:SAMPLE], logits[:SAMPLE], store),
                "ensemble logits off the weighted fold sum")
    f1 = macro_f1(heldout, classes)
    tally.check(int(f1 < F1_FLOOR), f"held-out macro-F1 {f1:.4f} below the floor {F1_FLOOR}")
    return f1


def measure_traced(workload: str, paths: dict, seed: int, untraced_train_ex_per_s: float,
                   tally: Tally, spans_path: str) -> dict:
    """Traced sessions: the per-layer metrics come from the spans of the
    first, the tracing overhead on scaled training throughput from the
    median of all of them."""
    calibrator = Calibrator()
    traced_ex_per_s, out = [], {}
    for i in range(TRACED_SESSIONS):
        tracer = tracing.Tracer()
        before = calibrator.slowdown()
        gc.collect()
        t0 = time.perf_counter()
        with tracer:
            s = session(workload, paths, seed)
        wall_s = time.perf_counter() - t0
        slowdown = (before + calibrator.slowdown()) / 2
        n_train, n_steps = kfold_work(s.loaded.config, s.loaded.train_examples)
        gate(s, n_steps, s.outputs[0], tally)
        traced_ex_per_s.append(n_train / s.train_s * slowdown)
        if i == 0:
            check_heldout(s.predictor, s.loaded.heldout, s.outputs, s.loaded.store, tally)
            tracer.write(spans_path)
            out = tracing.layer_metrics(tracer.spans, wall_s)
        del s, tracer
    out["trace.overhead_frac"] = untraced_train_ex_per_s / float(np.median(traced_ex_per_s)) - 1
    return out
