"""Peak memory of the default K = 10 recipe, under tracemalloc: training
keeps at most one fold's optimizer state and gradient buffers alive, in
this process whether or not workers train some folds, and loading its
checkpoint holds about one copy of the parameters."""

import tracemalloc

import numpy as np
import pytest

from stancemoe.checkpoint import load_checkpoint, save_checkpoint
from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import load_dataset
from stancemoe.train import TrainConfig, run_kfold

CONFIG = TrainConfig(k=10, epochs=1, learning_rate=3e-3, seed=5, hidden_dim=64)


def traced_peak(fn):
    """fn's result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def k10(tmp_path_factory, lexicon):
    """(examples, vocab, ensemble, peak bytes of its serial run_kfold) of 300
    synthetic texts."""
    path = tmp_path_factory.mktemp("k10") / "train.jsonl"
    write_jsonl(path, make_synthetic_dataset(300, 11))
    examples, vocab = load_dataset(path, lexicon)
    ensemble, peak = traced_peak(lambda: run_kfold(CONFIG, examples, vocab, jobs=1))
    return examples, vocab, ensemble, peak


def test_run_kfold_peak_stays_under_25_models(k10):
    """The finished folds are forward-only and one fold trains at a time,
    with its gradients and three Adam buffers: about K + 5 models'
    parameters plus one sub-batch's activations live at the peak (18.2 at
    d = 64)."""
    _, vocab, _, peak = k10
    model = CONFIG.build_model(len(vocab), np.random.default_rng(0))
    param_bytes = sum(value.nbytes for _, value, _ in model.named_params())
    assert peak < 25 * param_bytes, peak / param_bytes


def test_forked_training_peaks_no_higher_in_this_process(k10):
    """With a worker training half the folds, this process trains the other
    half and reads the worker's folds from its pipe one array at a time, so
    its own peak stays at or under the serial one."""
    examples, vocab, _, serial_peak = k10
    _, peak = traced_peak(lambda: run_kfold(CONFIG, examples, vocab, jobs=2))
    assert peak <= serial_peak, peak / serial_peak


def test_load_checkpoint_peak_stays_under_175_percent_of_the_file(k10, tmp_path, lexicon):
    """Each fold is built forward-only and filled from records read one at
    a time, so the file's values, the folds and the stack are never all
    held at once (1.3x here)."""
    _, vocab, ensemble, _ = k10
    path = tmp_path / "model.smck"
    save_checkpoint(path, ensemble, CONFIG, vocab, lexicon)
    loaded, peak = traced_peak(lambda: load_checkpoint(path))
    assert len(loaded.ensemble.folds) == 10
    assert peak < 1.75 * path.stat().st_size, peak / path.stat().st_size
