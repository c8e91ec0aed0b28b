"""Differential property tests of prediction: over generated ragged lists,
on the toy encoder and on a store of precomputed rows, the length-bucketed
list path equals the per-example path, and the fold-stacked ensemble equals
the weighted sum of its folds' own predictions.  Runs are derandomized, so
every run draws the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stancemoe.metrics import metrics_from_labels
from stancemoe.model import ModelParams, model_forward
from stancemoe.train import EnsembleModel, FoldArtifact, ensemble_forward, predict_logits
from conftest import random_example

VOCAB, D, MAX_LEN = 20, 6, 16
REPORT = metrics_from_labels([0, 1, 2], [0, 1, 2])

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def ensembles_and_lists(draw):
    """A K-fold ensemble on the toy encoder or a store, a ragged list of
    examples with T from 1 to MAX_LEN, and the store of their rows (None on
    the toy encoder)."""
    mode = draw(st.sampled_from(["toy", "precomputed"]))
    K = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, MAX_LEN), min_size=1, max_size=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    folds = [FoldArtifact(j, ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2,
                                              encoder_mode=mode), REPORT)
             for j in range(K)]
    ensemble = EnsembleModel(folds=folds, weights=rng.uniform(0.2, 1.0, size=K))
    examples = [random_example(rng, VOCAB, T, example_id=f"ex{i}")
                for i, T in enumerate(lengths)]
    store = None
    if mode == "precomputed":
        store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    return ensemble, examples, store


@PROPERTY
@given(ensembles_and_lists())
def test_list_path_equals_per_example_path(case):
    ensemble, examples, store = case
    params = ensemble.folds[0].params
    listed = predict_logits(params, examples, store)
    stacked = ensemble_forward(ensemble, examples, store)
    for i, ex in enumerate(examples):
        np.testing.assert_allclose(listed[i], model_forward(params, ex, store).logits,
                                   rtol=0, atol=1e-12)
        logits, _, _, gate = ensemble_forward(ensemble, ex, store)
        np.testing.assert_allclose(stacked[0][i], logits, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked[3][i], gate, rtol=0, atol=1e-12)


@PROPERTY
@given(ensembles_and_lists())
def test_fold_stack_equals_weighted_sum_of_fold_predictions(case):
    ensemble, examples, store = case
    want = sum(w * predict_logits(art.params, examples, store)
               for w, art in zip(ensemble.weights, ensemble.folds))
    np.testing.assert_allclose(ensemble_forward(ensemble, examples, store)[0], want,
                               rtol=0, atol=1e-12)
