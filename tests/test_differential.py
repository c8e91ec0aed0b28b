"""Differential property tests of prediction and training: over generated
ragged lists, on the toy encoder and on a store of precomputed rows, under
all three heads and any active-expert subset of the moe head, the
length-bucketed list path equals the per-example path, the fold-stacked
ensemble equals the weighted sum of its folds' own predictions, the
gradients of one list equal the summed gradients of its examples, and the
forward of texts marked by random cue and contrast lexicons equals the
straight-line oracle.  Runs are derandomized, so every run draws the same
cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import straightline as sl
from stancemoe.encoder import encode
from stancemoe.experts import EXPERT_NAMES
from stancemoe.metrics import metrics_from_labels
from stancemoe.model import ModelParams, PreparedRows, model_backward, model_forward
from stancemoe.text import CueLexicon, Vocab, make_example
from stancemoe.train import (EnsembleModel, FoldArtifact, ensemble_forward,
                             label_smoothed_ce_grad, predict_logits)
from conftest import cnn_views, random_example, toy_example

VOCAB, D, MAX_LEN = 20, 6, 16
REPORT = metrics_from_labels([0, 1, 2], [0, 1, 2])

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def ensembles_and_lists(draw):
    """A K-fold ensemble on the toy encoder or a store, with any head (the
    moe head with any active experts), a ragged list of examples with T
    from 1 to MAX_LEN, and the store of their rows (None on the toy
    encoder)."""
    mode = draw(st.sampled_from(["toy", "precomputed"]))
    head = draw(st.sampled_from(["moe", "stacked", "fusion"]))
    active = EXPERT_NAMES
    if head == "moe":
        active = draw(st.lists(st.sampled_from(EXPERT_NAMES), min_size=1, unique=True))
    K = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, MAX_LEN), min_size=1, max_size=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    folds = [FoldArtifact(j, ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, head=head,
                                              active_experts=active, encoder_mode=mode),
                          REPORT)
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


@st.composite
def models_and_marked_lists(draw):
    """One model on the toy encoder (trainable or frozen) or a store, with
    any head (the moe head with any active experts), and a ragged list of
    examples with T from 1 to MAX_LEN whose cue and contrast sets are drawn
    at random, empty sets included, with the store of their rows."""
    mode = draw(st.sampled_from(["toy", "frozen", "precomputed"]))
    head = draw(st.sampled_from(["moe", "stacked", "fusion"]))
    active = EXPERT_NAMES
    if head == "moe":
        active = draw(st.lists(st.sampled_from(EXPERT_NAMES), min_size=1, unique=True))
    lengths = draw(st.lists(st.integers(1, MAX_LEN), min_size=1, max_size=12))
    # how often a position is marked: never, sometimes or always
    cue_rate, contrast_rate = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]),
                                            min_size=2, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, head=head,
                              active_experts=active,
                              encoder_mode="precomputed" if mode == "precomputed" else "toy",
                              freeze_encoder=mode == "frozen")
    examples = [toy_example([1] + list(rng.integers(3, VOCAB, size=T - 1)),
                            cue=np.flatnonzero(rng.random(T) < cue_rate).tolist(),
                            contrast=np.flatnonzero(rng.random(T) < contrast_rate).tolist(),
                            label=int(rng.integers(0, 3)), example_id=f"ex{i}")
                for i, T in enumerate(lengths)]
    store = None
    if mode == "precomputed":
        store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
    return params, examples, store


def _gradients(params, examples, store):
    """The parameter gradients of the label-smoothed loss of ``examples``,
    one example or a list."""
    params.zero_grads()
    out = model_forward(params, examples, store)
    labels = (examples.label if not isinstance(examples, list)
              else np.array([ex.label for ex in examples]))
    _, dlogits = label_smoothed_ce_grad(out.logits, labels, 0.25)
    model_backward(params, examples, out, dlogits)
    return {name: grad.copy() for name, _, grad in params.trainable_params()}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(models_and_marked_lists())
def test_list_gradients_equal_summed_per_example_gradients(case):
    params, examples, store = case
    listed = _gradients(params, examples, store)
    summed = _gradients(params, examples[0], store)
    for ex in examples[1:]:
        for name, grad in _gradients(params, ex, store).items():
            summed[name] += grad
    for name, want in summed.items():
        np.testing.assert_allclose(listed[name], want, rtol=1e-10, atol=1e-14, err_msg=name)


WORDS = tuple(f"w{i}" for i in range(12))  # with the reserved ids, within VOCAB


@st.composite
def marked_texts(draw):
    """One model or a K-fold stack, on the toy encoder or a store (a plain
    one, or its rows prepared once as a run prepares them), with any head
    (the moe head with any active experts); random cue and contrast
    lexicons over a small word list; and a ragged list of examples that
    ``make_example`` builds from random texts of those words, with the
    store of their rows."""
    mode = draw(st.sampled_from(["toy", "plain", "prepared"]))
    head = draw(st.sampled_from(["moe", "stacked", "fusion"]))
    active = EXPERT_NAMES
    if head == "moe":
        active = draw(st.lists(st.sampled_from(EXPERT_NAMES), min_size=1, unique=True))
    K = draw(st.integers(0, 3))  # 0: one model, not a stack
    lexicon = CueLexicon(*[draw(st.frozensets(st.sampled_from(WORDS), min_size=1, max_size=6))
                           for _ in range(2)])
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=MAX_LEN - 1),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = Vocab()
    examples = [make_example(f"ex{i}", " ".join(words), int(rng.integers(0, 3)), lexicon,
                             MAX_LEN, vocab, grow_vocab=True)
                for i, words in enumerate(texts)]
    models = [ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, head=head,
                               active_experts=active,
                               encoder_mode="toy" if mode == "toy" else "precomputed")
              for _ in range(max(K, 1))]
    params = ModelParams.stack(models) if K else models[0]
    store = None
    if mode != "toy":
        store = {ex.id: rng.normal(size=(len(ex.token_ids), D)) for ex in examples}
        if mode == "prepared":
            store = PreparedRows(params, examples, store)
    return params, models, examples, store


def straight_line_logits(params: ModelParams, ex, H: np.ndarray) -> np.ndarray:
    """The logits of one model on one example with rows H, by the formulas."""
    bank = params.bank

    def proj(name):
        return bank.proj[name].weight, bank.proj[name].bias

    experts = {
        "mean": lambda: sl.sl_expert_mean(*proj("mean"), H),
        "max": lambda: sl.sl_expert_max(*proj("max"), H),
        "self_attention": lambda: sl.sl_expert_selfattn(*proj("self_attention"),
                                                        bank.attn_vector, H),
        "cnn": lambda: sl.sl_expert_cnn(*proj("cnn"), *cnn_views(bank),
                                        bank.cnn_proj.weight, bank.cnn_proj.bias, H),
        "cue": lambda: sl.sl_expert_cue(*proj("cue"), H, ex.cue_positions, bank.eps),
        "contrast": lambda: sl.sl_expert_contrast(*proj("contrast"), H, ex.contrast_positions,
                                                  bank.contrast_scale, bank.eps),
    }
    vectors = [experts[name]() for name in params.active_experts]
    if params.head == "moe":
        fused = sl.sl_fuse(sl.sl_gate(params.gate.weight, params.gate.bias, H[0]), vectors)
    elif params.head == "stacked":
        fused = sl.sl_fuse(np.ones(len(vectors)), vectors)
    else:
        fused = sl.sl_affine(params.fusion_proj.weight, params.fusion_proj.bias,
                             np.concatenate(vectors))
    return sl.sl_classify(params.classifier.weight, params.classifier.bias, fused)[0]


@PROPERTY
@given(marked_texts())
def test_forward_of_lexicon_marked_texts_equals_the_straight_line_oracle(case):
    params, models, examples, store = case
    want = np.array([[straight_line_logits(
        m, ex, encode(m.encoder, ex.token_ids).H if m.encoder else store_rows(store, ex))
        for ex in examples] for m in models])  # (K, n, 3)
    if not params.n_folds:
        want = want[0]
    listed = model_forward(params, examples, store).logits
    np.testing.assert_allclose(listed, want, rtol=0, atol=1e-10)
    for i, ex in enumerate(examples):
        np.testing.assert_allclose(model_forward(params, ex, store).logits, want[..., i, :],
                                   rtol=0, atol=1e-10)


def store_rows(store, ex) -> np.ndarray:
    """An example's rows from a plain store or prepared rows."""
    if isinstance(store, PreparedRows):
        return store.rows[store.position[ex.id]]
    return store[ex.id]
