"""A padded, length-masked batch is the same model as one example at a time."""

import numpy as np
import pytest

from stancemoe import experts, model
from stancemoe.encoder import ToyEncoderParams, encode, encode_backward
from stancemoe.experts import KERNEL_SIZES
from stancemoe.model import ModelParams, model_backward, model_forward
from stancemoe.ops import Padded
from stancemoe.train import Adam, label_smoothed_ce_grad, length_buckets, predict_logits
from conftest import random_example, toy_example

VOCAB, D, MAX_LEN = 20, 6, 16


def mixed_examples(rng):
    """Lengths 2 to 12, so kernel sizes longer than a sequence leave zero CNN
    blocks; one example has an empty cue mask, one an empty contrast mask."""
    examples = [random_example(rng, VOCAB, T) for T in (7, 2, 12, 4, 9, 3)]
    examples.append(toy_example([1, 5, 6, 7, 8], cue=(), contrast=(2, 3), label=1,
                                example_id="no-cue"))
    examples.append(toy_example([1, 9, 10, 11, 12, 13], cue=(4,), contrast=(), label=2,
                                example_id="no-contrast"))
    return examples


def grads(params):
    return {name: grad.copy() for name, _, grad in params.named_params()}


@pytest.mark.parametrize("head,encoder_mode", [("moe", "toy"), ("stacked", "toy"),
                                               ("fusion", "toy"), ("moe", "precomputed")])
def test_batch_gradients_equal_summed_single_example_gradients(head, encoder_mode):
    rng = np.random.default_rng(0)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2, head=head,
                              encoder_mode=encoder_mode)
    examples = mixed_examples(rng)
    stored = ([rng.normal(size=(len(ex.token_ids), D)) for ex in examples]
              if encoder_mode == "precomputed" else None)
    labels = np.array([ex.label for ex in examples])

    params.zero_grads()
    out = model_forward(params, examples, stored)
    _, dlogits = label_smoothed_ce_grad(out.logits, labels, 0.25)
    model_backward(params, examples, out, dlogits)
    batched = grads(params)

    params.zero_grads()
    for i, ex in enumerate(examples):
        one = model_forward(params, ex, None if stored is None else stored[i])
        _, dl = label_smoothed_ce_grad(one.logits, ex.label, 0.25)
        model_backward(params, ex, one, dl)
    summed = grads(params)

    for name, want in summed.items():
        np.testing.assert_allclose(batched[name], want, rtol=1e-10, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("encoder_mode,freeze", [("toy", True), ("precomputed", False)],
                         ids=["frozen", "precomputed"])
def test_no_input_gradient_when_nothing_consumes_it(monkeypatch, encoder_mode, freeze):
    """With no trainable encoder the backward forms no dL/dH, and every
    parameter gradient is bit for bit that of a backward which does."""
    rng = np.random.default_rng(3)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2,
                              encoder_mode=encoder_mode, freeze_encoder=freeze)
    examples = mixed_examples(rng)
    stored = ([rng.normal(size=(len(ex.token_ids), D)) for ex in examples]
              if encoder_mode == "precomputed" else None)
    out = model_forward(params, examples, stored)
    _, dlogits = label_smoothed_ce_grad(out.logits, [ex.label for ex in examples], 0.25)
    real = experts.run_all_experts_backward
    returned = []

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    def forming(*args, **kwargs):
        returned.append(real(*args, **{**kwargs, "input_grad": True}))
        return None

    params.zero_grads()
    monkeypatch.setattr(model, "run_all_experts_backward", spy)
    model_backward(params, examples, out, dlogits)
    skipped = grads(params)
    params.zero_grads()
    monkeypatch.setattr(model, "run_all_experts_backward", forming)
    model_backward(params, examples, out, dlogits)
    formed = grads(params)
    assert returned[0] is None and returned[1].shape == (len(examples), 12, D)
    for name, want in formed.items():
        np.testing.assert_array_equal(skipped[name], want, err_msg=name)


def test_padded_encoder_stack_equals_each_sequence_alone():
    rng = np.random.default_rng(2)
    enc = ToyEncoderParams.init(VOCAB, D, MAX_LEN, rng)
    seqs = [[1] + list(rng.integers(3, VOCAB, size=T - 1)) for T in (5, 1, 9, 3)]
    ids = Padded.stack(seqs, dtype=np.intp)
    H = encode(enc, ids).H
    dH = rng.normal(size=H.shape)  # nonzero on padding rows too
    enc.zero_grads()
    encode_backward(enc, ids, dH)
    batched = {name: grad.copy() for name, _, grad in enc.named_params()}

    enc.zero_grads()
    for b, seq in enumerate(seqs):
        T = len(seq)
        np.testing.assert_allclose(H.data[b, :T], encode(enc, seq).H, rtol=0, atol=1e-12)
        assert not H.data[b, T:].any()
        encode_backward(enc, seq, dH[b, :T])
    for name, _, grad in enc.named_params():
        np.testing.assert_allclose(batched[name], grad, rtol=1e-10, atol=1e-14, err_msg=name)


def test_cnn_padding_taps_stay_zero_through_training_steps():
    rng = np.random.default_rng(3)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2)
    examples = mixed_examples(rng)
    adam = Adam(params.trainable_params(), lr=0.1)
    for _ in range(2):
        out = model_forward(params, examples)
        _, dlogits = label_smoothed_ce_grad(out.logits, [ex.label for ex in examples], 0.25)
        model_backward(params, examples, out, dlogits)
        bank = params.bank
        for i, k in enumerate(KERNEL_SIZES):
            rows = slice(i * bank.n_filters, (i + 1) * bank.n_filters)
            assert not bank.grad_cnn_kernels[k:, rows].any()
        adam.step()
        for i, k in enumerate(KERNEL_SIZES):
            rows = slice(i * bank.n_filters, (i + 1) * bank.n_filters)
            assert not bank.cnn_kernels[k:, rows].any()
            assert bank.kernels[k].base is bank.cnn_kernels


def test_predict_logits_equal_single_example_logits_and_ignore_neighbours():
    rng = np.random.default_rng(1)
    params = ModelParams.init(VOCAB, D, MAX_LEN, rng, n_filters=2)
    examples = mixed_examples(rng)
    logits = predict_logits(params, examples)
    for row, ex in zip(logits, examples):
        np.testing.assert_allclose(row, model_forward(params, ex).logits, rtol=0, atol=1e-12)
    longer = predict_logits(params, examples + [random_example(rng, VOCAB, MAX_LEN)])
    np.testing.assert_allclose(longer[:-1], logits, rtol=0, atol=1e-12)


@pytest.mark.parametrize("max_len", [4, 16, 128])
def test_length_buckets_cover_once_and_respect_the_memory_cap(max_len):
    rng = np.random.default_rng(max_len)
    lengths = rng.integers(1, max_len + 1, size=37)
    for folds in (1, 3, 10):
        buckets = length_buckets(lengths, max_len, folds)
        order = np.concatenate(buckets)
        assert sorted(order.tolist()) == list(range(len(lengths)))
        # shortest first, equal lengths in input order, so scattering each
        # bucket's rows back to its positions restores the input order
        np.testing.assert_array_equal(order, np.argsort(lengths, kind="stable"))
        for bucket in buckets:
            if folds == 1 or len(bucket) > 1:  # one example runs alone, whatever its size
                assert folds * len(bucket) * int(lengths[bucket].max()) ** 2 <= max_len**2
        assert length_buckets([], max_len, folds) == []
