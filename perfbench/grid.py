"""Layer grid: forward and backward microseconds per call at d = 64.

Every layer is called through its public forward and backward functions on
seeded random inputs, at sequence lengths T in :data:`LENGTHS`.  Each case
is warmed up, then timed in rounds of enough calls to last about a
millisecond; the reported figure is the median over rounds.
"""

from __future__ import annotations

import time

import numpy as np

from stancemoe import encoder, experts, head, model, train

D = 64
LENGTHS = (8, 64, 128)
VOCAB = 100
ROUNDS = 11
ROUND_S = 1e-3

EXPERTS = ("mean", "max", "selfattn", "cnn", "cue", "contrast")


def _per_call_us(fn) -> float:
    for _ in range(3):
        fn()
    t0 = time.perf_counter()
    fn()
    n = max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-7)))
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        rounds.append((time.perf_counter() - t0) / n)
    return float(np.median(rounds)) * 1e6


def metric_names() -> list[str]:
    names = [f"grid.{layer}.{pas}_us.T{T}"
             for layer in ("encoder",) + tuple(f"expert_{e}" for e in EXPERTS)
             for pas in ("fwd", "bwd") for T in LENGTHS]
    return names + ["grid.head.fwd_us", "grid.head.bwd_us", "grid.loss.us",
                    "grid.adam.step_us"]


def _layer_cases(params: model.ModelParams, rng: np.random.Generator):
    """(layer, T, forward thunk, backward thunk) for every layer and length.
    The thunks read this iteration's inputs, so call them before the next."""
    enc, bank = params.encoder, params.bank
    for T in LENGTHS:
        ids = [1] + [int(i) for i in rng.integers(3, VOCAB, size=T - 1)]
        H = encoder.encode(enc, ids).H
        dH = rng.standard_normal((T, D))
        de = rng.standard_normal(D)
        marked = 1 + rng.permutation(T - 1)
        cue = frozenset(int(i) for i in marked[: max(1, T // 8)])
        contrast = frozenset(int(i) for i in marked[max(1, T // 8): 2 * max(1, T // 8)])
        yield ("encoder", T, lambda: encoder.encode(enc, ids),
               lambda: encoder.encode_backward(enc, ids, dH))
        yield ("expert_mean", T, lambda: experts.expert_mean(bank, H),
               lambda: experts.expert_mean_backward(bank, H, de))
        yield ("expert_max", T, lambda: experts.expert_max(bank, H),
               lambda: experts.expert_max_backward(bank, H, de))
        yield ("expert_selfattn", T, lambda: experts.expert_selfattn(bank, H),
               lambda: experts.expert_selfattn_backward(bank, H, de))
        yield ("expert_cnn", T, lambda: experts.expert_cnn(bank, H),
               lambda: experts.expert_cnn_backward(bank, H, de))
        yield ("expert_cue", T, lambda: experts.expert_cue(bank, H, cue),
               lambda: experts.expert_cue_backward(bank, H, cue, de))
        yield ("expert_contrast", T, lambda: experts.expert_contrast(bank, H, contrast),
               lambda: experts.expert_contrast_backward(bank, H, contrast, de))


def run_grid(seed: int) -> dict[str, float]:
    """Time every layer; returns the ``grid.*`` metrics in microseconds."""
    rng = np.random.default_rng(seed)
    params = model.ModelParams.init(VOCAB, D, max(LENGTHS), rng)
    out = {}
    for layer, T, fwd, bwd in _layer_cases(params, rng):
        out[f"grid.{layer}.fwd_us.T{T}"] = _per_call_us(fwd)
        out[f"grid.{layer}.bwd_us.T{T}"] = _per_call_us(bwd)

    h_cls = rng.standard_normal(D)
    vecs = list(rng.standard_normal((len(experts.EXPERT_NAMES), D)))
    g = head.gate_forward(params.gate, h_cls)
    fused = head.fuse(g, vecs)
    logits, _ = head.classify(params.classifier, fused)
    dlogits = rng.standard_normal(3)

    def head_fwd():
        gate = head.gate_forward(params.gate, h_cls)
        head.classify(params.classifier, head.fuse(gate, vecs))

    def head_bwd():
        dfused = head.classify_backward(params.classifier, fused, dlogits)
        dg, _ = head.fuse_backward(g, vecs, dfused)
        head.gate_backward(params.gate, h_cls, g, dg)

    out["grid.head.fwd_us"] = _per_call_us(head_fwd)
    out["grid.head.bwd_us"] = _per_call_us(head_bwd)
    out["grid.loss.us"] = _per_call_us(lambda: train.label_smoothed_ce_grad(logits, 1, 0.25))
    adam = train.Adam(params.trainable_params(), lr=5e-5)
    out["grid.adam.step_us"] = _per_call_us(adam.step)
    return {name: out[name] for name in metric_names()}
