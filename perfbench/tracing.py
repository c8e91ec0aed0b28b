"""In-memory span tracing of the stancemoe layers, from outside the package.

:class:`Tracer` wraps the public functions listed in :data:`TRACED` and
records one span per call: name, start, end, parent span and trace id.
Each wrapper is installed under every name a caller looks it up by.  The
modules import each other by name (``from .encoder import encode``), so
patching only the defining module would miss calls made through the
importing module's own binding.

:func:`layer_metrics` turns the spans into the per-layer metrics: self
time per function, call counts, busy fraction per module, recompute
counts and computed throughput.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from stancemoe import checkpoint, encoder, experts, head, metrics, model, text, train


def _encode_flops(params, token_ids) -> int:
    """Q, K and V projections plus the two T x T attention products."""
    T, d = len(token_ids), params.d
    return 6 * T * d * d + 4 * T * T * d


def _cnn_flops(bank, H) -> int:
    """Valid convolutions for every kernel size, then the two projections."""
    T, d, n_f = H.shape[0], bank.d, bank.n_filters
    conv = sum(2 * (T - k + 1) * k * d * n_f for k in experts.KERNEL_SIZES if T >= k)
    return conv + 2 * d * len(experts.KERNEL_SIZES) * n_f + 2 * d * d


def _file_bytes(path) -> int:
    return os.path.getsize(path)


# (function, work counter or None): the work counter sees the call's
# arguments and returns the computed FLOPs or bytes the call handles
TRACED = (
    (text.load_dataset, None),
    (encoder.encode, _encode_flops),
    (encoder.encode_backward, None),
    (encoder.embed_sequence, None),
    (encoder.read_embedding_store, _file_bytes),
    (experts.expert_mean, None),
    (experts.expert_max, None),
    (experts.expert_selfattn, None),
    (experts.expert_cnn, _cnn_flops),
    (experts.expert_cue, None),
    (experts.expert_contrast, None),
    (experts.cnn_features, None),
    (experts.expert_mean_backward, None),
    (experts.expert_max_backward, None),
    (experts.expert_selfattn_backward, None),
    (experts.expert_cnn_backward, None),
    (experts.expert_cue_backward, None),
    (experts.expert_contrast_backward, None),
    (head.gate_forward, None),
    (head.gate_backward, None),
    (head.fuse, None),
    (head.fuse_backward, None),
    (head.classify, None),
    (head.classify_backward, None),
    (model.model_forward, None),
    (model.model_backward, None),
    (train.label_smoothed_ce_grad, None),
    (train.Adam.step, None),
    (train.train_fold, None),
    (train.predict_logits, None),
    (train.ensemble_forward, None),
    (checkpoint.load_checkpoint, None),
    (metrics.metrics_from_labels, None),
)


def span_name(fn) -> str:
    """``<module>.<qualname>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


SELF_MS = tuple(span_name(fn) for fn, _ in TRACED)
CALLS = ("model.model_forward", "model.model_backward", "experts.cnn_features",
         "encoder.embed_sequence", "train.Adam.step", "train.ensemble_forward")
MODULES = ("text", "encoder", "experts", "head", "model", "train", "checkpoint")
# a step or a prediction ends when one of these spans closes
TRACE_ENDS = ("train.Adam.step", "train.ensemble_forward")
# forward layers whose call under a backward span is a recomputation
RECOMPUTED = ("experts.cnn_features", "encoder.embed_sequence")


def metric_names() -> list[str]:
    """Names of the span-derived per-layer metrics, in report order."""
    names = [f"{n}.self_ms" for n in SELF_MS]
    names += [f"{n}.calls" for n in CALLS]
    names += [f"{m}.busy_frac" for m in MODULES]
    names += ["model.recompute_per_backward", "encoder.encode.gflop_per_s",
              "experts.expert_cnn.gflop_per_s", "encoder.read_embedding_store.mb_per_s"]
    return names


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at the root
    trace_id: int
    work: int = 0  # computed FLOPs or bytes, 0 when not counted


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trace_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, work):
        name = span_name(fn)
        ends_trace = name in TRACE_ENDS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = work(*args, **kwargs) if work is not None else 0
            span = Span(name, 0, 0, stack[-1] if stack else -1, self._trace_id, amount)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if ends_trace:
                    self._trace_id += 1

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        package = [m for n, m in sys.modules.items()
                   if n == "stancemoe" or n.startswith("stancemoe.")]
        for fn, work in TRACED:
            wrapper = self._wrap(fn, work)
            owner_name, _, attr = fn.__qualname__.rpartition(".")
            if owner_name:  # a method: patch the class every caller shares
                owner = getattr(sys.modules[fn.__module__], owner_name)
                self._patch(owner, attr, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": s.name, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, "parent": s.parent,
                                     "trace_id": s.trace_id, "work": s.work}) + "\n")


def self_times_ns(spans: list[Span]) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans nest (one thread), so the children of a span cover disjoint
    parts of it and their durations add up.
    """
    dur = np.array([s.end_ns - s.start_ns for s in spans], dtype=np.int64)
    own = dur.copy()
    for i, s in enumerate(spans):
        if s.parent >= 0:
            own[s.parent] -= dur[i]
    return own


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run that took wall_s seconds."""
    own = self_times_ns(spans)
    self_ns = dict.fromkeys(SELF_MS, 0)
    calls = dict.fromkeys(SELF_MS, 0)
    incl_ns = dict.fromkeys(SELF_MS, 0)
    work = dict.fromkeys(SELF_MS, 0)
    under_backward = np.zeros(len(spans), dtype=bool)
    recomputed = 0
    for i, s in enumerate(spans):
        self_ns[s.name] += int(own[i])
        calls[s.name] += 1
        incl_ns[s.name] += s.end_ns - s.start_ns
        work[s.name] += s.work
        if s.parent >= 0:
            p = spans[s.parent]
            under_backward[i] = under_backward[s.parent] or p.name.endswith("_backward")
        if s.name in RECOMPUTED and under_backward[i]:
            recomputed += 1

    def rate(amount, ns, scale):
        return amount / scale / (ns / 1e9) if ns else 0.0

    out = {f"{n}.self_ms": self_ns[n] / 1e6 for n in SELF_MS}
    out.update({f"{n}.calls": calls[n] for n in CALLS})
    for m in MODULES:
        ns = sum(v for n, v in self_ns.items() if n.split(".", 1)[0] == m)
        out[f"{m}.busy_frac"] = ns / 1e9 / wall_s
    backward_calls = calls["model.model_backward"]
    out["model.recompute_per_backward"] = recomputed / backward_calls if backward_calls else 0.0
    # encode's self time holds all its FLOPs (embed_sequence only gathers);
    # expert_cnn's convolutions run in its cnn_features child, so the CNN
    # rate is taken over the whole expert_cnn span
    out["encoder.encode.gflop_per_s"] = rate(
        work["encoder.encode"], self_ns["encoder.encode"], 1e9)
    out["experts.expert_cnn.gflop_per_s"] = rate(
        work["experts.expert_cnn"], incl_ns["experts.expert_cnn"], 1e9)
    out["encoder.read_embedding_store.mb_per_s"] = rate(
        work["encoder.read_embedding_store"], self_ns["encoder.read_embedding_store"], 1e6)
    return out
