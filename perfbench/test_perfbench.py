"""Tests of the benchmark's own machinery: inputs, tracing and the gate.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [p for p in (os.path.join(os.path.dirname(HERE), "src"), HERE)
                if p not in sys.path]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stancemoe import encoder, model, ops, synthetic, text  # noqa: E402

TINY = {"train": 15, "heldout": 6}


def _files(directory) -> dict:
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_per_seed(tmp_path, workload):
    runs = {}
    for tag, seed in (("a", 4), ("b", 4), ("c", 5)):
        (tmp_path / tag).mkdir()
        inputs.write_inputs(workload, seed, str(tmp_path / tag), TINY)
        runs[tag] = _files(tmp_path / tag)
    assert runs["a"] == runs["b"]
    assert runs["a"]["train.jsonl"] != runs["c"]["train.jsonl"]
    expected = {"train.jsonl", "heldout.jsonl"}
    if workload == "predict-store":
        expected |= {"store.smeb", "model.smck"}
    assert set(runs["a"]) == expected


def _class_words() -> dict[str, set[str]]:
    """Words that occur in the short synthetic texts of exactly one class."""
    seen: dict[str, set[str]] = {name: set() for name in text.LABEL_NAMES}
    for row in synthetic.make_synthetic_dataset(600, seed=0):
        seen[row["label"]].update(text.tokenize(row["text"])[1:])
    return {label: words - set().union(*(w for other, w in seen.items() if other != label))
            for label, words in seen.items()}


def test_every_long_text_keeps_one_planted_class():
    exclusive = _class_words()
    rows = inputs.long_rows(45, seed=3, prefix="x")
    for i, row in enumerate(rows):
        words = set(text.tokenize(row["text"], max_len=10_000))
        assert row["label"] == text.LABEL_NAMES[i % 3]
        assert words & exclusive[row["label"]], row
        for other, marks in exclusive.items():
            if other != row["label"]:
                assert not words & marks, (row, other)
    lengths = [len(text.tokenize(r["text"], max_len=10_000)) for r in rows]
    assert min(lengths) >= 5 and max(lengths) > 64


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, trace_id=0)


def test_self_times_subtract_direct_children():
    spans = [
        _span("model.model_backward", 0, 100, -1),
        _span("experts.expert_cnn_backward", 10, 40, 0),
        _span("experts.cnn_features", 15, 25, 1),
        _span("encoder.encode_backward", 50, 70, 0),
        _span("encoder.embed_sequence", 52, 56, 3),
        _span("model.model_forward", 100, 130, -1),
        _span("experts.cnn_features", 105, 115, 5),
    ]
    assert tracing.self_times_ns(spans).tolist() == [50, 20, 10, 16, 4, 20, 10]
    m = tracing.layer_metrics(spans, wall_s=130e-9)
    assert m["model.model_backward.self_ms"] == 50e-6
    assert m["experts.cnn_features.self_ms"] == 20e-6
    assert m["experts.cnn_features.calls"] == 2
    # only the two forward calls made under a backward span are recomputes
    assert m["model.recompute_per_backward"] == 2.0
    assert m["experts.busy_frac"] == pytest.approx(40 / 130)


def test_tracer_sees_calls_through_importing_modules_and_restores():
    rng = np.random.default_rng(0)
    params = model.ModelParams.init(20, 8, 16, rng)
    ex = text.TokenizedExample("e", ("[CLS]", "a", "b"), (1, 5, 6), frozenset({1}),
                               frozenset({2}), 0)
    with tracing.Tracer() as tracer:
        out = model.model_forward(params, ex)
        model.model_backward(params, ex, out, np.ones(3))
    names = [s.name for s in tracer.spans]
    assert names.count("encoder.encode") == 1
    assert names.count("encoder.encode_backward") == 1
    assert names.count("experts.cnn_features") == 2
    assert names.count("head.gate_backward") == 1
    assert model.encode_backward is encoder.encode_backward
    assert not hasattr(model.encode, "__wrapped__")


def _valid_outputs(n=5):
    logits = np.random.default_rng(1).standard_normal((n, 3))
    probs = np.array([ops.softmax(z) for z in logits])
    return logits, probs, logits.argmax(axis=1)


def test_gate_rejects_corrupted_probabilities():
    logits, probs, classes = _valid_outputs()
    assert workloads.bad_predictions(logits, probs, classes) == 0
    off = probs.copy()
    off[1, 0] += 1e-9
    assert workloads.bad_predictions(logits, off, classes) == 1
    nan = probs.copy()
    nan[2] = np.nan
    assert workloads.bad_predictions(logits, nan, classes) == 1
    wrong = classes.copy()
    wrong[0] = (wrong[0] + 1) % 3
    assert workloads.bad_predictions(logits, probs, wrong) == 1


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        workloads.per_layer_metrics()
