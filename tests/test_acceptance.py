"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run with -s to see them)."""

import json
import time

import numpy as np
import pytest

import straightline as sl
from conftest import cnn_views, random_example
from stancemoe.ablation import ABLATION_ROWS, ablate
from stancemoe.checkpoint import load_checkpoint
from stancemoe.cli import main as cli_main
from stancemoe.experts import (
    ExpertBank,
    expert_cnn,
    expert_contrast,
    expert_cue,
    expert_max,
    expert_mean,
    expert_selfattn,
)
from stancemoe.head import classify, fuse, gate_forward
from stancemoe.metrics import metrics_from_labels
from stancemoe.model import model_forward
from stancemoe.ops import LinearParams, grad_check
from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import TokenizedExample, load_dataset, stratified_kfold
from stancemoe.train import (
    EnsembleModel,
    TrainConfig,
    ensemble_forward,
    evaluate_model,
    fold_weights,
    head_loss_fn,
    label_smoothed_ce,
    label_smoothed_ce_grad,
    predict_logits,
    smoothed_targets,
    train_fold,
)


@pytest.fixture(scope="module")
def synthetic_split(tmp_path_factory, lexicon):
    """300 training examples plus a disjoint held-out 60, one shared vocab."""
    d = tmp_path_factory.mktemp("accept")
    write_jsonl(d / "train.jsonl", make_synthetic_dataset(300, seed=42, id_prefix="tr"))
    write_jsonl(d / "heldout.jsonl", make_synthetic_dataset(60, seed=43, id_prefix="ho"))
    train_ex, vocab = load_dataset(d / "train.jsonl", lexicon)
    heldout_ex, _ = load_dataset(d / "heldout.jsonl", lexicon, vocab=vocab)
    return train_ex, heldout_ex, vocab


def test_criterion_1_formula_oracle_equivalence():
    """Expert forwards and the gate/fuse/classify chain match straight-line
    formula evaluation on 100 random instances within 1e-10."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(2, 17))
        T = int(rng.integers(1, 13))
        bank = ExpertBank.init(d, n_filters=int(rng.integers(1, 4)),
                               rng=np.random.default_rng(2000 + i))
        gate = LinearParams.init(6, d, rng)
        classifier = LinearParams.init(3, d, rng)
        H = rng.uniform(-2, 2, size=(T, d))
        C = set(int(x) for x in rng.integers(0, T, size=rng.integers(0, T + 1)))
        D = set(int(x) for x in rng.integers(0, T, size=rng.integers(0, T + 1)))

        pairs = [
            (expert_mean(bank, H),
             sl.sl_expert_mean(bank.proj["mean"].weight, bank.proj["mean"].bias, H)),
            (expert_max(bank, H),
             sl.sl_expert_max(bank.proj["max"].weight, bank.proj["max"].bias, H)),
            (expert_selfattn(bank, H),
             sl.sl_expert_selfattn(bank.proj["self_attention"].weight,
                                   bank.proj["self_attention"].bias,
                                   bank.attn_vector, H)),
            (expert_cnn(bank, H)[0],
             sl.sl_expert_cnn(bank.proj["cnn"].weight, bank.proj["cnn"].bias,
                              *cnn_views(bank),
                              bank.cnn_proj.weight, bank.cnn_proj.bias, H)),
            (expert_cue(bank, H, C),
             sl.sl_expert_cue(bank.proj["cue"].weight, bank.proj["cue"].bias,
                              H, C, bank.eps)),
            (expert_contrast(bank, H, D),
             sl.sl_expert_contrast(bank.proj["contrast"].weight,
                                   bank.proj["contrast"].bias,
                                   H, D, bank.contrast_scale, bank.eps)),
        ]
        vectors = [got for got, _ in pairs]
        g = gate_forward(gate, H[0])
        g_sl = sl.sl_gate(gate.weight, gate.bias, H[0])
        fused = fuse(g, vectors)
        fused_sl = sl.sl_fuse(g_sl, [exp for _, exp in pairs])
        logits, probs = classify(classifier, fused)
        logits_sl, probs_sl = sl.sl_classify(classifier.weight, classifier.bias, fused_sl)

        for got, expected in pairs + [(g, g_sl), (fused, fused_sl),
                                      (logits, logits_sl), (probs, probs_sl)]:
            err = float(np.abs(got - expected).max())
            worst = max(worst, err)
            assert err <= 1e-10
    print(f"\nACCEPTANCE 1 PASS: formula-oracle equivalence, max abs err {worst:.2e}")


def test_criterion_2_full_head_gradient_suite():
    """Full-model gradient check (d=8, T=6, all experts, toy encoder trained
    jointly) below 1e-3 relative error in under 30 s."""
    rng = np.random.default_rng(42)
    cfg = TrainConfig(hidden_dim=8, max_len=16)
    params = cfg.build_model(vocab_size=12, rng=rng)
    example = TokenizedExample(
        id="probe", tokens=tuple(f"t{i}" for i in range(6)),
        token_ids=(1, 3, 4, 5, 6, 7),
        cue_positions=frozenset({2, 5}), contrast_positions=frozenset({4}),
        label=1,
    )
    f, tensors = head_loss_fn(params, example, alpha=0.25)
    t0 = time.time()
    report = grad_check(f, tensors)
    elapsed = time.time() - t0
    assert report.max_rel_err < 1e-3, report.worst_param
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: max rel err {report.max_rel_err:.2e} "
          f"(worst {report.worst_param}) in {elapsed:.1f}s")


def test_criterion_3_simplex_invariants():
    """Gate weights and class probabilities stay on the simplex over 1000
    random inputs."""
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 12))
        T = int(rng.integers(1, 10))
        params = TrainConfig(hidden_dim=d, max_len=16).build_model(
            vocab_size=10, rng=np.random.default_rng(5000 + i))
        out = model_forward(params, random_example(rng, 10, T))
        for v in (out.gate_weights, out.probs):
            assert np.all(v >= 0.0)
            dev = abs(float(v.sum()) - 1.0)
            worst_sum = max(worst_sum, dev)
            assert dev <= 1e-9
    print(f"\nACCEPTANCE 3 PASS: simplex invariants, worst |sum-1| {worst_sum:.2e}")


def test_criterion_4_loss_identities():
    """Smoothing-off reduction, uniform-prediction value, and the analytic
    logit gradient all hold at their stated tolerances."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        logits = rng.normal(size=3) * 4
        gold = int(rng.integers(0, 3))
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert abs(label_smoothed_ce(logits, gold, 0.0) - (-np.log(probs[gold]))) <= 1e-12

    for alpha in (0.0, 0.1, 0.25, 0.5, 0.9):
        assert abs(label_smoothed_ce(np.zeros(3), 0, alpha) - np.log(3.0)) <= 1e-9

    worst = 0.0
    h = 1e-6
    for _ in range(100):
        logits = rng.normal(size=3) * 3
        gold = int(rng.integers(0, 3))
        alpha = float(rng.uniform(0, 0.9))
        _, grad = label_smoothed_ce_grad(logits, gold, alpha)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        np.testing.assert_allclose(grad, probs - smoothed_targets(gold, alpha), atol=1e-12)
        for i in range(3):
            zp, zm = logits.copy(), logits.copy()
            zp[i] += h
            zm[i] -= h
            numeric = (label_smoothed_ce(zp, gold, alpha)
                       - label_smoothed_ce(zm, gold, alpha)) / (2 * h)
            rel = abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4
    print(f"\nACCEPTANCE 4 PASS: loss identities, worst grad rel err {worst:.2e}")


def test_criterion_5_overfit_capability(synthetic_split):
    """Standard recipe with 50 epochs and width 64 reaches 99% train accuracy
    and 90% held-out accuracy on the planted-token corpus in under 3 min."""
    train_ex, heldout_ex, vocab = synthetic_split
    cfg = TrainConfig(epochs=50, hidden_dim=64, seed=42)
    t0 = time.time()
    art = train_fold(cfg, train_ex, heldout_ex, len(vocab), seed=cfg.seed)
    elapsed = time.time() - t0
    train_acc = evaluate_model(art.params, train_ex).accuracy
    heldout_acc = art.val_metrics.accuracy
    assert train_acc >= 0.99
    assert heldout_acc >= 0.90
    assert elapsed < 180.0
    print(f"\nACCEPTANCE 5 PASS: train acc {train_acc:.4f}, "
          f"held-out acc {heldout_acc:.4f}, {elapsed:.1f}s")


def test_criterion_6_kfold_and_ensemble_mechanics(corpus90):
    """Stratified fold bookkeeping, equal-weight averaging, and the
    proportional fold-weight formula."""
    examples, vocab = corpus90
    splits = stratified_kfold(examples, k=10, seed=42)
    assert len(splits) == 10
    for _, val_idx in splits:
        labels = [examples[i].label for i in val_idx]
        assert len(val_idx) == 9
        assert all(labels.count(c) == 3 for c in range(3))

    cfg = TrainConfig(max_len=32, batch_size=8, epochs=1, k=3, hidden_dim=10,
                      cnn_filters=2)
    arts = [train_fold(cfg, examples[:60], examples[60:], len(vocab), seed=s)
            for s in (0, 1, 2)]
    equal = EnsembleModel(folds=arts, weights=fold_weights([0.8, 0.8, 0.8]))
    for ex in examples[:10]:
        per_fold = np.array([predict_logits(a.params, [ex])[0] for a in arts])
        logits, _, _ = ensemble_forward(equal, ex)[:3]
        assert np.abs(logits - per_fold.mean(axis=0)).max() <= 1e-12

    w = fold_weights([0.9, 0.6, 0.3])
    assert np.abs(w - np.array([0.5, 1 / 3, 1 / 6])).max() <= 1e-12
    print("\nACCEPTANCE 6 PASS: fold bookkeeping, equal-weight mean, "
          f"weights {np.round(w, 4).tolist()}")


def test_criterion_7_ablation_harness(synthetic_split, tmp_path):
    """The seven-variant study has the published row/column structure, gates
    sized to the active experts, and finishes in under 20 minutes."""
    train_ex, heldout_ex, vocab = synthetic_split
    cfg = TrainConfig(hidden_dim=64, seed=42)  # k=10, epochs=10 defaults
    t0 = time.time()
    results = ablate(cfg, train_ex, vocab, heldout_ex)
    elapsed = time.time() - t0

    assert [r.label for r in results] == [label for label, _ in ABLATION_ROWS]
    assert [r.label for r in results] == [
        "w/o Mean", "w/o Max", "w/o Self-Attention", "w/o CNN",
        "w/o Lexical-cue", "w/o Contrastive", "StanceMoE",
    ]
    for res in results:
        expected_gate = 5 if res.removed is not None else 6
        for art in res.ensemble.folds:
            assert art.params.gate.weight.shape == (expected_gate, 64)
        assert len(res.fold_reports) == cfg.k
        assert set(res.kfold_mean) == {"accuracy", "macro_precision",
                                       "macro_recall", "macro_f1"}
        assert set(res.kfold_std) == set(res.kfold_mean)
        assert all(s >= 0.0 for s in res.kfold_std.values())
        r = res.ensemble_report
        for v in (r.accuracy, r.macro_precision, r.macro_recall, r.macro_f1):
            assert 0.0 <= v <= 1.0
    assert elapsed < 1200.0
    full = results[-1].ensemble_report
    print(f"\nACCEPTANCE 7 PASS: 7 variants in {elapsed:.0f}s, "
          f"full-model ensemble acc {full.accuracy:.4f}")


def test_criterion_8_metrics_oracle():
    """macro_metrics agrees with brute-force counting on 1000 random label
    lists and reproduces the hand-derived 7-example case."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        golds = rng.integers(0, 3, size=n).tolist()
        preds = rng.integers(0, 3, size=n).tolist()
        rep = metrics_from_labels(golds, preds)
        expect = sl.sl_metrics(golds, preds)
        for got, want in [
            (rep.accuracy, expect["accuracy"]),
            (rep.macro_precision, expect["macro_precision"]),
            (rep.macro_recall, expect["macro_recall"]),
            (rep.macro_f1, expect["macro_f1"]),
        ]:
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9
        np.testing.assert_allclose(rep.f1, expect["f1"], atol=1e-9)

    from stancemoe.metrics import macro_metrics
    rep = macro_metrics(np.array([[2, 0, 0], [0, 1, 1], [1, 0, 2]]))
    assert abs(rep.macro_f1 - 32 / 45) <= 1e-12
    assert abs(rep.accuracy - 5 / 7) <= 1e-12
    print(f"\nACCEPTANCE 8 PASS: metrics oracle, worst abs err {worst:.2e}, "
          f"hand case macro-F1 {rep.macro_f1:.4f}")


def test_criterion_9_training_determinism(tmp_path, lexicon):
    """Two complete train commands with seed 42 produce byte-identical
    reports and checkpoints, and bitwise-identical per-fold logits."""
    data = tmp_path / "det.jsonl"
    write_jsonl(data, make_synthetic_dataset(90, seed=9))
    opts = ["--set", "k=3", "--set", "epochs=2", "--set", "hidden_dim=16",
            "--set", "max_len=32", "--set", "seed=42"]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"model_{run}.smck"
        report = tmp_path / f"report_{run}.json"
        rc = cli_main(["train", *opts, "--data", str(data),
                       "--out", str(out), "--report", str(report)])
        assert rc == 0
        outs.append((out, report))

    (out_a, rep_a), (out_b, rep_b) = outs
    assert rep_a.read_bytes() == rep_b.read_bytes()
    assert out_a.read_bytes() == out_b.read_bytes()

    examples, _ = load_dataset(data, lexicon, max_len=32)
    ck_a, ck_b = load_checkpoint(out_a), load_checkpoint(out_b)
    for fold_a, fold_b in zip(ck_a.ensemble.folds, ck_b.ensemble.folds):
        np.testing.assert_array_equal(
            predict_logits(fold_a.params, examples),
            predict_logits(fold_b.params, examples),
        )
    report = json.loads(rep_a.read_text())
    assert report["config"]["seed"] == 42
    print("\nACCEPTANCE 9 PASS: byte-identical reports/checkpoints, "
          "bitwise-identical fold logits")
