"""The ablation harness reads every fold's test logits from one prediction
of the fold-stacked model; its reports equal those of each fold alone and
of the ensemble."""

from stancemoe.ablation import ABLATION_ROWS, ablate
from stancemoe.train import TrainConfig, evaluate_ensemble, evaluate_model


def test_reports_equal_per_fold_and_ensemble_evaluation(corpus90):
    examples, vocab = corpus90
    cfg = TrainConfig(k=2, epochs=1, hidden_dim=8, max_len=32, batch_size=8, cnn_filters=2)
    train_ex, test_ex = examples[:60], examples[60:]
    results = ablate(cfg, train_ex, vocab, test_ex)
    assert [r.label for r in results] == [label for label, _ in ABLATION_ROWS]
    for res in results:
        assert len(res.fold_reports) == cfg.k
        for report, art in zip(res.fold_reports, res.ensemble.folds, strict=True):
            assert report.to_dict() == evaluate_model(art.params, test_ex).to_dict()
        want, _ = evaluate_ensemble(res.ensemble, test_ex)
        assert res.ensemble_report.to_dict() == want.to_dict()
