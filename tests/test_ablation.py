"""The ablation harness reads every fold's test logits from one prediction
of the fold-stacked model; its reports equal those of each fold alone and
of the ensemble."""

import json
import os

import pytest

from stancemoe.ablation import ABLATION_ROWS, ablate, results_to_dict
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


def test_a_head_other_than_moe_is_rejected(corpus90):
    examples, vocab = corpus90
    with pytest.raises(ValueError, match="^ablation requires the moe head$"):
        ablate(TrainConfig(head="stacked"), examples[:60], vocab, examples[60:])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_the_results_are_the_same_at_any_jobs(corpus90):
    """Each variant's folds trained serially and in a forked worker give the
    same tables and bit-identical fold parameters."""
    examples, vocab = corpus90
    cfg = TrainConfig(k=2, epochs=1, hidden_dim=8, max_len=32, batch_size=8, cnn_filters=2)
    serial, forked = (ablate(cfg, examples[:60], vocab, examples[60:], jobs=jobs)
                      for jobs in (1, 2))
    assert (json.dumps(results_to_dict(serial), sort_keys=True)
            == json.dumps(results_to_dict(forked), sort_keys=True))
    for one, two in zip(serial, forked, strict=True):
        for fold_one, fold_two in zip(one.ensemble.folds, two.ensemble.folds, strict=True):
            pairs = zip(fold_one.params.named_params(), fold_two.params.named_params(),
                        strict=True)
            for (path, value, _), (path_two, value_two, _) in pairs:
                assert (path, value.shape, value.tobytes()) == (
                    path_two, value_two.shape, value_two.tobytes()), (one.label, path)
