import dataclasses
import json

import numpy as np
import pytest

import straightline as sl
from stancemoe.metrics import (
    MetricsReport,
    confusion,
    confusion_csv,
    macro_metrics,
    metrics_from_labels,
    report_text,
)


class TestConfusion:
    def test_perfect_predictions(self):
        np.testing.assert_array_equal(confusion([0, 1, 2], [0, 1, 2]), np.eye(3, dtype=int))

    def test_empty_input(self):
        np.testing.assert_array_equal(confusion([], []), np.zeros((3, 3), dtype=int))

    def test_direct_count(self):
        cm = confusion([0, 0, 1], [0, 1, 1])
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])


class TestMacroMetrics:
    def test_perfect_diagonal(self):
        rep = macro_metrics(np.diag([3, 4, 5]))
        assert rep.accuracy == 1.0
        np.testing.assert_array_equal(rep.f1, np.ones(3))
        assert rep.macro_f1 == 1.0

    def test_hand_derived_seven_example_case(self):
        cm = np.array([[2, 0, 0], [0, 1, 1], [1, 0, 2]])
        rep = macro_metrics(cm)
        np.testing.assert_allclose(rep.f1, [0.8, 2 / 3, 2 / 3], atol=1e-12)
        assert abs(rep.macro_f1 - 32 / 45) <= 1e-12  # 0.7111...
        assert abs(rep.accuracy - 5 / 7) <= 1e-12

    def test_absent_class_zero_convention(self):
        # class 2 never appears as gold or prediction
        cm = confusion([0, 0, 1], [0, 1, 1])
        rep = macro_metrics(cm)
        assert rep.precision[2] == rep.recall[2] == rep.f1[2] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            macro_metrics(np.zeros((3, 3), dtype=int))

    def test_degenerate_all_one_class_predictor(self):
        golds = [0] * 10 + [1] * 10 + [2] * 10
        preds = [0] * 30
        rep = metrics_from_labels(golds, preds)
        assert abs(rep.accuracy - 1 / 3) <= 1e-12
        assert abs(rep.f1[0] - 0.5) <= 1e-12
        assert abs(rep.macro_f1 - 1 / 6) <= 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            golds = rng.integers(0, 3, size=n).tolist()
            preds = rng.integers(0, 3, size=n).tolist()
            rep = metrics_from_labels(golds, preds)
            expect = sl.sl_metrics(golds, preds)
            assert abs(rep.accuracy - expect["accuracy"]) <= 1e-9
            np.testing.assert_allclose(rep.precision, expect["precision"], atol=1e-9)
            np.testing.assert_allclose(rep.recall, expect["recall"], atol=1e-9)
            np.testing.assert_allclose(rep.f1, expect["f1"], atol=1e-9)
            assert abs(rep.macro_f1 - expect["macro_f1"]) <= 1e-9

    def test_relabeling_permutation_invariance(self):
        rng = np.random.default_rng(1)
        golds = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        base = metrics_from_labels(golds, preds).macro_f1
        for perm in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
            mapped = np.array(perm)
            rep = metrics_from_labels(mapped[golds], mapped[preds])
            assert abs(rep.macro_f1 - base) <= 1e-12

    def test_accuracy_equals_recount_from_lists(self):
        rng = np.random.default_rng(2)
        golds = rng.integers(0, 3, size=40)
        preds = rng.integers(0, 3, size=40)
        rep = metrics_from_labels(golds, preds)
        assert rep.accuracy == np.mean(golds == preds)
        assert rep.confusion.sum() == 40


class TestSerialization:
    def test_dict_roundtrip(self):
        rng = np.random.default_rng(3)
        rep = metrics_from_labels(rng.integers(0, 3, 30), rng.integers(0, 3, 30))
        # a checkpoint stores to_dict() as JSON and rebuilds a fold's report
        # from its confusion alone
        back = macro_metrics(json.loads(json.dumps(rep.to_dict()))["confusion"])
        for f in dataclasses.fields(MetricsReport):
            np.testing.assert_array_equal(getattr(back, f.name), getattr(rep, f.name))

    def test_text_and_csv_renderings(self):
        rep = metrics_from_labels([0, 1, 2, 2], [0, 1, 2, 1])
        text = report_text(rep)
        assert "Pro-Palestine" in text and "Accuracy" in text
        csv = confusion_csv(rep.confusion)
        lines = csv.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("gold\\pred")
        assert lines[3].split(",")[1:] == ["0", "1", "1"]
