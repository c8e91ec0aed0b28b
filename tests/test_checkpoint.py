import numpy as np
import pytest

from stancemoe.checkpoint import (
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from stancemoe.train import TrainConfig, evaluate_ensemble, run_kfold


@pytest.fixture(scope="module")
def trained(corpus90, lexicon):
    examples, vocab = corpus90
    cfg = TrainConfig(max_len=32, batch_size=8, epochs=1, k=2, hidden_dim=10,
                      cnn_filters=2)
    ensemble = run_kfold(cfg, examples, vocab)
    return examples, vocab, cfg, ensemble


class TestRoundtrip:
    def test_everything_survives(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        ckpt = load_checkpoint(path)

        assert ckpt.config == cfg
        assert ckpt.vocab.tokens == vocab.tokens
        assert ckpt.lexicon.cue_tokens == lexicon.cue_tokens
        assert ckpt.lexicon.contrast_tokens == lexicon.contrast_tokens
        np.testing.assert_array_equal(ckpt.ensemble.weights, ensemble.weights)

        for orig, loaded in zip(ensemble.folds, ckpt.ensemble.folds):
            assert loaded.val_macro_f1 == orig.val_macro_f1
            for (name_a, val_a, _), (name_b, val_b, _) in zip(
                orig.params.named_params(), loaded.params.named_params()
            ):
                assert name_a == name_b
                np.testing.assert_array_equal(val_a, val_b)

    def test_predictions_identical_after_reload(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        ckpt = load_checkpoint(path)
        _, logits_a = evaluate_ensemble(ensemble, examples[:20])
        _, logits_b = evaluate_ensemble(ckpt.ensemble, examples[:20])
        np.testing.assert_array_equal(logits_a, logits_b)

    def test_save_is_deterministic(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        p1, p2 = tmp_path / "a.smck", tmp_path / "b.smck"
        save_checkpoint(p1, ensemble, cfg, vocab, lexicon)
        save_checkpoint(p2, ensemble, cfg, vocab, lexicon)
        assert p1.read_bytes() == p2.read_bytes()


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.smck"
        path.write_bytes(b"WRONG!\0\0\0\0\0")
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.7)])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_unknown_format_version(self, trained, lexicon, tmp_path):
        examples, vocab, cfg, ensemble = trained
        path = tmp_path / "model.smck"
        save_checkpoint(path, ensemble, cfg, vocab, lexicon)
        raw = path.read_bytes()
        assert raw.count(b'"format": 1') == 1
        path.write_bytes(raw.replace(b'"format": 1', b'"format": 7'))
        with pytest.raises(CheckpointFormatError, match="format 7"):
            load_checkpoint(path)
