import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import stancemoe
from stancemoe import cli, synthetic
from stancemoe.checkpoint import load_checkpoint, save_checkpoint
from stancemoe.cli import main
from stancemoe.encoder import write_embedding_store
from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import LABEL_NAMES, default_lexicon, load_dataset
from stancemoe.train import ensemble_forward, head_loss_fn
from conftest import nan_in_tensor
from smck1_fixtures import FIXTURE_DIR, TEXTS

FAST = ["--set", "k=2", "--set", "epochs=1", "--set", "hidden_dim=10",
        "--set", "max_len=32", "--set", "cnn_filters=2"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    write_jsonl(d / "train.jsonl", make_synthetic_dataset(60, seed=1, id_prefix="tr"))
    write_jsonl(d / "test.jsonl", make_synthetic_dataset(30, seed=2, id_prefix="te"))
    return d


@pytest.fixture(scope="module")
def model_path(data_dir):
    out = data_dir / "model.smck"
    rc = main(["train", *FAST, "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:
    def test_outputs_exist(self, model_path):
        assert model_path.exists()
        report = json.loads((model_path.parent / "model.smck.report.json").read_text())
        assert len(report["folds"]) == 2
        assert {"fold", "val_accuracy", "val_macro_f1", "weight"} <= set(report["folds"][0])
        assert "accuracy" in report["ensemble"]

    def test_bad_label_fails_and_cleans_up(self, data_dir, capsys):
        bad = data_dir / "bad.jsonl"
        bad.write_text('{"id": "x", "text": "hi", "label": "pro_mars"}\n')
        out = data_dir / "never.smck"
        rc = main(["train", *FAST, "--data", str(bad), "--out", str(out)])
        assert rc == 1
        assert "pro_mars" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, data_dir, capsys):
        rc = main(["train", "--set", "warp=9", "--data",
                   str(data_dir / "train.jsonl"), "--out", str(data_dir / "x.smck")])
        assert rc == 1
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("item, key", [("k=3.5", "k"), ("epochs=2.0", "epochs"),
                                           ("learning_rate=abc", "learning_rate"),
                                           ("active_experts=mean", "active_experts")])
    def test_wrong_typed_config_value_names_its_key(self, data_dir, capsys, item, key):
        out = data_dir / "typed.smck"
        rc = main(["train", "--set", item, "--data", str(data_dir / "train.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert f"config key {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("item, key", [("learning_rate=NaN", "learning_rate"),
                                           ("grad_clip=NaN", "grad_clip"),
                                           ("epsilon=Infinity", "epsilon")])
    def test_non_finite_config_value_names_its_key(self, data_dir, capsys, item, key):
        out = data_dir / "non-finite.smck"
        rc = main(["train", "--set", item, "--data", str(data_dir / "train.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content, detail", [(b"not json", "Expecting value"),
                                                 (b'{"k": "\xff"}', "can't decode byte 0xff")],
                             ids=["not-json", "not-utf8"])
    def test_a_bad_config_file_is_named(self, data_dir, capsys, content, detail):
        cfg_path = data_dir / "bad-config.json"
        cfg_path.write_bytes(content)
        rc = main(["train", "--config", str(cfg_path), "--data", str(data_dir / "train.jsonl"),
                   "--out", str(data_dir / "bad-config.smck")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: config is not UTF-8 JSON: ") and detail in err

    @pytest.mark.parametrize("argv, message", [
        (["--config", "{config}"], "{config}: config must be a JSON object"),
        (["--set", "k"], "--set expects KEY=VALUE, got 'k'"),
        (["--set", "encoder=precomputed"],
         "precomputed encoder mode needs --embeddings or embeddings_path"),
    ], ids=["config-not-an-object", "set-without-equals", "precomputed-without-store"])
    def test_a_rejected_setting_is_named(self, data_dir, capsys, argv, message):
        config = data_dir / "list-config.json"
        config.write_text("[1, 2]")
        out = data_dir / "rejected.smck"
        rc = main(["train", *(arg.format(config=config) for arg in argv),
                   "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [f"error: {message.format(config=config)}"]
        assert not out.exists()

    def test_config_file_and_set_precedence(self, data_dir):
        cfg_path = data_dir / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "k": 2, "hidden_dim": 10,
                                        "max_len": 32, "cnn_filters": 2, "seed": 7}))
        out = data_dir / "prec.smck"
        rc = main(["train", "--config", str(cfg_path), "--set", "seed=9",
                   "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 0
        report = json.loads((data_dir / "prec.smck.report.json").read_text())
        assert report["config"]["seed"] == 9
        assert report["config"]["epochs"] == 1


class TestPredict:
    def test_line_count_and_order(self, data_dir, model_path):
        out = data_dir / "preds.jsonl"
        rc = main(["predict", "--model", str(model_path),
                   "--data", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert len(lines) == 30
        assert [l["id"] for l in lines] == [f"te-{i:04d}" for i in range(30)]
        first = lines[0]
        assert set(first) == {"id", "probs", "class", "gate_weights"}
        assert abs(sum(first["probs"]) - 1.0) <= 1e-9
        assert set(first["gate_weights"]) == {
            "mean", "max", "self_attention", "cnn", "cue", "contrast"}
        assert abs(sum(first["gate_weights"].values()) - 1.0) <= 1e-9

    def test_lines_equal_per_example_ensemble_forward(self, data_dir, model_path):
        out = data_dir / "preds-ref.jsonl"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(data_dir / "test.jsonl"), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
        ckpt = load_checkpoint(model_path)
        examples, _ = load_dataset(data_dir / "test.jsonl", ckpt.lexicon,
                                   ckpt.config.max_len, vocab=ckpt.vocab)
        names = ckpt.ensemble.stacked.active_experts
        assert len(lines) == len(examples)
        for line, ex in zip(lines, examples):
            _, probs, cls, gate = ensemble_forward(ckpt.ensemble, ex)
            assert line["id"] == ex.id
            np.testing.assert_allclose(line["probs"], probs, rtol=0, atol=1e-12)
            assert line["class"] == LABEL_NAMES[cls]
            assert list(line["gate_weights"]) == sorted(names)
            np.testing.assert_allclose([line["gate_weights"][n] for n in names], gate,
                                       rtol=0, atol=1e-12)

    def test_empty_input_names_the_file_and_writes_nothing(self, data_dir, model_path,
                                                           capsys):
        empty = data_dir / "empty.jsonl"
        empty.write_text("")
        out = data_dir / "empty-preds.jsonl"
        rc = main(["predict", "--model", str(model_path), "--data", str(empty),
                   "--out", str(out)])
        assert rc == 1
        assert f"{empty}: no examples" in capsys.readouterr().err
        assert not out.exists()

    def test_a_subset_model_names_only_its_experts(self, tmp_path):
        data = tmp_path / "texts.jsonl"
        data.write_text("".join(json.dumps({"id": f"t{i}", "text": text}) + "\n"
                                for i, text in enumerate(TEXTS)))
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--model", str(FIXTURE_DIR / "moe_subset.smck"),
                     "--data", str(data), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
        assert [l["id"] for l in lines] == [f"t{i}" for i in range(len(TEXTS))]
        for line in lines:
            assert set(line["gate_weights"]) == {"mean", "cnn", "contrast"}
            assert abs(sum(line["gate_weights"].values()) - 1.0) <= 1e-9

    def test_unlabeled_input_accepted(self, data_dir, model_path):
        unlabeled = data_dir / "unlabeled.jsonl"
        rows = [{"id": f"u{i}", "text": t} for i, t in
                enumerate(["free palestine", "officials say talks continue"])]
        unlabeled.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = data_dir / "upreds.jsonl"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(unlabeled), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_embeddings_for_a_toy_encoder_checkpoint_fails(self, data_dir, model_path,
                                                           capsys):
        out = data_dir / "toy-store-preds.jsonl"
        rc = main(["predict", "--model", str(model_path), "--embeddings", "bogus.smeb",
                   "--data", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert rc == 1
        assert ("--embeddings is set but the checkpoint's encoder is 'toy', which reads "
                "no store") in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_report_files(self, data_dir, model_path):
        out = data_dir / "evaldir"
        rc = main(["eval", "--model", str(model_path),
                   "--data", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert "Pro-Palestine" in (out / "report.txt").read_text()
        csv = (out / "confusion.csv").read_text().strip().split("\n")
        assert len(csv) == 4
        total = sum(int(v) for line in csv[1:] for v in line.split(",")[1:])
        assert total == 30

    def test_embeddings_for_a_toy_encoder_checkpoint_fails(self, data_dir, model_path,
                                                           capsys):
        out = data_dir / "toy-store-eval"
        rc = main(["eval", "--model", str(model_path), "--embeddings", "/nonexistent",
                   "--data", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert rc == 1
        assert ("--embeddings is set but the checkpoint's encoder is 'toy', which reads "
                "no store") in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def store_setup(data_dir):
    examples, _ = load_dataset(data_dir / "train.jsonl", default_lexicon(), max_len=32)
    rng = np.random.default_rng(0)
    records = [(ex.id, rng.normal(size=(len(ex.token_ids), 10)).astype(np.float32))
               for ex in examples]
    store10 = data_dir / "emb10.smeb"
    write_embedding_store(store10, records)
    wrong = data_dir / "emb4.smeb"
    write_embedding_store(wrong, [(ex_id, H[:, :4]) for ex_id, H in records])
    return store10, wrong


@pytest.fixture(scope="module")
def precomputed_model(data_dir, store_setup):
    """A precomputed-encoder checkpoint whose config names its store."""
    out = data_dir / "pre-named.smck"
    assert main(["train", *FAST, "--set", "encoder=precomputed",
                 "--set", f'embeddings_path="{store_setup[0]}"',
                 "--data", str(data_dir / "train.jsonl"), "--out", str(out)]) == 0
    return out


class TestOutputsMoveIntoPlaceOnSuccess:
    """Every output is written as <path>.tmp and moved onto its path once
    the command has returned: a failed or interrupted command leaves each
    output path as it was and no .tmp file."""

    def test_a_report_that_cannot_be_written_leaves_the_old_checkpoint(
            self, data_dir, model_path, tmp_path, capsys, monkeypatch):
        out = tmp_path / "m.smck"
        out.write_bytes(model_path.read_bytes())
        (tmp_path / "m.smck.report.json").write_text("{}\n")
        nodir = tmp_path / "nodir"
        nodir.mkdir()
        run_kfold = cli.run_kfold

        def train_then_remove_the_report_directory(*args, **kwargs):
            ensemble = run_kfold(*args, **kwargs)
            nodir.rmdir()  # after staging, so the report's write is what fails
            return ensemble

        monkeypatch.setattr(cli, "run_kfold", train_then_remove_the_report_directory)
        rc = main(["train", *FAST, "--set", "seed=5", "--data", str(data_dir / "train.jsonl"),
                   "--out", str(out), "--report", str(nodir / "r.json")])
        assert rc == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert out.read_bytes() == model_path.read_bytes()
        assert (tmp_path / "m.smck.report.json").read_text() == "{}\n"
        assert sorted(os.listdir(tmp_path)) == ["m.smck", "m.smck.report.json"]

    def test_a_report_named_as_the_checkpoint_leaves_the_old_checkpoint(
            self, data_dir, tmp_path, capsys):
        out = tmp_path / "m.smck"
        out.write_bytes(b"old")
        same = f"{tmp_path}/./m.smck"
        rc = main(["train", *FAST, "--data", str(data_dir / "train.jsonl"), "--out", str(out),
                   "--report", same])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            f"error: output path {same} is named twice"]
        assert out.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["m.smck"]

    def test_predict_onto_a_directory_fails_and_leaves_no_tmp_file(
            self, data_dir, model_path, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        rc = main(["predict", "--model", str(model_path), "--data", str(data_dir / "test.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            f"error: output path {out} is a directory"]
        assert os.listdir(tmp_path) == ["outdir"] and os.listdir(out) == []

    def test_an_interrupt_after_the_checkpoint_is_staged_leaves_the_old_one(
            self, data_dir, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "training_report", interrupted)
        out = tmp_path / "m.smck"
        out.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            main(["train", *FAST, "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert out.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["m.smck"]

    def test_a_successful_eval_leaves_its_three_files_only(self, data_dir, model_path,
                                                           tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--model", str(model_path), "--data",
                     str(data_dir / "test.jsonl"), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["confusion.csv", "report.json", "report.txt"]


class TestOutputsAreCheckedBeforeAnyWork:
    """Every command stages all its outputs before it reads an input: an
    output path that cannot be written fails by name before any file is
    loaded, any fold trained or any example predicted, and leaves every path
    as it was, with no .tmp file."""

    @pytest.mark.parametrize("argv, error", [
        (["train", "--data", "in.jsonl", "--out", "outdir"],
         "output path outdir is a directory"),
        (["train", "--data", "in.jsonl", "--out", "m", "--report", "outdir"],
         "output path outdir is a directory"),
        (["train", "--data", "in.jsonl", "--out", "m", "--report", "m"],
         "output path m is named twice"),
        (["predict", "--model", "m.smck", "--data", "in.jsonl", "--out", "outdir"],
         "output path outdir is a directory"),
        (["eval", "--model", "m.smck", "--data", "in.jsonl", "--out", "afile"],
         "output path afile is not a directory"),
        (["eval", "--model", "m.smck", "--data", "in.jsonl", "--out", "outdir"],
         "output path outdir/confusion.csv is a directory"),
        (["ablate", "--data", "in.jsonl", "--test", "in.jsonl", "--out", "afile"],
         "output path afile is not a directory"),
        (["ablate", "--data", "in.jsonl", "--test", "in.jsonl", "--out", "outdir"],
         "output path outdir/confusion_stancemoe.csv is a directory"),
        (["train", "--data", "in.jsonl", "--out", "nodir/m"],
         "output path nodir/m: directory nodir does not exist"),
        (["train", "--data", "in.jsonl", "--out", "m", "--report", "nodir/r.json"],
         "output path nodir/r.json: directory nodir does not exist"),
        (["predict", "--model", "m.smck", "--data", "in.jsonl", "--out", "nodir/p.jsonl"],
         "output path nodir/p.jsonl: directory nodir does not exist"),
        (["train", "--data", "in.jsonl", "--out", ""], "--out is an empty path; name the output"),
        (["predict", "--model", "m.smck", "--data", "in.jsonl", "--out", ""],
         "--out is an empty path; name the output"),
        (["eval", "--model", "m.smck", "--data", "in.jsonl", "--out", ""],
         "--out is an empty path; name the output"),
        (["ablate", "--data", "in.jsonl", "--test", "in.jsonl", "--out", ""],
         "--out is an empty path; name the output"),
    ], ids=["train-out-directory", "train-report-directory", "train-named-twice",
            "predict-out-directory", "eval-out-file", "eval-output-directory",
            "ablate-out-file", "ablate-output-directory", "train-out-missing-directory",
            "train-report-missing-directory", "predict-out-missing-directory",
            "train-out-empty", "predict-out-empty", "eval-out-empty", "ablate-out-empty"])
    def test_a_bad_output_path_fails_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                     argv, error):
        def refuse(name):
            def called(*args, **kwargs):
                pytest.fail(f"{name} ran before the outputs were checked")
            return called

        for module, name in ((cli, "load_dataset"), (cli.checkpoint, "load_checkpoint"),
                             (cli, "run_kfold"), (cli.ablation, "ablate"),
                             (cli, "ensemble_forward"), (cli, "evaluate_ensemble")):
            monkeypatch.setattr(module, name, refuse(name))
        monkeypatch.chdir(tmp_path)
        os.makedirs("outdir/confusion.csv")
        os.makedirs("outdir/confusion_stancemoe.csv")
        (tmp_path / "afile").write_text("old")

        def tree():
            return sorted((root, sorted(dirs), sorted(files))
                          for root, dirs, files in os.walk("."))

        before = tree()
        assert main(argv) == 1
        assert error_lines(capsys.readouterr().err) == [f"error: {error}"]
        assert tree() == before
        assert (tmp_path / "afile").read_text() == "old"


class TestPrecomputedMode:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_an_empty_embeddings_flag_fails_naming_it(self, data_dir, precomputed_model,
                                                      capsys, command):
        """An empty --embeddings is not the config's store."""
        capsys.readouterr()
        out = data_dir / f"empty-flag-{command}"
        rc = main([command, "--model", str(precomputed_model), "--embeddings", "",
                   "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: --embeddings is an empty path; name an SMEB1 store"]
        assert not out.exists()

    def test_train_and_mismatched_predict(self, data_dir, store_setup, capsys):
        store, wrong = store_setup
        out = data_dir / "pre.smck"
        rc = main(["train", *FAST, "--set", "encoder=precomputed",
                   "--set", f'embeddings_path="{store}"',
                   "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        capsys.readouterr()

        preds = data_dir / "pre_preds.jsonl"
        rc = main(["predict", "--model", str(out), "--embeddings", str(wrong),
                   "--data", str(data_dir / "train.jsonl"), "--out", str(preds)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "4" in err and "10" in err
        assert not preds.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_an_id_the_store_lacks_is_named_without_quotes(self, data_dir, precomputed_model,
                                                             capsys, command):
        """The message is printed as it is, not quoted as str() of the
        KeyError quotes it."""
        capsys.readouterr()
        data = data_dir / "missing-id.jsonl"
        write_jsonl(data, [{"id": "nope", "label": "neutral", "text": "talks continue"}])
        out = data_dir / f"missing-id-{command}"
        rc = main([command, "--model", str(precomputed_model), "--data", str(data),
                   "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: id 'nope' not found in the embedding store"]
        assert not out.exists()


class TestNonFiniteInputs:
    """One NaN in a checkpoint or a store fails predict by name, before any
    output is written."""

    def test_checkpoint_with_a_nan(self, data_dir, model_path, capsys):
        bad = data_dir / "nan.smck"
        bad.write_bytes(nan_in_tensor(model_path.read_bytes(), "fold0/classifier/bias"))
        out = data_dir / "nan-preds.jsonl"
        rc = main(["predict", "--model", str(bad), "--data", str(data_dir / "test.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}: tensor 'fold0/classifier/bias' holds a non-finite value" in err
        assert not out.exists()

    def test_store_with_a_nan(self, data_dir, store_setup, capsys):
        store, _ = store_setup
        model = data_dir / "pre-nan.smck"
        assert main(["train", *FAST, "--set", "encoder=precomputed",
                     "--set", f'embeddings_path="{store}"',
                     "--data", str(data_dir / "train.jsonl"), "--out", str(model)]) == 0
        capsys.readouterr()
        bad = data_dir / "nan.smeb"
        # the last value of the last record is the file's last four bytes
        bad.write_bytes(store.read_bytes()[:-4] + np.array(np.nan, "<f4").tobytes())
        out = data_dir / "nan-store-preds.jsonl"
        rc = main(["predict", "--model", str(model), "--embeddings", str(bad),
                   "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}: record 'tr-0059' holds a non-finite value" in err
        assert not out.exists()


def error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("error:")]


# the overflow that makes the logits non-finite warns on its way
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteOutputs:
    """Non-finite values fail by name before any output is written:
    training at the update that overflowed, naming the tensor; predict and
    eval on a checkpoint whose finite values overflow, naming the first
    example."""

    def test_huge_learning_rate_fails_training(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        write_jsonl(data, make_synthetic_dataset(30, seed=3))
        rc = main(["train", "--set", "learning_rate=1e308", "--set", "epochs=1",
                   "--set", "k=2", "--set", "hidden_dim=8",
                   "--data", str(data), "--out", str(tmp_path / "huge-lr.smck")])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: fold 0, epoch 0, step 1: the update made the L2 norm of "
            "encoder/embedding non-finite"]
        assert os.listdir(tmp_path) == ["train.jsonl"]

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_overflowing_checkpoint_fails_by_id(self, tmp_path, model_path, data_dir, capsys,
                                                command):
        ckpt = load_checkpoint(model_path)
        for art in ckpt.ensemble.folds:
            for _, value, _ in art.params.named_params():
                value[...] = 1e308
        model = tmp_path / "overflow.smck"
        save_checkpoint(model, ckpt.ensemble, ckpt.config, ckpt.vocab, ckpt.lexicon)
        out = tmp_path / "out"
        rc = main([command, "--model", str(model), "--data", str(data_dir / "test.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: non-finite logits for example 'te-0000'"]
        assert os.listdir(tmp_path) == ["overflow.smck"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWarningRaisedAsError:
    """With a RuntimeWarning raised as an error, as tier-1 runs, the
    overflow of a huge learning rate fails as it does without: at the
    update that overflowed, naming the tensor, not at a later product."""

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_overflow_names_fold_step_and_tensor(self, tmp_path, capsys, epochs):
        data = tmp_path / "train.jsonl"
        write_jsonl(data, make_synthetic_dataset(30, seed=3))
        rc = main(["train", "--set", "learning_rate=1e308", "--set", f"epochs={epochs}",
                   "--set", "k=2", "--set", "hidden_dim=8",
                   "--data", str(data), "--out", str(tmp_path / "huge-lr.smck")])
        assert rc == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: fold 0, epoch 0, step 1: the update made the L2 norm of "
            "encoder/embedding non-finite"]
        assert os.listdir(tmp_path) == ["train.jsonl"]


class TestGradcheckCommand:
    def test_pass_on_defaults(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "max relative error" in out

    def test_pass_on_precomputed_rows(self, capsys):
        rc = main(["gradcheck", "--set", "encoder=precomputed"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "encoder/" not in out

    def test_an_error_above_the_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-300"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"

    def test_hidden_dim_sets_the_probe_width(self, monkeypatch, capsys):
        widths = []

        def recording(params, *args):
            widths.append(params.d)
            return head_loss_fn(params, *args)

        monkeypatch.setattr(cli, "head_loss_fn", recording)
        assert main(["gradcheck", "--set", "hidden_dim=5"]) == 0
        assert widths == [5]


class TestFlagBounds:
    @pytest.mark.parametrize("argv,flag", [
        (["gradcheck", "--length", "1"], "--length"),
        (["gradcheck", "--length", "0"], "--length"),
        (["ablate", "--data", "d.jsonl", "--test", "t.jsonl", "--out", "o",
          "--jobs", "0"], "--jobs"),
        (["train", "--data", "d.jsonl", "--out", "m.smck", "--jobs", "0"], "--jobs"),
        (["ablate", "--data", "d.jsonl", "--test", "t.jsonl", "--out", "o",
          "--jobs", "-2"], "--jobs"),
    ])
    def test_out_of_range_value_names_its_flag(self, argv, flag, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least" in err
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["gradcheck", "--length", "two"])
        assert "argument --length: invalid int value: 'two'" in capsys.readouterr().err

    def test_smallest_length_runs(self, capsys):
        assert main(["gradcheck", "--length", "2", "--set", "hidden_dim=1"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--tolerance", value])
        assert exc.value.code == 2
        assert (f"argument --tolerance: must be finite and above 0, got {value}"
                in capsys.readouterr().err)

    def test_synthetic_count_must_be_at_least_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            synthetic.main(["--n", "0", "--out", str(tmp_path / "empty.jsonl")])
        assert exc.value.code == 2
        assert "argument --n: must be at least 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"],
                                      ["predict", "--help"], ["ablate", "--help"]])
    def test_help_exits_zero(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestAblateCommand:
    def test_writes_both_tables(self, data_dir):
        out = data_dir / "abl"
        rc = main(["ablate", *FAST, "--data", str(data_dir / "train.jsonl"),
                   "--test", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert rc == 0
        tables = json.loads((out / "ablation.json").read_text())
        labels = [row["method"] for row in tables["classwise"]]
        assert labels == ["w/o Mean", "w/o Max", "w/o Self-Attention", "w/o CNN",
                          "w/o Lexical-cue", "w/o Contrastive", "StanceMoE"]
        assert [row["method"] for row in tables["overall"]] == labels
        for row in tables["overall"]:
            assert set(row["kfold_mean"]) == {"accuracy", "macro_precision",
                                              "macro_recall", "macro_f1"}
            assert set(row["ensemble"]) == set(row["kfold_mean"])
        classwise = (out / "classwise.txt").read_text()
        assert "StanceMoE" in classwise and "Pro-Israel" in classwise
        overall = (out / "overall.txt").read_text()
        assert "±" in overall
        assert (out / "confusion_stancemoe.csv").exists()
        assert (out / "confusion_w_o_mean.csv").exists()


class TestCustomLexicons:
    def test_config_lexicon_paths_drive_masks(self, data_dir):
        cue_path = data_dir / "mycue.txt"
        cue_path.write_text("officials\n")
        contrast_path = data_dir / "mycontrast.txt"
        contrast_path.write_text("talks\n")
        out = data_dir / "lexmodel.smck"
        rc = main(["train", *FAST,
                   "--set", f'cue_lexicon="{cue_path}"',
                   "--set", f'contrast_lexicon="{contrast_path}"',
                   "--data", str(data_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 0
        from stancemoe.checkpoint import load_checkpoint

        ckpt = load_checkpoint(out)
        assert ckpt.lexicon.cue_tokens == {"officials"}
        assert ckpt.lexicon.contrast_tokens == {"talks"}


def run_python(*args):
    """A fresh interpreter that finds this package first on its path."""
    src = os.path.dirname(os.path.dirname(stancemoe.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_synthetic_module_runs_without_warnings(tmp_path):
    """``python -m stancemoe.synthetic`` as README documents it, with any
    RuntimeWarning (such as runpy's module-already-imported warning) an
    error."""
    out = tmp_path / "tiny.jsonl"
    result = run_python("-W", "error::RuntimeWarning", "-m", "stancemoe.synthetic",
                        "--n", "3", "--seed", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert len(out.read_text().splitlines()) == 3


def test_importing_the_cli_loads_no_process_pool():
    """The fold workers are bare forks, so no import of the package loads
    multiprocessing."""
    result = run_python("-c", "import sys, stancemoe.cli; "
                              "print(sorted(m for m in sys.modules if 'multiprocessing' in m))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_forked_folds_log_every_epoch_and_load_no_process_pool(tmp_path):
    """``stancemoe -v train`` at the default ``--jobs`` logs each fold's mean
    loss per epoch, from the workers' inherited handlers too, and never
    imports multiprocessing or concurrent.futures."""
    data, out = tmp_path / "train.jsonl", tmp_path / "model.smck"
    result = run_python("-m", "stancemoe.synthetic", "--n", "60", "--seed", "11",
                        "--out", str(data))
    assert result.returncode == 0, result.stderr
    result = run_python(
        "-c", "import sys; from stancemoe.cli import main; rc = main(sys.argv[1:]); "
              "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
              "'concurrent')))); sys.exit(rc)",
        "-v", "train", "--data", str(data), "--out", str(out), "--set", "k=3",
        "--set", "epochs=2", "--set", "hidden_dim=8")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    logged = set(re.findall(r"fold (\d) epoch (\d): mean loss", result.stderr))
    assert logged == {(str(j), str(e)) for j in range(3) for e in range(2)}
