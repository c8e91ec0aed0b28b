"""Command-line entry point: train, predict, eval, ablate, gradcheck."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import ablation, checkpoint
from .encoder import read_embedding_store
from .ops import grad_check
from .metrics import confusion_csv, report_text
from .text import (
    CueLexicon,
    LABEL_NAMES,
    TokenizedExample,
    default_lexicon,
    load_dataset,
    read_lexicon_file,
)
from .train import (
    TrainConfig,
    ensemble_forward,
    evaluate_ensemble,
    head_loss_fn,
    run_kfold,
    training_report,
)

logger = logging.getLogger(__name__)


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``; argparse names the
    flag in the error it prints for a rejected value."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" for non-integers
    return parse


def _positive_float(text: str) -> float:
    """An argparse type for finite floats above 0."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse's "invalid float value" for non-numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancemoe",
        description="Mixture-of-experts stance classifier: training, inference, "
                    "evaluation, ablation, and gradient verification.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p):
        p.add_argument("--config", help="JSON config file (defaults apply otherwise)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (JSON-parsed value); repeatable")

    p = sub.add_parser("train", help="K-fold training + F1-weighted ensembling")
    p.set_defaults(run=_cmd_train)
    add_config_opts(p)
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--report", help="training report path (default: <out>.report.json)")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="processes that train the folds (default: one per usable CPU, "
                        "at most k; 1 is the serial run)")

    p = sub.add_parser("predict", help="ensemble inference over a JSONL file")
    p.set_defaults(run=_cmd_predict)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="input JSONL (labels optional)")
    p.add_argument("--out", required=True, help="predictions JSONL path")
    p.add_argument("--embeddings", help="SMEB1 store (precomputed-encoder models)")

    p = sub.add_parser("eval", help="metrics of a checkpoint on labeled data")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="labeled JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--embeddings", help="SMEB1 store (precomputed-encoder models)")

    p = sub.add_parser("ablate", help="leave-one-expert-out study (7 retrained variants)")
    p.set_defaults(run=_cmd_ablate)
    add_config_opts(p)
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--test", required=True, help="held-out labeled JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="processes that train the folds (default: one per usable CPU, "
                        "at most k; 1 is the serial run)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model "
                                         "(hidden_dim 8 by default)")
    p.set_defaults(run=_cmd_gradcheck)
    add_config_opts(p)
    p.add_argument("--length", type=_int_at_least(2), default=6,
                   help="probe sequence length, CLS included")
    p.add_argument("--tolerance", type=_positive_float, default=1e-3,
                   help="max allowed relative error")
    return parser


def _resolve_config(args, **defaults) -> TrainConfig:
    """TrainConfig from a command's ``defaults``, then --config, then each --set."""
    raw: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8-sig") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
                raise ValueError(f"{args.config}: config is not UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for item in getattr(args, "overrides", []):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return TrainConfig.from_dict({**defaults, **raw})


def _load_lexicon(config: TrainConfig) -> CueLexicon:
    base = default_lexicon()
    cue = (read_lexicon_file(config.cue_lexicon)
           if config.cue_lexicon else base.cue_tokens)
    contrast = (read_lexicon_file(config.contrast_lexicon)
                if config.contrast_lexicon else base.contrast_tokens)
    return CueLexicon(cue_tokens=cue, contrast_tokens=contrast)


def _load_store(config: TrainConfig, cli_path=None):
    """Load the SMEB1 store when the encoder mode needs one (the model checks
    its width).  ``cli_path``, the --embeddings flag, overrides the config's."""
    if cli_path == "":
        raise ValueError("--embeddings is an empty path; name an SMEB1 store")
    if config.encoder != "precomputed":
        if cli_path is not None:
            raise ValueError(f"--embeddings is set but the checkpoint's encoder is "
                             f"{config.encoder!r}, which reads no store")
        return None
    path = config.embeddings_path if cli_path is None else cli_path
    if not path:
        raise ValueError("precomputed encoder mode needs --embeddings or embeddings_path")
    return read_embedding_store(path)[0]


def _stage(path, staged: list, made: bool = False) -> str:
    """The path ``<path>.tmp`` to write the output ``path`` to: :func:`main`
    moves every staged file into place once the command has returned, and
    removes any that is left.  Every command stages all its outputs before
    it reads an input.  Rejects a directory, which no file replaces, a path
    whose parent exists but is not a directory, or does not exist and is not
    ``made`` by the command, and a path staged already, whose first output
    the second would replace.  A command writes and removes only files it
    made, so it also rejects a path whose ``.tmp`` exists already, and a
    path that is another output's ``.tmp`` or whose ``.tmp`` is another
    output."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path} is a directory")
    parent = os.path.dirname(path)
    if os.path.exists(parent) and not os.path.isdir(parent):
        raise NotADirectoryError(f"output path {parent} is not a directory")
    if not (made or os.path.isdir(parent or os.curdir)):
        raise FileNotFoundError(f"output path {path}: directory {parent} does not exist")
    tmp = f"{path}.tmp"
    if os.path.lexists(tmp):
        raise FileExistsError(f"output path {path}: its staging file {tmp} exists already")
    real, real_tmp = os.path.realpath(path), os.path.realpath(tmp)
    for other in staged:
        if real == os.path.realpath(other):
            raise ValueError(f"output path {path} is named twice")
        if real == os.path.realpath(f"{other}.tmp"):
            raise ValueError(f"output path {path} is the staging file of output path {other}")
        if real_tmp == os.path.realpath(other):
            raise ValueError(f"the staging file {tmp} of output path {path} "
                             f"is output path {other}")
    staged.append(path)
    return tmp


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_train(args, staged: list) -> int:
    out = _stage(args.out, staged)
    report_out = _stage(args.report or f"{args.out}.report.json", staged)
    config = _resolve_config(args)
    lexicon = _load_lexicon(config)
    examples, vocab = load_dataset(args.data, lexicon, config.max_len)
    store = _load_store(config)
    ensemble = run_kfold(config, examples, vocab, store, jobs=args.jobs)

    checkpoint.save_checkpoint(out, ensemble, config, vocab, lexicon)
    report = training_report(ensemble, config, examples, store)
    _write_text(report_out, _dump_json(report))

    for fold in report["folds"]:
        print(f"fold {fold['fold']}: val_macro_f1={fold['val_macro_f1']:.4f} "
              f"weight={fold['weight']:.4f}")
    print(f"ensemble train accuracy={report['ensemble']['accuracy']:.4f} "
          f"macro_f1={report['ensemble']['macro_f1']:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_predict(args, staged: list) -> int:
    out = _stage(args.out, staged)
    ckpt = checkpoint.load_checkpoint(args.model)
    store = _load_store(ckpt.config, args.embeddings)
    examples, _ = load_dataset(args.data, ckpt.lexicon, ckpt.config.max_len,
                               vocab=ckpt.vocab, require_labels=False)
    _, probs, classes, gates = ensemble_forward(ckpt.ensemble, examples, store)
    names = ckpt.ensemble.stacked.active_experts
    lines = [json.dumps({
        "id": ex.id,
        "probs": [float(p) for p in row],
        "class": LABEL_NAMES[cls],
        "gate_weights": {name: float(w) for name, w in zip(names, gate)},
    }, sort_keys=True, allow_nan=False)
        for ex, row, cls, gate in zip(examples, probs, classes, gates)]
    _write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} predictions to {args.out}")
    return 0


def _cmd_eval(args, staged: list) -> int:
    json_out, text_out, csv_out = [_stage(os.path.join(args.out, name), staged, made=True)
                                   for name in ("report.json", "report.txt", "confusion.csv")]
    ckpt = checkpoint.load_checkpoint(args.model)
    store = _load_store(ckpt.config, args.embeddings)
    examples, _ = load_dataset(args.data, ckpt.lexicon, ckpt.config.max_len,
                               vocab=ckpt.vocab)
    report, _ = evaluate_ensemble(ckpt.ensemble, examples, store)
    os.makedirs(args.out, exist_ok=True)
    _write_text(json_out, _dump_json(report.to_dict()))
    _write_text(text_out, report_text(report))
    _write_text(csv_out, confusion_csv(report.confusion))
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    print(f"reports written to {args.out}")
    return 0


def _cmd_ablate(args, staged: list) -> int:
    outs = [_stage(os.path.join(args.out, name), staged, made=True) for name in (
        "ablation.json", "classwise.txt", "overall.txt",
        *(f"confusion_{label.replace('/', '_').replace(' ', '_').lower()}.csv"
          for label, _ in ablation.ABLATION_ROWS))]
    config = _resolve_config(args)
    lexicon = _load_lexicon(config)
    train_examples, vocab = load_dataset(args.data, lexicon, config.max_len)
    test_examples, _ = load_dataset(args.test, lexicon, config.max_len, vocab=vocab)
    store = _load_store(config)
    results = ablation.ablate(config, train_examples, vocab, test_examples, store,
                              jobs=args.jobs)
    classwise = ablation.classwise_table_text(results)
    overall = ablation.overall_table_text(results)
    texts = [_dump_json(ablation.results_to_dict(results)), classwise, overall,
             *(confusion_csv(res.ensemble_report.confusion) for res in results)]
    os.makedirs(args.out, exist_ok=True)
    for path, text in zip(outs, texts, strict=True):
        _write_text(path, text)
    print(classwise)
    print(overall)
    print(f"reports written to {args.out}")
    return 0


def _gradcheck_example(T: int, vocab_size: int, rng) -> TokenizedExample:
    """A synthetic labeled example with non-empty cue and contrast masks."""
    ids = [1] + [int(rng.integers(3, vocab_size)) for _ in range(T - 1)]
    tokens = ["[CLS]"] + [f"tok{i}" for i in ids[1:]]
    positions = rng.permutation(np.arange(1, T))
    return TokenizedExample(
        id="probe",
        tokens=tuple(tokens),
        token_ids=tuple(ids),
        cue_positions=frozenset({int(positions[0])}),
        contrast_positions=frozenset({int(positions[1])} if T > 2 else set()),
        label=int(rng.integers(0, 3)),
    )


def _cmd_gradcheck(args, staged: list) -> int:
    config = _resolve_config(args, hidden_dim=8)  # a small probe model
    rng = np.random.default_rng(config.seed)
    vocab_size = 16
    example = _gradcheck_example(args.length, vocab_size, rng)
    params = dataclasses.replace(
        config, max_len=max(config.max_len, args.length)).build_model(vocab_size, rng)
    store = None if params.encoder else {example.id: rng.normal(size=(args.length, params.d))}
    f, tensors = head_loss_fn(params, example, config.label_smoothing, store)
    report = grad_check(f, tensors)
    for name, err in sorted(report.per_param.items()):
        print(f"  {name:<40} max rel err {err:.3e}")
    print(f"max relative error {report.max_rel_err:.3e} (worst: {report.worst_param})")
    if report.passed(args.tolerance):
        print("PASS")
        return 0
    print("FAIL")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    staged: list[str] = []  # outputs written as <path>.tmp, moved into place on success
    try:
        if getattr(args, "out", None) == "":
            raise ValueError("--out is an empty path; name the output")
        status = args.run(args, staged)
        for path in staged:
            os.replace(f"{path}.tmp", path)
        return status
    except BrokenPipeError:
        raise
    except Exception as exc:
        # str() of a KeyError quotes its message; the message is shown bare
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        for path in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")


if __name__ == "__main__":
    raise SystemExit(main())
