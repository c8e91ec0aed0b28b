"""Command-line entry point: train, predict, eval, ablate, gradcheck."""

from __future__ import annotations

import argparse
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
    add_config_opts(p)
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--report", help="training report path (default: <out>.report.json)")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="processes that train the folds (default: one per usable CPU, "
                        "at most k; 1 is the serial run)")

    p = sub.add_parser("predict", help="ensemble inference over a JSONL file")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="input JSONL (labels optional)")
    p.add_argument("--out", required=True, help="predictions JSONL path")
    p.add_argument("--embeddings", help="SMEB1 store (precomputed-encoder models)")

    p = sub.add_parser("eval", help="metrics of a checkpoint on labeled data")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="labeled JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--embeddings", help="SMEB1 store (precomputed-encoder models)")

    p = sub.add_parser("ablate", help="leave-one-expert-out study (7 retrained variants)")
    add_config_opts(p)
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--test", required=True, help="held-out labeled JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="processes that train the folds (default: one per usable CPU, "
                        "at most k; 1 is the serial run)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model "
                                         "(hidden_dim 8 by default)")
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
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
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
    """Load the SMEB1 store when the encoder mode needs one; check widths."""
    if config.encoder != "precomputed":
        return None
    path = cli_path or config.embeddings_path
    if not path:
        raise ValueError("precomputed encoder mode needs --embeddings or embeddings_path")
    store, d = read_embedding_store(path)
    if d != config.hidden_dim:
        raise ValueError(
            f"embedding store width {d} does not match model hidden_dim {config.hidden_dim}"
        )
    return store


def _write_text(path, text: str, written: list) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
    written.append(path)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_train(args, written: list) -> int:
    config = _resolve_config(args)
    lexicon = _load_lexicon(config)
    examples, vocab = load_dataset(args.data, lexicon, config.max_len)
    store = _load_store(config)
    ensemble = run_kfold(config, examples, vocab, store, jobs=args.jobs)

    tmp = f"{args.out}.tmp"
    checkpoint.save_checkpoint(tmp, ensemble, config, vocab, lexicon)
    os.replace(tmp, args.out)
    written.append(args.out)

    report = training_report(ensemble, config, examples, store)
    report_path = args.report or f"{args.out}.report.json"
    _write_text(report_path, _dump_json(report), written)

    for fold in report["folds"]:
        print(f"fold {fold['fold']}: val_macro_f1={fold['val_macro_f1']:.4f} "
              f"weight={fold['weight']:.4f}")
    print(f"ensemble train accuracy={report['ensemble']['accuracy']:.4f} "
          f"macro_f1={report['ensemble']['macro_f1']:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _gate_dict(ckpt, gate: np.ndarray) -> dict:
    names = ckpt.ensemble.folds[0].params.active_experts
    return {name: float(w) for name, w in zip(names, gate)}


def _cmd_predict(args, written: list) -> int:
    ckpt = checkpoint.load_checkpoint(args.model)
    store = _load_store(ckpt.config, args.embeddings)
    examples, _ = load_dataset(args.data, ckpt.lexicon, ckpt.config.max_len,
                               vocab=ckpt.vocab, require_labels=False)
    _, probs, classes, gates = ensemble_forward(ckpt.ensemble, examples, store)
    lines = [json.dumps({
        "id": ex.id,
        "probs": [float(p) for p in row],
        "class": LABEL_NAMES[cls],
        "gate_weights": _gate_dict(ckpt, gate),
    }, sort_keys=True, allow_nan=False)
        for ex, row, cls, gate in zip(examples, probs, classes, gates)]
    _write_text(args.out, "\n".join(lines) + "\n", written)
    print(f"wrote {len(lines)} predictions to {args.out}")
    return 0


def _cmd_eval(args, written: list) -> int:
    ckpt = checkpoint.load_checkpoint(args.model)
    store = _load_store(ckpt.config, args.embeddings)
    examples, _ = load_dataset(args.data, ckpt.lexicon, ckpt.config.max_len,
                               vocab=ckpt.vocab)
    report, _ = evaluate_ensemble(ckpt.ensemble, examples, store)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "report.json"), _dump_json(report.to_dict()), written)
    _write_text(os.path.join(args.out, "report.txt"), report_text(report), written)
    _write_text(os.path.join(args.out, "confusion.csv"), confusion_csv(report.confusion),
                written)
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    print(f"reports written to {args.out}")
    return 0


def _cmd_ablate(args, written: list) -> int:
    config = _resolve_config(args)
    lexicon = _load_lexicon(config)
    train_examples, vocab = load_dataset(args.data, lexicon, config.max_len)
    test_examples, _ = load_dataset(args.test, lexicon, config.max_len, vocab=vocab)
    store = _load_store(config)
    results = ablation.ablate(config, train_examples, vocab, test_examples, store,
                              jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "ablation.json"),
                _dump_json(ablation.results_to_dict(results)), written)
    classwise = ablation.classwise_table_text(results)
    overall = ablation.overall_table_text(results)
    _write_text(os.path.join(args.out, "classwise.txt"), classwise, written)
    _write_text(os.path.join(args.out, "overall.txt"), overall, written)
    for res in results:
        name = res.label.replace("/", "_").replace(" ", "_").lower()
        _write_text(os.path.join(args.out, f"confusion_{name}.csv"),
                    confusion_csv(res.ensemble_report.confusion), written)
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


def _cmd_gradcheck(args, written: list) -> int:
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


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    written: list[str] = []
    try:
        return _COMMANDS[args.command](args, written)
    except BrokenPipeError:
        raise
    except Exception as exc:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
