"""Seeded workload inputs for the stancemoe benchmark.

Every file a workload reads is generated here from the workload name and
one integer seed, so the same seed always gives the same bytes.  Run as a
script it writes the files for one workload into a directory:

    python3 perfbench/inputs.py --workload train-long --seed 7 --out DIR

The benchmark runs this in a child process, so the generator's own memory
and time never count against the workload process.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from stancemoe import checkpoint, encoder, synthetic, text, train  # noqa: E402

WORKLOADS = ("train-short", "train-long", "predict-store")

D = 64  # model width of the default recipe
MAX_LEN = 128
MIN_PARTS, MAX_PARTS = 2, 16  # synthetic texts joined into one long text
# long rows repeat their (class, part count) pattern every CYCLE rows
CYCLE = 3 * (MAX_PARTS - MIN_PARTS + 1)

# corpus sizes; class counts are fixed by size alone, so every seed gives
# the same K-fold split sizes and therefore the same operation counts
SIZES = {
    "train-short": {"train": 90, "heldout": 270},
    "train-long": {"train": 45, "heldout": 90},
    "predict-store": {"train": 45, "heldout": 900},
}

# training recipe per workload: the default d, batch, experts and head,
# with K and epochs cut so one K-fold run takes under half a second, and a
# learning rate raised so that short run still separates the classes
RECIPES = {
    "train-short": {"k": 3, "epochs": 2, "learning_rate": 3e-3},
    "train-long": {"k": 3, "epochs": 2, "learning_rate": 3e-3},
    "predict-store": {"k": 3, "epochs": 2, "learning_rate": 1e-2, "encoder": "precomputed"},
}


def sub_seed(seed: int, stream: int) -> int:
    """An independent 32-bit seed for one named stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def train_config(workload: str, seed: int) -> train.TrainConfig:
    return train.TrainConfig(seed=seed, hidden_dim=D, max_len=MAX_LEN, **RECIPES[workload])


def long_rows(n: int, seed: int, prefix: str) -> list[dict]:
    """n rows, each joining 2 to 16 synthetic texts of a single class.

    Row i has class i % 3 and joins 2 + (i // 3) % 15 texts, so the length
    mix is the same for every seed and only the words change.
    """
    parts = [MIN_PARTS + (i // 3) % (MAX_PARTS - MIN_PARTS + 1) for i in range(n)]
    need = max(sum(parts[c::3]) for c in range(3))
    by_label: dict[str, list[str]] = {name: [] for name in text.LABEL_NAMES}
    for row in synthetic.make_synthetic_dataset(3 * need, seed):
        by_label[row["label"]].append(row["text"])
    rows = []
    for i, m in enumerate(parts):
        label = text.LABEL_NAMES[i % 3]
        pool = by_label[label]
        rows.append({"id": f"{prefix}-{i:04d}", "text": " ".join(pool[:m]), "label": label})
        del pool[:m]
    return rows


def input_paths(workload: str, out_dir: str) -> dict:
    """The files a workload reads, by role."""
    names = {"train": "train.jsonl", "heldout": "heldout.jsonl"}
    if workload == "predict-store":
        names.update(store="store.smeb", model="model.smck")
    return {role: os.path.join(out_dir, name) for role, name in names.items()}


def write_inputs(workload: str, seed: int, out_dir: str, sizes: dict | None = None) -> dict:
    """Write one workload's input files into out_dir; returns their paths.
    ``sizes`` overrides the corpus sizes, for quick tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    sizes = sizes or SIZES[workload]
    make_rows = synthetic.make_synthetic_dataset if workload == "train-short" else long_rows
    paths = input_paths(workload, out_dir)
    synthetic.write_jsonl(paths["train"], make_rows(sizes["train"], sub_seed(seed, 1), "tr"))
    synthetic.write_jsonl(paths["heldout"], make_rows(sizes["heldout"], sub_seed(seed, 2), "ho"))
    if workload == "predict-store":
        _write_store_and_checkpoint(workload, seed, paths)
    return paths


def _write_store_and_checkpoint(workload: str, seed: int, paths: dict) -> None:
    """Encode both corpora with a seeded random toy encoder into an SMEB1
    store, then train and save a precomputed-encoder K-fold checkpoint."""
    lexicon = text.default_lexicon()
    train_ex, vocab = text.load_dataset(paths["train"], lexicon, MAX_LEN)
    heldout_ex, _ = text.load_dataset(paths["heldout"], lexicon, MAX_LEN, vocab=vocab)
    enc = encoder.ToyEncoderParams.init(len(vocab), D, MAX_LEN,
                                        np.random.default_rng(sub_seed(seed, 3)))
    encoder.write_embedding_store(
        paths["store"], ((ex.id, encoder.encode(enc, ex.token_ids).H)
                         for ex in train_ex + heldout_ex))
    store, _ = encoder.read_embedding_store(paths["store"])
    config = train_config(workload, seed)
    ensemble = train.run_kfold(config, train_ex, vocab, store)
    checkpoint.save_checkpoint(paths["model"], ensemble, config, vocab, lexicon)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="existing output directory")
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
