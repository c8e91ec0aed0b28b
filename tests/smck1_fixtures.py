"""The committed SMCK1 format-1 checkpoints under tests/fixtures/, which
tests/test_checkpoint.py loads, and smck1.json beside them, which records
how each was made and its ensemble logits on a few texts.

Each checkpoint holds K = 2 folds of a width-4 model with one CNN filter
per kernel size, each fold a seeded ``TrainConfig.build_model`` with no
training.  The three cover the three heads: a moe head over an expert
subset, a stacked head in the precomputed-encoder mode (its store rows are
drawn from a seeded generator, so the test rebuilds them) and a fusion
head.  The files were written once, by the commit named in smck1.json;
run this only to replace them on purpose:

    PYTHONPATH=src python tests/smck1_fixtures.py <commit>
"""

import json
import sys
from pathlib import Path

import numpy as np

from stancemoe.checkpoint import save_checkpoint
from stancemoe.metrics import macro_metrics
from stancemoe.text import CueLexicon, Vocab, make_example
from stancemoe.train import EnsembleModel, FoldArtifact, TrainConfig, ensemble_forward

FIXTURE_DIR = Path(__file__).parent / "fixtures"
VOCAB = ["the", "plan", "is", "great", "bad", "but", "not", "we", "support", "it"]
LEXICON = CueLexicon(cue_tokens=frozenset({"support", "great"}),
                     contrast_tokens=frozenset({"but", "not"}))
TEXTS = ["we support the plan", "the plan is bad but we support it",
         "not great", "it is not the plan we support but it is great"]
BASE = dict(k=2, hidden_dim=4, cnn_filters=1, max_len=16)
FIXTURES = [
    ("moe_subset.smck", dict(head="moe", active_experts=["mean", "cnn", "contrast"]),
     (101, 102), None),
    ("stacked_precomputed.smck", dict(head="stacked", encoder="precomputed"), (201, 202), 7),
    ("fusion.smck", dict(head="fusion"), (301, 302), None),
]
CONFUSIONS = ([[3, 1, 0], [0, 2, 1], [1, 0, 4]], [[2, 0, 1], [1, 3, 0], [0, 1, 3]])
WEIGHTS = [0.625, 0.375]


def examples_and_store(vocab, config, store_seed):
    """The texts as examples of ``vocab``, and their precomputed rows when
    ``store_seed`` is set: one (T, d) standard-normal draw per text, in
    order, from that seed."""
    examples = [make_example(f"t{i}", text, None, LEXICON, config.max_len, vocab, False)
                for i, text in enumerate(TEXTS)]
    if store_seed is None:
        return examples, None
    rng = np.random.default_rng(store_seed)
    return examples, {ex.id: rng.normal(size=(len(ex.token_ids), config.hidden_dim))
                      for ex in examples}


def main(commit: str) -> None:
    vocab = Vocab(VOCAB)
    records = []
    for name, settings, seeds, store_seed in FIXTURES:
        config = TrainConfig(**BASE, **settings)
        folds = [FoldArtifact(j, config.build_model(len(vocab), np.random.default_rng(seed)),
                              macro_metrics(np.array(cm)))
                 for j, (seed, cm) in enumerate(zip(seeds, CONFUSIONS))]
        ensemble = EnsembleModel(folds=folds, weights=WEIGHTS)
        save_checkpoint(FIXTURE_DIR / name, ensemble, config, vocab, LEXICON)
        examples, store = examples_and_store(vocab, config, store_seed)
        logits = ensemble_forward(ensemble, examples, store)[0]
        records.append({"file": name, "fold_seeds": list(seeds), "store_seed": store_seed,
                        "logits": logits.tolist()})
    meta = {"written_at": commit, "texts": TEXTS, "fixtures": records}
    (FIXTURE_DIR / "smck1.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
