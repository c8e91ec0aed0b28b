"""End-to-end training: stratified K-fold, F1-weighted logit ensembling,
and evaluation on held-out data.

Every ensemble prediction runs the fold-stacked model: on one example, or
on a whole list in length-bucketed batches; the two agree within rounding.

Runs on a small synthetic corpus whose classes are determined by planted
slogan, contrast, and reporting-cue tokens, so a few epochs suffice.
"""

import os
import tempfile

import numpy as np

from stancemoe.metrics import report_text
from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import LABEL_NAMES, default_lexicon, load_dataset
from stancemoe.train import TrainConfig, ensemble_forward, evaluate_ensemble, run_kfold

lexicon = default_lexicon()
with tempfile.TemporaryDirectory() as td:
    train_path = os.path.join(td, "train.jsonl")
    test_path = os.path.join(td, "test.jsonl")
    write_jsonl(train_path, make_synthetic_dataset(150, seed=42))
    write_jsonl(test_path, make_synthetic_dataset(30, seed=7, id_prefix="test"))
    train_examples, vocab = load_dataset(train_path, lexicon)
    test_examples, _ = load_dataset(test_path, lexicon, vocab=vocab)

print(f"{len(train_examples)} training examples, vocab size {len(vocab)}")

config = TrainConfig(k=5, epochs=15, hidden_dim=32, batch_size=16, seed=42)
ensemble = run_kfold(config, train_examples, vocab)

print("\nper-fold validation macro-F1 and ensemble weight:")
for art, w in zip(ensemble.folds, ensemble.weights):
    print(f"  fold {art.fold_index}: F1 {art.val_macro_f1:.4f}  weight {w:.4f}")
print(f"weights sum to {ensemble.weights.sum():.12f}")

report, _ = evaluate_ensemble(ensemble, test_examples)  # the list form, as metrics
print("\nheld-out ensemble metrics:")
print(report_text(report))

all_logits, all_probs, classes, gates = ensemble_forward(ensemble, test_examples)
print(f"list call: logits {all_logits.shape}, classes {classes.shape}, "
      f"gates {gates.shape}")

ex = test_examples[0]
logits, probs, cls, gate = ensemble_forward(ensemble, ex)
print(f"example {ex.id!r}: predicted {LABEL_NAMES[cls]!r}, "
      f"gold {LABEL_NAMES[ex.label]!r}")
print("  probs:", [round(float(p), 4) for p in probs])
print("  weight-averaged gate:",
      {name: round(float(g), 3)
       for name, g in zip(ensemble.folds[0].params.active_experts, gate)})
print(f"  one example vs its row of the list call: max |logit diff| "
      f"{np.abs(logits - all_logits[0]).max():.1e}, same class: {cls == classes[0]}")
