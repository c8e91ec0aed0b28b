"""Driving the head with frozen, externally produced embeddings.

The SMEB1 store is a little-endian binary file of float32 token matrices
keyed by example id (row 0 = CLS).  Any encoder that speaks this format
can replace the built-in toy encoder: here we fake one by exporting the
toy encoder's outputs, then train with encoder="precomputed".
"""

import os
import tempfile

import numpy as np

from stancemoe.encoder import (
    ToyEncoderParams,
    encode,
    read_embedding_store,
    write_embedding_store,
)
from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import default_lexicon, load_dataset
from stancemoe.train import TrainConfig, evaluate_ensemble, run_kfold

d = 16
lexicon = default_lexicon()
with tempfile.TemporaryDirectory() as td:
    data_path = os.path.join(td, "data.jsonl")
    store_path = os.path.join(td, "embeddings.smeb")
    write_jsonl(data_path, make_synthetic_dataset(90, seed=3))
    examples, vocab = load_dataset(data_path, lexicon)

    # export one frozen (T, d) matrix per example
    frozen_encoder = ToyEncoderParams.init(len(vocab), d, max_len=128,
                                           rng=np.random.default_rng(0))
    records = [(ex.id, encode(frozen_encoder, ex.token_ids).H) for ex in examples]
    n = write_embedding_store(store_path, records)
    print(f"wrote {n} records to {store_path}")

    store, width = read_embedding_store(store_path)
    one = store[examples[0].id]
    print(f"store width d={width}; record {examples[0].id!r} has shape {one.shape}")
    print("float32 on disk and in the store, widened per batch:", one.dtype)

    config = TrainConfig(encoder="precomputed", k=3, epochs=40, hidden_dim=d,
                         batch_size=16, seed=42)
    ensemble = run_kfold(config, examples, vocab, store=store)
    report, _ = evaluate_ensemble(ensemble, examples, store=store)
    print(f"\ntrained against the store: no encoder params "
          f"({ensemble.folds[0].params.encoder})")
    print(f"in-sample ensemble accuracy {report.accuracy:.4f}, "
          f"macro-F1 {report.macro_f1:.4f}")
