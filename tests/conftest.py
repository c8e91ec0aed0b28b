import struct
from pathlib import Path

import numpy as np
import pytest

from stancemoe.experts import KERNEL_SIZES
from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import TokenizedExample, default_lexicon, load_dataset

UNCLOSED_FILES_FAIL = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    # a ResourceWarning raised while an object is collected reaches pytest
    # as an unraisable exception
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(config, items):
    """A file left unclosed fails the test that leaked it, for every test
    under this directory."""
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            for mark in UNCLOSED_FILES_FAIL:
                item.add_marker(mark)


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def corpus90(tmp_path_factory, lexicon):
    """90 balanced synthetic examples, loaded (examples, vocab)."""
    path = tmp_path_factory.mktemp("data") / "train90.jsonl"
    write_jsonl(path, make_synthetic_dataset(90, seed=5))
    return load_dataset(path, lexicon)


def toy_example(token_ids, cue=(), contrast=(), label=0, example_id="toy"):
    """Hand-built TokenizedExample for model-level tests."""
    return TokenizedExample(
        id=example_id,
        tokens=tuple(f"t{i}" for i in token_ids),
        token_ids=tuple(token_ids),
        cue_positions=frozenset(cue),
        contrast_positions=frozenset(contrast),
        label=label,
    )


def random_example(rng, vocab_size, T, with_masks=True, label=None, example_id="rnd"):
    """Random example with non-empty cue/contrast masks when T allows."""
    ids = [1] + [int(rng.integers(3, vocab_size)) for _ in range(T - 1)]
    cue, contrast = frozenset(), frozenset()
    if with_masks and T > 2:
        pos = 1 + rng.permutation(T - 1)
        cue = frozenset({int(pos[0])})
        contrast = frozenset({int(pos[1])})
    return TokenizedExample(
        id=example_id,
        tokens=tuple(f"t{i}" for i in ids),
        token_ids=tuple(ids),
        cue_positions=cue,
        contrast_positions=contrast,
        label=int(rng.integers(0, 3)) if label is None else label,
    )


def cnn_views(bank):
    """({k: kernels}, {k: bias}) of ``bank``: each kernel size's declared
    views into the CNN stacks, read by path from named_params()."""
    values = {path: value for path, value, _ in bank.named_params()}
    return ({k: values[f"cnn/k{k}/kernels"] for k in KERNEL_SIZES},
            {k: values[f"cnn/k{k}/bias"] for k in KERNEL_SIZES})


def nan_in_tensor(raw: bytes, key: str) -> bytes:
    """SMCK1 bytes with the first value of tensor ``key`` set to NaN.  The
    record is its u16 key length, the key, a u8 rank, the u32 dims, then
    float64 values."""
    name = key.encode("utf-8")
    at = raw.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
    at += 1 + 4 * raw[at]
    return raw[:at] + np.array(np.nan, "<f8").tobytes() + raw[at + 8:]
