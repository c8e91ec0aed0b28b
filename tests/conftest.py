import pytest

from stancemoe.synthetic import make_synthetic_dataset, write_jsonl
from stancemoe.text import TokenizedExample, default_lexicon, load_dataset


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
