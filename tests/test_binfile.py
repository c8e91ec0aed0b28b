"""Bit-level round trips of both binary formats, as properties over
generated contents: an SMCK1 checkpoint of any head, expert subset,
encoder mode and fold count, and an SMEB1 store of any ids, lengths and
float32 values.  Loading gives back every value bit for bit, and saving
what was loaded gives back the same bytes.  Runs are derandomized, so
every run draws the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stancemoe.checkpoint import load_checkpoint, save_checkpoint
from stancemoe.encoder import read_embedding_store, write_embedding_store
from stancemoe.experts import EXPERT_NAMES
from stancemoe.metrics import metrics_from_labels
from stancemoe.text import RESERVED_TOKENS, CueLexicon, Vocab
from stancemoe.train import EnsembleModel, FoldArtifact, TrainConfig

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

# values whose bits a lossy path would change: signed zero, subnormals and
# the ends of the float64 range
SPECIALS = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max])

UTF8_TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
LEXICON_TOKENS = st.frozensets(
    st.text(st.characters(categories=["Ll", "Lo"]), min_size=1, max_size=6)
    .filter(lambda t: t == t.lower()), min_size=1, max_size=4)


def random_values(rng, shape) -> np.ndarray:
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    special = rng.random(shape) < 0.3
    values[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return values


@st.composite
def checkpoints(draw):
    """(ensemble, config, vocab, lexicon) of a K-fold model whose every
    parameter holds random values."""
    head = draw(st.sampled_from(["moe", "stacked", "fusion"]))
    active = EXPERT_NAMES
    if head == "moe":
        active = draw(st.lists(st.sampled_from(EXPERT_NAMES), min_size=1, unique=True))
    K = draw(st.integers(1, 3))
    config = TrainConfig(head=head, active_experts=active, k=max(K, 2),
                         encoder=draw(st.sampled_from(["toy", "precomputed"])),
                         freeze_encoder=draw(st.booleans()),
                         hidden_dim=draw(st.integers(1, 6)), cnn_filters=draw(st.integers(1, 3)),
                         max_len=draw(st.integers(2, 8)))
    tokens = draw(st.lists(UTF8_TEXT.filter(lambda t: t not in RESERVED_TOKENS),
                           max_size=6, unique=True))
    vocab = Vocab(tokens)
    lexicon = CueLexicon(cue_tokens=draw(LEXICON_TOKENS), contrast_tokens=draw(LEXICON_TOKENS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    folds = []
    for j in range(K):
        params = config.build_model(len(vocab), rng)
        for _, value, _ in params.named_params():
            value[...] = random_values(rng, value.shape)
        labels = rng.integers(0, 3, size=6)
        folds.append(FoldArtifact(j, params, metrics_from_labels(labels, rng.permutation(labels))))
    weights = rng.choice([0.25, 1.0, 5e-324, 1 / 3], size=K)
    return EnsembleModel(folds=folds, weights=weights), config, vocab, lexicon


def tensor_bytes(ensemble) -> dict[str, bytes]:
    return {f"fold{j}/{name}": value.tobytes()
            for j, art in enumerate(ensemble.folds)
            for name, value, _ in art.params.named_params()}


@PROPERTY
@given(checkpoints())
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, case):
    ensemble, config, vocab, lexicon = case
    path = tmp_path_factory.mktemp("smck") / "model.smck"
    save_checkpoint(path, ensemble, config, vocab, lexicon)
    loaded = load_checkpoint(path)
    assert tensor_bytes(loaded.ensemble) == tensor_bytes(ensemble)
    assert loaded.config == config
    assert loaded.vocab.tail == vocab.tail
    assert loaded.lexicon == lexicon
    assert loaded.ensemble.weights.tobytes() == ensemble.weights.tobytes()
    assert ([a.val_metrics.to_dict() for a in loaded.ensemble.folds]
            == [a.val_metrics.to_dict() for a in ensemble.folds])
    again = path.with_name("again.smck")
    save_checkpoint(again, loaded.ensemble, loaded.config, loaded.vocab, loaded.lexicon)
    assert again.read_bytes() == path.read_bytes()


@st.composite
def stores(draw):
    """Records of distinct ids, T >= 1 rows of one width d >= 1, whose
    float32 values are any finite bit patterns."""
    ids = draw(st.lists(UTF8_TEXT, min_size=1, max_size=8, unique=True))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for example_id in ids:
        H = rng.integers(0, 2**32, size=(draw(st.integers(1, 6)), d), dtype=np.uint32)
        H = H.view(np.float32)
        H[~np.isfinite(H)] = -0.0
        records.append((example_id, H))
    return records


@PROPERTY
@given(stores())
def test_store_round_trip_is_bit_exact(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("smeb") / "emb.smeb"
    assert write_embedding_store(path, records) == len(records)
    store, d = read_embedding_store(path)
    assert d == records[0][1].shape[1]
    assert list(store) == [example_id for example_id, _ in records]
    for example_id, H in records:
        assert store[example_id].dtype == np.float64
        assert store[example_id].tobytes() == H.astype(np.float64).tobytes()
    again = path.with_name("again.smeb")
    write_embedding_store(again, store.items())
    assert again.read_bytes() == path.read_bytes()
