"""Property tests of the text boundary: stratified K-fold splits and
tokenization with cue/contrast marking, over generated inputs.  Runs are
derandomized, so every run draws the same cases."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from stancemoe.text import CLS_TOKEN, mark_positions, stratified_kfold, tokenize
from conftest import toy_example

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def labeled_splits(draw):
    """k, and a shuffled list of labels in which each class present has at
    least k examples (a class may be absent)."""
    k = draw(st.integers(2, 6))
    counts = draw(st.lists(st.integers(0, 14), min_size=3, max_size=3)
                  .filter(any))
    labels = [c for c, n in enumerate(counts) if n for _ in range(k + n - 1)]
    return k, draw(st.permutations(labels)), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(labeled_splits())
def test_stratified_kfold_partitions_and_balances(case):
    k, labels, seed = case
    examples = [toy_example([1], label=c, example_id=f"e{i}") for i, c in enumerate(labels)]
    splits = stratified_kfold(examples, k, seed)
    assert len(splits) == k
    everything = set(range(len(labels)))
    seen = []
    for train, val in splits:
        assert set(train) == everything - set(val)
        assert train == sorted(train) and val == sorted(val)
        seen.extend(val)
    assert sorted(seen) == sorted(everything)  # each index in exactly one fold
    for c in set(labels):
        per_fold = [Counter(labels[i] for i in val)[c] for _, val in splits]
        assert max(per_fold) - min(per_fold) <= 1


WORDS = st.text(alphabet="ab,.!?'-", min_size=1, max_size=5)


@PROPERTY
@given(words=st.lists(WORDS, max_size=40), max_len=st.integers(2, 24),
       lexicon=st.sets(WORDS, max_size=4),
       spaces=st.sampled_from([" ", "  ", "\t", " \n "]))
def test_tokens_start_with_cls_fit_max_len_and_marks_skip_it(words, max_len, lexicon,
                                                              spaces):
    tokens = tokenize(spaces.join(words), max_len)
    T = len(tokens)
    assert tokens[0] == CLS_TOKEN
    assert T <= max_len
    positions = mark_positions(tokens, lexicon | {CLS_TOKEN})
    assert all(1 <= i < T for i in positions)
    assert positions == {i for i in range(1, T) if tokens[i] in lexicon}
