"""Property tests of the text boundary: stratified K-fold splits and
tokenization with cue/contrast marking, over generated inputs, and the
tokenizer against a plain loop that peels one character at a time.  Runs
are derandomized, so every run draws the same cases."""

import string
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


def loop_tokenize(text: str, max_len: int) -> list[str]:
    """The tokenizer's rule as a plain loop: each leading, then each
    trailing ASCII punctuation character of a whitespace chunk is peeled
    into its own token."""
    out = []
    for chunk in text.lower().split():
        lead, trail = [], []
        while chunk and chunk[0] in string.punctuation:
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk[-1] in string.punctuation:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        if chunk:
            out.append(chunk)
        out.extend(reversed(trail))
    return [CLS_TOKEN] + out[: max_len - 1]


# characters str.split() splits on: ASCII whitespace, the information
# separators, NEL, no-break and typographic spaces, the line and paragraph
# separators and the ideographic space
UNICODE_SPACES = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2009\u200a" \
                 "\u2028\u2029\u202f\u205f\u3000"
PUNCT = st.text(alphabet=string.punctuation, min_size=1, max_size=4)
# letters, digits, an "I" with a dot whose lowercase is two characters, and
# non-ASCII punctuation that stays inside a token
CORE = st.text(alphabet="abXYz09\u0130\u00e9\u2014\u00ab", min_size=1, max_size=5)
CHUNKS = st.one_of(
    st.tuples(st.text(alphabet=string.punctuation, max_size=3), CORE,
              st.text(alphabet=string.punctuation + "ab", max_size=3), CORE,
              st.text(alphabet=string.punctuation, max_size=3)).map("".join),
    CORE, PUNCT)
TEXTS = st.one_of(
    st.tuples(st.lists(CHUNKS, max_size=30),
              st.lists(st.text(alphabet=UNICODE_SPACES, min_size=1, max_size=3),
                       min_size=31, max_size=31))
    .map(lambda parts: "".join(s + c for s, c in zip(parts[1], parts[0]))),
    st.text(max_size=60))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=TEXTS, max_len=st.integers(2, 40))
def test_tokenize_equals_the_peeling_loop(text, max_len):
    assert tokenize(text, max_len) == loop_tokenize(text, max_len)
