"""Tokenization, vocabulary, cue/contrast position marking, JSONL dataset
ingestion, and stratified K-fold splitting."""

from __future__ import annotations

import json
import string
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from itertools import compress, islice, repeat

import numpy as np

PAD_ID, CLS_ID, UNK_ID = 0, 1, 2
PAD_TOKEN, CLS_TOKEN, UNK_TOKEN = "[PAD]", "[CLS]", "[UNK]"
RESERVED_TOKENS = (PAD_TOKEN, CLS_TOKEN, UNK_TOKEN)

# on-disk label strings, in class-index order
LABEL_NAMES = ("pro_palestine", "pro_israel", "neutral")
CLASS_DISPLAY = ("Pro-Palestine", "Pro-Israel", "Neutral")
N_CLASSES = 3
_LABEL_TO_INDEX = {name: i for i, name in enumerate(LABEL_NAMES)}

_PUNCT = frozenset(string.punctuation)


class DatasetFormatError(ValueError):
    """A dataset or lexicon file violates the expected format."""


def tokenize(text: str, max_len: int = 128) -> list[str]:
    """Lowercase, whitespace-split, peel leading/trailing punctuation.

    Each leading or trailing punctuation character of a whitespace chunk
    becomes its own token; interior punctuation is left alone.  The result
    is truncated to max_len - 1 tokens and prefixed with the CLS marker, so
    the returned sequence never exceeds max_len.

    A chunk with no punctuation at either end, the common case, is taken
    whole; any other is cut by two index scans, so no chunk builds lists.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len}")
    out = [CLS_TOKEN]
    for chunk in text.lower().split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            out.append(chunk)
            continue
        start, end = 0, len(chunk)
        while start < end and chunk[start] in _PUNCT:
            start += 1
        while end > start and chunk[end - 1] in _PUNCT:
            end -= 1
        out.extend(chunk[:start])  # a string extends a list one character at a time
        if start < end:
            out.append(chunk[start:end])
        out.extend(chunk[end:])
    del out[max_len:]
    return out


class Vocab:
    """Token-to-id map with reserved ids 0=PAD, 1=CLS, 2=UNK."""

    def __init__(self, tokens=()):
        self._ids: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        """Assign the next dense id to an unseen token; return its id."""
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        idx = len(self._ids)
        self._ids[token] = idx
        return idx

    def encode(self, tokens) -> list[int]:
        return list(map(self._ids.get, tokens, repeat(UNK_ID)))

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def tokens(self) -> list[str]:
        """All tokens ordered by id (dense, in insertion order), reserved first."""
        return list(self._ids)

    @property
    def tail(self) -> list[str]:
        """Non-reserved tokens ordered by id (serialization payload)."""
        return self.tokens[len(RESERVED_TOKENS) :]


@dataclass(frozen=True)
class CueLexicon:
    """Lowercase token sets driving the cue and contrast position masks."""

    cue_tokens: frozenset[str]
    contrast_tokens: frozenset[str]

    def __post_init__(self):
        for name, toks in (("cue", self.cue_tokens), ("contrast", self.contrast_tokens)):
            if not toks:
                raise ValueError(f"{name} lexicon is empty")
            for t in toks:
                if (not isinstance(t, str) or not t or t != t.lower()
                        or any(c.isspace() for c in t)):
                    raise ValueError(f"bad {name} lexicon entry: {t!r}")


@contextmanager
def _open_utf8(path):
    """``path`` open as UTF-8, past a leading byte-order mark; a byte that is
    not UTF-8 fails naming its line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # the decoder runs a block ahead of the lines
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            lineno = next((n for n, line in enumerate(fh, start=1)
                           if any("\udc80" <= c <= "\udcff" for c in line)), "?")
        raise DatasetFormatError(f"{path}:{lineno}: not UTF-8: byte "
                                 f"0x{exc.object[exc.start]:02x} ({exc.reason})") from exc


def read_lexicon_file(path) -> frozenset[str]:
    """One lowercase token per line; blank lines and '#' comments ignored."""
    tokens = set()
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if any(c.isspace() for c in line):
                raise DatasetFormatError(f"{path}:{lineno}: lexicon entry contains whitespace: {line!r}")
            tokens.add(line.lower())
    if not tokens:
        raise DatasetFormatError(f"{path}: lexicon file has no entries")
    return frozenset(tokens)


def default_lexicon() -> CueLexicon:
    """The lexicons shipped with the package (editable text files)."""
    data = resources.files("stancemoe") / "data"
    return CueLexicon(
        cue_tokens=read_lexicon_file(data / "cue_lexicon.txt"),
        contrast_tokens=read_lexicon_file(data / "contrast_lexicon.txt"),
    )


@dataclass(frozen=True)
class TokenizedExample:
    """One classified text: tokens, ids, cue/contrast masks, gold label."""

    id: str
    tokens: tuple[str, ...]
    token_ids: tuple[int, ...]
    cue_positions: frozenset[int]
    contrast_positions: frozenset[int]
    label: int | None  # class index, or None for unlabeled inputs


def mark_positions(tokens, lexicon_tokens) -> frozenset[int]:
    """Positions whose token is in the lexicon (a set); the CLS slot is
    excluded.  A text sharing no token with the lexicon, the common case,
    is settled by one set test."""
    if not tokens:
        raise ValueError("mark_positions expects a non-empty token sequence")
    if lexicon_tokens.isdisjoint(tokens):
        return frozenset()
    hits = map(lexicon_tokens.__contains__, islice(tokens, 1, None))
    return frozenset(compress(range(1, len(tokens)), hits))


def _example(example_id: str, tokens: tuple[str, ...], label: int | None,
             lexicon: CueLexicon, vocab: Vocab, grow_vocab: bool) -> TokenizedExample:
    """The example of a tokenized text; a growing vocabulary first adds
    its tokens, in order."""
    words = islice(tokens, 1, None)
    ids = map(vocab.add, words) if grow_vocab else vocab.encode(words)
    return TokenizedExample(
        id=example_id,
        tokens=tokens,
        token_ids=(CLS_ID, *ids),
        cue_positions=mark_positions(tokens, lexicon.cue_tokens),
        contrast_positions=mark_positions(tokens, lexicon.contrast_tokens),
        label=label,
    )


def make_example(
    example_id: str,
    text: str,
    label: int | None,
    lexicon: CueLexicon,
    max_len: int,
    vocab: Vocab,
    grow_vocab: bool,
) -> TokenizedExample:
    """Tokenize one text and mark its cue/contrast positions."""
    return _example(example_id, tuple(tokenize(text, max_len)), label, lexicon,
                    vocab, grow_vocab)


def load_dataset(
    path,
    lexicon: CueLexicon,
    max_len: int = 128,
    vocab: Vocab | None = None,
    require_labels: bool = True,
) -> tuple[list[TokenizedExample], Vocab]:
    """Read a JSONL dataset of {"id", "text", "label"} objects.

    When ``vocab`` is None a fresh vocabulary is built from the corpus in
    file order; otherwise the given vocabulary is used read-only and unseen
    tokens map to UNK.  Input order is preserved.  Malformed lines, an id
    that repeats (ids key precomputed rows) and a file with no examples
    raise :class:`DatasetFormatError` naming the file and line numbers.

    A corpus repeats a small set of words many times over, so each distinct
    token string of the file is held once: every example's tokens, and
    every key a growing vocabulary adds, are its first occurrence.
    """
    grow = vocab is None
    if vocab is None:
        vocab = Vocab()
    examples: list[TokenizedExample] = []
    id_lines: dict[str, int] = {}
    strings: dict[str, str] = {}  # each token string of the file -> its first occurrence
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(row, dict):
                raise DatasetFormatError(f"{path}:{lineno}: expected a JSON object")
            for key in ("id", "text"):
                if key not in row or not isinstance(row[key], str):
                    raise DatasetFormatError(f"{path}:{lineno}: missing or non-string {key!r}")
            if row["id"] in id_lines:
                raise DatasetFormatError(f"{path}:{lineno}: id {row['id']!r} repeats "
                                         f"that of line {id_lines[row['id']]}")
            id_lines[row["id"]] = lineno
            label = row.get("label")
            if label is not None:
                if not isinstance(label, str) or label not in _LABEL_TO_INDEX:
                    raise DatasetFormatError(f"{path}:{lineno}: unknown label {label!r} "
                                             f"(expected one of {', '.join(LABEL_NAMES)})")
                label = _LABEL_TO_INDEX[label]
            elif require_labels:
                raise DatasetFormatError(f"{path}:{lineno}: missing required 'label'")
            tokens = tokenize(row["text"], max_len)
            tokens = tuple(map(strings.setdefault, tokens, tokens))
            examples.append(_example(row["id"], tokens, label, lexicon, vocab, grow))
    if not examples:
        raise DatasetFormatError(f"{path}: no examples")
    return examples, vocab


def stratified_kfold(
    examples: list[TokenizedExample], k: int, seed: int
) -> list[tuple[list[int], list[int]]]:
    """Split indices into k stratified (train, validation) partitions.

    Per class, indices are shuffled with a seeded PRNG and dealt round-robin
    into k validation folds, so per-class counts across folds differ by at
    most one and the validation folds partition the dataset.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    by_class: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        if ex.label is None:
            raise ValueError(f"example {ex.id!r} has no label; k-fold needs labeled data")
        by_class.setdefault(ex.label, []).append(i)
    for label, idxs in sorted(by_class.items()):
        if len(idxs) < k:
            raise ValueError(
                f"class {LABEL_NAMES[label]!r} has only {len(idxs)} examples, "
                f"fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    val_folds: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_class):
        idxs = np.array(by_class[label])
        idxs = idxs[rng.permutation(len(idxs))]
        for pos, idx in enumerate(idxs):
            val_folds[pos % k].append(int(idx))
    all_indices = set(range(len(examples)))
    splits = []
    for fold in val_folds:
        val = sorted(fold)
        train = sorted(all_indices.difference(fold))
        splits.append((train, val))
    return splits
