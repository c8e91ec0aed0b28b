import dataclasses
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stancemoe.text import (
    CLS_ID,
    CLS_TOKEN,
    LABEL_NAMES,
    RESERVED_TOKENS,
    CueLexicon,
    DatasetFormatError,
    TokenizedExample,
    UNK_ID,
    Vocab,
    default_lexicon,
    load_dataset,
    mark_positions,
    read_lexicon_file,
    stratified_kfold,
    tokenize,
)


class TestTokenize:
    def test_trailing_punctuation_split(self):
        assert tokenize("Free Palestine!") == [CLS_TOKEN, "free", "palestine", "!"]

    def test_empty_text(self):
        assert tokenize("") == [CLS_TOKEN]

    def test_mixed_punctuation(self):
        assert tokenize("I agree, but...") == [
            CLS_TOKEN, "i", "agree", ",", "but", ".", ".", ".",
        ]

    def test_leading_punctuation_and_interior_kept(self):
        assert tokenize('"don\'t stop"') == [CLS_TOKEN, '"', "don't", "stop", '"']

    def test_truncation(self):
        toks = tokenize("a b c d e f", max_len=4)
        assert toks == [CLS_TOKEN, "a", "b", "c"]
        assert len(toks) <= 4

    def test_max_len_too_small(self):
        with pytest.raises(ValueError):
            tokenize("hello", max_len=1)

    def test_idempotent_on_detokenized_output(self):
        texts = [
            "Free Palestine!", "I agree, but...", "  weird   spacing\there ",
            "(parens) and --dashes-- mid.dot stays",
        ]
        for text in texts:
            toks = tokenize(text)
            assert tokenize(" ".join(toks[1:])) == toks


class TestMarkPositions:
    def test_contrast_example(self):
        toks = ["cls", "i", "agree", "but", "object"]
        assert mark_positions(toks, {"but", "however"}) == {3}

    def test_no_matches(self):
        assert mark_positions(["cls", "a", "b"], {"zzz"}) == frozenset()

    def test_cue_scan_with_default_lexicon(self, lexicon):
        toks = ["cls", "he", "claims", "she", "reports"]
        assert mark_positions(toks, lexicon.cue_tokens) == {2, 4}

    def test_cls_position_excluded(self):
        assert mark_positions(["but", "but"], {"but"}) == {1}

    def test_union_property(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(12)]
        for _ in range(50):
            toks = ["cls"] + [words[i] for i in rng.integers(0, 12, size=8)]
            l1 = {words[i] for i in rng.integers(0, 12, size=3)}
            l2 = {words[i] for i in rng.integers(0, 12, size=3)}
            assert mark_positions(toks, l1 | l2) == (
                mark_positions(toks, l1) | mark_positions(toks, l2)
            )

    def test_empty_tokens_raise(self):
        with pytest.raises(ValueError):
            mark_positions([], {"x"})


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab()
        assert v.encode(["[PAD]", "[CLS]", "[UNK]"]) == [0, 1, 2]

    def test_dense_unique_ids(self):
        v = Vocab(["alpha", "beta", "alpha"])
        assert v.encode(["alpha", "beta"]) == [3, 4]
        assert len(v) == 5

    def test_unknown_maps_to_unk(self):
        v = Vocab(["alpha"])
        assert v.encode(["nope"]) == [UNK_ID]

    def test_tail_roundtrip(self):
        v = Vocab(["x", "y"])
        assert Vocab(v.tail).tokens == v.tokens


class TestLexicons:
    def test_default_lexicon_contents(self, lexicon):
        assert "claims" in lexicon.cue_tokens and "according" in lexicon.cue_tokens
        assert "but" in lexicon.contrast_tokens and "however" in lexicon.contrast_tokens

    def test_file_parsing_ignores_comments_and_blanks(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# comment\n\nfoo\nBAR\n")
        assert read_lexicon_file(p) == {"foo", "bar"}

    def test_whitespace_entry_rejected(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("two words\n")
        with pytest.raises(DatasetFormatError):
            read_lexicon_file(p)

    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_bytes(b"# cues\r\nfoo\rbar\n\nclaims\xff\nbaz\n")
        with pytest.raises(DatasetFormatError,
                           match=rf"^{re.escape(str(p))}:5: not UTF-8: byte 0xff"):
            read_lexicon_file(p)

    def test_a_file_with_no_entries_is_named(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# only a comment\n\n")
        with pytest.raises(DatasetFormatError,
                           match=rf"^{re.escape(str(p))}: lexicon file has no entries$"):
            read_lexicon_file(p)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            CueLexicon(cue_tokens=frozenset(), contrast_tokens=frozenset({"but"}))
        with pytest.raises(ValueError):
            CueLexicon(cue_tokens=frozenset({"UPPER"}), contrast_tokens=frozenset({"but"}))


class TestLoadDataset:
    def write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_happy_path_preserves_order(self, tmp_path, lexicon):
        p = self.write(tmp_path, [
            json.dumps({"id": "a", "text": "free palestine", "label": "pro_palestine"}),
            json.dumps({"id": "b", "text": "officials say talks", "label": "neutral"}),
            json.dumps({"id": "c", "text": "stand with israel", "label": "pro_israel"}),
        ])
        examples, vocab = load_dataset(p, lexicon)
        assert [ex.id for ex in examples] == ["a", "b", "c"]
        assert [ex.label for ex in examples] == [0, 2, 1]
        assert examples[0].tokens[0] == CLS_TOKEN
        assert len(vocab) > 3

    def test_unknown_label_names_value_and_line(self, tmp_path, lexicon):
        p = self.write(tmp_path, [
            json.dumps({"id": "a", "text": "x", "label": "pro_palestine"}),
            json.dumps({"id": "b", "text": "y", "label": "pro_mars"}),
        ])
        with pytest.raises(DatasetFormatError, match=r":2:.*pro_mars"):
            load_dataset(p, lexicon)

    @pytest.mark.parametrize("label", [["pro_israel"], {"name": "neutral"}],
                             ids=["list", "object"])
    def test_unhashable_label_names_file_line_and_value(self, tmp_path, lexicon, label):
        p = self.write(tmp_path, [
            json.dumps({"id": "a", "text": "x", "label": "pro_palestine"}),
            json.dumps({"id": "b", "text": "y", "label": label}),
        ])
        with pytest.raises(DatasetFormatError,
                           match=rf"^{re.escape(str(p))}:2: unknown label {re.escape(repr(label))}"):
            load_dataset(p, lexicon)

    def test_malformed_json_names_line(self, tmp_path, lexicon):
        p = self.write(tmp_path, ['{"id": "a", "text": "x", "label": "neutral"}', "{nope"])
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_dataset(p, lexicon)

    def test_a_line_that_is_not_an_object_names_the_line(self, tmp_path, lexicon):
        p = self.write(tmp_path, ['{"id": "a", "text": "x", "label": "neutral"}', '["b", "y"]'])
        with pytest.raises(DatasetFormatError,
                           match=rf"^{re.escape(str(p))}:2: expected a JSON object$"):
            load_dataset(p, lexicon)

    def test_missing_key_rejected(self, tmp_path, lexicon):
        p = self.write(tmp_path, [json.dumps({"id": "a", "label": "neutral"})])
        with pytest.raises(DatasetFormatError, match="text"):
            load_dataset(p, lexicon)

    def test_missing_label_rejected_unless_optional(self, tmp_path, lexicon):
        p = self.write(tmp_path, [json.dumps({"id": "a", "text": "hello there"})])
        with pytest.raises(DatasetFormatError, match="label"):
            load_dataset(p, lexicon)
        examples, _ = load_dataset(p, lexicon, require_labels=False)
        assert examples[0].label is None

    @pytest.mark.parametrize("lines", [[], ["", "   "]], ids=["empty", "blank-lines"])
    def test_no_examples_names_the_file(self, tmp_path, lexicon, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=rf"^{re.escape(str(p))}: no examples$"):
            load_dataset(p, lexicon)

    @pytest.mark.parametrize("bad_line", [2, 400])
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, lexicon, bad_line):
        # line 400 lies past the first block the text layer decodes
        lines = [json.dumps({"id": f"e{i}", "text": "officials say talks resume",
                             "label": "neutral"}).encode() for i in range(1, 500)]
        lines[bad_line - 1] = lines[bad_line - 1].replace(b"talks", b"t\xffalks")
        p = tmp_path / "data.jsonl"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DatasetFormatError,
                           match=rf"^{re.escape(str(p))}:{bad_line}: not UTF-8: byte 0xff"):
            load_dataset(p, lexicon)

    def test_repeated_id_names_both_lines(self, tmp_path, lexicon):
        p = self.write(tmp_path, [
            json.dumps({"id": "a", "text": "x", "label": "neutral"}),
            json.dumps({"id": "b", "text": "y", "label": "neutral"}),
            "",
            json.dumps({"id": "a", "text": "z", "label": "neutral"}),
        ])
        with pytest.raises(DatasetFormatError, match=r":4: id 'a' repeats that of line 1$"):
            load_dataset(p, lexicon)

    def test_fixed_vocab_is_not_grown(self, tmp_path, lexicon):
        p = self.write(tmp_path, [
            json.dumps({"id": "a", "text": "totally new words", "label": "neutral"}),
        ])
        vocab = Vocab(["known"])
        examples, returned = load_dataset(p, lexicon, vocab=vocab)
        assert returned is vocab
        assert len(vocab) == 4
        assert set(examples[0].token_ids[1:]) == {UNK_ID}

    def test_cue_positions_marked(self, tmp_path, lexicon):
        p = self.write(tmp_path, [
            json.dumps({"id": "a", "text": "he claims that, but stays", "label": "neutral"}),
        ])
        examples, _ = load_dataset(p, lexicon)
        toks = examples[0].tokens
        assert examples[0].cue_positions == {toks.index("claims")}
        assert examples[0].contrast_positions == {toks.index("but")}


def per_text_reference(path, lexicon, max_len, vocab=None):
    """Examples and vocabulary tokens built text by text, each token its own
    string: the straightforward loop that load_dataset must agree with."""
    ids = {t: i for i, t in enumerate(vocab.tokens if vocab else RESERVED_TOKENS)}
    examples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            tokens = tokenize(row["text"], max_len)
            if vocab is None:
                for t in tokens[1:]:
                    ids.setdefault(t, len(ids))
            examples.append(TokenizedExample(
                id=row["id"],
                tokens=tuple(tokens),
                token_ids=tuple([CLS_ID] + [ids.get(t, UNK_ID) for t in tokens[1:]]),
                cue_positions=frozenset(i for i in range(1, len(tokens))
                                        if tokens[i] in lexicon.cue_tokens),
                contrast_positions=frozenset(i for i in range(1, len(tokens))
                                             if tokens[i] in lexicon.contrast_tokens),
                label=LABEL_NAMES.index(row["label"]),
            ))
    return examples, list(ids)


def _benchmark_inputs():
    """The benchmark's input generator, perfbench/inputs.py."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOneStringPerToken:
    """load_dataset holds each distinct token string of a file once."""

    def test_a_word_in_two_examples_is_one_object(self, tmp_path, lexicon):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(json.dumps({"id": i, "text": text, "label": "neutral"})
                               for i, text in (("a", "Free the people"),
                                               ("b", "the people, FREE"))) + "\n")
        for vocab in (None, Vocab(["people"])):
            (a, b), _ = load_dataset(p, lexicon, vocab=vocab)
            assert a.tokens[1:] == ("free", "the", "people")
            assert b.tokens[1:] == ("the", "people", ",", "free")
            assert a.tokens[1] is b.tokens[4]
            assert a.tokens[2] is b.tokens[1]
            assert a.tokens[3] is b.tokens[2]

    def test_grown_vocabulary_keys_are_the_tokens(self, tmp_path, lexicon):
        p = tmp_path / "data.jsonl"
        p.write_text(json.dumps({"id": "a", "text": "peace talks", "label": "neutral"}) + "\n"
                     + json.dumps({"id": "b", "text": "talks of peace", "label": "neutral"})
                     + "\n")
        (a, b), vocab = load_dataset(p, lexicon)
        keys = {t: t for t in vocab.tokens}
        assert keys["peace"] is a.tokens[1] is b.tokens[3]
        assert keys["talks"] is a.tokens[2] is b.tokens[1]

    def test_repetitive_corpus_memory_is_bounded(self, tmp_path, lexicon):
        # 900 texts of 60 words drawn from 79 distinct words: the examples'
        # token and id tuples take 16 bytes a token, and each example under
        # 2 KiB besides; a string per token occurrence would add ~56 bytes
        rng = np.random.default_rng(0)
        words = [f"word{i:02d}" for i in range(79)]
        p = tmp_path / "repetitive.jsonl"
        p.write_text("".join(
            json.dumps({"id": f"t{i:03d}", "text": " ".join(rng.choice(words, 60)),
                        "label": LABEL_NAMES[i % 3]}) + "\n" for i in range(900)))
        for vocab in (None, Vocab(words)):
            tracemalloc.start()
            try:
                examples, _ = load_dataset(p, lexicon, vocab=vocab)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            n_tokens = sum(len(ex.tokens) for ex in examples)
            assert n_tokens == 900 * 61
            assert peak < 16 * n_tokens + 2048 * len(examples)

    @pytest.mark.parametrize("workload", ["train-short", "train-long", "predict-store"])
    def test_examples_equal_the_per_text_path_on_benchmark_inputs(self, tmp_path, lexicon,
                                                                  workload):
        # the texts perfbench/inputs.py writes for the workload, at full size
        inputs = _benchmark_inputs()
        rows = (inputs.synthetic.make_synthetic_dataset if workload == "train-short"
                else inputs.long_rows)
        sizes = inputs.SIZES[workload]
        paths = {}
        for stream, (role, prefix) in enumerate((("train", "tr"), ("heldout", "ho")), start=1):
            paths[role] = tmp_path / f"{role}.jsonl"
            inputs.synthetic.write_jsonl(
                paths[role], rows(sizes[role], inputs.sub_seed(3, stream), prefix))
        train, vocab = load_dataset(paths["train"], lexicon, inputs.MAX_LEN)
        ref_train, ref_tokens = per_text_reference(paths["train"], lexicon, inputs.MAX_LEN)
        assert train == ref_train and vocab.tokens == ref_tokens
        heldout, _ = load_dataset(paths["heldout"], lexicon, inputs.MAX_LEN, vocab=vocab)
        ref_heldout, _ = per_text_reference(paths["heldout"], lexicon, inputs.MAX_LEN, vocab)
        assert heldout == ref_heldout and len(vocab) == len(ref_tokens)


class TestStratifiedKfold:
    def test_exact_divisibility(self, corpus90):
        examples, _ = corpus90
        splits = stratified_kfold(examples, k=10, seed=42)
        assert len(splits) == 10
        for train_idx, val_idx in splits:
            assert len(val_idx) == 9
            labels = [examples[i].label for i in val_idx]
            assert all(labels.count(c) == 3 for c in range(3))
            assert len(train_idx) == 81

    def test_k1_rejected(self, corpus90):
        examples, _ = corpus90
        with pytest.raises(ValueError):
            stratified_kfold(examples, k=1, seed=0)

    def test_an_unlabeled_example_is_named(self, corpus90):
        examples, _ = corpus90
        unlabeled = [*examples, dataclasses.replace(examples[0], id="u", label=None)]
        with pytest.raises(ValueError, match="^example 'u' has no label; k-fold needs labeled"):
            stratified_kfold(unlabeled, k=2, seed=0)

    def test_small_class_names_class(self, corpus90):
        examples, _ = corpus90
        subset = [ex for ex in examples if ex.label != 2] + \
                 [ex for ex in examples if ex.label == 2][:3]
        with pytest.raises(ValueError, match="neutral"):
            stratified_kfold(subset, k=5, seed=0)

    def test_uneven_class_bookkeeping(self, lexicon, tmp_path):
        from stancemoe.synthetic import make_synthetic_dataset, write_jsonl

        path = tmp_path / "uneven.jsonl"
        write_jsonl(path, make_synthetic_dataset(120, seed=11))
        examples, _ = load_dataset(path, lexicon)
        by_class = {c: [ex for ex in examples if ex.label == c] for c in range(3)}
        subset = by_class[0][:31] + by_class[1][:30] + by_class[2][:29]
        splits = stratified_kfold(subset, k=10, seed=1)
        # 90 total: every val fold has 9 +- 1 examples
        sizes = [len(v) for _, v in splits]
        assert all(abs(s - 9) <= 1 for s in sizes) and sum(sizes) == 90
        for _, val_idx in splits:
            labels = [subset[i].label for i in val_idx]
            assert labels.count(0) in (3, 4)
            assert labels.count(1) == 3
            assert labels.count(2) in (2, 3)
        # totals recompose the class sizes
        assert sum(sum(1 for i in v if subset[i].label == 0) for _, v in splits) == 31
        assert sum(sum(1 for i in v if subset[i].label == 2) for _, v in splits) == 29

    def test_partition_property(self, corpus90):
        examples, _ = corpus90
        for seed in (0, 1, 2):
            splits = stratified_kfold(examples, k=7, seed=seed)
            seen = []
            for train_idx, val_idx in splits:
                assert set(train_idx).isdisjoint(val_idx)
                assert sorted(set(train_idx) | set(val_idx)) == list(range(len(examples)))
                seen.extend(val_idx)
            assert sorted(seen) == list(range(len(examples)))

    def test_per_class_counts_differ_by_at_most_one(self, corpus90):
        examples, _ = corpus90
        splits = stratified_kfold(examples, k=7, seed=3)
        for c in range(3):
            counts = [sum(1 for i in v if examples[i].label == c) for _, v in splits]
            assert max(counts) - min(counts) <= 1

    def test_deterministic_for_fixed_seed(self, corpus90):
        examples, _ = corpus90
        assert stratified_kfold(examples, 5, seed=9) == stratified_kfold(examples, 5, seed=9)
        assert stratified_kfold(examples, 5, seed=9) != stratified_kfold(examples, 5, seed=10)
