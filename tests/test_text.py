import json
import re

import numpy as np
import pytest

from stancemoe.text import (
    CLS_TOKEN,
    CueLexicon,
    DatasetFormatError,
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
