"""Data pipeline tests: tokenizer, vocabularies, TSV parsing, batching,
and negative-sampling contracts."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualqa import text
from dualqa.text import (
    DataError, QAPair, Vocabulary, build_vocab, cooccurrence_count,
    load_tsv, make_batches, tokenize,
)

from helpers import SMALL_ROWS, write_rows


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("What is QA?") == ["what", "is", "qa", "?"]

    def test_abbreviation_dots(self):
        assert tokenize("U.S.") == ["u", ".", "s", "."]

    def test_whitespace_only_is_error(self):
        with pytest.raises(DataError, match="empty sequence"):
            tokenize("  ")

    def test_no_empty_tokens(self):
        assert all(tokenize("a -- b!!  c")) and "" not in tokenize("a -- b!! c")


class TestVocabulary:
    def test_most_frequent_kept(self):
        corpus = [["a"] * 3 + ["b"] * 2 + ["c"]]
        vocab = build_vocab(corpus, max_size=2)
        assert vocab.id_to_token == ["<pad>", "<unk>", "<sos>", "<eos>", "a", "b"]

    def test_frequency_tie_broken_lexicographically(self):
        vocab = build_vocab([["y", "x", "y", "x"]], max_size=1)
        assert "x" in vocab.token_to_id and "y" not in vocab.token_to_id

    def test_max_size_zero_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], max_size=0)

    def test_reserved_ids_fixed(self):
        vocab = build_vocab([["a"]], max_size=5)
        assert vocab.token_to_id["<pad>"] == text.PAD_ID
        assert vocab.token_to_id["<unk>"] == text.UNK_ID
        assert vocab.token_to_id["<sos>"] == text.SOS_ID
        assert vocab.token_to_id["<eos>"] == text.EOS_ID

    def test_encode_unknown_maps_to_unk(self):
        vocab = build_vocab([["a"]], max_size=5)
        assert vocab.encode(["a", "zzz"]) == [4, text.UNK_ID]

    def test_encode_deterministic(self):
        vocab = build_vocab([["a"]], max_size=5)
        assert vocab.encode(["a", "a"]) == [4, 4]

    def test_encode_empty_is_error(self):
        vocab = build_vocab([["a"]], max_size=5)
        with pytest.raises(DataError):
            vocab.encode([])

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=1, max_size=12))
    def test_encode_decode_identity_in_vocab(self, tokens):
        vocab = build_vocab([["alpha", "beta", "gamma", "delta"]], max_size=10)
        assert [vocab.id_to_token[i] for i in vocab.encode(tokens)] == tokens

    def test_save_load_roundtrip(self):
        # A checkpoint stores the non-reserved tokens in id order and
        # rebuilds the vocabulary from them.
        vocab = build_vocab([["b", "a", "b", "c", "b", "a"]], max_size=3)
        loaded = Vocabulary.from_tokens(vocab.id_to_token[len(text.RESERVED_TOKENS):])
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.token_to_id == vocab.token_to_id


class TestCooccurrence:
    def test_shared_types(self):
        assert cooccurrence_count(["what", "is", "x"], ["x", "is", "y"]) == 2

    def test_disjoint(self):
        assert cooccurrence_count(["a"], ["b"]) == 0

    def test_counts_past_the_default_table(self):
        shared = [f"w{i}" for i in range(15)]
        assert cooccurrence_count(shared, shared) == 15

    def test_counts_types_not_tokens(self):
        assert cooccurrence_count(["x", "x", "x"], ["x"]) == 1


class TestLoadTsv:
    def test_parses_row(self, tmp_path):
        path = write_rows(tmp_path / "data.tsv",
                          [("q1", "p1", "Who won?", "Alice won.", 1)])
        (pair,) = load_tsv(path)
        assert pair.question_tokens == ["who", "won", "?"]
        assert pair.answer_tokens == ["alice", "won", "."]
        assert pair.passage_id == "p1" and pair.label == 1 and pair.question_id == "q1"

    def test_column_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tp1\tWho?\tAlice.\t1\nq2\tp2\tonly\tfour columns\n")
        with pytest.raises(DataError, match="line 2"):
            load_tsv(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tp1\tWho?\tAlice.\t2\n")
        with pytest.raises(DataError, match="line 1.*label"):
            load_tsv(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DataError, match="no/such/file"):
            load_tsv(tmp_path / "no" / "such" / "file.tsv")

    def test_preserves_file_order(self, tmp_path):
        pairs = load_tsv(write_rows(tmp_path / "data.tsv"))
        assert [p.question_id for p in pairs] == [r[0] for r in SMALL_ROWS]


class TestQAPair:
    def test_rejects_empty_sides(self):
        with pytest.raises(DataError):
            QAPair([], ["a"], "p", 1)

    def test_rejects_bad_label(self):
        with pytest.raises(DataError):
            QAPair(["q"], ["a"], "p", 2)


def _toy_pairs(n_passages=5, per_passage=4):
    pairs = []
    for p in range(n_passages):
        for i in range(per_passage):
            pairs.append(QAPair(
                question_tokens=["q", f"s{p}", f"i{i}"],
                answer_tokens=["a", f"s{p}"] + ["pad"] * (i % 3),
                passage_id=f"p{p}",
                label=1,
                question_id=f"q{p}_{i}",
            ))
    return pairs


class TestMakeBatches:
    def test_epoch_covers_every_positive_exactly_once(self):
        pairs = _toy_pairs()
        batches = list(make_batches(pairs, batch_size=3, pool_batches=2, seed=1))
        seen = Counter()
        for b in batches:
            for p in b.positives:
                seen[p.question_id] += 1
        assert seen == Counter({p.question_id: 1 for p in pairs})

    def test_negatives_always_cross_passage(self):
        pairs = _toy_pairs()
        for b in make_batches(pairs, batch_size=4, pool_batches=2, seed=2):
            for pos, neg in zip(b.positives, b.negatives):
                assert neg.label == 0
                assert neg.passage_id != pos.passage_id
                assert neg.question_tokens == pos.question_tokens

    def test_pool_sorted_by_answer_length(self):
        pairs = _toy_pairs()
        pool_size = 3 * 2
        batches = list(make_batches(pairs, batch_size=3, pool_batches=2, seed=3))
        lengths = []
        for b in batches:
            lengths.extend(len(p.answer_tokens) for p in b.positives)
        for start in range(0, len(lengths), pool_size):
            pool = lengths[start:start + pool_size]
            assert pool == sorted(pool)

    def test_identical_seed_identical_stream(self):
        pairs = _toy_pairs()

        def snapshot(seed):
            return [
                [(p.question_id, tuple(p.answer_tokens), n.passage_id)
                 for p, n in zip(b.positives, b.negatives)]
                for b in make_batches(pairs, batch_size=3, pool_batches=2, seed=seed)
            ]

        assert snapshot(5) == snapshot(5)
        assert snapshot(5) != snapshot(6)

    def test_single_passage_rejected(self):
        pairs = [QAPair(["q"], ["a"], "p0", 1, "q0"), QAPair(["q"], ["b"], "p0", 1, "q1")]
        with pytest.raises(DataError, match="cross-passage"):
            list(make_batches(pairs, batch_size=1, pool_batches=1, seed=0))

    def test_label_zero_rows_are_not_positives(self):
        pairs = _toy_pairs()
        pairs.append(QAPair(["q"], ["a"], "p0", 0, "neg_row"))
        ids = set()
        for b in make_batches(pairs, batch_size=4, pool_batches=2, seed=0):
            ids.update(p.question_id for p in b.positives)
        assert "neg_row" not in ids

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            list(make_batches(_toy_pairs(), batch_size=0, pool_batches=1, seed=0))
