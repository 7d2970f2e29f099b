"""Bigram language model tests against hand-counted oracles."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualqa.bigram import END, START, BigramLM

from helpers import per_token_bigram_fit

CORPUS = [["a", "b"], ["a", "b"]]

# Hand-counted: every transition in "a b" has count 2 out of context count
# 2, smoothed with alpha=1 over |{a, b, </s>}| = 3 -> 3/5 each.
HAND_LOG_PROB = 3 * math.log(3 / 5)


class TestFit:
    def test_counts(self):
        lm = BigramLM.fit(CORPUS, alpha=1.0)
        assert lm.context_counts["<s>"] == 2
        assert lm.bigram_counts["<s>"]["a"] == 2
        assert lm.bigram_counts["a"]["b"] == 2
        assert lm.bigram_counts["b"][END] == 2

    def test_vocab_is_types_plus_end_marker(self):
        lm = BigramLM.fit(CORPUS)
        assert sorted(lm.vocab) == sorted(["a", "b", END])

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            BigramLM.fit(CORPUS, alpha=0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            BigramLM.fit([])

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", START, END]),
                             min_size=1, max_size=9), min_size=1, max_size=8),
           st.sampled_from([0.5, 1.0]))
    def test_counts_equal_the_per_token_loop(self, corpus, alpha):
        got = BigramLM.fit(corpus, alpha).to_dict()
        want = per_token_bigram_fit(corpus, alpha).to_dict()
        assert got == want
        # The same key order too, so even an unsorted dump is unchanged.
        assert json.dumps(got) == json.dumps(want)


class TestSentenceLogProb:
    def test_hand_counted_oracle(self):
        lm = BigramLM.fit(CORPUS, alpha=1.0)
        got = lm.sentence_log_prob(["a", "b"])
        assert got == pytest.approx(HAND_LOG_PROB, abs=1e-12)
        assert got == pytest.approx(-1.5325, abs=1e-4)

    def test_unseen_context_is_uniform(self):
        lm = BigramLM.fit(CORPUS, alpha=1.0)
        assert lm.prob("a", "zzz") == pytest.approx(1 / 3)
        assert lm.prob("never_seen", "zzz") == pytest.approx(1 / 3)

    def test_strictly_negative_when_any_step_uncertain(self):
        lm = BigramLM.fit(CORPUS, alpha=1.0)
        assert lm.sentence_log_prob(["a", "b"]) < 0.0
        assert lm.sentence_log_prob(["b", "a"]) < 0.0

    def test_empty_sentence_rejected(self):
        lm = BigramLM.fit(CORPUS)
        with pytest.raises(ValueError):
            lm.sentence_log_prob([])


class TestNextWordDistribution:
    def test_hand_counted_conditionals(self):
        lm = BigramLM.fit(CORPUS, alpha=1.0)
        dist = lm.next_word_distribution("a")
        assert dist["b"] == pytest.approx(3 / 5)
        assert dist["a"] == pytest.approx(1 / 5)
        assert dist[END] == pytest.approx(1 / 5)

    def test_unseen_context_uniform(self):
        lm = BigramLM.fit(CORPUS, alpha=1.0)
        dist = lm.next_word_distribution("unseen")
        assert all(p == pytest.approx(1 / 3) for p in dist.values())

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from(["a", "b", "<s>", END, "unseen", "w7"]))
    def test_normalized_for_any_context(self, context):
        lm = BigramLM.fit([["a", "b"], ["b", "c", "a"], ["c"]], alpha=0.5)
        total = sum(lm.next_word_distribution(context).values())
        assert abs(total - 1.0) <= 1e-9

    def test_alpha_monotonicity_for_unseen_bigram(self):
        # Seen context "a" never precedes "a"; more smoothing raises it.
        previous = 0.0
        for alpha in (0.25, 0.5, 1.0, 2.0, 8.0):
            lm = BigramLM.fit(CORPUS, alpha=alpha)
            p = lm.prob("a", "a")
            assert p > previous
            previous = p
        assert previous < 1 / 3  # approaches uniform from below


class TestSerialization:
    def test_dict_roundtrip(self):
        lm = BigramLM.fit([["x", "y", "x"], ["y"]], alpha=0.7)
        clone = BigramLM.from_dict(lm.to_dict())
        assert clone.alpha == lm.alpha
        assert clone.vocab == lm.vocab
        assert clone.context_counts == lm.context_counts
        assert clone.bigram_counts == lm.bigram_counts
        for sentence in (["x"], ["y", "x"], ["zzz"]):
            assert clone.sentence_log_prob(sentence) == lm.sentence_log_prob(sentence)
