"""Additively smoothed bigram language models.

These supply the sentence marginals used as constants inside the duality
regularizer: add-alpha smoothing keeps every probability strictly
positive and hand-checkable.
"""

from __future__ import annotations

import math
from collections import Counter

__all__ = ["START", "END", "BigramLM"]

START = "<s>"
END = "</s>"


class BigramLM:
    """Bigram counts over sentences wrapped as ``<s> w1 .. wn </s>``.

    The vocabulary is the set of observed word types plus the end marker;
    the start marker only ever appears as a context.  Immutable after
    fitting, so concurrent reads are safe.
    """

    def __init__(self, context_counts, bigram_counts, vocab, alpha):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.context_counts = dict(context_counts)
        self.bigram_counts = {h: dict(ws) for h, ws in bigram_counts.items()}
        self.vocab = sorted(vocab)
        self.alpha = float(alpha)
        self._vocab_size = len(self.vocab)

    @classmethod
    def fit(cls, corpus: list[list[str]], alpha: float = 1.0) -> "BigramLM":
        if not corpus:
            raise ValueError("empty corpus")
        pairs: Counter = Counter()
        vocab = {END}
        for sentence in corpus:
            if not sentence:
                raise ValueError("empty sentence in corpus")
            wrapped = [START, *sentence, END]
            vocab.update(sentence)
            pairs.update(zip(wrapped, wrapped[1:]))
        context_counts: Counter = Counter()
        bigram_counts: dict[str, dict[str, int]] = {}
        for (h, w), n in pairs.items():
            context_counts[h] += n
            bigram_counts.setdefault(h, {})[w] = n
        return cls(context_counts, bigram_counts, vocab, alpha)

    def prob(self, word: str, context: str) -> float:
        """(count(h,w) + alpha) / (count(h) + alpha * |V|); unseen counts are 0."""
        num = self.bigram_counts.get(context, {}).get(word, 0) + self.alpha
        den = self.context_counts.get(context, 0) + self.alpha * self._vocab_size
        return num / den

    def sentence_log_prob(self, tokens: list[str]) -> float:
        if not tokens:
            raise ValueError("empty sequence")
        wrapped = [START] + list(tokens) + [END]
        return sum(math.log(self.prob(w, h)) for h, w in zip(wrapped, wrapped[1:]))

    def next_word_distribution(self, context: str) -> dict[str, float]:
        """Smoothed conditional over the LM vocabulary; always sums to 1."""
        return {w: self.prob(w, context) for w in self.vocab}

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "context_counts": self.context_counts,
            "bigram_counts": self.bigram_counts,
            "vocab": self.vocab,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BigramLM":
        return cls(d["context_counts"], d["bigram_counts"], d["vocab"], d["alpha"])

