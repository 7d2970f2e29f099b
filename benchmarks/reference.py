"""References for the benchmark's output checks, written apart from the
program with numpy and the stdlib only.

Parameters come in as a plain ``{name: array}`` dict keyed by the
checkpoint record names (``qa.question_fwd.W_z``, ``qg.decoder.U_h``,
``shared.question_embeddings``, ...).  Nothing here calls into
``dualqa``: the formulas are re-derived from the method (GRU update,
pair feature, additive attention, add-alpha bigrams, ranking metrics).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

SOS_ID, EOS_ID = 2, 3
COOC_CLIP = 9


def cooccurrence(question_tokens, answer_tokens) -> int:
    """Distinct token types shared by both sides, clipped to 9."""
    return min(len(set(question_tokens) & set(answer_tokens)), COOC_CLIP)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru(params, prefix, x, h):
    p = {g: params[f"{prefix}.{g}"] for g in ("W_z", "U_z", "W_r", "U_r", "W_h", "U_h")}
    z = _sigmoid(p["W_z"] @ x + p["U_z"] @ h)
    r = _sigmoid(p["W_r"] @ x + p["U_r"] @ h)
    candidate = np.tanh(p["W_h"] @ x + p["U_h"] @ (r * h))
    return z * candidate + (1.0 - z) * h


def _directions(params, emb, fwd, bwd, ids):
    """Per-position forward states and backward states (in input order)."""
    hidden = params[f"{fwd}.U_z"].shape[0]
    h = np.zeros(hidden)
    forward = []
    for i in ids:
        h = _gru(params, fwd, emb[i], h)
        forward.append(h)
    h = np.zeros(hidden)
    backward = []
    for i in reversed(ids):
        h = _gru(params, bwd, emb[i], h)
        backward.append(h)
    backward.reverse()
    return forward, backward


def qa_encode(params, ids, side):
    """BiGRU summary: final forward state then final backward state."""
    emb = params[f"shared.{side}_embeddings"]
    forward, backward = _directions(params, emb, f"qa.{side}_fwd", f"qa.{side}_bwd", ids)
    return np.concatenate([forward[-1], backward[0]])


def qa_logits_vectors(params, v_q, v_a, cooc):
    """[negative, positive] logits over the pair feature
    [v_q; v_a; v_q*v_a; cooc row]."""
    table = params["qa.cooc_table"]
    feature = np.concatenate([v_q, v_a, v_q * v_a, table[min(cooc, table.shape[0] - 1)]])
    return params["qa.output_weights"] @ feature + params["qa.output_bias"]


def qa_score_vectors(params, v_q, v_a, cooc):
    """tanh of the positive-class logit."""
    return math.tanh(float(qa_logits_vectors(params, v_q, v_a, cooc)[1]))


def qa_nll(params, q_ids, a_ids, cooc, label):
    """-log softmax(logits)[label]."""
    logits = qa_logits_vectors(params, qa_encode(params, q_ids, "question"),
                               qa_encode(params, a_ids, "answer"), cooc)
    return -float(_log_softmax(logits)[label])


def qa_score(params, q_ids, a_ids, cooc):
    return qa_score_vectors(params, qa_encode(params, q_ids, "question"),
                            qa_encode(params, a_ids, "answer"), cooc)


def _log_softmax(x):
    shifted = x - x.max()
    return shifted - math.log(float(np.exp(shifted).sum()))


def rescore(params, a_ids, tokens):
    """Teacher-forced log P(tokens | answer) under the attentive decoder,
    summed over exactly the given tokens (EOS counts only if present)."""
    forward, backward = _directions(params, params["shared.answer_embeddings"],
                                    "qg.encoder_fwd", "qg.encoder_bwd", a_ids)
    H = np.stack([np.concatenate([f, b]) for f, b in zip(forward, backward)])
    state = np.concatenate([forward[-1], backward[0]])
    history = np.zeros(H.shape[1])
    projected_h = H @ params["qg.att_encoder"]
    prev = SOS_ID
    total = 0.0
    for token in tokens:
        state = _gru(params, "qg.decoder", params["shared.question_embeddings"][prev], state)
        scores = np.tanh(projected_h + state @ params["qg.att_state"]
                         + history @ params["qg.att_history"]) @ params["qg.att_vector"]
        alpha = np.exp(scores - scores.max())
        alpha /= alpha.sum()
        context = alpha @ H
        logits = params["qg.output_projection"] @ np.concatenate([state, context])
        total += float(_log_softmax(logits)[token])
        history = context
        prev = token
    return total


class Bigram:
    """Add-alpha bigram model over ``<s> w1 .. wn </s>``; the vocabulary is
    every observed word plus the end marker."""

    def __init__(self, sentences, alpha=1.0):
        self.alpha = alpha
        self.context = Counter()
        self.pairs = Counter()
        vocab = {"</s>"}
        for words in sentences:
            vocab.update(words)
            wrapped = ["<s>"] + list(words) + ["</s>"]
            for h, w in zip(wrapped, wrapped[1:]):
                self.context[h] += 1
                self.pairs[h, w] += 1
        self.size = len(vocab)

    def log_prob(self, words):
        wrapped = ["<s>"] + list(words) + ["</s>"]
        return sum(
            math.log((self.pairs[h, w] + self.alpha) / (self.context[h] + self.alpha * self.size))
            for h, w in zip(wrapped, wrapped[1:])
        )


def ranking_metrics(queries):
    """MAP, MRR and P@1 by pairwise counting over (scores, labels) queries.

    A candidate's rank is one plus the number of candidates that beat it:
    a higher score, or an equal score at a lower index.
    """
    ap_sum = rr_sum = p1_sum = 0.0
    for scores, labels in queries:
        n = len(scores)
        rank = [1 + sum(1 for j in range(n)
                        if scores[j] > scores[i] or (scores[j] == scores[i] and j < i))
                for i in range(n)]
        gold = [i for i in range(n) if labels[i] == 1]
        precisions = [sum(1 for j in gold if rank[j] <= rank[i]) / rank[i] for i in gold]
        ap_sum += sum(precisions) / len(gold)
        rr_sum += 1.0 / min(rank[i] for i in gold)
        p1_sum += 1.0 if min(rank[i] for i in gold) == 1 else 0.0
    n_q = len(queries)
    return ap_sum / n_q, rr_sum / n_q, p1_sum / n_q


def order_by_scores(scores):
    """Best first; equal scores keep the lower index first."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))
