"""Discriminative answer-selection model.

Question and answer are encoded by bidirectional GRUs; a pair is
represented as [v_q; v_a; v_q*v_a; cooc_embedding] and fed to a 2-class
linear head.  The ranking scalar is tanh of the positive-class
pre-activation, so ranking, the NLL loss, and the derived conditional
log P(answer | question) all share one score.

The head has one implementation, ``pair_logits``, over a block of pairs
whose rows equal the single pair's computation bit for bit: a training
step runs every pair of its batch through it at once, ranking every
candidate of a question, and the per-pair functions are its B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .metrics import ranked_order
from .text import PAD_ID

__all__ = [
    "glorot_uniform",
    "GRUCellParams",
    "gru_step",
    "QAParams",
    "time_major",
    "bigru_states",
    "encode_bigru",
    "qa_score",
    "pair_logits",
    "pair_scores",
    "qa_logits_from_vectors",
    "qa_score_from_vectors",
    "qa_nll_loss_from_vectors",
    "log_conditional_from_scores",
    "candidate_scores",
    "rank_candidates",
]


def glorot_uniform(rng: np.random.Generator, shape) -> ad.Tensor:
    """Uniform init scaled by combined fan-in and fan-out."""
    if len(shape) == 1:
        fan_sum = shape[0] + 1
    else:
        fan_sum = shape[0] + shape[1]
    limit = np.sqrt(6.0 / fan_sum)
    return ad.Tensor(rng.uniform(-limit, limit, size=shape))


@dataclass
class GRUCellParams:
    """Gate weights for one GRU direction.

    W_* act on the input embedding (hidden x input), U_* on the previous
    hidden state (hidden x hidden).  The update equations have no biases.
    """

    W_z: ad.Tensor
    U_z: ad.Tensor
    W_r: ad.Tensor
    U_r: ad.Tensor
    W_h: ad.Tensor
    U_h: ad.Tensor

    @property
    def hidden_dim(self) -> int:
        return self.W_z.shape[0]

    @property
    def weights(self) -> tuple[ad.Tensor, ...]:
        """The six weights in the argument order of the GRU primitives."""
        return self.W_z, self.U_z, self.W_r, self.U_r, self.W_h, self.U_h


def gru_step(cell: GRUCellParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """One GRU update of B states on arrays, unrecorded: the (B, in) inputs
    and (B, h) states give the (B, h) new states, each row the T = 1
    ``gru_sequence`` of that row bit for bit."""
    return ad._gru_run(x, h_prev, *(w.values for w in cell.weights))[0][1]


@dataclass
class QAParams:
    """All trainable tensors of the answer-selection model.

    The embedding matrices are the ones the generation model holds; the
    feature dimension is 6*hidden + cooc_dim (v_q, v_a, v_q*v_a, cooc
    embedding).  ``trainer.parameter_layout`` gives every tensor's
    record name and shape.
    """

    question_embeddings: ad.Tensor
    answer_embeddings: ad.Tensor
    question_fwd: GRUCellParams
    question_bwd: GRUCellParams
    answer_fwd: GRUCellParams
    answer_bwd: GRUCellParams
    cooc_table: ad.Tensor
    output_weights: ad.Tensor
    output_bias: ad.Tensor

    def _side(self, side: str):
        if side == "question":
            return self.question_embeddings, self.question_fwd, self.question_bwd
        if side == "answer":
            return self.answer_embeddings, self.answer_fwd, self.answer_bwd
        raise ValueError(f"side must be 'question' or 'answer', got {side!r}")


def time_major(seqs) -> np.ndarray:
    """The ids of B lists as T * B ids in time-major order, id t * B + b
    token t of list b: each list left-aligned, padded with ``PAD_ID`` to
    the longest, T."""
    grid = np.full((max(map(len, seqs)), len(seqs)), PAD_ID, dtype=np.intp)
    for b, seq in enumerate(seqs):
        grid[:len(seq), b] = seq
    return grid.ravel()


def bigru_states(seqs: list[list[int]], emb: ad.Tensor, fwd: GRUCellParams,
                 bwd: GRUCellParams):
    """A forward and a backward GRU pass over each of B id lists, both from
    zero states, as one ``gru_sequence`` per direction over a time-major
    grid of embedded ids: the forward grid holds each list left-aligned, the
    backward grid each list reversed and left-aligned, both padded with
    ``PAD_ID``.  Returns the two (T * B, h) state tables, row t * B + b the
    state after token t of list b (of its reversal, backward), and each
    list's last row, (n_b - 1) * B + b, where both of its directions end."""
    lens = [len(seq) for seq in seqs]
    if not seqs or not min(lens):
        raise ValueError("bigru_states: empty input")
    B = len(seqs)
    fwd_states, bwd_states = (
        ad.gru_sequence(ad.row_lookup(emb, time_major(order)), ad.zeros((B, cell.hidden_dim)),
                        *cell.weights)
        for cell, order in ((fwd, seqs), (bwd, [seq[::-1] for seq in seqs])))
    return fwd_states, bwd_states, [(n - 1) * B + b for b, n in enumerate(lens)]


def encode_bigru(ids: list[int] | list[list[int]], side: str, params: QAParams) -> ad.Tensor:
    """Concatenation of the two final hidden states of a forward and a
    backward GRU pass, both starting from zero states.

    ``ids`` may also be a list of B id lists: the result is then a (B, 2h)
    block whose row b equals ``encode_bigru(ids[b])`` bit for bit, all B
    lists encoded by one ``bigru_states``."""
    single = not ids or isinstance(ids[0], (int, np.integer))
    fwd_states, bwd_states, last = bigru_states([ids] if single else ids, *params._side(side))
    rows = last[0] if single else last
    return ad.concat([ad.row_lookup(fwd_states, rows), ad.row_lookup(bwd_states, rows)])


def pair_logits(V_q: ad.Tensor, V_a: ad.Tensor, cooc_counts, params: QAParams) -> ad.Tensor:
    """Two-class pre-activations [negative, positive] of N pairs, from
    (N, 2h) blocks of their question and answer encodings and their N
    co-occurrence counts: one (N, F) feature block times ``output_weights``
    by rows (``matmul_rows``) plus the bias, so row n equals the pair's
    ``qa_logits_from_vectors`` bit for bit."""
    max_row = params.cooc_table.shape[0] - 1
    feature = ad.concat([
        V_q,
        V_a,
        ad.elementwise_mul(V_q, V_a),
        ad.row_lookup(params.cooc_table, [min(int(c), max_row) for c in cooc_counts]),
    ])
    return ad.add(ad.matmul_rows(params.output_weights, feature), params.output_bias)


def pair_scores(logits: ad.Tensor, rows) -> ad.Tensor:
    """Ranking scalars of the given rows of a ``pair_logits`` block: tanh of
    each one's positive-class pre-activation."""
    return ad.tanh(ad.row_lookup(logits, rows, column=1))


def qa_logits_from_vectors(v_q: ad.Tensor, v_a: ad.Tensor, cooc_count: int,
                           params: QAParams) -> ad.Tensor:
    """Two-class pre-activations [negative, positive] of one pair from its
    question and answer encodings: the B = 1 case of ``pair_logits``."""
    V_q, V_a = (ad.concat([v], axis="rows") for v in (v_q, v_a))
    return ad.row_lookup(pair_logits(V_q, V_a, [cooc_count], params), 0)


def qa_score_from_vectors(v_q: ad.Tensor, v_a: ad.Tensor, cooc_count: int,
                          params: QAParams) -> ad.Tensor:
    logits = qa_logits_from_vectors(v_q, v_a, cooc_count, params)
    return ad.tanh(ad.row_lookup(logits, [1]))


def qa_nll_loss_from_vectors(v_q: ad.Tensor, v_a: ad.Tensor, label: int,
                             cooc_count: int, params: QAParams) -> ad.Tensor:
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    logits = qa_logits_from_vectors(v_q, v_a, cooc_count, params)
    return ad.scalar_scale(ad.row_lookup(ad.log_softmax(logits), int(label)), -1.0)


def log_conditional_from_scores(scores: list[ad.Tensor]) -> ad.Tensor:
    """Log of the first score's softmax share among all given size-1
    scores: the B = 1 case of ``log_share``."""
    return ad.log_share(ad.concat(scores))


def qa_score(q_ids: list[int], a_ids: list[int], params: QAParams,
             cooc_count: int) -> ad.Tensor:
    """Ranking scalar in (-1, 1) of one pair encoded from its ids, as a
    size-1 tensor."""
    v_q = encode_bigru(q_ids, "question", params)
    v_a = encode_bigru(a_ids, "answer", params)
    return qa_score_from_vectors(v_q, v_a, cooc_count, params)


def candidate_scores(q_ids: list[int], candidates: list[list[int]], params: QAParams,
                     cooc_counts: list[int]) -> list[float]:
    """Inference-time score of every candidate answer for one question:
    the question is encoded once, all candidates as one (B, 2h) block whose
    rows are their vector encodings bit for bit, and the B pairs go through
    ``pair_logits`` as one block, so each score equals ``qa_score`` of its
    pair exactly and equal candidates tie exactly."""
    if not candidates:
        raise ValueError("candidate_scores: empty candidate list")
    B = len(candidates)
    with ad.no_recording():
        v_q = encode_bigru([q_ids], "question", params)
        V = encode_bigru(candidates, "answer", params)
        logits = pair_logits(ad.row_lookup(v_q, [0] * B), V, cooc_counts, params)
        return pair_scores(logits, range(B)).values.tolist()


def rank_candidates(q_ids: list[int], candidates: list[list[int]], params: QAParams,
                    cooc_counts: list[int]) -> list[int]:
    """Candidate indices in score order, best first; ties keep the lower
    original index."""
    return ranked_order(candidate_scores(q_ids, candidates, params, cooc_counts))
