"""Discriminative answer-selection model.

Question and answer are encoded by bidirectional GRUs; a pair is
represented as [v_q; v_a; v_q*v_a; cooc_embedding] and fed to a 2-class
linear head.  The ranking scalar is tanh of the positive-class
pre-activation, so ranking, the NLL loss, and the derived conditional
log P(answer | question) all share one score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .metrics import ranked_order

__all__ = [
    "glorot_uniform",
    "GRUCellParams",
    "gru_step",
    "QAParams",
    "bigru_states",
    "encode_bigru",
    "qa_score",
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


def gru_step(cell: GRUCellParams, x: ad.Tensor, h_prev: ad.Tensor) -> ad.Tensor:
    """One GRU update: z and r gate the candidate state against h_prev."""
    return ad.gru_cell(x, h_prev, *cell.weights)


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


def bigru_states(ids: list[int], emb: ad.Tensor, fwd: GRUCellParams,
                 bwd: GRUCellParams):
    """(T, h) hidden states of a forward and a backward GRU pass over the
    embedded ids, both from zero states and both in input order: the
    forward pass ends at row T - 1, the backward pass at row 0.  Each
    direction is one ``gru_sequence`` over one ``row_lookup`` of the ids."""
    if not ids:
        raise ValueError("bigru_states: empty input")
    fwd_states, bwd_states = (
        ad.gru_sequence(ad.row_lookup(emb, order), ad.zeros(cell.hidden_dim), *cell.weights)
        for cell, order in ((fwd, ids), (bwd, ids[::-1])))
    return fwd_states, ad.row_lookup(bwd_states, range(len(ids) - 1, -1, -1))


def encode_bigru(ids: list[int] | list[list[int]], side: str, params: QAParams) -> ad.Tensor:
    """Concatenation of the two final hidden states of a forward and a
    backward GRU pass, both starting from zero states.

    ``ids`` may also be a list of B id lists: the result is then a (B, 2h)
    block whose row b equals ``encode_bigru(ids[b])`` bit for bit.  Each
    direction steps all lists at once, left-aligned and padded with id 0,
    and reads a row's final state at its own last token."""
    if not ids or isinstance(ids[0], (int, np.integer)):
        fwd_states, bwd_states = bigru_states(ids, *params._side(side))
        return ad.concat([ad.row_lookup(fwd_states, len(ids) - 1), ad.row_lookup(bwd_states, 0)])
    emb, *cells = params._side(side)
    lens = [len(seq) for seq in ids]
    if not min(lens):
        raise ValueError("encode_bigru: empty input")
    finals = []
    for cell, seqs in zip(cells, (ids, [seq[::-1] for seq in ids])):
        grid = np.zeros((len(ids), max(lens)), dtype=np.intp)
        for b, seq in enumerate(seqs):
            grid[b, :lens[b]] = seq
        hs = [ad.zeros((len(ids), cell.hidden_dim))]
        for column in grid.T:
            hs.append(gru_step(cell, ad.row_lookup(emb, column), hs[-1]))
        finals.append(ad.concat([ad.row_lookup(hs[n], b) for b, n in enumerate(lens)],
                                axis="rows"))
    return ad.concat(finals)


def qa_logits_from_vectors(v_q: ad.Tensor, v_a: ad.Tensor, cooc_count: int,
                           params: QAParams) -> ad.Tensor:
    """Two-class pre-activations [negative, positive] from precomputed
    question/answer encodings; lets a batch reuse encodings."""
    max_row = params.cooc_table.shape[0] - 1
    cooc_count = min(int(cooc_count), max_row)
    feature = ad.concat([
        v_q,
        v_a,
        ad.elementwise_mul(v_q, v_a),
        ad.row_lookup(params.cooc_table, cooc_count),
    ])
    return ad.add(ad.matmul(params.output_weights, feature), params.output_bias)


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
    """Log of the first score's softmax share among all given size-1 scores."""
    return ad.row_lookup(ad.log_softmax(ad.concat(scores)), 0)


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
    the question is encoded once, and all candidates as one (B, 2h) block
    whose rows are their vector encodings bit for bit, so each score equals
    ``qa_score`` of its pair exactly and equal candidates tie exactly."""
    if not candidates:
        raise ValueError("candidate_scores: empty candidate list")
    with ad.no_recording():
        v_q = encode_bigru(q_ids, "question", params)
        V = encode_bigru(candidates, "answer", params)
        return [
            qa_score_from_vectors(v_q, ad.row_lookup(V, b), cc, params).item()
            for b, cc in zip(range(len(candidates)), cooc_counts)
        ]


def rank_candidates(q_ids: list[int], candidates: list[list[int]], params: QAParams,
                    cooc_counts: list[int]) -> list[int]:
    """Candidate indices in score order, best first; ties keep the lower
    original index."""
    return ranked_order(candidate_scores(q_ids, candidates, params, cooc_counts))
