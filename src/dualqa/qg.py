"""Generative question model: BiGRU answer encoder, GRU decoder with a
history-aware additive attention, teacher-forced NLL, beam search, and
attention-driven UNK replacement.

The decoder state width equals the encoder's concatenated output (twice
the per-direction hidden size) so the encoder summary seeds the decoder
directly.  Cumulative log-probability scores beams; no length
normalization.  Decoding advances every live beam at once: their states
and attention histories are the rows of one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .qa import GRUCellParams, bigru_states, gru_step, time_major
from .text import EOS_ID, SOS_ID, UNK_ID, Vocabulary

__all__ = [
    "QGParams",
    "BeamHypothesis",
    "encode_answer",
    "attention_step",
    "decode_step",
    "sequence_log_prob",
    "greedy_decode",
    "beam_search",
    "unk_replace",
]


@dataclass
class QGParams:
    """Trainable tensors of the question generator.

    Attention matrices are stored input-major (input_dim x attention_dim)
    so encoder states project with a single matmul; the output projection
    maps [state; context] to question-vocabulary logits.  The embedding
    matrices are the selection model's; ``trainer.parameter_layout``
    gives every tensor's record name and shape.
    """

    question_embeddings: ad.Tensor
    answer_embeddings: ad.Tensor
    encoder_fwd: GRUCellParams
    encoder_bwd: GRUCellParams
    decoder: GRUCellParams
    att_state: ad.Tensor
    att_encoder: ad.Tensor
    att_history: ad.Tensor
    att_vector: ad.Tensor
    output_projection: ad.Tensor


def encode_answer(a_ids: list[int], params: QGParams):
    """Returns (H, s0): the (T, 2h) forward and backward states of a BiGRU
    pass over the answer, side by side in input order in the rows of H, and
    the final states of both directions concatenated as the initial decoder
    state; the B = 1 case of ``bigru_states``."""
    fwd_states, bwd_states, (last,) = bigru_states(
        [a_ids], params.answer_embeddings, params.encoder_fwd, params.encoder_bwd)
    s0 = ad.concat([ad.row_lookup(fwd_states, last), ad.row_lookup(bwd_states, last)])
    return ad.concat([fwd_states, ad.row_lookup(bwd_states, range(last, -1, -1))]), s0


def attention_step(s_t: ad.Tensor, H: ad.Tensor, keys: ad.Tensor, history: ad.Tensor,
                   params: QGParams):
    """Additive attention over encoder rows, also conditioned on the
    previous step's attention-weighted sum (zero at the first step).
    ``keys`` is ``H @ att_encoder``, fixed for the whole answer, so
    callers compute it once per answer (Bahdanau et al. 2015, appendix A).
    ``s_t`` and ``history`` may be (B, 2h) blocks, one row per decoder.

    Returns (weights over positions, context vector), in rows for blocks.
    """
    def per_position(t):  # a (B, att) block meets the (T, att) keys as (B, 1, att)
        return t if t.values.ndim == 1 else ad.reshape(t, (t.shape[0], 1, t.shape[1]))
    projected = ad.add(
        ad.add(keys, per_position(ad.matmul(s_t, params.att_state))),
        per_position(ad.matmul(history, params.att_history)),
    )
    scores = ad.matmul(ad.tanh(projected), params.att_vector)
    alpha = ad.softmax_lastdim(scores)
    context = ad.matmul(alpha, H)
    return alpha, context


def decode_step(prev_ids, state: ad.Tensor, H: ad.Tensor, keys: ad.Tensor,
                history: ad.Tensor, params: QGParams):
    """Advance the decoder one step, from one previous token id and state
    and history vectors, or from B ids and (B, 2h) blocks (B decoders).

    Returns (log-probabilities over the question vocabulary, new state,
    attention weights, context vector), in rows for blocks; the context
    is the next step's attention history.  The log-probabilities come
    from one max-shifted log-softmax, so they are finite even where a
    probability underflows.
    """
    embedded = ad.row_lookup(params.question_embeddings, prev_ids)
    s_t = gru_step(params.decoder, embedded, state)
    alpha, context = attention_step(s_t, H, keys, history, params)
    log_probs = ad.linear_log_softmax(ad.concat([s_t, context]), params.output_projection)
    return log_probs, s_t, alpha, context


def sequence_log_prob(q_ids: list[int] | list[list[int]], a_ids: list[int] | list[list[int]],
                      params: QGParams):
    """Teacher-forced log P(question | answer), including the EOS step.

    The gold previous token, not a prediction, feeds each step, and the
    attention context never feeds the recurrence: the decoder GRU runs as
    one ``gru_sequence`` over the embedded ``[SOS] + targets[:-1]`` from
    s0, the loop runs only attention, and one ``target_log_prob`` scores
    every [state; context] row against its target at once.

    ``q_ids`` and ``a_ids`` may also be lists of B id lists, B pairs: the
    result is then the list of their B log-probabilities, each equal to the
    single pair's bit for bit.  The distinct answers are encoded as one
    block, and the decoder GRU runs over every question as one block from
    the rows of the s0 block.
    """
    single = not q_ids or isinstance(q_ids[0], (int, np.integer))
    questions, answers = ([q_ids], [a_ids]) if single else (q_ids, a_ids)
    if not all(questions):
        raise ValueError("sequence_log_prob: empty question")
    distinct: dict[tuple, int] = {}
    index = [distinct.setdefault(tuple(a), len(distinct)) for a in answers]
    fwd_states, bwd_states, last = bigru_states(
        list(distinct), params.answer_embeddings, params.encoder_fwd, params.encoder_bwd)
    D = len(distinct)
    Hs = [ad.concat([ad.row_lookup(fwd_states, range(i, len(a) * D, D)),
                     ad.row_lookup(bwd_states, range(last[i], -1, -D))])
          for i, a in enumerate(distinct)]
    s0 = ad.concat([ad.row_lookup(fwd_states, last), ad.row_lookup(bwd_states, last)])
    targets = [[int(t) for t in q] + [EOS_ID] for q in questions]
    B = len(targets)
    S = ad.gru_sequence(
        ad.row_lookup(params.question_embeddings, time_major([[SOS_ID] + t[:-1] for t in targets])),
        ad.row_lookup(s0, index), *params.decoder.weights)
    log_probs = []
    for b, (tokens, H) in enumerate(zip(targets, (Hs[i] for i in index))):
        states = ad.row_lookup(S, range(b, len(tokens) * B, B))
        keys = ad.matmul(H, params.att_encoder)
        contexts = [ad.zeros(H.shape[1])]
        for t in range(len(tokens)):
            contexts.append(attention_step(ad.row_lookup(states, t), H, keys, contexts[-1],
                                           params)[1])
        rows = ad.concat([states, ad.concat(contexts[1:], axis="rows")])
        log_probs.append(ad.target_log_prob(rows, params.output_projection, tokens))
    return log_probs[0] if single else log_probs


@dataclass
class BeamHypothesis:
    """A decoded candidate: token ids after SOS (EOS included when it was
    generated), cumulative log-probability, one attention row per emitted
    token, and a termination flag."""

    tokens: list[int]
    log_prob: float
    attention_rows: list[np.ndarray]
    finished: bool


@dataclass(slots=True)
class _Beam:
    tokens: list[int]
    log_prob: float
    rows: list[np.ndarray]
    block_row: int  # its state's row in the block of the step that made it


def _top_ids(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` best scores, best first and ties to the lower id:
    ``np.argsort(-scores, kind="stable")[:k]``, but only the ids at or
    above the k-th best score are sorted."""
    kth = max(scores.size - k, 0)
    cut = np.partition(scores, kth)[kth]
    ids = (scores >= cut).nonzero()[0]
    return ids[np.argsort(-scores[ids], kind="stable")[:k]]


def greedy_decode(a_ids: list[int], max_len: int, params: QGParams) -> BeamHypothesis:
    """Argmax decoding until EOS or max_len, ties to the lowest id: a beam
    of one."""
    return beam_search(a_ids, 1, max_len, params)[0]


def beam_search(a_ids: list[int], beam_size: int, max_len: int,
                params: QGParams) -> list[BeamHypothesis]:
    """Top-``beam_size`` hypotheses by cumulative log-probability.

    Hypotheses emitting EOS are finished and keep competing in the pool;
    survivors are forcibly finished at ``max_len``.  Output is sorted by
    log-probability descending.  Each step is one ``decode_step`` on the
    block of every live beam's state and history.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    with ad.no_recording():
        H, s0 = encode_answer(a_ids, params)
        keys = ad.matmul(H, params.att_encoder)
        states, histories = ad.concat([s0], axis="rows"), ad.zeros((1, H.shape[1]))
        live = [_Beam([], 0.0, [], 0)]
        finished: list[_Beam] = []
        for _ in range(max_len):
            prev = [beam.tokens[-1] if beam.tokens else SOS_ID for beam in live]
            log_probs, states, alpha, histories = decode_step(prev, states, H, keys,
                                                              histories, params)
            pool = list(finished)
            for i, (beam, scores, row) in enumerate(zip(live, log_probs.values, alpha.values)):
                row = row.copy()  # a view would keep the whole block alive
                # Each live beam contributes at most beam_size extensions.
                top = _top_ids(scores, beam_size)
                for token, log_prob in zip(top.tolist(), scores[top].tolist()):
                    pool.append(_Beam(beam.tokens + [token], beam.log_prob + log_prob,
                                      beam.rows + [row], i))
            pool.sort(key=lambda b: -b.log_prob)
            kept = pool[:beam_size]
            live = [b for b in kept if b.tokens[-1] != EOS_ID]
            finished = [b for b in kept if b.tokens[-1] == EOS_ID]
            if not live:
                break
            # The survivors' rows of this step's block, in their new order.
            parents = [b.block_row for b in live]
            states, histories = ad.row_lookup(states, parents), ad.row_lookup(histories, parents)
        finished += live
        finished.sort(key=lambda b: -b.log_prob)
    return [
        BeamHypothesis(b.tokens, b.log_prob, b.rows, True)
        for b in finished[:beam_size]
    ]


def unk_replace(hypothesis: BeamHypothesis, answer_tokens: list[str],
                vocab: Vocabulary) -> list[str]:
    """Surface form of a hypothesis: each UNK becomes the answer token
    with the highest attention at that step (ties go left); EOS is
    stripped."""
    if len(hypothesis.attention_rows) < len(hypothesis.tokens):
        raise ValueError("unk_replace: missing attention row")
    out = []
    for position, token in enumerate(hypothesis.tokens):
        if token == EOS_ID:
            continue
        if token == UNK_ID:
            row = hypothesis.attention_rows[position]
            if len(row) != len(answer_tokens):
                raise ValueError(
                    f"unk_replace: attention row covers {len(row)} positions but the "
                    f"answer has {len(answer_tokens)} tokens"
                )
            out.append(answer_tokens[int(np.argmax(row))])
        else:
            out.append(vocab.id_to_token[token])
    return out
