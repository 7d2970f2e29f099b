"""Generative question model: BiGRU answer encoder, GRU decoder with a
history-aware additive attention, teacher-forced NLL, beam search, and
attention-driven UNK replacement.

The decoder state width equals the encoder's concatenated output (twice
the per-direction hidden size) so the encoder summary seeds the decoder
directly.  Cumulative log-probability scores beams; no length
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .qa import GRUCellParams, bigru_states, gru_step
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
    """Returns (H, s0): per-position concatenated forward/backward states
    as rows of H, and the final states of both directions concatenated as
    the initial decoder state."""
    fwd_states, bwd_states = bigru_states(
        a_ids, params.answer_embeddings, params.encoder_fwd, params.encoder_bwd)
    rows = [ad.concat([f, b]) for f, b in zip(fwd_states, bwd_states)]
    H = ad.concat(rows, axis="rows")
    s0 = ad.concat([fwd_states[-1], bwd_states[0]])
    return H, s0


def attention_step(s_t: ad.Tensor, H: ad.Tensor, keys: ad.Tensor, history: ad.Tensor,
                   params: QGParams):
    """Additive attention over encoder rows, also conditioned on the
    previous step's attention-weighted sum (zero at the first step).
    ``keys`` is ``H @ att_encoder``, fixed for the whole answer, so
    callers compute it once per answer (Bahdanau et al. 2015, appendix A).

    Returns (weights over positions, context vector).
    """
    projected = ad.add(
        ad.add(keys, ad.matmul(s_t, params.att_state)),
        ad.matmul(history, params.att_history),
    )
    scores = ad.matmul(ad.tanh(projected), params.att_vector)
    alpha = ad.softmax_lastdim(scores)
    context = ad.matmul(alpha, H)
    return alpha, context


def decode_step(prev_token_id: int, state: ad.Tensor, H: ad.Tensor, keys: ad.Tensor,
                history: ad.Tensor, params: QGParams):
    """Advance the decoder one step.

    Returns (log-probabilities over the question vocabulary, new state,
    attention weights, context vector); the context is the next step's
    attention history.  The log-probabilities come from one max-shifted
    log-softmax, so they are finite even where a probability underflows.
    """
    embedded = ad.row_lookup(params.question_embeddings, int(prev_token_id))
    s_t = gru_step(params.decoder, embedded, state)
    alpha, context = attention_step(s_t, H, keys, history, params)
    logits = ad.matmul(params.output_projection, ad.concat([s_t, context]))
    return ad.log_softmax(logits), s_t, alpha, context


def sequence_log_prob(q_ids: list[int], a_ids: list[int], params: QGParams) -> ad.Tensor:
    """Teacher-forced log P(question | answer), including the EOS step.

    The gold previous token, not a prediction, feeds each step, so the
    output layer never feeds back into the recurrence: the loop runs the
    GRU and attention and stacks the [state; context] rows, and one
    ``target_log_prob`` scores every row against its target at once.
    """
    if not q_ids:
        raise ValueError("sequence_log_prob: empty question")
    H, state = encode_answer(a_ids, params)
    keys = ad.matmul(H, params.att_encoder)
    history = ad.zeros(H.shape[1])
    targets = [int(t) for t in q_ids] + [EOS_ID]
    rows = []
    for prev in [SOS_ID] + targets[:-1]:
        state = gru_step(params.decoder, ad.row_lookup(params.question_embeddings, prev), state)
        _, history = attention_step(state, H, keys, history, params)
        rows.append(ad.concat([state, history]))
    return ad.target_log_prob(ad.concat(rows, axis="rows"), params.output_projection, targets)


@dataclass
class BeamHypothesis:
    """A decoded candidate: token ids after SOS (EOS included when it was
    generated), cumulative log-probability, one attention row per emitted
    token, and a termination flag."""

    tokens: list[int]
    log_prob: float
    attention_rows: list[np.ndarray]
    finished: bool


class _Beam:
    __slots__ = ("tokens", "log_prob", "rows", "state", "history", "finished")

    def __init__(self, tokens, log_prob, rows, state, history, finished):
        self.tokens = tokens
        self.log_prob = log_prob
        self.rows = rows
        self.state = state
        self.history = history
        self.finished = finished


def greedy_decode(a_ids: list[int], max_len: int, params: QGParams) -> BeamHypothesis:
    """Argmax decoding until EOS or max_len; ties pick the lowest id."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    with ad.no_recording():
        H, state = encode_answer(a_ids, params)
        keys = ad.matmul(H, params.att_encoder)
        history = ad.zeros(H.shape[1])
        prev = SOS_ID
        tokens: list[int] = []
        rows: list[np.ndarray] = []
        log_prob = 0.0
        for _ in range(max_len):
            log_probs, state, alpha, context = decode_step(prev, state, H, keys, history, params)
            token = int(np.argmax(log_probs.values))
            tokens.append(token)
            rows.append(alpha.values.copy())
            log_prob += float(log_probs.values[token])
            history = context
            prev = token
            if token == EOS_ID:
                break
    return BeamHypothesis(tokens, log_prob, rows, True)


def beam_search(a_ids: list[int], beam_size: int, max_len: int,
                params: QGParams) -> list[BeamHypothesis]:
    """Top-``beam_size`` hypotheses by cumulative log-probability.

    Hypotheses emitting EOS are finished and keep competing in the pool;
    survivors are forcibly finished at ``max_len``.  Output is sorted by
    log-probability descending.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    with ad.no_recording():
        H, s0 = encode_answer(a_ids, params)
        keys = ad.matmul(H, params.att_encoder)
        live = [_Beam([], 0.0, [], s0, ad.zeros(H.shape[1]), False)]
        finished: list[_Beam] = []
        for _ in range(max_len):
            pool = list(finished)
            for beam in live:
                prev = beam.tokens[-1] if beam.tokens else SOS_ID
                log_probs, state, alpha, context = decode_step(prev, beam.state, H, keys,
                                                                beam.history, params)
                # Each live beam contributes at most beam_size extensions.
                top = np.argsort(-log_probs.values, kind="stable")[:beam_size]
                row = alpha.values.copy()
                for token in top:
                    token = int(token)
                    pool.append(_Beam(
                        beam.tokens + [token],
                        beam.log_prob + float(log_probs.values[token]),
                        beam.rows + [row],
                        state,
                        context,
                        token == EOS_ID,
                    ))
            pool.sort(key=lambda b: -b.log_prob)
            kept = pool[:beam_size]
            live = [b for b in kept if not b.finished]
            finished = [b for b in kept if b.finished]
            if not live:
                break
        for beam in live:
            beam.finished = True
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
