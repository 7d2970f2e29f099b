"""Shared builders for the test suite: tiny model instances and a small
in-memory corpus, sized so full finite-difference checks stay fast; the
finite-difference gradient check; and reference encoders and decoders
that the program's are compared with."""

from collections import Counter

import numpy as np

from dualqa import autodiff as ad
from dualqa import bigram, qa, qg, text, toy, trainer

TINY_DIMS = trainer.ModelDims(
    embedding_dim=6, qa_hidden=8, qg_hidden=8, attention_dim=5,
    cooc_vocab=10, cooc_dim=4,
)
# Acceptance criterion 7's dims, and the benchmark's mid-scale dims.
TOY_DIMS = trainer.ModelDims(embedding_dim=20, qa_hidden=12, qg_hidden=16, attention_dim=8)
MID_DIMS = trainer.ModelDims(embedding_dim=100, qa_hidden=50, qg_hidden=64, attention_dim=30)

TINY_VOCAB = 16


def make_tiny_models(seed=3, vocab_size=TINY_VOCAB, dims=TINY_DIMS):
    return trainer.init_models(vocab_size, vocab_size, dims, seed=seed)


def zero_all(models):
    """Zero every tensor of a (qa_params, qg_params) pair."""
    for _, t in trainer.named_parameters(*models):
        t.values[...] = 0.0
    return models


def model_tensors(models, model):
    """The shared embeddings, then the tensors of ``model`` ("qa" or "qg")
    alone, in layout order."""
    other = "qg." if model == "qa" else "qa."
    return [t for name, t in trainer.named_parameters(*models) if not name.startswith(other)]


def unique_tensors(named):
    seen = set()
    out = []
    for _, t in named:
        if id(t) not in seen:
            seen.add(id(t))
            out.append(t)
    return out


SMALL_ROWS = [
    ("q0", "p0", "what color is the otter ?", "the otter is gray .", 1),
    ("q0", "p1", "what color is the otter ?", "the badger is brown .", 0),
    ("q1", "p1", "where does the badger live ?", "the badger lives in forest .", 1),
    ("q1", "p0", "where does the badger live ?", "the otter lives in river .", 0),
    ("q2", "p2", "what does the heron eat ?", "the heron eats fish .", 1),
    ("q2", "p0", "what does the heron eat ?", "the otter eats insects .", 0),
    ("q3", "p3", "what sound does the gecko make ?", "the gecko makes clicking sounds .", 1),
    ("q3", "p2", "what sound does the gecko make ?", "the heron makes humming sounds .", 0),
]


def write_rows(path, rows=SMALL_ROWS):
    with open(path, "w", encoding="utf-8") as f:
        for qid, pid, q, a, label in rows:
            f.write(f"{qid}\t{pid}\t{q}\t{a}\t{label}\n")
    return path


def small_corpus(tmp_path):
    path = tmp_path / "small.tsv"
    write_rows(path)
    return text.load_tsv(path)


def make_small_trainer(pairs, lambda_q=0.1, lambda_a=0.1, seed=11, dims=TINY_DIMS):
    positives = [p for p in pairs if p.label == 1]
    vocab_q = text.build_vocab([p.question_tokens for p in pairs], 100)
    vocab_a = text.build_vocab([p.answer_tokens for p in pairs], 100)
    lm_q = bigram.BigramLM.fit([p.question_tokens for p in positives])
    lm_a = bigram.BigramLM.fit([p.answer_tokens for p in positives])
    qa_params, qg_params = trainer.init_models(vocab_q.size, vocab_a.size, dims, seed=seed)
    config = trainer.TrainerConfig(lambda_q=lambda_q, lambda_a=lambda_a)
    return trainer.DualTrainer(qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a, config)


def toy_dual_trainer(tmp_path):
    """``(trainer, batch)`` of one toy dual step: acceptance criterion 7's
    corpus, dims, batch size and seed, lambda 0.1."""
    train_rows, _ = toy.generate_corpus()
    toy.write_tsv(train_rows, tmp_path / "train.tsv")
    pairs = text.load_tsv(tmp_path / "train.tsv")
    positives = [p for p in pairs if p.label == 1]
    vocab_q = text.build_vocab([p.question_tokens for p in pairs], 200)
    vocab_a = text.build_vocab([p.answer_tokens for p in pairs], 200)
    qa_params, qg_params = trainer.init_models(vocab_q.size, vocab_a.size, TOY_DIMS, seed=7)
    dual = trainer.DualTrainer(
        qa_params, qg_params,
        bigram.BigramLM.fit([p.question_tokens for p in positives]),
        bigram.BigramLM.fit([p.answer_tokens for p in positives]),
        vocab_q, vocab_a, trainer.TrainerConfig(lambda_q=0.1, lambda_a=0.1))
    batch = next(text.make_batches(pairs, 16, 10, seed=7))
    assert batch.size == 16
    return dual, batch


def toy_dual_objectives(tmp_path):
    """``_batch_objectives`` of one toy dual step, ``(record, objectives,
    qa_sum, qg_sum, dual_sum)``."""
    dual, batch = toy_dual_trainer(tmp_path)
    return dual._batch_objectives(batch, use_dual=True)


def per_token_bigru_states(ids, emb, fwd, bwd):
    """The BiGRU as a chain of per-token ``gru_step`` calls, one per id and
    direction: each direction's states as a list in input order."""
    states = []
    for cell, order in ((fwd, ids), (bwd, ids[::-1])):
        h, hs = ad.zeros(cell.hidden_dim), []
        for i in order:
            h = qa.gru_step(cell, ad.row_lookup(emb, i), h)
            hs.append(h)
        states.append(hs)
    return states[0], states[1][::-1]


def per_token_encode_answer(a_ids, qg_params):
    """(H, s0) of ``qg.encode_answer`` from the per-token BiGRU."""
    fwd, bwd = per_token_bigru_states(a_ids, qg_params.answer_embeddings,
                                      qg_params.encoder_fwd, qg_params.encoder_bwd)
    H = ad.concat([ad.concat([f, b]) for f, b in zip(fwd, bwd)], axis="rows")
    return H, ad.concat([fwd[-1], bwd[0]])


def per_token_sequence_log_prob(q_ids, a_ids, qg_params):
    """Teacher-forced log P(q | a) from per-token encoders and one
    ``gru_step`` then ``attention_step`` per target, the [state; context]
    rows scored by one ``target_log_prob``."""
    H, state = per_token_encode_answer(a_ids, qg_params)
    k, history = keys(H, qg_params), ad.zeros(H.shape[1])
    targets = list(q_ids) + [text.EOS_ID]
    rows = []
    for prev in [text.SOS_ID] + targets[:-1]:
        state = qa.gru_step(qg_params.decoder,
                            ad.row_lookup(qg_params.question_embeddings, prev), state)
        _, history = qg.attention_step(state, H, k, history, qg_params)
        rows.append(ad.concat([state, history]))
    return ad.target_log_prob(ad.concat(rows, axis="rows"), qg_params.output_projection,
                              targets)


def keys(H, qg_params):
    """The attention keys of an encoded answer, as the decoders compute them."""
    return ad.matmul(H, qg_params.att_encoder)


def argmax_decode(a_ids, max_len, qg_params):
    """Greedy decoding as a chain of ``decode_step`` argmaxes until EOS or
    ``max_len``: (tokens, summed log-probability, attention rows)."""
    with ad.no_recording():
        H, state = qg.encode_answer(a_ids, qg_params)
        k = keys(H, qg_params)
        history, prev = ad.zeros(H.shape[1]), text.SOS_ID
        tokens, log_prob, rows = [], 0.0, []
        while len(tokens) < max_len and prev != text.EOS_ID:
            log_probs, state, alpha, history = qg.decode_step(prev, state, H, k, history,
                                                              qg_params)
            prev = int(np.argmax(log_probs.values))
            tokens.append(prev)
            log_prob += float(log_probs.values[prev])
            rows.append(alpha.values)
    return tokens, log_prob, rows


def per_beam_search(a_ids, beam_size, max_len, qg_params):
    """Beam search with one vector ``decode_step`` per live beam per step,
    the pool and tie rule of ``qg.beam_search``: (tokens, log-probability,
    attention rows) of each hypothesis, best first."""
    with ad.no_recording():
        H, s0 = qg.encode_answer(a_ids, qg_params)
        k = keys(H, qg_params)
        # (tokens, log_prob, rows, state, history, finished)
        live = [([], 0.0, [], s0, ad.zeros(H.shape[1]), False)]
        finished = []
        for _ in range(max_len):
            pool = list(finished)
            for tokens, log_prob, rows, state, history, _ in live:
                prev = tokens[-1] if tokens else text.SOS_ID
                log_probs, state, alpha, context = qg.decode_step(prev, state, H, k, history,
                                                                  qg_params)
                top = qg._top_ids(log_probs.values, beam_size)
                for token in top.tolist():
                    pool.append((tokens + [token], log_prob + float(log_probs.values[token]),
                                 rows + [alpha.values], state, context, token == text.EOS_ID))
            pool.sort(key=lambda b: -b[1])
            kept = pool[:beam_size]
            live = [b for b in kept if not b[5]]
            finished = [b for b in kept if b[5]]
            if not live:
                break
        finished += live
        finished.sort(key=lambda b: -b[1])
    return [(tokens, log_prob, rows) for tokens, log_prob, rows, *_ in finished[:beam_size]]


def per_token_bigram_fit(corpus, alpha=1.0):
    """``BigramLM.fit`` with one count update per token: the reference its
    pair counting must equal."""
    context_counts, bigram_counts, vocab = Counter(), {}, {bigram.END}
    for sentence in corpus:
        wrapped = [bigram.START] + list(sentence) + [bigram.END]
        vocab.update(sentence)
        for h, w in zip(wrapped, wrapped[1:]):
            context_counts[h] += 1
            bigram_counts.setdefault(h, Counter())[w] += 1
    return bigram.BigramLM(context_counts, bigram_counts, vocab, alpha)


def masked_sigmoid(x):
    """The numerically stable logistic function written through a sign
    mask, each side's formula applied to its own entries: the oracle that
    ``autodiff``'s mask-free form must equal byte for byte."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class GradientCheckError(ValueError):
    """Raised when analytic gradients disagree with central differences."""

    def __init__(self, message, max_relative_error):
        super().__init__(message)
        self.max_relative_error = max_relative_error


def grad_check(build_loss, params, epsilon=1e-5, tolerance=1e-4, analytic_scale=1.0):
    """Compare backward() gradients against central finite differences.

    ``build_loss(params)`` must deterministically rebuild the scalar loss
    from the given parameter tensors.  Returns the max relative error
    over every entry of every parameter,
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``, and
    raises :class:`GradientCheckError` when it exceeds ``tolerance``.
    ``analytic_scale`` deliberately corrupts the analytic side so
    negative controls can prove the check is able to fail.
    """
    if epsilon <= 0:
        raise ValueError("grad_check: epsilon must be positive")
    with ad.ComputationRecord():
        loss = build_loss(params)
    base = loss.item()
    analytic = [g * analytic_scale for g in ad.backward(loss, params)]
    with ad.no_recording():
        again = build_loss(params).item()
        if again != base:
            raise ValueError("grad_check: build_loss is not deterministic")
        max_err = 0.0
        for p, ana in zip(params, analytic):
            flat = p.values.reshape(-1)
            aflat = ana.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                hi = build_loss(params).item()
                flat[i] = orig - epsilon
                lo = build_loss(params).item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * epsilon)
                a = aflat[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if err > max_err:
                    max_err = err
    if max_err > tolerance:
        raise GradientCheckError(
            f"gradient check failed: max relative error {max_err:.3e} > {tolerance:.1e}",
            max_err,
        )
    return max_err
