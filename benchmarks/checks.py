"""Output checks.  Each compares the program against :mod:`reference` or
against a property the method must have, and each carries a negative
control: the same comparison fed a perturbed parameter or value, which
must fail.  A check counts as sound only when it passes and its control
fails."""

from __future__ import annotations

import math

import numpy as np

from dualqa import autodiff as ad
from dualqa import qa, qg, trainer

import reference as ref

TOL = 1e-9
EXACT = 1e-12
UNK_ID = 1


class Checks:
    def __init__(self):
        self.items: list[dict] = []

    def add(self, name, passed, control_failed, detail=""):
        self.items.append({"check": name, "passed": bool(passed),
                           "control_failed": bool(control_failed), "detail": detail})

    @property
    def ok(self) -> bool:
        return bool(self.items) and all(c["passed"] and c["control_failed"] for c in self.items)


def param_arrays(qa_params, qg_params) -> dict[str, np.ndarray]:
    return {name: t.values for name, t in trainer.named_parameters(qa_params, qg_params)}


def perturbed(params, name, index, delta):
    out = dict(params)
    out[name] = params[name].copy()
    out[name][index] += delta
    return out


def ids(vocab, tokens):
    return [vocab.token_to_id.get(t, UNK_ID) for t in tokens]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- ranking -----------------------------------------------------------------

def reference_scores(params, vocab_q, vocab_a, group):
    q_tokens = group[0].question_tokens
    v_q = ref.qa_encode(params, ids(vocab_q, q_tokens), "question")
    return [
        ref.qa_score_vectors(params, v_q,
                             ref.qa_encode(params, ids(vocab_a, p.answer_tokens), "answer"),
                             ref.cooccurrence(q_tokens, p.answer_tokens))
        for p in group
    ]


def _order_follows(order, scores):
    """Best first by score; exactly equal scores keep the lower index first."""
    if sorted(order) != list(range(len(scores))):
        return False
    for a, b in zip(order, order[1:]):
        if scores[a] < scores[b] - EXACT or (scores[a] == scores[b] and a > b):
            return False
    return True


def _metrics_equal(got, want):
    return all(abs(g - w) <= EXACT for g, w in zip(got, want))


def _moved_gold(queries):
    """The first query with its gold candidate moved to the other end."""
    scores, labels = queries[0]
    gold = labels.index(1)
    moved = list(scores)
    first = ref.order_by_scores(scores)[0] == gold
    moved[gold] = min(scores) - 1.0 if first else max(scores) + 1.0
    return [(moved, labels)] + queries[1:]


def check_ranking(checks, qa_params, qg_params, vocab_q, vocab_a, groups, orders, got_metrics,
                  scored_questions=3):
    """Orders from ``qa.rank_candidates`` and MAP/MRR/P@1 from ``metrics``
    against the reference scorer and brute-force metrics."""
    params = param_arrays(qa_params, qg_params)
    ref_scores = [reference_scores(params, vocab_q, vocab_a, g) for g in groups]
    checks.add("rank.order_follows_reference_and_tie_rule",
               all(_order_follows(o, s) for o, s in zip(orders, ref_scores)),
               not _order_follows(list(reversed(orders[0])), ref_scores[0]))

    worst = 0.0
    control = math.inf
    bumped = perturbed(params, "qa.output_bias", 1, 1e-6)
    with ad.no_recording():
        for group, want in list(zip(groups, ref_scores))[:scored_questions]:
            q_tokens = group[0].question_tokens
            moved = reference_scores(bumped, vocab_q, vocab_a, group)
            for p, w, m in zip(group, want, moved):
                got = qa.qa_score(ids(vocab_q, q_tokens), ids(vocab_a, p.answer_tokens), qa_params,
                                  ref.cooccurrence(q_tokens, p.answer_tokens)).item()
                worst = max(worst, abs(got - w))
                control = min(control, abs(got - m))
    checks.add("rank.scores_match_reference", worst <= TOL, control > TOL,
               f"max |program - reference| = {worst:.3e}")

    queries = [(s, [p.label for p in g]) for s, g in zip(ref_scores, groups)]
    want = ref.ranking_metrics(queries)
    checks.add("rank.map_mrr_p1_equal_brute_force", _metrics_equal(got_metrics, want),
               not _metrics_equal(got_metrics, ref.ranking_metrics(_moved_gold(queries))),
               f"program {tuple(round(x, 6) for x in got_metrics)}")


def check_dev_metrics(checks, epochs, dev_groups):
    """Dev MAP and P@1 reported by ``cli.run_training`` for each epoch,
    against brute force over the reference scorer applied to that epoch's
    checkpoint."""
    passed = control_failed = True
    for record in epochs:
        ckpt = trainer.load_checkpoint(record.checkpoint)
        params = param_arrays(ckpt.qa_params, ckpt.qg_params)
        queries = [(reference_scores(params, ckpt.vocab_q, ckpt.vocab_a, g), [p.label for p in g])
                   for g in dev_groups]
        got = (record.dev_map, record.dev_p_at_1)
        map_, _, p1 = ref.ranking_metrics(queries)
        passed &= _metrics_equal(got, (map_, p1))
        map_c, _, p1_c = ref.ranking_metrics(_moved_gold(queries))
        control_failed &= not _metrics_equal(got, (map_c, p1_c))
    checks.add("train.dev_map_p1_equal_brute_force", passed, control_failed,
               f"{len(epochs)} epochs")


# --- generation --------------------------------------------------------------

def _ends_properly(tokens, max_len):
    return bool(tokens) and (tokens[-1] == ref.EOS_ID or len(tokens) == max_len)


def _no_unk(surfaces):
    return all("<unk>" not in s for s in surfaces)


def _sorted_desc(values):
    return all(a >= b for a, b in zip(values, values[1:]))


def check_generation(checks, qg_params, qa_params, vocab_a, outputs, max_len,
                     rescored_answers=3, greedy_answers=2):
    """``outputs`` holds (answer tokens, hypotheses, surfaces) per answer,
    from ``qg.beam_search`` and ``qg.unk_replace``."""
    params = param_arrays(qa_params, qg_params)
    checks.add("generate.hypotheses_sorted_by_score",
               all(_sorted_desc([h.log_prob for h in hyps]) for _, hyps, _ in outputs),
               not _sorted_desc([0.0, 1.0]))
    checks.add("generate.ends_in_eos_or_max_len",
               all(_ends_properly(h.tokens, max_len) for _, hyps, _ in outputs for h in hyps),
               not _ends_properly([ref.EOS_ID + 1] * (max_len - 1), max_len))

    worst = 0.0
    control = math.inf
    bumped = perturbed(params, "shared.question_embeddings", ref.SOS_ID, 1e-3)
    for tokens, hyps, _ in outputs[:rescored_answers]:
        a_ids = ids(vocab_a, tokens)
        for h in hyps:
            worst = max(worst, abs(ref.rescore(params, a_ids, h.tokens) - h.log_prob))
            control = min(control, abs(ref.rescore(bumped, a_ids, h.tokens) - h.log_prob))
    checks.add("generate.scores_match_teacher_forced_rescoring", worst <= TOL, control > TOL,
               f"max |beam - rescored| = {worst:.3e}")

    same = True
    control_same = True
    for tokens, _, _ in outputs[:greedy_answers]:
        a_ids = ids(vocab_a, tokens)
        beam = qg.beam_search(a_ids, 1, max_len, qg_params)[0]
        greedy = qg.greedy_decode(a_ids, max_len, qg_params)
        same &= beam.tokens == greedy.tokens and abs(beam.log_prob - greedy.log_prob) <= TOL
        control_same &= beam.tokens == greedy.tokens[:-1] + [greedy.tokens[-1] + 1]
    checks.add("generate.beam1_equals_greedy", same, not control_same)

    checks.add("generate.unk_replaced",
               all(_no_unk(surfaces) for _, _, surfaces in outputs),
               not _no_unk([["<unk>"]]))


# --- training ----------------------------------------------------------------

def losses_finite(rows):
    return all(math.isfinite(v) for row in rows for v in row)


def check_losses_finite(checks, name, rows):
    checks.add(name, losses_finite(rows), not losses_finite([(math.nan,)]))


def batch_losses(params, vocab_q, vocab_a, batch):
    """Mean QA NLL (positive plus negative pair) and mean QG NLL (question
    and EOS given the answer) of ``batch`` under the reference models."""
    qa_total = qg_total = 0.0
    for pos, neg in zip(batch.positives, batch.negatives):
        q_ids = ids(vocab_q, pos.question_tokens)
        a_ids = ids(vocab_a, pos.answer_tokens)
        for pair, label in ((pos, 1), (neg, 0)):
            qa_total += ref.qa_nll(params, ids(vocab_q, pair.question_tokens),
                                   ids(vocab_a, pair.answer_tokens),
                                   ref.cooccurrence(pair.question_tokens, pair.answer_tokens), label)
        qg_total -= ref.rescore(params, a_ids, q_ids + [ref.EOS_ID])
    return qa_total / batch.size, qg_total / batch.size


def check_first_batch_learned(checks, first_losses, initial, learned, steps, vocab_q, vocab_a,
                              batch):
    """The first batch's QA and QG losses, re-evaluated by the reference
    with ``learned`` (parameter arrays after ``steps`` steps), are below
    what the first step returned.  The control evaluates ``initial``, the
    parameters before that step, which must reproduce the first step's
    losses and so not be below them."""
    def below(params):
        got = batch_losses(params, vocab_q, vocab_a, batch)
        return got[0] < first_losses[0] and got[1] < first_losses[1], got
    passed, after = below(learned)
    not_learned, before = below(initial)
    checks.add("train.first_batch_losses_fall", passed, not not_learned,
               f"after {steps} steps: qa {first_losses[0]:.4f}->{after[0]:.4f} "
               f"qg {first_losses[1]:.4f}->{after[1]:.4f} "
               f"(reference at the start: qa {before[0]:.4f} qg {before[1]:.4f})")


def dual_reference(dual_trainer, batch, question_lines, answer_lines):
    """Terms of the duality gap for each positive of ``batch``, from the
    program's ``qg.sequence_log_prob`` and ``qa.qa_score_from_vectors`` and
    the benchmark's own bigram counts; returns ``gap(alpha)``, the mean
    squared gap with bigram models smoothed by ``alpha``.  Must be called
    before the step, which changes the parameters."""
    vq, va = dual_trainer.vocab_q, dual_trainer.vocab_a
    qa_params, qg_params = dual_trainer.qa_params, dual_trainer.qg_params
    terms = []
    with ad.no_recording():
        for pos in batch.positives:
            q_ids, a_ids = ids(vq, pos.question_tokens), ids(va, pos.answer_tokens)
            seq_lp = qg.sequence_log_prob(q_ids, a_ids, qg_params).item()
            v_q = qa.encode_bigru(q_ids, "question", qa_params)
            scores = [qa.qa_score_from_vectors(
                v_q, qa.encode_bigru(a_ids, "answer", qa_params),
                ref.cooccurrence(pos.question_tokens, pos.answer_tokens), qa_params).item()]
            for neg in batch.negatives:
                n_ids = ids(va, neg.answer_tokens)
                if n_ids == a_ids:
                    continue
                scores.append(qa.qa_score_from_vectors(
                    v_q, qa.encode_bigru(n_ids, "answer", qa_params),
                    ref.cooccurrence(pos.question_tokens, neg.answer_tokens), qa_params).item())
            s = np.array(scores)
            log_cond = s[0] - (s.max() + math.log(float(np.exp(s - s.max()).sum())))
            terms.append((pos.answer_tokens, seq_lp, pos.question_tokens, log_cond))

    def gap(alpha):
        lm_a = ref.Bigram([line.split() for line in answer_lines], alpha)
        lm_q = ref.Bigram([line.split() for line in question_lines], alpha)
        total = 0.0
        for a_tokens, seq_lp, q_tokens, log_cond in terms:
            total += (lm_a.log_prob(a_tokens) + seq_lp - lm_q.log_prob(q_tokens) - log_cond) ** 2
        return total / len(terms)
    return gap


def check_dual_loss(checks, got, gap):
    want = gap(1.0)
    checks.add("train.dual_loss_equals_rebuilt_gap", abs(got - want) <= TOL,
               abs(got - gap(1.5)) > TOL, f"|program - rebuilt| = {abs(got - want):.3e}")
