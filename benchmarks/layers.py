"""Per-layer metrics from the spans of one traced slice.

Denominators: ``_per_step`` metrics count only spans inside a training
step and divide by the traced steps; ``_per_question`` and ``_per_answer``
divide by the questions ranked and answers generated; ``_per_epoch`` by
the whole epochs of batches drawn.  A plain ``_s`` is the mean time per
call.  ``autodiff.primitive_calls.*`` and ``autodiff.primitive_s.*`` are
totals over the whole traced slice, every operation included.
"""

from __future__ import annotations

from tracing import PRIMITIVES, SpanTable, Tracer

AD, QA, QG = "dualqa.autodiff.", "dualqa.qa.", "dualqa.qg."
BI, TX, TR, ME = "dualqa.bigram.", "dualqa.text.", "dualqa.trainer.", "dualqa.metrics."
STEP, ANSWER = 1, 3  # SpanTable contexts
QA_HEAD = [QA + f for f in ("qa_logits_from_vectors", "qa_score_from_vectors",
                            "qa_nll_loss_from_vectors", "conditional_from_scores")]
RANKING = [ME + f for f in ("ranked_order", "mean_average_precision",
                            "mean_reciprocal_rank", "precision_at_1")]


def _mean_per_call(t: SpanTable, name):
    calls = t.count([name])
    return t.seconds([name]) / calls if calls else 0.0


def layer_metrics(tracer: Tracer, epochs: int):
    """Returns ({name: (value, unit)}, the span table, operation counts)."""
    t = SpanTable(tracer)
    steps = t.count(SpanTable.STEP)
    questions = t.count(SpanTable.QUESTION)
    answers = t.count([QG + "beam_search"])

    def per(value, n):
        return value / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}
    kinds: dict[str, int] = {}
    for record in tracer.records:
        for kind, n in record.items():
            kinds[kind] = kinds.get(kind, 0) + n
    m["autodiff.tape_nodes_per_step"] = (per(sum(kinds.values()), steps), "count")
    for kind in PRIMITIVES:
        m[f"autodiff.tape_nodes.{kind}"] = (per(kinds.get(kind, 0), steps), "count")
    m["autodiff.backward_s_per_step"] = (per(t.seconds([AD + "backward"], STEP), steps), "s")
    m["autodiff.backward_calls_per_step"] = (per(t.count([AD + "backward"], STEP), steps), "count")
    for kind, fn in PRIMITIVES.items():
        m[f"autodiff.primitive_calls.{kind}"] = (t.count([AD + fn]), "count")
        m[f"autodiff.primitive_s.{kind}"] = (t.seconds([AD + fn]), "s")

    m["qa.encode_bigru_calls_per_step"] = (
        per(t.count([QA + "encode_bigru"], STEP), steps), "count")
    m["qa.encode_bigru_s_per_step"] = (per(t.seconds([QA + "encode_bigru"], STEP), steps), "s")
    m["qa.encoded_tokens_per_step"] = (per(t.work_sum([QA + "encode_bigru"], STEP), steps), "count")
    m["qa.contrast_scores_per_step"] = (
        per(t.count([QA + "qa_score_from_vectors"], STEP), steps), "count")
    m["qa.score_s_per_step"] = (per(t.seconds(QA_HEAD, STEP), steps), "s")
    m["qa.rank_s_per_question"] = (per(t.seconds([QA + "rank_candidates"]), questions), "s")

    m["qg.sequence_log_prob_s_per_step"] = (
        per(t.seconds([QG + "sequence_log_prob"], STEP), steps), "s")
    m["qg.decoded_tokens_per_step"] = (
        per(t.work_sum([QG + "sequence_log_prob"], STEP), steps), "count")
    m["qg.attention_steps_per_answer"] = (
        per(t.count([QG + "attention_step"], ANSWER), answers), "count")
    m["qg.attention_s_per_step"] = (per(t.seconds([QG + "attention_step"], STEP), steps), "s")
    m["qg.beam_search_s_per_answer"] = (per(t.seconds([QG + "beam_search"]), answers), "s")
    m["qg.unk_replace_s_per_answer"] = (per(t.seconds([QG + "unk_replace"]), answers), "s")

    lm_score = BI + "BigramLM.sentence_log_prob"
    m["bigram.sentence_log_prob_calls_per_step"] = (per(t.count([lm_score], STEP), steps), "count")
    m["bigram.sentence_log_prob_s_per_step"] = (per(t.seconds([lm_score], STEP), steps), "s")
    m["bigram.fit_s"] = (_mean_per_call(t, BI + "BigramLM.fit"), "s")

    m["text.make_batches_s_per_epoch"] = (per(t.seconds([TX + "make_batches"]), epochs), "s")
    m["text.cooccurrence_calls_per_step"] = (
        per(t.count([TX + "cooccurrence_count"], STEP), steps), "count")
    m["text.load_tsv_s"] = (_mean_per_call(t, TX + "load_tsv"), "s")
    m["text.build_vocab_s"] = (_mean_per_call(t, TX + "build_vocab"), "s")

    m["trainer.adadelta_s_per_step"] = (per(t.seconds([TR + "adadelta_update"], STEP), steps), "s")
    m["trainer.updated_param_bytes_per_step"] = (
        per(t.work_sum([TR + "adadelta_update"], STEP), steps), "B")
    m["trainer.step_self_s"] = (per(t.self_seconds(SpanTable.STEP), steps), "s")
    m["trainer.save_checkpoint_s"] = (_mean_per_call(t, TR + "save_checkpoint"), "s")
    saves = t.count([TR + "save_checkpoint"])
    m["trainer.checkpoint_bytes"] = (per(t.work_sum([TR + "save_checkpoint"]), saves), "B")
    m["trainer.load_checkpoint_s"] = (_mean_per_call(t, TR + "load_checkpoint"), "s")

    m["metrics.ranking_s_per_question"] = (per(t.seconds(RANKING), questions), "s")
    return m, t, {"steps": steps, "questions": questions, "answers": answers}
