"""Acceptance suite: property-based and toy-scale behavioural checks.

Each test prints one PASS line when its criterion holds; assertion
failures keep the line from printing.  Headline corpus-scale numbers are
out of reach at desk scale by design, so these checks pin correctness of
the machinery instead: gradients, arithmetic anchors, metric oracles,
determinism, and toy-corpus learning.
"""

import json
import math
import random
import shutil
import time

import numpy as np
import pytest

from dualqa import autodiff as ad
from dualqa import bigram, cli, metrics, qa, qg, text, toy, trainer

from helpers import (TINY_DIMS, argmax_decode, grad_check, make_small_trainer, model_tensors,
                     small_corpus)
from test_metrics import brute_average_precision, random_queries


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    qa_params, qg_params = trainer.init_models(16, 16, TINY_DIMS, seed=3)
    q_ids, a_ids = [4, 7, 9], [5, 8, 10, 6]
    q_tokens, a_tokens = ["what", "is", "x"], ["x", "is", "y", "."]
    lm_q = bigram.BigramLM.fit([q_tokens, ["where", "is", "y"]])
    lm_a = bigram.BigramLM.fit([a_tokens, ["y", "is", "z"]])
    contrast = [[6, 11], [12, 13, 4]]

    def encodings():
        return (qa.encode_bigru(q_ids, "question", qa_params),
                qa.encode_bigru(a_ids, "answer", qa_params))

    def qa_nll(_):
        return qa.qa_nll_loss_from_vectors(*encodings(), 1, 2, qa_params)

    qa_tensors = model_tensors((qa_params, qg_params), "qa")
    err_a = grad_check(qa_nll, qa_tensors, epsilon=1e-5)
    assert err_a < 1e-4

    qg_tensors = model_tensors((qa_params, qg_params), "qg")
    # eps 1e-4 for the full-model losses: their values are ~10 nats, so a
    # 1e-5 step sits below the float64 rounding floor for the smallest
    # gradient entries; the GRU-cell check in test_autodiff keeps 1e-5.
    err_b = grad_check(
        lambda _: ad.scalar_scale(qg.sequence_log_prob(q_ids, a_ids, qg_params), -1.0),
        qg_tensors, epsilon=1e-4,
    )
    assert err_b < 1e-4

    def combined(_):
        # The inputs the trainer builds for one positive: shared encodings,
        # the gold score first, then the contrast scores.
        v_q, v_a = encodings()
        loss = qa.qa_nll_loss_from_vectors(v_q, v_a, 1, 2, qa_params)
        scores = [qa.qa_score_from_vectors(v_q, v_a, 2, qa_params)]
        scores += [
            qa.qa_score_from_vectors(v_q, qa.encode_bigru(ids, "answer", qa_params), cc, qa_params)
            for ids, cc in zip(contrast, [1, 0])
        ]
        dual = trainer.dual_loss(
            lm_a.sentence_log_prob(a_tokens), qg.sequence_log_prob(q_ids, a_ids, qg_params),
            lm_q.sentence_log_prob(q_tokens), ad.concat(scores),
        )
        return ad.add(loss, ad.scalar_scale(dual, 0.1))

    err_c = grad_check(combined, qa_tensors, epsilon=1e-4)
    assert err_c < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"grad checks qa={err_a:.2e} qg={err_b:.2e} "
              f"qa+dual={err_c:.2e} in {elapsed:.1f}s")


def test_criterion_2_lambda_zero_equivalence(tmp_path):
    pairs = small_corpus(tmp_path)
    joint = make_small_trainer(pairs, lambda_q=0.0, lambda_a=0.0, seed=11)
    solo = make_small_trainer(pairs, lambda_q=0.0, lambda_a=0.0, seed=11)
    batches = list(text.make_batches(pairs, 4, 2, seed=7))
    for step in range(20):
        batch = batches[step % len(batches)]
        joint.train_step(batch)
        solo.independent_step(batch)
    for (name_a, ta), (name_b, tb) in zip(joint.parameters, solo.parameters):
        assert name_a == name_b
        np.testing.assert_array_equal(ta.values, tb.values)
    report(2, "20 lambda=0 steps exactly equal independent training")


def test_criterion_3_dual_loss_anchors():
    assert trainer.squared_log_gap(-10.0, -20.0, -12.0, -18.0).item() == 0.0
    assert trainer.squared_log_gap(-10.0, -20.0, -12.0, -17.0).item() == 1.0
    rng = random.Random(99)
    for _ in range(1000):
        logs = [rng.uniform(-60.0, 0.0) for _ in range(4)]
        assert trainer.squared_log_gap(*logs).item() >= 0.0
    report(3, "dual-loss anchors 0 and 1 exact; 1000 random tuples >= 0")


def test_criterion_4_metric_oracles():
    queries = random_queries(100, seed=2024)
    expected_ap, expected_rr, expected_p1 = [], [], []
    for q in queries:
        ap, order = brute_average_precision(q.scores, q.labels)
        expected_ap.append(ap)
        ranked = [q.labels[i] for i in order]
        expected_rr.append(1.0 / (ranked.index(1) + 1))
        expected_p1.append(float(ranked[0] == 1))
    assert metrics.mean_average_precision(queries) == sum(expected_ap) / 100
    assert metrics.mean_reciprocal_rank(queries) == sum(expected_rr) / 100
    assert metrics.precision_at_1(queries) == sum(expected_p1) / 100

    cand = "the cat sat on the mat".split()
    ref = "the cat sat on a mat".split()
    assert metrics.bleu4([cand], [ref]) == pytest.approx(0.5373, abs=1e-4)
    assert metrics.bleu4([cand, ref], [cand, ref]) == 1.0
    report(4, "MAP/MRR/P@1 match brute force on 100 queries; BLEU anchors hold")


def test_criterion_5_bigram_lm():
    lm = bigram.BigramLM.fit([["a", "b"], ["a", "b"]], alpha=1.0)
    got = lm.sentence_log_prob(["a", "b"])
    assert got == pytest.approx(-1.5325, abs=1e-4)
    contexts = list(lm.vocab) + ["<s>", "never_seen_context"]
    for context in contexts:
        total = sum(lm.next_word_distribution(context).values())
        assert abs(total - 1.0) <= 1e-9
    report(5, f"sentence log-prob {got:.6f}; all conditionals sum to 1")


def test_criterion_6_adadelta_anchor():
    config = trainer.TrainerConfig(learning_rate=2.0, adadelta_rho=0.95,
                                   adadelta_eps=1e-6)
    param = ad.Tensor([0.0])
    state = trainer.AdaDeltaState.zeros_like(param)
    trainer.adadelta_update(param, np.array([1.0]), state, config)
    # Independent implementation of the recurrences.
    eg2 = 0.95 * 0.0 + 0.05 * 1.0
    delta = -math.sqrt(0.0 + 1e-6) / math.sqrt(eg2 + 1e-6) * 1.0
    expected = 2.0 * delta
    assert param.values[0] == pytest.approx(expected, abs=1e-15)
    assert param.values[0] == pytest.approx(-0.008944, abs=1e-6)
    report(6, f"first-step update {param.values[0]:.6f}")


def _toy_run(tmp_path, tag, lambda_q, lambda_a, max_epochs):
    run_dir = tmp_path / tag
    config = cli.RunConfig(
        train_path=str(tmp_path / "train.tsv"),
        dev_path=str(tmp_path / "dev.tsv"),
        checkpoint_dir=str(run_dir),
        embedding_dim=20, qa_hidden=12, qg_hidden=16, attention_dim=8,
        vocab_size=200, batch_size=16, pool_batches=10,
        lambda_q=lambda_q, lambda_a=lambda_a, max_epochs=max_epochs, seed=7,
        early_stop_patience=None,
    )
    return cli.run_training(config), run_dir


def test_criterion_7_toy_corpus_learning(tmp_path):
    start = time.monotonic()
    train_rows, dev_rows = toy.generate_corpus()
    assert sum(1 for r in train_rows if r[4] == 1) == 200
    toy.write_tsv(train_rows, tmp_path / "train.tsv")
    toy.write_tsv(dev_rows, tmp_path / "dev.tsv")

    basic, _ = _toy_run(tmp_path, "basic", 0.0, 0.0, max_epochs=8)
    best_basic = max(r.dev_p_at_1 for r in basic.epochs)
    assert best_basic >= 0.9

    dual, run_dir = _toy_run(tmp_path, "dual", 0.1, 0.1, max_epochs=30)
    best_dual = max(r.dev_p_at_1 for r in dual.epochs)
    assert best_dual >= 0.9
    for line in (run_dir / "train_log.jsonl").read_text().splitlines():
        record = json.loads(line)
        for key in ("qa_loss", "qg_loss", "dual_loss"):
            assert math.isfinite(record[key])

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(7, f"basic P@1 {best_basic:.2f}, dual P@1 {best_dual:.2f} "
              f"in {elapsed:.0f}s")


def test_criterion_8_decoding_contracts():
    rng = np.random.default_rng(17)
    checked = 0
    for draw in range(50):
        _, qg_params = trainer.init_models(14, 14, TINY_DIMS, seed=1000 + draw)
        length = int(rng.integers(1, 6))
        a_ids = [int(rng.integers(4, 14)) for _ in range(length)]
        max_len = int(rng.integers(3, 10))
        tokens, log_prob, _ = argmax_decode(a_ids, max_len, qg_params)
        for h in (qg.greedy_decode(a_ids, max_len, qg_params),
                  qg.beam_search(a_ids, 1, max_len, qg_params)[0]):
            assert h.tokens == tokens and h.log_prob == log_prob
        for h in qg.beam_search(a_ids, 3, max_len, qg_params):
            assert h.tokens[-1] == text.EOS_ID or len(h.tokens) == max_len
        checked += 1

    vocab = text.build_vocab([["w%d" % i for i in range(10)]], max_size=10)
    _, qg_params = trainer.init_models(14, 14, TINY_DIMS, seed=5)
    answer_tokens = ["tok%d" % i for i in range(4)]
    a_ids = [5, 6, 7, 8]
    for h in qg.beam_search(a_ids, 4, 8, qg_params):
        assert "<unk>" not in qg.unk_replace(h, answer_tokens, vocab)
    report(8, f"greedy == beam-1 == a decode_step argmax chain on {checked} draws; "
              "terminations and unk replacement clean")


def test_criterion_9_reproducibility(tmp_path):
    train_rows, dev_rows = toy.generate_corpus(n_subjects=8, seed=3, dev_questions=8)
    toy.write_tsv(train_rows, tmp_path / "train.tsv")
    toy.write_tsv(dev_rows, tmp_path / "dev.tsv")
    config = dict(
        train_path=str(tmp_path / "train.tsv"),
        dev_path=str(tmp_path / "dev.tsv"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        embedding_dim=10, qa_hidden=8, qg_hidden=8, attention_dim=5,
        vocab_size=100, batch_size=8, pool_batches=2,
        lambda_q=0.1, lambda_a=0.1, max_epochs=2, seed=5,
        beam_size=2, max_len=12, early_stop_patience=None,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "ckpt" / "final.ckpt").read_bytes()
    shutil.rmtree(tmp_path / "ckpt")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    second = (tmp_path / "ckpt" / "final.ckpt").read_bytes()
    assert first == second
    report(9, f"two cmd_train runs produced identical {len(first)}-byte checkpoints")
