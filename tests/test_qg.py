"""Question generator tests: encoder geometry, attention behavior,
teacher-forced likelihood anchors, beam search contracts, and UNK
replacement."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualqa import autodiff as ad
from dualqa import qa, qg, text, trainer
from dualqa.text import EOS_ID, UNK_ID, build_vocab

from helpers import (MID_DIMS, TINY_VOCAB, TOY_DIMS, argmax_decode, grad_check, keys,
                     make_small_trainer, make_tiny_models, model_tensors, per_beam_search,
                     per_token_encode_answer, per_token_sequence_log_prob, small_corpus,
                     toy_dual_objectives, zero_all)

Q_IDS = [4, 7]
A_IDS = [5, 8, 10]


@pytest.fixture
def models():
    return make_tiny_models(seed=3)


def sharpened_models():
    """A (qa, qg) pair whose generator's output logits span thousands of
    nats, so most tokens' probabilities underflow to zero in float64."""
    models = make_tiny_models(seed=0)
    models[1].output_projection.values *= 5000.0
    return models


def models_for(case):
    """The tiny pair of seed ``case``, the sharpened pair, or ("zeroed")
    one whose output logits are all zero, so every step is a full tie."""
    if case == "sharpened":
        return sharpened_models()
    models = make_tiny_models(seed=0 if case == "zeroed" else case)
    if case == "zeroed":
        models[1].output_projection.values[...] = 0.0
    return models


def per_token_log_prob(q_ids, a_ids, qg_params):
    """log P(q | a) composed from ``decode_step`` as inference scores it:
    one output projection, log-softmax and target lookup per token."""
    H, state = qg.encode_answer(a_ids, qg_params)
    k = keys(H, qg_params)
    history, prev, total = ad.zeros(H.shape[1]), text.SOS_ID, None
    for target in q_ids + [EOS_ID]:
        log_probs, state, _, history = qg.decode_step(prev, state, H, k, history, qg_params)
        step = ad.row_lookup(log_probs, target)
        total = step if total is None else ad.add(total, step)
        prev = target
    return total


class TestEncodeAnswer:
    def test_one_row_per_position(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer([5, 8, 10, 6, 4], qg_params)
        assert H.shape == (5, 2 * qg_params.encoder_fwd.hidden_dim)
        assert s0.shape == (2 * qg_params.encoder_fwd.hidden_dim,)

    def test_single_token(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer([5], qg_params)
        assert H.shape == (1, 2 * qg_params.encoder_fwd.hidden_dim)
        np.testing.assert_array_equal(H.values[0], s0.values)

    def test_zero_parameters_give_zero_states(self):
        _, qg_params = zero_all(make_tiny_models(seed=0))
        H, s0 = qg.encode_answer(A_IDS, qg_params)
        np.testing.assert_array_equal(H.values, np.zeros(H.shape))
        np.testing.assert_array_equal(s0.values, np.zeros(s0.shape))

    def test_initial_state_concatenates_final_directions(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer(A_IDS, qg_params)
        hidden = qg_params.encoder_fwd.hidden_dim
        np.testing.assert_array_equal(s0.values[:hidden], H.values[-1, :hidden])
        np.testing.assert_array_equal(s0.values[hidden:], H.values[0, hidden:])

    def test_empty_input_rejected(self, models):
        with pytest.raises(ValueError, match="empty"):
            qg.encode_answer([], models[1])


class TestAttention:
    def test_weights_normalized_and_nonnegative(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer([5, 8, 10, 6], qg_params)
        history = ad.zeros(H.shape[1])
        alpha, context = qg.attention_step(s0, H, keys(H, qg_params), history, qg_params)
        assert np.all(alpha.values >= 0)
        assert alpha.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert context.shape == (H.shape[1],)

    def test_identical_rows_and_zero_history_give_uniform(self, models):
        _, qg_params = models
        width = 2 * qg_params.encoder_fwd.hidden_dim
        rng = np.random.default_rng(1)
        row = rng.normal(size=width)
        H = ad.Tensor(np.tile(row, (4, 1)))
        alpha, _ = qg.attention_step(
            ad.Tensor(rng.normal(size=width)), H, keys(H, qg_params), ad.zeros(width), qg_params)
        np.testing.assert_allclose(alpha.values, np.full(4, 0.25), atol=1e-12)

    def test_context_is_weighted_average_of_rows(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer([5, 8], qg_params)
        alpha, context = qg.attention_step(s0, H, keys(H, qg_params), ad.zeros(H.shape[1]),
                                           qg_params)
        np.testing.assert_allclose(context.values, alpha.values @ H.values, atol=1e-12)


class TestDecodeStep:
    def test_distribution_over_question_vocab(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer(A_IDS, qg_params)
        log_probs, state, alpha, context = qg.decode_step(
            2, s0, H, keys(H, qg_params), ad.zeros(H.shape[1]), qg_params)
        dist = np.exp(log_probs.values)
        assert dist.shape == (qg_params.output_projection.shape[0],)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0)
        assert state.shape == s0.shape
        assert alpha.shape == (len(A_IDS),)
        np.testing.assert_allclose(context.values, alpha.values @ H.values, atol=1e-12)

    def test_zero_projection_gives_uniform(self):
        _, qg_params = make_tiny_models(seed=0)
        qg_params.output_projection.values[...] = 0.0
        H, s0 = qg.encode_answer(A_IDS, qg_params)
        log_probs, _, _, _ = qg.decode_step(2, s0, H, keys(H, qg_params), ad.zeros(H.shape[1]),
                                            qg_params)
        vocab = qg_params.output_projection.shape[0]
        np.testing.assert_allclose(np.exp(log_probs.values), np.full(vocab, 1.0 / vocab),
                                   atol=1e-15)

    def test_invalid_token_rejected(self, models):
        _, qg_params = models
        H, s0 = qg.encode_answer(A_IDS, qg_params)
        with pytest.raises(IndexError, match="out of range"):
            qg.decode_step(10_000, s0, H, keys(H, qg_params), ad.zeros(H.shape[1]), qg_params)


class TestSequenceLogProb:
    def test_uniform_model_closed_form(self):
        _, qg_params = make_tiny_models(seed=0)
        qg_params.output_projection.values[...] = 0.0
        vocab = qg_params.output_projection.shape[0]
        got = qg.sequence_log_prob(Q_IDS, A_IDS, qg_params).item()
        expected = (len(Q_IDS) + 1) * math.log(1.0 / vocab)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_appending_token_never_increases(self, models):
        _, qg_params = models
        short = qg.sequence_log_prob([4], A_IDS, qg_params).item()
        longer = qg.sequence_log_prob([4, 7], A_IDS, qg_params).item()
        assert longer <= short

    def test_probability_in_unit_interval(self, models):
        _, qg_params = models
        lp = qg.sequence_log_prob(Q_IDS, A_IDS, qg_params).item()
        assert 0.0 < math.exp(lp) <= 1.0

    def test_empty_question_rejected(self, models):
        with pytest.raises(ValueError, match="empty"):
            qg.sequence_log_prob([], A_IDS, models[1])

    def test_finite_where_probabilities_underflow(self):
        q_ids, a_ids = [4, 5, 6], [6, 7]
        _, qg_params = sharpened_models()
        got = qg.sequence_log_prob(q_ids, a_ids, qg_params).item()
        # The same decoder steps, scored by a numpy log-sum-exp of each logit row.
        expected = 0.0
        with ad.no_recording():
            H, state = qg.encode_answer(a_ids, qg_params)
            history, prev = ad.zeros(H.shape[1]), text.SOS_ID
            for target in q_ids + [EOS_ID]:
                state = qa.gru_step(qg_params.decoder, ad.row_lookup(
                    qg_params.question_embeddings, prev), state)
                _, history = qg.attention_step(state, H, keys(H, qg_params), history, qg_params)
                logits = qg_params.output_projection.values @ np.concatenate(
                    [state.values, history.values])
                shift = logits.max()
                expected += logits[target] - shift - math.log(np.exp(logits - shift).sum())
                prev = target
        assert expected < -700.0  # some step's probability is below float64's range
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nll_is_negation(self, tmp_path):
        # The generation loss the trainer reports is the batch mean of
        # -log P(q|a) over the positives.
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        batch = next(text.make_batches(pairs, 4, 2, seed=7))
        with ad.no_recording():
            lps = [qg.sequence_log_prob(dual.vocab_q.encode(p.question_tokens),
                                        dual.vocab_a.encode(p.answer_tokens),
                                        dual.qg_params).item()
                   for p in batch.positives]
        _, qg_loss, _ = dual.independent_step(batch)
        assert qg_loss == pytest.approx(-sum(lps) / batch.size, abs=1e-12)
        assert qg_loss >= 0.0

    def test_gradients_match_finite_differences(self, models):
        _, qg_params = models
        params = model_tensors(models, "qg")

        def build(_):
            return ad.scalar_scale(qg.sequence_log_prob(Q_IDS, A_IDS, qg_params), -1.0)

        # eps 1e-4: the full-model loss is ~10 nats, so smaller steps sit
        # below the float64 rounding floor for the tiniest gradients.
        assert grad_check(build, params, epsilon=1e-4) < 1e-4


class TestTeacherForcingMatchesPerTokenDecoding:
    """Training scores a question with one fused output node; inference
    projects one step at a time.  Both must give the same model."""

    CASES = [0, 1, 2, 3, 4, "sharpened"]
    PAIRS = [(Q_IDS, A_IDS), ([4, 5, 6], [6, 7]), ([9, 9, 3, 12], [5])]

    @pytest.mark.parametrize("case", CASES)
    def test_value(self, case):
        _, qg_params = models_for(case)
        with ad.no_recording():
            for q_ids, a_ids in self.PAIRS:
                got = qg.sequence_log_prob(q_ids, a_ids, qg_params).item()
                want = per_token_log_prob(q_ids, a_ids, qg_params).item()
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("case", CASES)
    def test_gradients(self, case):
        models = models_for(case)
        params = model_tensors(models, "qg")
        for q_ids, a_ids in self.PAIRS:
            grads = []
            for score in (qg.sequence_log_prob, per_token_log_prob):
                with ad.ComputationRecord():
                    loss = score(q_ids, a_ids, models[1])
                grads.append(ad.backward(loss, params))
            for got, want in zip(*grads):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", CASES)
    def test_finished_beams_score_as_teacher_forced(self, case):
        _, qg_params = models_for(case)
        checked = 0
        for a_ids in (A_IDS, [6, 7], [5], [5, 8, 10, 6, 4]):
            # A hypothesis of EOS alone is left out: it has no question to score.
            for h in qg.beam_search(a_ids, 16, 8, qg_params):
                if h.tokens[-1] == EOS_ID and len(h.tokens) > 1:
                    with ad.no_recording():
                        want = qg.sequence_log_prob(h.tokens[:-1], a_ids, qg_params).item()
                    assert h.log_prob == pytest.approx(want, rel=1e-12, abs=1e-12)
                    checked += 1
        assert checked

    def test_toy_dual_step_records_one_output_node_per_positive(self, tmp_path):
        record, *_ = toy_dual_objectives(tmp_path)
        kinds = collections.Counter(node.kind for node in record.nodes)
        assert kinds["target_log_prob"] == 16
        # Only the QA side's log-softmaxes remain: two pair losses and one
        # duality conditional per positive.
        assert kinds["log_softmax"] <= 3 * 16


class TestSequenceGRUEqualsPerTokenChain:
    """The encoder directions and the teacher-forced decoder are one
    ``gru_sequence`` each; the forward equals the per-token ``gru_step``
    chain's bit for bit."""

    DRAWS = [(1, 1), (7, 4), (25, 14)]  # (answer length, question length)

    def _draws(self, dims):
        _, qg_params = trainer.init_models(40, 40, dims, seed=5)
        rng = np.random.default_rng(5)
        for n_a, n_q in self.DRAWS:
            yield qg_params, rng.integers(0, 40, n_q).tolist(), rng.integers(0, 40, n_a).tolist()

    @pytest.mark.parametrize("dims", [TOY_DIMS, MID_DIMS], ids=["toy", "mid"])
    def test_encode_answer(self, dims):
        with ad.no_recording():
            for qg_params, _, a_ids in self._draws(dims):
                (H, s0), (want_H, want_s0) = (encode(a_ids, qg_params) for encode in
                                              (qg.encode_answer, per_token_encode_answer))
                assert np.array_equal(H.values, want_H.values)
                assert np.array_equal(s0.values, want_s0.values)

    @pytest.mark.parametrize("dims", [TOY_DIMS, MID_DIMS], ids=["toy", "mid"])
    def test_sequence_log_prob(self, dims, monkeypatch):
        scored = []
        fused = ad.target_log_prob
        monkeypatch.setattr(ad, "target_log_prob",
                            lambda X, W, targets: scored.append(X.values) or fused(X, W, targets))
        with ad.no_recording():
            for qg_params, q_ids, a_ids in self._draws(dims):
                got = qg.sequence_log_prob(q_ids, a_ids, qg_params).item()
                assert got == per_token_sequence_log_prob(q_ids, a_ids, qg_params).item()
                # The [state; context] rows scored, too: a one-ulp change in
                # a state often rounds away in the summed log-probability.
                assert np.array_equal(*scored[-2:])

    def test_records_three_gru_sequence_nodes(self, models):
        with ad.ComputationRecord() as rec:
            qg.sequence_log_prob(Q_IDS, A_IDS, models[1])
        kinds = collections.Counter(node.kind for node in rec.nodes)
        assert kinds["gru_sequence"] == 3 and not kinds["gru_cell"]


class TestBeamSearch:
    @pytest.mark.parametrize("case", [0, 1, 2, 3, 4, "sharpened", "zeroed"])
    def test_beam_one_equals_greedy(self, case):
        _, qg_params = models_for(case)
        for a_ids in (A_IDS, [6, 7], [5], [5, 8, 10, 6, 4]):
            tokens, log_prob, rows = argmax_decode(a_ids, 12, qg_params)
            for h in (qg.greedy_decode(a_ids, 12, qg_params),
                      qg.beam_search(a_ids, 1, 12, qg_params)[0]):
                assert h.tokens == tokens and h.log_prob == log_prob and h.finished
                assert len(h.attention_rows) == len(rows)
                for got, want in zip(h.attention_rows, rows):
                    np.testing.assert_array_equal(got, want)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10_000), st.lists(st.integers(4, TINY_VOCAB - 1), min_size=1, max_size=6),
           st.integers(1, 6), st.integers(1, 10))
    def test_block_search_matches_per_beam_search(self, seed, a_ids, beam_size, max_len):
        _, qg_params = make_tiny_models(seed=seed)
        want = per_beam_search(a_ids, beam_size, max_len, qg_params)
        got = qg.beam_search(a_ids, beam_size, max_len, qg_params)
        assert [h.tokens for h in got] == [tokens for tokens, _, _ in want]
        for h, (_, log_prob, rows) in zip(got, want):
            assert h.log_prob == pytest.approx(log_prob, rel=0, abs=1e-12)
            np.testing.assert_allclose(h.attention_rows, rows, rtol=0, atol=1e-12)

    def test_one_decode_step_per_step(self, models, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[0])
            return decode_step(*args)

        decode_step = qg.decode_step
        monkeypatch.setattr(qg, "decode_step", spy)
        max_len = 8
        qg.beam_search(A_IDS, 5, max_len, models[1])
        assert 1 <= len(calls) <= max_len
        # The control: one call per live beam per step makes more.
        calls.clear()
        per_beam_search(A_IDS, 5, max_len, models[1])
        assert len(calls) > max_len

    # Few distinct values, so the k-th best score is usually tied; k runs
    # past the vector's length.
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=30).flatmap(
        lambda xs: st.tuples(st.just(xs), st.integers(1, len(xs) + 3))))
    def test_top_ids_match_a_stable_sort(self, scores_k):
        scores, k = scores_k
        s = np.array(scores, dtype=np.float64)
        np.testing.assert_array_equal(qg._top_ids(s, k), np.argsort(-s, kind="stable")[:k])

    def test_hypotheses_sorted_and_terminated(self, models):
        _, qg_params = models
        max_len = 9
        hyps = qg.beam_search(A_IDS, 4, max_len, qg_params)
        assert len(hyps) == 4
        for a, b in zip(hyps, hyps[1:]):
            assert a.log_prob >= b.log_prob
        for h in hyps:
            assert h.finished
            assert h.tokens[-1] == EOS_ID or len(h.tokens) == max_len
            assert len(h.attention_rows) == len(h.tokens)
            assert h.log_prob <= 0.0

    def test_attention_rows_normalized(self, models):
        _, qg_params = models
        for h in qg.beam_search(A_IDS, 3, 8, qg_params):
            for row in h.attention_rows:
                assert row.sum() == pytest.approx(1.0, abs=1e-9)
                assert len(row) == len(A_IDS)

    def test_beam_wider_than_vocabulary_scores_finite(self):
        _, qg_params = sharpened_models()
        vocab = qg_params.output_projection.shape[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hyps = qg.beam_search([6, 7], vocab, 1, qg_params)
        assert len(hyps) == vocab
        assert all(math.isfinite(h.log_prob) for h in hyps)

    def test_invalid_sizes_rejected(self, models):
        with pytest.raises(ValueError):
            qg.beam_search(A_IDS, 0, 5, models[1])
        with pytest.raises(ValueError):
            qg.beam_search(A_IDS, 2, 0, models[1])


class TestUnkReplace:
    def _vocab(self):
        return build_vocab([["what", "is", "who"]], max_size=10)

    def test_argmax_attention_picks_answer_token(self):
        vocab = self._vocab()
        hyp = qg.BeamHypothesis(
            tokens=[UNK_ID, vocab.token_to_id["is"]],
            log_prob=-1.0,
            attention_rows=[np.array([0.1, 0.7, 0.2]), np.array([0.5, 0.3, 0.2])],
            finished=True,
        )
        out = qg.unk_replace(hyp, ["obama", "einstein", "paris"], vocab)
        assert out == ["einstein", "is"]

    def test_no_unk_is_passthrough_minus_eos(self):
        vocab = self._vocab()
        ids = [vocab.token_to_id["what"], vocab.token_to_id["is"], EOS_ID]
        hyp = qg.BeamHypothesis(ids, -2.0, [np.ones(2) / 2] * 3, True)
        assert qg.unk_replace(hyp, ["a", "b"], vocab) == ["what", "is"]

    def test_tie_goes_to_leftmost(self):
        vocab = self._vocab()
        hyp = qg.BeamHypothesis([UNK_ID], -1.0, [np.array([0.5, 0.5])], True)
        assert qg.unk_replace(hyp, ["left", "right"], vocab) == ["left"]

    def test_missing_attention_row_rejected(self):
        vocab = self._vocab()
        hyp = qg.BeamHypothesis([UNK_ID, UNK_ID], -1.0, [np.array([1.0])], True)
        with pytest.raises(ValueError, match="missing attention row"):
            qg.unk_replace(hyp, ["only"], vocab)

    def test_row_length_must_match_answer(self):
        vocab = self._vocab()
        hyp = qg.BeamHypothesis([UNK_ID], -1.0, [np.array([0.4, 0.6])], True)
        with pytest.raises(ValueError, match="positions"):
            qg.unk_replace(hyp, ["a", "b", "c"], vocab)

    def test_never_emits_unk_from_real_decodes(self, models):
        _, qg_params = models
        vocab = build_vocab([["w%d" % i for i in range(12)]], max_size=12)
        answer_tokens = ["t%d" % i for i in range(len(A_IDS))]
        for h in qg.beam_search(A_IDS, 3, 7, qg_params):
            out = qg.unk_replace(h, answer_tokens, vocab)
            assert "<unk>" not in out
