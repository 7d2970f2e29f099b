"""Answer-selection model tests: encoder shapes, score/loss anchors, the
derived conditional, ranking, and a full-loss gradient check."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualqa import autodiff as ad
from dualqa import qa, text, trainer

from helpers import (MID_DIMS, TINY_DIMS, TINY_VOCAB, TOY_DIMS, grad_check, make_tiny_models,
                     model_tensors, per_token_bigru_states, zero_all)

Q_IDS = [4, 7, 9]
A_IDS = [5, 8, 10, 6]


@pytest.fixture
def models():
    return make_tiny_models(seed=3)


def nll(q_ids, a_ids, label, params, cooc_count):
    """The selection NLL as the trainer builds it, from encodings."""
    v_q = qa.encode_bigru(q_ids, "question", params)
    v_a = qa.encode_bigru(a_ids, "answer", params)
    return qa.qa_nll_loss_from_vectors(v_q, v_a, label, cooc_count, params)


def scores_for(q_ids, answers, params, cooc_count=0):
    """Score tensors of each answer against one encoded question, the way
    the trainer builds the derived conditional's inputs."""
    v_q = qa.encode_bigru(q_ids, "question", params)
    return [
        qa.qa_score_from_vectors(v_q, qa.encode_bigru(a, "answer", params), cooc_count, params)
        for a in answers
    ]


class TestEncodeBigru:
    def test_output_is_twice_hidden(self, models):
        qa_params, _ = models
        out = qa.encode_bigru(Q_IDS, "question", qa_params)
        assert out.shape == (2 * qa_params.question_fwd.hidden_dim,)

    def test_single_token(self, models):
        qa_params, _ = models
        out = qa.encode_bigru([4], "answer", qa_params)
        assert out.shape == (2 * qa_params.question_fwd.hidden_dim,)
        assert np.all(np.isfinite(out.values))

    def test_zero_parameters_give_zero_vector(self):
        qa_params, _ = zero_all(make_tiny_models(seed=0))
        out = qa.encode_bigru(Q_IDS, "question", qa_params)
        np.testing.assert_array_equal(out.values, np.zeros(out.shape))

    def test_empty_input_rejected(self, models):
        with pytest.raises(ValueError, match="empty"):
            qa.encode_bigru([], "question", models[0])

    def test_unknown_side_rejected(self, models):
        with pytest.raises(ValueError, match="side"):
            qa.encode_bigru([4], "passage", models[0])


class TestScore:
    def test_strictly_inside_unit_interval(self, models):
        score = qa.qa_score(Q_IDS, A_IDS, models[0], 2).item()
        assert -1.0 < score < 1.0

    def test_zero_parameters_score_zero(self):
        qa_params, _ = zero_all(make_tiny_models(seed=0))
        assert qa.qa_score(Q_IDS, A_IDS, qa_params, 0).item() == 0.0

    def test_deterministic(self, models):
        a = qa.qa_score(Q_IDS, A_IDS, models[0], 2).item()
        b = qa.qa_score(Q_IDS, A_IDS, models[0], 2).item()
        assert a == b

    def test_cooc_count_clipped_to_table(self, models):
        high = qa.qa_score(Q_IDS, A_IDS, models[0], 9).item()
        clipped = qa.qa_score(Q_IDS, A_IDS, models[0], 50).item()
        assert high == clipped

    def test_wide_cooc_table_scores_from_the_shared_type_count(self):
        qa_params, _ = make_tiny_models(dims=dataclasses.replace(TINY_DIMS, cooc_vocab=20))
        shared = [f"w{i}" for i in range(12)]
        count = text.cooccurrence_count(shared + ["what", "?"], ["the"] + shared)
        score = qa.qa_score(Q_IDS, A_IDS, qa_params, count).item()
        assert score == qa.qa_score(Q_IDS, A_IDS, qa_params, 12).item()
        assert score != qa.qa_score(Q_IDS, A_IDS, qa_params, 9).item()


class TestNLLLoss:
    def test_equal_logits_give_ln2(self):
        qa_params, _ = zero_all(make_tiny_models(seed=0))
        loss = nll(Q_IDS, A_IDS, 1, qa_params, 0).item()
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_label_drives_loss_to_zero(self):
        qa_params, _ = zero_all(make_tiny_models(seed=0))
        qa_params.output_bias.values[:] = [0.0, 50.0]
        assert nll(Q_IDS, A_IDS, 1, qa_params, 0).item() < 1e-12
        assert nll(Q_IDS, A_IDS, 0, qa_params, 0).item() > 10.0

    def test_symmetric_under_logit_and_label_swap(self):
        qa_params, _ = zero_all(make_tiny_models(seed=0))
        qa_params.output_bias.values[:] = [0.3, -1.1]
        loss_a = nll(Q_IDS, A_IDS, 0, qa_params, 0).item()
        qa_params.output_bias.values[:] = [-1.1, 0.3]
        loss_b = nll(Q_IDS, A_IDS, 1, qa_params, 0).item()
        assert loss_a == pytest.approx(loss_b, abs=1e-12)

    def test_nonnegative(self, models):
        for label in (0, 1):
            assert nll(Q_IDS, A_IDS, label, models[0], 2).item() >= 0.0

    def test_finite_where_the_probability_underflows(self, models):
        # exp(-800) is 0 in float64: log of the softmax share would be -inf.
        qa_params, _ = models
        qa_params.output_bias.values[:] = [0.0, 800.0]
        v_q = qa.encode_bigru(Q_IDS, "question", qa_params)
        v_a = qa.encode_bigru(A_IDS, "answer", qa_params)
        logits = qa.qa_logits_from_vectors(v_q, v_a, 2, qa_params).values
        lse = logits.max() + math.log(np.exp(logits - logits.max()).sum())
        for label in (0, 1):
            got = qa.qa_nll_loss_from_vectors(v_q, v_a, label, 2, qa_params).item()
            assert math.isfinite(got)
            assert got == pytest.approx(lse - logits[label], rel=1e-12, abs=1e-12)

    def test_bad_label_rejected(self, models):
        with pytest.raises(ValueError, match="label"):
            nll(Q_IDS, A_IDS, 2, models[0], 0)

    def test_gradients_match_finite_differences(self, models):
        qa_params, _ = models
        params = model_tensors(models, "qa")

        def build(_):
            return nll(Q_IDS, A_IDS, 1, qa_params, 2)

        assert grad_check(build, params, epsilon=1e-5) < 1e-4


class TestConditional:
    def test_uniform_when_scores_equal(self):
        qa_params, _ = zero_all(make_tiny_models(seed=0))
        answers = [A_IDS, [5, 6], [7, 8, 9], [10]]
        log_prob = qa.log_conditional_from_scores(scores_for(Q_IDS, answers, qa_params)).item()
        assert math.exp(log_prob) == pytest.approx(0.25, abs=1e-12)

    def test_matches_explicit_softmax_of_scores(self, models):
        qa_params, _ = models
        answers = [A_IDS, [5, 6], [7, 8, 9]]
        with ad.no_recording():
            gold, *others = [qa.qa_score(Q_IDS, a, qa_params, 0).item() for a in answers]
        expected = math.exp(gold) / (math.exp(gold) + sum(math.exp(s) for s in others))
        got = qa.log_conditional_from_scores(scores_for(Q_IDS, answers, qa_params)).item()
        assert math.exp(got) == pytest.approx(expected, rel=1e-12)

    def test_strictly_inside_unit_interval(self, models):
        scores = scores_for(Q_IDS, [A_IDS, [5], [6, 7]], models[0])
        got = math.exp(qa.log_conditional_from_scores(scores).item())
        assert 0.0 < got < 1.0

    def test_members_ratios_sum_to_one(self, models):
        qa_params, _ = models
        scores = scores_for(Q_IDS, [A_IDS, [5, 6], [7, 8, 9], [10]], qa_params)
        total = 0.0
        for i in range(len(scores)):
            rotated = [scores[i]] + scores[:i] + scores[i + 1:]
            total += math.exp(qa.log_conditional_from_scores(rotated).item())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_contrast_rejected(self):
        with pytest.raises(ValueError, match="contrast"):
            trainer.contrast_indices(A_IDS, [])

    def test_gold_duplicates_filtered_from_contrast(self):
        assert trainer.contrast_indices(A_IDS, [A_IDS, [5, 6], list(A_IDS)]) == [1]
        with pytest.raises(ValueError, match="contrast"):
            trainer.contrast_indices(A_IDS, [A_IDS])


class TestRankCandidates:
    def test_orders_by_score_descending(self, models):
        qa_params, _ = models
        candidates = [[5], [6, 7], [8, 9, 10], [11]]
        coocs = [0, 1, 2, 0]
        order = qa.rank_candidates(Q_IDS, candidates, qa_params, coocs)
        with ad.no_recording():
            scores = [qa.qa_score(Q_IDS, c, qa_params, cc).item()
                      for c, cc in zip(candidates, coocs)]
        assert qa.candidate_scores(Q_IDS, candidates, qa_params, coocs) == scores
        assert order == sorted(range(len(candidates)), key=lambda i: (-scores[i], i))

    def test_single_candidate(self, models):
        assert qa.rank_candidates(Q_IDS, [[5, 6]], models[0], [0]) == [0]

    def test_exact_tie_prefers_lower_index(self, models):
        order = qa.rank_candidates(Q_IDS, [[5, 6], [5, 6]], models[0], [1, 1])
        assert order == [0, 1]

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_scores_equal_per_pair_scores_exactly(self, data):
        """Block-encoded scores are the per-pair scores bit for bit, for
        ragged candidates with verbatim duplicates."""
        qa_params, _ = make_tiny_models(seed=3)
        ids = st.lists(st.integers(0, TINY_VOCAB - 1), min_size=1, max_size=12)
        q_ids = data.draw(ids)
        distinct = data.draw(st.lists(ids, min_size=1, max_size=6))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
        candidates = [list(distinct[i]) for i in picks]
        coocs = [len(c) % 3 for c in candidates]
        with ad.no_recording():
            want = [qa.qa_score(q_ids, c, qa_params, cc).item()
                    for c, cc in zip(candidates, coocs)]
        assert qa.candidate_scores(q_ids, candidates, qa_params, coocs) == want

    def test_duplicate_ties_at_mid_hidden_keep_lower_index_first(self):
        """Candidates 7-9 repeat 0-2 verbatim at the mid ``qa_hidden``: each
        pair ties exactly and ranks lower index first (a GEMM over the rows
        breaks the ties here)."""
        qa_params, _ = make_tiny_models(seed=1, dims=dataclasses.replace(TINY_DIMS, qa_hidden=50))
        rng = np.random.default_rng(1)
        candidates = [rng.integers(0, TINY_VOCAB, n).tolist() for n in rng.integers(15, 26, 7)]
        candidates += [list(c) for c in candidates[:3]]
        coocs = [1] * len(candidates)
        scores = qa.candidate_scores(Q_IDS, candidates, qa_params, coocs)
        order = qa.rank_candidates(Q_IDS, candidates, qa_params, coocs)
        for i in range(3):
            assert scores[i] == scores[i + 7]
            assert order.index(i + 7) == order.index(i) + 1

    def test_gru_steps_scale_with_the_longest_candidate(self, models, monkeypatch):
        """All candidates are encoded together: a per-candidate encoder
        would step the GRU once per token of every candidate."""
        calls = {"gru_cell": [], "gru_sequence": []}
        for kind, log in calls.items():
            primitive = getattr(ad, kind)
            monkeypatch.setattr(ad, kind, lambda *args, log=log, primitive=primitive:
                                log.append(args[0].shape[0]) or primitive(*args))
        candidates = [[5, 6, 7], [8], [9, 10], [5, 6, 7], [11, 12, 13, 14]]
        qa.candidate_scores(Q_IDS, candidates, models[0], [0] * len(candidates))
        # Each direction of the question, then of the candidate block, is one
        # gru_sequence; the block steps as often as the longest candidate.
        block_rows = len(candidates) * max(map(len, candidates))
        assert calls == {"gru_cell": [], "gru_sequence": [len(Q_IDS)] * 2 + [block_rows] * 2}

    def test_empty_candidates_rejected(self, models):
        for candidates in ([], [[5], [], [6, 7]]):
            with pytest.raises(ValueError, match="empty"):
                qa.rank_candidates(Q_IDS, candidates, models[0], [0] * len(candidates))


class TestEncoderEqualsPerTokenChain:
    """Each direction of the encoder is one ``gru_sequence``; its encodings
    equal the per-token ``gru_step`` chain's bit for bit."""

    @pytest.mark.parametrize("dims", [TOY_DIMS, MID_DIMS], ids=["toy", "mid"])
    def test_encode_bigru(self, dims):
        qa_params, _ = trainer.init_models(40, 40, dims, seed=5)
        rng = np.random.default_rng(5)
        with ad.no_recording():
            for n in (1, 2, 9, 25):
                ids = rng.integers(0, 40, n).tolist()
                for side in ("question", "answer"):
                    fwd, bwd = per_token_bigru_states(ids, *qa_params._side(side))
                    want = np.concatenate([fwd[-1].values, bwd[0].values])
                    assert np.array_equal(qa.encode_bigru(ids, side, qa_params).values, want)


class TestFeatureDimensions:
    def test_feature_is_six_hidden_plus_cooc(self, models):
        qa_params, _ = models
        assert qa_params.output_weights.shape[1] == 6 * TINY_DIMS.qa_hidden + TINY_DIMS.cooc_dim

    def test_cooc_table_shape(self, models):
        assert models[0].cooc_table.shape == (TINY_DIMS.cooc_vocab, TINY_DIMS.cooc_dim)
