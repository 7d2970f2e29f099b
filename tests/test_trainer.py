"""Trainer tests: the duality regularizer's arithmetic, AdaDelta against
an independent recurrence, step mechanics, and checkpoint integrity."""

import collections
import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualqa import autodiff as ad
from dualqa import bigram, qa, qg, text, trainer

from helpers import (
    SMALL_ROWS, TINY_DIMS, GradientCheckError, grad_check, make_small_trainer, make_tiny_models,
    per_token_bigram_fit, small_corpus, toy_dual_objectives, toy_dual_trainer, unique_tensors,
)


class TestTrainerConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainerConfig(lambda_q=-0.1)

    def test_defaults_match_documented_values(self):
        cfg = trainer.TrainerConfig()
        assert cfg.learning_rate == 2.0
        assert cfg.adadelta_rho == 0.95
        assert cfg.adadelta_eps == 1e-6


def reference_adadelta(grads, rho, eps, lr):
    """Independent scalar implementation of the update recurrences."""
    eg2, ed2, x = 0.0, 0.0, 0.0
    trajectory = []
    for g in grads:
        eg2 = rho * eg2 + (1 - rho) * g * g
        delta = -math.sqrt(ed2 + eps) / math.sqrt(eg2 + eps) * g
        ed2 = rho * ed2 + (1 - rho) * delta * delta
        x += lr * delta
        trajectory.append(x)
    return trajectory


class TestAdaDelta:
    CFG = trainer.TrainerConfig(learning_rate=2.0, adadelta_rho=0.95, adadelta_eps=1e-6)

    def test_first_step_anchor(self):
        param = ad.Tensor([0.0])
        state = trainer.AdaDeltaState.zeros_like(param)
        trainer.adadelta_update(param, np.array([1.0]), state, self.CFG)
        assert param.values[0] == pytest.approx(-0.008944, abs=1e-6)
        expected = reference_adadelta([1.0], 0.95, 1e-6, 2.0)[0]
        assert param.values[0] == pytest.approx(expected, abs=1e-15)

    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(5)
        grads = list(rng.normal(size=20))
        param = ad.Tensor([0.0])
        state = trainer.AdaDeltaState.zeros_like(param)
        for g in grads:
            trainer.adadelta_update(param, np.array([g]), state, self.CFG)
        expected = reference_adadelta(grads, 0.95, 1e-6, 2.0)[-1]
        assert param.values[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_leaves_param_and_decays_accumulators(self):
        param = ad.Tensor([1.5])
        state = trainer.AdaDeltaState.zeros_like(param)
        trainer.adadelta_update(param, np.array([1.0]), state, self.CFG)
        value = param.values.copy()
        eg2 = state.avg_sq_grad.copy()
        trainer.adadelta_update(param, np.array([0.0]), state, self.CFG)
        np.testing.assert_array_equal(param.values, value)
        assert state.avg_sq_grad[0] == pytest.approx(0.95 * eg2[0])

    def test_update_opposes_gradient_sign(self):
        rng = np.random.default_rng(6)
        grads = rng.normal(size=12)
        param = ad.Tensor(np.zeros(12))
        state = trainer.AdaDeltaState.zeros_like(param)
        trainer.adadelta_update(param, grads, state, self.CFG)
        nonzero = grads != 0
        assert np.all(np.sign(param.values[nonzero]) == -np.sign(grads[nonzero]))

    def test_shape_mismatch_rejected(self):
        param = ad.Tensor([0.0, 0.0])
        state = trainer.AdaDeltaState.zeros_like(param)
        with pytest.raises(ValueError, match="shape"):
            trainer.adadelta_update(param, np.zeros(3), state, self.CFG)

    def test_accumulators_stay_nonnegative(self):
        rng = np.random.default_rng(7)
        param = ad.Tensor(np.zeros(4))
        state = trainer.AdaDeltaState.zeros_like(param)
        for _ in range(30):
            trainer.adadelta_update(param, rng.normal(size=4), state, self.CFG)
        assert np.all(state.avg_sq_grad >= 0) and np.all(state.avg_sq_update >= 0)


class TestSquaredLogGap:
    def test_balanced_case_is_exactly_zero(self):
        assert trainer.squared_log_gap(-10.0, -20.0, -12.0, -18.0).item() == 0.0

    def test_one_nat_gap_is_exactly_one(self):
        assert trainer.squared_log_gap(-10.0, -20.0, -12.0, -17.0).item() == 1.0

    @settings(deadline=None, max_examples=50)
    @given(st.tuples(*[st.floats(-60.0, 0.0) for _ in range(4)]))
    def test_nonnegative(self, logs):
        assert trainer.squared_log_gap(*logs).item() >= 0.0

    def test_invariant_to_factorization_side_order(self):
        # The square makes the gap's sign irrelevant.
        forward = trainer.squared_log_gap(-3.0, -7.0, -4.0, -2.0).item()
        swapped = trainer.squared_log_gap(-4.0, -2.0, -3.0, -7.0).item()
        assert forward == pytest.approx(swapped, abs=1e-12)

    def test_accepts_tensor_terms(self):
        t = ad.Tensor(np.asarray(-20.0))
        assert trainer.squared_log_gap(-10.0, t, -12.0, -18.0).item() == 0.0


def dual_terms(qa_params, qg_params):
    """The four inputs the trainer hands ``dual_loss`` for one positive:
    both bigram marginals, log P(q|a), and the gold score followed by the
    contrast scores."""
    lm = bigram.BigramLM.fit([["a", "b"], ["b", "c"]])
    q_ids, a_ids = [4, 7], [5, 8]
    v_q = qa.encode_bigru(q_ids, "question", qa_params)
    scores = [
        qa.qa_score_from_vectors(v_q, qa.encode_bigru(ids, "answer", qa_params), cc, qa_params)
        for ids, cc in ((a_ids, 1), ([6, 9], 0), ([10], 0))
    ]
    return (lm.sentence_log_prob(["b", "c"]), qg.sequence_log_prob(q_ids, a_ids, qg_params),
            lm.sentence_log_prob(["a", "b"]), scores)


class TestDualLoss:
    def test_nonnegative_and_finite(self):
        qa_params, qg_params = make_tiny_models(seed=4)
        value = trainer.dual_loss(*dual_terms(qa_params, qg_params)).item()
        assert value >= 0.0 and np.isfinite(value)

    def test_matches_gap_of_softmax_share(self):
        qa_params, qg_params = make_tiny_models(seed=4)
        log_p_a, seq_lp, log_p_q, scores = dual_terms(qa_params, qg_params)
        s = np.array([t.item() for t in scores])
        log_a_given_q = s[0] - np.log(np.exp(s).sum())
        expected = (log_p_a + seq_lp.item() - log_p_q - log_a_given_q) ** 2
        got = trainer.dual_loss(log_p_a, seq_lp, log_p_q, scores).item()
        assert got == pytest.approx(expected, rel=1e-10)

    def test_gradient_reaches_both_models(self):
        qa_params, qg_params = make_tiny_models(seed=4)
        with ad.ComputationRecord():
            loss = trainer.dual_loss(*dual_terms(qa_params, qg_params))
        g_qa, g_qg = ad.backward(loss, [qa_params.output_weights, qg_params.output_projection])
        assert np.any(g_qa != 0.0)
        assert np.any(g_qg != 0.0)


class TestTrainingObjectiveGradients:
    """Central differences on the two objectives ``train_step``
    backpropagates, on a 4-positive batch with lambda_q = lambda_a = 0.1,
    so the in-batch contrast set and the duality term are active."""

    def _objective(self, tmp_path, which):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs, lambda_q=0.1, lambda_a=0.1)
        (batch,) = text.make_batches(pairs, 4, 2, seed=7)
        assert batch.size == 4

        def build(_):
            record, objectives, *_ = dual._batch_objectives(batch, True)
            assert objectives.shape == (2,)
            with record:
                return ad.row_lookup(objectives, 0 if which == "qa" else 1)
        return dual, build

    def test_selection_objective(self, tmp_path):
        dual, build = self._objective(tmp_path, "qa")
        params = [dual.qa_params.output_bias, dual.qa_params.cooc_table]
        assert grad_check(build, params, epsilon=1e-4, tolerance=1e-4) < 1e-4
        with pytest.raises(GradientCheckError):
            grad_check(build, params[:1], epsilon=1e-4, tolerance=1e-4, analytic_scale=1.01)

    def test_generation_objective(self, tmp_path):
        dual, build = self._objective(tmp_path, "qg")
        params = [dual.qg_params.att_vector]
        assert grad_check(build, params, epsilon=1e-4, tolerance=1e-4) < 1e-4
        with pytest.raises(GradientCheckError):
            grad_check(build, params, epsilon=1e-4, tolerance=1e-4, analytic_scale=1.01)


LAMBDAS = [(0.1, 0.1), (0.1, 0.0), (0.0, 0.1), (0.0, 0.0)]


def two_walk_gradients(dual, batch, use_dual):
    """The update gradients from one reverse walk per objective: ``qa.*``
    from the selection objective, ``qg.*`` from the generation objective
    and the shared embeddings from both, in parameter order.  Each
    objective is composed from the batch sums one scale or add node at a
    time."""
    record, _, qa_sum, qg_sum, dual_sum = dual._batch_objectives(batch, use_dual)
    cfg = dual.config
    with record:
        objective_qa, objective_qg = qa_sum, qg_sum
        if use_dual and cfg.lambda_a > 0:
            objective_qa = ad.add(qa_sum, ad.scalar_scale(dual_sum, cfg.lambda_a))
        if use_dual and cfg.lambda_q > 0:
            objective_qg = ad.add(qg_sum, ad.scalar_scale(dual_sum, cfg.lambda_q))
        objective_qa = ad.scalar_scale(objective_qa, 1.0 / batch.size)
        objective_qg = ad.scalar_scale(objective_qg, 1.0 / batch.size)
    tensors = [t for _, t in dual.parameters]
    from_qa = ad.backward(objective_qa, tensors)
    from_qg = ad.backward(objective_qg, tensors)
    record.clear()
    return [a + b if name.startswith("shared.") else a if name.startswith("qa.") else b
            for (name, _), a, b in zip(dual.parameters, from_qa, from_qg)]


def step_gradients(dual, batch, use_dual):
    """The gradients one step hands to the optimizer (which is stubbed, so
    the parameters stay put), after asserting the step walked once."""
    applied, walks = [], []
    real_backward = ad.backward

    def counting_backward(*args):
        walks.append(args[0])
        return real_backward(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "backward", counting_backward)
        mp.setattr(dual, "_apply_updates", applied.append)
        (dual.train_step if use_dual else dual.independent_step)(batch)
    assert len(walks) == 1
    (grads,) = applied
    return grads


def assert_one_walk_matches_two(dual, batch, use_dual):
    want = two_walk_gradients(dual, batch, use_dual)
    got = step_gradients(dual, batch, use_dual)
    assert len(got) == len(want)
    for (name, t), g, w in zip(dual.parameters, got, want):
        assert g.shape == t.shape, name
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12, err_msg=name)


# Drawn words stay inside each side's vocabulary, so answers with
# different tokens have different ids and contrast with each other.
QUESTION_WORDS, ANSWER_WORDS = (
    sorted({tok for row in SMALL_ROWS for tok in row[col].split()}) for col in (2, 3))


@st.composite
def ragged_batches(draw):
    """1-4 positives with questions and answers of 1-7 tokens, each with a
    negative answer; every positive keeps a non-empty contrast set."""
    question = st.lists(st.sampled_from(QUESTION_WORDS), min_size=1, max_size=7)
    answer = st.lists(st.sampled_from(ANSWER_WORDS), min_size=1, max_size=7)
    rows = [(draw(question), draw(answer), draw(answer))
            for _ in range(draw(st.integers(1, 4)))]
    negative_answers = [neg for *_, neg in rows]
    assume(all(any(neg != a for neg in negative_answers) for _, a, _ in rows))
    return text.TrainingBatch(
        [text.QAPair(q, a, f"p{i}", 1) for i, (q, a, _) in enumerate(rows)],
        [text.QAPair(q, neg, f"n{i}", 0) for i, (q, _, neg) in enumerate(rows)])


@pytest.fixture(scope="module")
def small_pairs(tmp_path_factory):
    return small_corpus(tmp_path_factory.mktemp("small"))


class TestOneWalkMatchesTwoWalks:
    """``train_step`` differentiates both objectives in a single reverse
    walk; its update gradients must equal one walk per objective."""

    @pytest.mark.parametrize("lambdas", LAMBDAS)
    @pytest.mark.parametrize("use_dual", [True, False])
    def test_objective_gradient_batch(self, small_pairs, lambdas, use_dual):
        dual = make_small_trainer(small_pairs, *lambdas)
        (batch,) = text.make_batches(small_pairs, 4, 2, seed=7)
        assert batch.size == 4
        assert_one_walk_matches_two(dual, batch, use_dual)

    @pytest.mark.parametrize("lambdas", LAMBDAS)
    @settings(deadline=None, max_examples=12)
    @given(batch=ragged_batches(), seed=st.integers(0, 50))
    def test_ragged_batches(self, small_pairs, lambdas, batch, seed):
        dual = make_small_trainer(small_pairs, *lambdas, seed=seed)
        assert_one_walk_matches_two(dual, batch, use_dual=True)


class TestTrainStep:
    def _batches(self, pairs, n, batch_size=4, seed=7):
        batches = list(text.make_batches(pairs, batch_size, 2, seed=seed))
        return [batches[i % len(batches)] for i in range(n)]

    def test_losses_finite_and_nonnegative(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        qa_loss, qg_loss, dual_loss = dual.train_step(self._batches(pairs, 1)[0])
        assert qa_loss >= 0.0 and qg_loss >= 0.0 and dual_loss >= 0.0
        assert all(np.isfinite(v) for v in (qa_loss, qg_loss, dual_loss))

    def test_losses_finite_where_a_probability_underflows(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        dual.qa_params.output_bias.values[:] = [0.0, 800.0]
        losses = dual.train_step(self._batches(pairs, 1)[0])
        assert all(np.isfinite(v) for v in losses)

    def test_lambda_zero_matches_independent_training(self, tmp_path):
        pairs = small_corpus(tmp_path)
        joint = make_small_trainer(pairs, lambda_q=0.0, lambda_a=0.0)
        solo = make_small_trainer(pairs, lambda_q=0.0, lambda_a=0.0)
        for batch in self._batches(pairs, 8):
            joint.train_step(batch)
            solo.independent_step(batch)
        for (name_a, ta), (name_b, tb) in zip(joint.parameters, solo.parameters):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_lambda_positive_diverges_from_independent(self, tmp_path):
        pairs = small_corpus(tmp_path)
        joint = make_small_trainer(pairs, lambda_q=0.1, lambda_a=0.1)
        solo = make_small_trainer(pairs, lambda_q=0.1, lambda_a=0.1)
        batch = self._batches(pairs, 1)[0]
        joint.train_step(batch)
        solo.independent_step(batch)
        differs = any(
            not np.array_equal(ta.values, tb.values)
            for (_, ta), (_, tb) in zip(joint.parameters, solo.parameters)
        )
        assert differs

    def test_identical_seeds_identical_parameters(self, tmp_path):
        pairs = small_corpus(tmp_path)
        runs = []
        for _ in range(2):
            dual = make_small_trainer(pairs, seed=11)
            for batch in self._batches(pairs, 6):
                dual.train_step(batch)
            runs.append([t.values.copy() for _, t in dual.parameters])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_step_frees_its_tape(self, tmp_path, monkeypatch):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        built = []

        def spy(*args):
            result = trainer.DualTrainer._batch_objectives(dual, *args)
            built.append(result[0])
            return result

        monkeypatch.setattr(dual, "_batch_objectives", spy)
        dual.train_step(self._batches(pairs, 1)[0])
        (record,) = built
        assert record.nodes == []

    def test_padding_rows_of_the_embeddings_stay_put(self, tmp_path):
        """Each block pads its shorter sequences with PAD_ID; no state of a
        padded step is read, so that embedding row gets exactly zero
        gradient and AdaDelta leaves it as it was."""
        dual, batch = toy_dual_trainer(tmp_path)
        lengths = {len(p.answer_tokens) for p in batch.positives + batch.negatives}
        assert len(lengths) > 1  # the answer blocks are padded
        tables = (dual.qa_params.question_embeddings, dual.qa_params.answer_embeddings)
        before = [t.values.copy() for t in tables]
        dual.train_step(batch)
        for table, old in zip(tables, before):
            assert table.values[text.PAD_ID].tobytes() == old[text.PAD_ID].tobytes()
        # A row the batch does read moves.
        a_id = dual.vocab_a.encode(batch.positives[0].answer_tokens)[0]
        assert not np.array_equal(tables[1].values[a_id], before[1][a_id])

    def test_step_counter_advances(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        batch = self._batches(pairs, 1)[0]
        dual.train_step(batch)
        dual.train_step(batch)
        assert dual.global_step == 2

    def test_nonfinite_loss_raises_with_step_index(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        dual.global_step = 41
        with pytest.raises(trainer.NumericalError, match="step 41"):
            dual._check_finite(qa_loss=float("nan"))

    @pytest.mark.parametrize("scaled, lam, phase", [
        ({"qa.cooc_table": 1e200, "qa.output_weights": 1e200}, 0.0, "selection loss"),
        ({"qg.output_projection": 1e308}, 0.0, "generation loss"),
        ({"qg.output_projection": 1e200}, 0.1, "duality term"),
        ({}, 1e307, "objectives"),
        ({"qg.output_projection": 1e200}, 0.0, "AdaDelta update"),
    ])
    def test_overflow_names_the_phase(self, tmp_path, scaled, lam, phase):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs, lambda_q=lam, lambda_a=lam)
        for name, tensor in dual.parameters:
            tensor.values *= scaled.get(name, 1.0)
        with pytest.raises(trainer.NumericalError,
                           match=rf"^overflow encountered in \w+ in the {phase} at step 0$"):
            dual.train_step(self._batches(pairs, 1)[0])

    def test_empty_batch_rejected(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        with pytest.raises(ValueError):
            dual.train_step(text.TrainingBatch([], []))


class TestNoCyclicGarbage:
    """``_step`` clears its record so that reference counting alone frees
    the tape: with the cyclic collector off, a toy dual step, a candidate
    ranking and a beam search each leave nothing for it to collect."""

    @pytest.mark.parametrize("op", ["train_step", "candidate_scores", "beam_search"])
    def test_leaves_no_cycles(self, tmp_path, op):
        dual, batch = toy_dual_trainer(tmp_path)
        pos = batch.positives[0]
        q_ids = dual.vocab_q.encode(pos.question_tokens)
        answers = [dual.vocab_a.encode(p.answer_tokens) for p in batch.positives[:5]]
        run = {
            "train_step": lambda: dual.train_step(batch),
            "candidate_scores": lambda: qa.candidate_scores(q_ids, answers, dual.qa_params,
                                                            [0] * len(answers)),
            "beam_search": lambda: qg.beam_search(answers[0], 5, 10, dual.qg_params),
        }[op]
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTapeSize:
    """Deterministic node counts: a GRU update, a whole GRU pass and each
    log-softmax are one tape node, which keeps a toy dual step's record
    small."""

    def test_gru_step_records_one_node(self):
        qa_params, _ = make_tiny_models()
        cell = qa_params.question_fwd
        with ad.ComputationRecord() as rec:
            qa.gru_step(cell, ad.Tensor(np.ones(TINY_DIMS.embedding_dim)),
                        ad.zeros(cell.hidden_dim))
        assert [node.kind for node in rec.nodes] == ["gru_cell"]

    def test_toy_dual_step_records_at_most_4400_nodes(self, tmp_path):
        record, objectives, *_ = toy_dual_objectives(tmp_path)
        # The record train_step's backward walk sees: one row per objective.
        assert objectives._record is record and objectives.shape == (2,)
        assert len(record.nodes) <= 4400

    def test_toy_dual_step_tape_holds_no_decode_only_node(self, tmp_path):
        # Row forms and the per-token cell serve decoding and ranking; each
        # GRU pass that training records is one gru_sequence node, and each
        # covers a whole block: the QA questions and answers, the QG answers
        # (two directions each) and the decoder.
        record, *_ = toy_dual_objectives(tmp_path)
        kinds = collections.Counter(node.kind for node in record.nodes)
        assert not kinds.keys() & {"reshape", "linear_log_softmax", "gru_cell"}
        assert kinds["gru_sequence"] == 7
        assert len(record.nodes) == 4286


class TestNamedParameters:
    def test_shared_embeddings_listed_once(self):
        qa_params, qg_params = make_tiny_models(seed=1)
        names = [n for n, _ in trainer.named_parameters(qa_params, qg_params)]
        assert names.count("shared.question_embeddings") == 1
        assert names.count("shared.answer_embeddings") == 1
        assert len(names) == len(set(names))

    def test_unshared_models_rejected(self):
        qa_params, _ = make_tiny_models(seed=1)
        _, qg_params = make_tiny_models(seed=2)
        with pytest.raises(ValueError, match="share"):
            trainer.named_parameters(qa_params, qg_params)

    def test_tensor_set_is_deduplicated(self):
        qa_params, qg_params = make_tiny_models(seed=1)
        named = trainer.named_parameters(qa_params, qg_params)
        assert len(unique_tensors(named)) == len(named)

    # Criterion 7's dims; distinct vocabulary sizes catch a swapped table.
    @pytest.mark.parametrize("dims", [TINY_DIMS, trainer.ModelDims(20, 12, 16, 8, 10, 10)],
                             ids=["tiny", "criterion_7"])
    def test_names_order_and_shapes_follow_the_layout(self, dims):
        named = trainer.named_parameters(*trainer.init_models(30, 25, dims, seed=1))
        assert [(n, t.shape) for n, t in named] == trainer.parameter_layout(30, 25, dims)


def _checkpoint_config():
    return {
        "embedding_dim": TINY_DIMS.embedding_dim, "qa_hidden": TINY_DIMS.qa_hidden,
        "qg_hidden": TINY_DIMS.qg_hidden, "attention_dim": TINY_DIMS.attention_dim,
        "cooc_vocab": TINY_DIMS.cooc_vocab, "cooc_dim": TINY_DIMS.cooc_dim,
        "vocab_size": 100,
    }


class TestCheckpoint:
    def _build(self, tmp_path, seed=9):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs, seed=seed)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(
            path, dual.qa_params, dual.qg_params, dual.lm_q, dual.lm_a,
            dual.vocab_q, dual.vocab_a, _checkpoint_config(),
        )
        return dual, path

    def test_roundtrip_bit_identical(self, tmp_path):
        dual, path = self._build(tmp_path)
        loaded = trainer.load_checkpoint(path)
        restored = trainer.named_parameters(loaded.qa_params, loaded.qg_params)
        for (name_a, ta), (name_b, tb) in zip(dual.parameters, restored):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.values, tb.values)
        assert loaded.vocab_q.id_to_token == dual.vocab_q.id_to_token
        assert loaded.lm_a.bigram_counts == dual.lm_a.bigram_counts
        assert loaded.config == _checkpoint_config()

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        dual, path = self._build(tmp_path)

        def no_draws(*_):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(qa, "glorot_uniform", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = trainer.load_checkpoint(path)
        restored = trainer.named_parameters(loaded.qa_params, loaded.qg_params)
        assert [n for n, _ in restored] == [n for n, _ in dual.parameters]
        for (_, ta), (_, tb) in zip(dual.parameters, restored):
            np.testing.assert_array_equal(ta.values, tb.values)

    def _save_edited_records(self, tmp_path, monkeypatch, edit):
        """A checkpoint whose records are ``edit`` of the model's (name,
        tensor) list."""
        dual = make_small_trainer(small_corpus(tmp_path))
        named = trainer.named_parameters
        monkeypatch.setattr(trainer, "named_parameters", lambda *models: edit(named(*models)))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(
            path, dual.qa_params, dual.qg_params, dual.lm_q, dual.lm_a,
            dual.vocab_q, dual.vocab_a, _checkpoint_config(),
        )
        monkeypatch.undo()
        return path

    def test_renamed_record_rejected(self, tmp_path, monkeypatch):
        path = self._save_edited_records(tmp_path, monkeypatch, lambda items: [
            ("qa.cooc_tabel" if n == "qa.cooc_table" else n, t) for n, t in items])
        with pytest.raises(trainer.CheckpointError, match="missing record 'qa.cooc_table'"):
            trainer.load_checkpoint(path)

    def test_dropped_record_rejected(self, tmp_path, monkeypatch):
        path = self._save_edited_records(tmp_path, monkeypatch, lambda items: items[:-1])
        n = len(trainer.named_parameters(*make_tiny_models()))
        with pytest.raises(trainer.CheckpointError,
                           match=f"holds {n - 1} records, model needs {n}"):
            trainer.load_checkpoint(path)

    def test_bigram_fit_leaves_the_checkpoint_bytes_unchanged(self, tmp_path):
        dual, path = self._build(tmp_path)
        positives = [p for p in small_corpus(tmp_path) if p.label == 1]
        lm_q, lm_a = (per_token_bigram_fit([getattr(p, side) for p in positives])
                      for side in ("question_tokens", "answer_tokens"))
        path2 = tmp_path / "model2.ckpt"
        trainer.save_checkpoint(path2, dual.qa_params, dual.qg_params, lm_q, lm_a,
                                dual.vocab_q, dual.vocab_a, _checkpoint_config())
        assert path.read_bytes() == path2.read_bytes()

    def test_resave_identical_bytes(self, tmp_path):
        _, path = self._build(tmp_path)
        loaded = trainer.load_checkpoint(path)
        path2 = tmp_path / "model2.ckpt"
        trainer.save_checkpoint(
            path2, loaded.qa_params, loaded.qg_params, loaded.lm_q, loaded.lm_a,
            loaded.vocab_q, loaded.vocab_a, loaded.config,
        )
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, path = self._build(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(trainer.CheckpointError, match="truncated"):
            trainer.load_checkpoint(path)

    def test_any_single_bit_flip_rejected(self, tmp_path):
        _, path = self._build(tmp_path)
        data = path.read_bytes()

        @settings(max_examples=250, deadline=None)
        @given(st.integers(0, 8 * len(data) - 1))
        def flipped_bit_rejected(bit):
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << bit % 8
            path.write_bytes(corrupted)
            with pytest.raises(trainer.CheckpointError):
                trainer.load_checkpoint(path)

        flipped_bit_rejected()

    def test_bad_magic_rejected(self, tmp_path):
        _, path = self._build(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOTDUAL" + data[7:])
        with pytest.raises(trainer.CheckpointError, match="version mismatch"):
            trainer.load_checkpoint(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        path = tmp_path / "model.ckpt"
        config = _checkpoint_config()
        config["qa_hidden"] = TINY_DIMS.qa_hidden * 2  # lies about the shapes
        trainer.save_checkpoint(
            path, dual.qa_params, dual.qg_params, dual.lm_q, dual.lm_a,
            dual.vocab_q, dual.vocab_a, config,
        )
        with pytest.raises(trainer.CheckpointError, match="shape mismatch"):
            trainer.load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(trainer.CheckpointError, match="not found"):
            trainer.load_checkpoint(tmp_path / "missing.ckpt")

    def test_missing_dims_in_config_rejected(self, tmp_path):
        pairs = small_corpus(tmp_path)
        dual = make_small_trainer(pairs)
        path = tmp_path / "model.ckpt"
        config = _checkpoint_config()
        del config["qg_hidden"]
        trainer.save_checkpoint(
            path, dual.qa_params, dual.qg_params, dual.lm_q, dual.lm_a,
            dual.vocab_q, dual.vocab_a, config,
        )
        with pytest.raises(trainer.CheckpointError, match="qg_hidden"):
            trainer.load_checkpoint(path)
