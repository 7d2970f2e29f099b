"""The benchmark's workloads.

Each runs in one process, closed loop (the next operation starts when the
previous one returns), and drives the program only through its public
API.  The benchmark reports every end-to-end metric on every workload, so
each workload runs all three operation families (training steps, ranked
questions, generated answers) and stresses one of them.  The families
are interleaved in rounds over the whole run rather than run as blocks:
the host's speed drifts over seconds, and a short block would sample one
moment of it (see README.md).

``run(seconds)`` is the untraced measurement: rounds repeat until
``seconds`` have passed.  ``run(None)`` is the fixed slice a traced run
executes three times: plain, with spans, and plain again.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

from dualqa import autodiff as ad
from dualqa import bigram, cli, metrics, qa, qg, text, toy, trainer

import checks as chk
import corpus
from tracing import Stopwatch

BEAM = 5
MAX_LEN = 30
clock = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Attempted and failed operations; an operation fails when the program
    raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a program fault: count it and keep measuring
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


class Result:
    def __init__(self):
        self.ops = Ops()
        self.checks = chk.Checks()
        self.metrics: dict[str, float] = {}
        self.epochs = 0  # whole epochs of batches drawn
        # Checks that call the program run after the measured part, so a
        # traced run records no span for them.
        self.deferred = []

    def timed(self, times, fn, *args):
        t0 = clock()
        out = self.ops.run(fn, *args)
        times.append(clock() - t0)
        return out

    def verify(self):
        for check in self.deferred:
            check()


def _groups(path):
    """Candidate groups of a ranking TSV, one per question, in file order."""
    return [group for _, group in cli.group_queries(text.load_tsv(path))]


def _rank(model, group):
    q_tokens = group[0].question_tokens
    return qa.rank_candidates(
        model.vocab_q.encode(q_tokens),
        [model.vocab_a.encode(p.answer_tokens) for p in group],
        model.qa_params,
        [text.cooccurrence_count(q_tokens, p.answer_tokens) for p in group],
    )


def _generate(model, line):
    tokens = text.tokenize(line)
    hyps = qg.beam_search(model.vocab_a.encode(tokens), BEAM, MAX_LEN, model.qg_params)
    return tokens, hyps, [qg.unk_replace(h, tokens, model.vocab_q) for h in hyps]


def _ranking_metrics(groups, orders):
    """MAP, MRR and P@1 from the program's orders, fed to ``metrics`` as
    descending pseudo-scores the way the CLI does."""
    queries = []
    for group, order in zip(groups, orders):
        scores = [0.0] * len(group)
        for rank, idx in enumerate(order):
            scores[idx] = float(len(group) - rank)
        queries.append(metrics.RankedQuery(scores, [p.label for p in group]))
    return (metrics.mean_average_precision(queries), metrics.mean_reciprocal_rank(queries),
            metrics.precision_at_1(queries))


class Serving:
    """Ranks questions and generates answers in turn, cycling through fixed
    sets, and keeps the outputs of the first pass for the checks."""

    def __init__(self, res, groups, lines):
        self.res, self.groups, self.lines = res, groups, lines
        self.rank_s: list[float] = []
        self.gen_s: list[float] = []
        self.scored: list[tuple] = []  # every (group, order), for the metrics
        self.ranked: list[tuple] = []  # kept (group, order) pairs, for the checks
        self.generated: list[tuple] = []  # kept (answer tokens, hypotheses, surfaces)

    def question(self, model):
        group = self.groups[len(self.rank_s) % len(self.groups)]
        first_pass = len(self.rank_s) < len(self.groups)
        order = self.res.timed(self.rank_s, _rank, model, group)
        if order is not None:
            self.scored.append((group, order))
            if first_pass:
                self.ranked.append((group, order))

    def answer(self, model):
        line = self.lines[len(self.gen_s) % len(self.lines)]
        first_pass = len(self.gen_s) < len(self.lines)
        out = self.res.timed(self.gen_s, _generate, model, line)
        if out is not None and first_pass:
            self.generated.append(out)

    def finish(self):
        """Scores the ranked set with ``metrics``, timed with the ranking,
        and records both serving metrics."""
        t0 = clock()
        if self.scored:
            self.res.ops.run(_ranking_metrics, *zip(*self.scored))
        metrics_s = clock() - t0
        self.res.metrics["rank_questions_per_s"] = len(self.rank_s) / (sum(self.rank_s) + metrics_s)
        self.res.metrics["generate_answers_per_s"] = len(self.gen_s) / sum(self.gen_s)

    def check(self, checks, model):
        """Ranking and generation checks of the kept outputs against
        ``model``, which must be the model that produced them."""
        if self.ranked:
            groups, orders = [list(x) for x in zip(*self.ranked)]
            chk.check_ranking(checks, model.qa_params, model.qg_params, model.vocab_q,
                              model.vocab_a, groups, orders, _ranking_metrics(groups, orders))
        if self.generated:
            chk.check_generation(checks, model.qg_params, model.qa_params, model.vocab_a,
                                 self.generated, MAX_LEN)


def check_round_trip(res, written, ckpt):
    """The loaded checkpoint against the trainer it was saved from."""
    saved = trainer.named_parameters(written.qa_params, written.qg_params)
    loaded = trainer.named_parameters(ckpt.qa_params, ckpt.qg_params)
    same = ([n for n, _ in saved] == [n for n, _ in loaded]
            and all(chk.same_bits(a.values, b.values) for (_, a), (_, b) in zip(saved, loaded))
            and written.vocab_q.id_to_token == ckpt.vocab_q.id_to_token
            and written.vocab_a.id_to_token == ckpt.vocab_a.id_to_token
            and written.lm_q.to_dict() == ckpt.lm_q.to_dict()
            and written.lm_a.to_dict() == ckpt.lm_a.to_dict())
    bumped = loaded[-1][1].values.copy()
    bumped.flat[0] = math.nextafter(bumped.flat[0], math.inf)
    res.checks.add("checkpoint.round_trip_bit_identical", same,
                   not chk.same_bits(saved[-1][1].values, bumped))


def _batches_per_epoch(positives, batch_size, pool_batches=10):
    pool = batch_size * pool_batches
    return (positives // pool) * pool_batches + math.ceil(positives % pool / batch_size)


class ToyDualTrain:
    """``cli.run_training`` at acceptance criterion 7's dual configuration
    on ``toy.generate_corpus``, for one epoch per 15 s of the run (at least
    two).  After every step a client ranks four dev questions and
    beam-searches two dev answers with an untrained set-up model, so the
    cost of an answer does not drift with training; ``run_training``
    itself also ranks the whole dev set each epoch."""

    SETUPS = 3  # up front; one more after every step
    CLIENT_QUESTIONS = 4
    CLIENT_ANSWERS = 2

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.tiny = scale == "tiny"
        self.workdir = workdir
        self.train_path = os.path.join(workdir, "train.tsv")
        self.dev_path = os.path.join(workdir, "dev.tsv")

    def _config(self, run_dir, epochs):
        return cli.RunConfig(
            train_path=self.train_path, dev_path=self.dev_path, checkpoint_dir=run_dir,
            embedding_dim=20, qa_hidden=12, qg_hidden=16, attention_dim=8,
            vocab_size=200, batch_size=16, pool_batches=10, lambda_q=0.1, lambda_a=0.1,
            max_epochs=epochs, seed=7, early_stop_patience=None,
        )

    def _setup(self):
        """Writing the corpus, then what ``run_training`` does before its
        first step (it repeats this internally)."""
        kwargs = {"n_subjects": 10, "dev_questions": 4} if self.tiny else {}
        train_rows, dev_rows = toy.generate_corpus(seed=self.seed, **kwargs)
        toy.write_tsv(train_rows, self.train_path)
        toy.write_tsv(dev_rows, self.dev_path)
        cfg = self._config(self.workdir, 1)
        pairs = text.load_tsv(self.train_path)
        positives = [p for p in pairs if p.label == 1]
        vocab_q = text.build_vocab([p.question_tokens for p in pairs], cfg.vocab_size)
        vocab_a = text.build_vocab([p.answer_tokens for p in pairs], cfg.vocab_size)
        lm_q = bigram.BigramLM.fit([p.question_tokens for p in positives])
        lm_a = bigram.BigramLM.fit([p.answer_tokens for p in positives])
        qa_params, qg_params = trainer.init_models(vocab_q.size, vocab_a.size, cfg.dims(), cfg.seed)
        dual = trainer.DualTrainer(qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a,
                                   cfg.trainer_config())
        return train_rows, pairs, dual

    def run(self, seconds):
        res = Result()
        traced = seconds is None
        setups = []
        trainers = []
        for _ in range(1 if traced else self.SETUPS):
            t0 = clock()
            train_rows, pairs, dual = self._setup()
            setups.append(clock() - t0)
            trainers = (trainers + [dual])[-2:]
        # The first kept set-up serves the client, untrained; the last takes
        # the checked step.
        served = trainers[0]

        if not traced:
            # One extra step, untimed, on the set-up trainer: the duality
            # loss it returns against the gap rebuilt from references.
            batch = next(text.make_batches(pairs, 16, 10, seed=self.seed))
            positives = [r for r in train_rows if r[4] == 1]
            gap = chk.dual_reference(dual, batch, [r[2] for r in positives],
                                     [r[3] for r in positives])
            losses = res.ops.run(dual.train_step, batch)
            chk.check_dual_loss(res.checks, losses[2] if losses else math.nan, gap)

        dev_groups = _groups(self.dev_path)
        serving = Serving(res, dev_groups, [" ".join(g[0].answer_tokens) for g in dev_groups])
        live = []  # the trainer inside run_training, seen by the step hook
        monitor_s = []

        def monitor(args):
            t0 = clock()
            live[:] = [args[0]]
            for _ in range(self.CLIENT_QUESTIONS):
                serving.question(served)
            for _ in range(self.CLIENT_ANSWERS):
                serving.answer(served)
            if not traced:
                t1 = clock()
                self._setup()
                setups.append(clock() - t1)
            monitor_s.append(clock() - t0)

        epochs = 1 if traced else max(2, round(seconds / 15))
        run_dir = os.path.join(self.workdir, "run")
        watch = Stopwatch()
        watch.time(trainer.DualTrainer, "train_step", "step", size=lambda args: args[1].size,
                   after=monitor)
        watch.time(qa, "rank_candidates", "rank")
        try:
            result = res.ops.run(cli.run_training, self._config(run_dir, epochs))
            t_end = clock()
        finally:
            watch.patches.restore()
        steps = watch.calls.get("step", [])
        ranks = watch.durations("rank")  # the monitor's questions and the per-epoch dev ranking
        # run_training is not itself an operation; its steps and dev questions are.
        planned = epochs * (_batches_per_epoch(sum(p.label for p in pairs), 16) + len(dev_groups))
        dev_ranked = len(ranks) - len(serving.rank_s)
        res.ops.attempted += planned - 1
        res.ops.failed += planned - (result is None) - len(steps) - dev_ranked
        res.epochs = epochs
        res.metrics["setup_s"] = statistics.median(setups)
        res.metrics["peak_rss_mb"] = peak_rss_mb()
        if steps:
            res.metrics["train_step_s_p50"] = statistics.median(e - s for s, e, _ in steps)
            res.metrics["train_pairs_per_s"] = (sum(n for _, _, n in steps)
                                                / (t_end - steps[0][0] - sum(monitor_s)))
            res.metrics["rank_questions_per_s"] = len(ranks) / sum(ranks)
            res.metrics["generate_answers_per_s"] = len(serving.gen_s) / sum(serving.gen_s)
        if result is None:
            return res
        ckpt = res.ops.run(trainer.load_checkpoint, result.final_checkpoint)

        def verify():
            with open(os.path.join(run_dir, "train_log.jsonl"), encoding="utf-8") as f:
                logged = [json.loads(line) for line in f]
            chk.check_losses_finite(res.checks, "train.logged_losses_finite",
                                    [(r["qa_loss"], r["qg_loss"], r["dual_loss"]) for r in logged])
            first, last = result.epochs[0], result.epochs[-1]

            def below(a, b):
                return a.qa_loss < b.qa_loss and a.qg_loss < b.qg_loss
            if len(result.epochs) > 1:  # a traced slice trains one epoch
                res.checks.add("train.last_epoch_losses_below_first", below(last, first),
                               not below(first, last),
                               f"qa {first.qa_loss:.4f}->{last.qa_loss:.4f} "
                               f"qg {first.qg_loss:.4f}->{last.qg_loss:.4f}")
            chk.check_dev_metrics(res.checks, result.epochs, dev_groups)
            if ckpt is not None and live:
                check_round_trip(res, live[0], ckpt)
            serving.check(res.checks, served)
        res.deferred.append(verify)
        return res


class Steps:
    """Closed-loop training steps over seeded epochs of ``make_batches``.
    Step time is the ``train_step`` call; training wall time adds the wait
    for each batch.  The parameters after step ``learn_steps`` are kept
    for the learning check."""

    def __init__(self, res, dual, pairs, batch_size, seed, learn_steps):
        self.res, self.dual, self.pairs = res, dual, pairs
        self.batch_size, self.seed = batch_size, seed
        self.learn_steps = learn_steps
        self.epoch = text.make_batches(pairs, batch_size, 10, seed=seed)
        res.epochs = 1
        self.times: list[float] = []
        self.sizes: list[int] = []
        self.wait = 0.0
        self.losses: list[tuple] = []
        self.first = None
        self.taken = 0
        self.learned = None

    def _draw(self):
        try:
            batch = next(self.epoch)
        except StopIteration:
            self.epoch = text.make_batches(self.pairs, self.batch_size, 10,
                                           seed=self.seed + self.res.epochs)
            self.res.epochs += 1
            batch = next(self.epoch)
        self.first = self.first or batch
        return batch

    def next_batch(self):
        t0 = clock()
        batch = self._draw()
        self.wait += clock() - t0
        return batch

    def _taken(self, out):
        self.taken += 1
        if out is not None:
            self.losses.append(out)
        if self.taken == self.learn_steps:
            self.learned = {name: values.copy() for name, values in
                            chk.param_arrays(self.dual.qa_params, self.dual.qg_params).items()}
        return out

    def step(self, batch):
        out = self.res.timed(self.times, self.dual.train_step, batch)
        self.sizes.append(batch.size)
        return self._taken(out)

    def train_to_learn_steps(self):
        """Untimed steps on the same batch sequence, for a run that ended
        before ``learn_steps`` steps."""
        while self.taken < self.learn_steps:
            self._taken(self.res.ops.run(self.dual.train_step, self._draw()))

    def finish(self):
        """Draws the epoch in progress to its end, untimed, so batching is
        traced per whole epoch; records the training metrics."""
        for _ in self.epoch:
            pass
        self.res.metrics["train_step_s_p50"] = statistics.median(self.times)
        self.res.metrics["train_pairs_per_s"] = sum(self.sizes) / (sum(self.times) + self.wait)


class MidBasicTrain:
    """``DualTrainer.train_step`` with both lambdas 0 at mid scale,
    interleaved with forward-only serving.  Set-up writes an untrained
    model with ``save_checkpoint`` and reads it back with
    ``load_checkpoint``; each round is then one training step, four
    questions ranked and two answers beam-searched with the loaded model,
    so the cost of an answer does not drift with training."""

    SETUPS = 3  # up front; one more every SETUP_EVERY rounds
    DIMS = trainer.ModelDims(embedding_dim=100, qa_hidden=50, qg_hidden=64, attention_dim=30)
    VOCAB = 5000
    BATCH = 16
    QUESTIONS = 4  # per round: the 60-question set is covered about once a run
    ANSWERS = 2
    SETUP_EVERY = 4
    SLICE_ROUNDS = 3
    # The learning check reads the parameters after this many steps, not
    # after the run's last step: the number of steps a run takes depends on
    # the host's speed, and while AdaDelta's steps grow the QG loss on a
    # fixed batch falls step by step only for the first eight or so (seed
    # 1516185881: 75.0, 102.9, 82.1 after steps 12, 13 and 14, from 97.4).
    LEARN_STEPS = 6

    def __init__(self, seed, scale, workdir):
        # The corpus is the benchmark's own code; it runs before any clock.
        self.seed = seed
        self.workdir = workdir
        self.corpus = corpus.MidCorpus(seed, scale)
        self.train_path = os.path.join(workdir, "train.tsv")
        self.rank_path = os.path.join(workdir, "rank.tsv")
        corpus.write_tsv(self.corpus.train_rows, self.train_path)
        corpus.write_tsv(self.corpus.rank_rows, self.rank_path)

    def _setup(self):
        pairs = text.load_tsv(self.train_path)
        positives = [p for p in pairs if p.label == 1]
        vocab_q = text.build_vocab([p.question_tokens for p in pairs], self.VOCAB)
        vocab_a = text.build_vocab([p.answer_tokens for p in pairs], self.VOCAB)
        lm_q = bigram.BigramLM.fit([p.question_tokens for p in positives])
        lm_a = bigram.BigramLM.fit([p.answer_tokens for p in positives])
        qa_params, qg_params = trainer.init_models(vocab_q.size, vocab_a.size, self.DIMS, seed=7)
        config = trainer.TrainerConfig(lambda_q=0.0, lambda_a=0.0)
        dual = trainer.DualTrainer(qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a, config)
        path = os.path.join(self.workdir, "model.ckpt")
        trainer.save_checkpoint(path, qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a,
                                {**dataclasses.asdict(self.DIMS), "vocab_size": self.VOCAB})
        return pairs, dual, trainer.load_checkpoint(path)

    def run(self, seconds):
        res = Result()
        traced = seconds is None
        setups = []
        trainers = []
        for i in range(2 if traced else self.SETUPS):
            t0 = clock()
            pairs, dual, loaded = self._setup()
            setups.append(clock() - t0)
            trainers.append(dual)
            if i == 0:
                served = loaded
        # Identical set-ups: the first one's checkpoint is served, and the
        # first trainer stays untrained for the round-trip check; the
        # second is the twin of the checked first step; the last trains.
        written, twin = trainers[0], trainers[-2]
        steps = Steps(res, dual, pairs, self.BATCH, self.seed, self.LEARN_STEPS)
        serving = Serving(res, _groups(self.rank_path), self.corpus.answer_lines)

        start = clock()
        rounds = 0
        while True:
            batch = steps.next_batch()
            if rounds == 0 and not traced:
                self._twin_check(res, dual, twin, batch, steps)
            else:
                steps.step(batch)
            for _ in range(self.QUESTIONS):
                serving.question(served)
            for _ in range(self.ANSWERS):
                serving.answer(served)
            rounds += 1
            if not traced and rounds % self.SETUP_EVERY == 0:
                t0 = clock()
                self._setup()
                setups.append(clock() - t0)
            if traced:
                if rounds == self.SLICE_ROUNDS:
                    break
            elif clock() - start >= seconds:
                break
        if not traced:  # a traced slice takes too few steps for the learning check
            steps.train_to_learn_steps()
        steps.finish()
        serving.finish()
        res.metrics["setup_s"] = statistics.median(setups)
        res.metrics["peak_rss_mb"] = peak_rss_mb()

        def verify():
            chk.check_losses_finite(res.checks, "train.losses_finite", steps.losses)
            if steps.losses and steps.learned is not None:
                chk.check_first_batch_learned(
                    res.checks, steps.losses[0],
                    chk.param_arrays(written.qa_params, written.qg_params), steps.learned,
                    steps.learn_steps, dual.vocab_q, dual.vocab_a, steps.first)
            check_round_trip(res, written, served)
            serving.check(res.checks, served)
        res.deferred.append(verify)
        return res

    @staticmethod
    def _twin_check(res, dual, twin, batch, steps):
        """The first step, with two checks around it: the QG loss it returns
        against the mean sequence NLL computed before it, and its
        parameters against ``independent_step`` on an identical twin."""
        with ad.no_recording():
            want_qg = statistics.fmean(
                -qg.sequence_log_prob(dual.vocab_q.encode(p.question_tokens),
                                      dual.vocab_a.encode(p.answer_tokens), dual.qg_params).item()
                for p in batch.positives)
        out = steps.step(batch)
        res.ops.run(twin.independent_step, batch)
        params = list(zip(dual.parameters, twin.parameters))
        same = all(chk.same_bits(a.values, b.values) for (_, a), (_, b) in params)
        bumped = params[0][1][1].values.copy()
        bumped.flat[0] = math.nextafter(bumped.flat[0], math.inf)
        res.checks.add("train.lambda0_step_bit_identical_to_independent_step", same,
                       not chk.same_bits(params[0][0][1].values, bumped))
        got = out[1] if out else math.nan
        res.checks.add("train.qg_loss_equals_mean_sequence_nll",
                       abs(got - want_qg) <= chk.TOL, abs(got - (want_qg + 1e-6)) > chk.TOL,
                       f"|program - reference| = {abs(got - want_qg):.3e}")


WORKLOADS = {
    "toy-dual-train": ToyDualTrain,
    "mid-basic-train": MidBasicTrain,
}
