"""Command-line entry point.

Subcommands: train, eval-qa, eval-qg, generate, rank.  A JSON config file
is the single source of truth for a run; selected flags override it.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import typing
from dataclasses import dataclass

from . import metrics, qa, qg, trainer
from .bigram import BigramLM
from .text import DataError, build_vocab, cooccurrence_count, load_tsv, make_batches, tokenize

__all__ = ["RunConfig", "UsageError", "run_training", "main"]


class UsageError(ValueError):
    """Bad flags or bad config."""


@dataclass
class RunConfig:
    """Everything a reproducible run needs; stored verbatim in each
    checkpoint."""

    train_path: str | None = None
    dev_path: str | None = None
    checkpoint_dir: str = "checkpoints"
    embedding_dim: int = 300
    qa_hidden: int = 100
    qg_hidden: int = 512
    attention_dim: int = 30
    cooc_vocab: int = 10
    cooc_dim: int = 10
    vocab_size: int = 30000
    lambda_q: float = 0.1
    lambda_a: float = 0.1
    batch_size: int = 64
    pool_batches: int = 10
    learning_rate: float = 2.0
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    max_epochs: int = 30
    seed: int = 13
    beam_size: int = 5
    max_len: int = 30
    early_stop_patience: int | None = 5

    def validate(self):
        hints = typing.get_type_hints(RunConfig)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, hints[f.name]):
                raise UsageError(f"config field {f.name} must be {f.type}, got {value!r}")
        positive = (
            "embedding_dim", "qa_hidden", "qg_hidden", "attention_dim",
            "cooc_vocab", "cooc_dim", "vocab_size", "batch_size",
            "pool_batches", "max_epochs", "beam_size", "max_len",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise UsageError(f"config field {name} must be >= 1, got {getattr(self, name)}")
        if self.lambda_q < 0 or self.lambda_a < 0:
            raise UsageError("lambda_q and lambda_a must be non-negative")
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _subset(self, cls):
        """An instance of ``cls`` holding this config's values of its fields."""
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def dims(self) -> trainer.ModelDims:
        return self._subset(trainer.ModelDims)

    def trainer_config(self) -> trainer.TrainerConfig:
        return self._subset(trainer.TrainerConfig)


def _has_type(value, declared) -> bool:
    """Whether a JSON value fits a field's declared type; a ``bool`` is
    not an ``int``, and an ``int`` is a ``float``."""
    allowed = typing.get_args(declared) or (declared,)
    if float in allowed:
        allowed += (int,)
    return not isinstance(value, bool) and isinstance(value, allowed)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return RunConfig.from_dict(raw)


def group_queries(pairs):
    """Candidates grouped by question_id, preserving first-seen question
    order and file order within a group."""
    groups: dict[str, list] = {}
    order = []
    for pair in pairs:
        if pair.question_id not in groups:
            groups[pair.question_id] = []
            order.append(pair.question_id)
        groups[pair.question_id].append(pair)
    return [(qid, groups[qid]) for qid in order]


def _ranking_report(qa_params, vocab_q, vocab_a, pairs) -> dict:
    queries = []
    skipped = 0
    for _, group in group_queries(pairs):
        if not any(p.label == 1 for p in group):
            skipped += 1
            continue
        q_ids = vocab_q.encode(group[0].question_tokens)
        candidates = [vocab_a.encode(p.answer_tokens) for p in group]
        coocs = [cooccurrence_count(p.question_tokens, p.answer_tokens) for p in group]
        order = qa.rank_candidates(q_ids, candidates, qa_params, coocs)
        # Metrics consume scores; rank order is the information, so feed
        # descending pseudo-scores consistent with the model's ordering.
        scores = [0.0] * len(group)
        for rank, idx in enumerate(order):
            scores[idx] = float(len(group) - rank)
        queries.append(metrics.RankedQuery(scores=scores, labels=[p.label for p in group]))
    if not queries:
        raise DataError("dataset has no query with a positive candidate")
    return {
        "map": metrics.mean_average_precision(queries),
        "mrr": metrics.mean_reciprocal_rank(queries),
        "p_at_1": metrics.precision_at_1(queries),
        "num_questions": len(queries),
        "num_skipped": skipped,
    }


@dataclass
class EpochRecord:
    epoch: int
    qa_loss: float
    qg_loss: float
    dual_loss: float
    dev_map: float | None
    dev_p_at_1: float | None
    checkpoint: str


@dataclass
class TrainResult:
    final_checkpoint: str
    epochs: list[EpochRecord]


def run_training(cfg: RunConfig) -> TrainResult:
    """Full training run: data, vocabularies, language models, epoch loop
    with per-step JSON logging, per-epoch checkpoints, optional dev-MAP
    early stopping."""
    if not cfg.train_path:
        raise UsageError("training requires train_path")
    pairs = load_tsv(cfg.train_path)
    dev_pairs = load_tsv(cfg.dev_path) if cfg.dev_path else None
    positives = [p for p in pairs if p.label == 1]
    if not positives:
        raise DataError("training data has no positive pairs")
    vocab_q = build_vocab([p.question_tokens for p in pairs], cfg.vocab_size)
    vocab_a = build_vocab([p.answer_tokens for p in pairs], cfg.vocab_size)
    lm_q = BigramLM.fit([p.question_tokens for p in positives])
    lm_a = BigramLM.fit([p.answer_tokens for p in positives])
    qa_params, qg_params = trainer.init_models(vocab_q.size, vocab_a.size, cfg.dims(), cfg.seed)
    dual = trainer.DualTrainer(qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a,
                               cfg.trainer_config())

    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    log_path = os.path.join(cfg.checkpoint_dir, "train_log.jsonl")
    epoch_seeds = random.Random(cfg.seed)
    records: list[EpochRecord] = []
    best_map = float("-inf")
    stale = 0
    config_dict = cfg.to_dict()

    def checkpoint(name: str) -> str:
        path = os.path.join(cfg.checkpoint_dir, name)
        trainer.save_checkpoint(path, qa_params, qg_params, lm_q, lm_a,
                                vocab_q, vocab_a, config_dict)
        return path

    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(1, cfg.max_epochs + 1):
            seed = epoch_seeds.randrange(2 ** 31)
            sums = [0.0, 0.0, 0.0]
            steps = 0
            for batch in make_batches(pairs, cfg.batch_size, cfg.pool_batches, seed):
                qa_loss, qg_loss, dual_loss = dual.train_step(batch)
                log.write(json.dumps({
                    "step": dual.global_step,
                    "qa_loss": qa_loss,
                    "qg_loss": qg_loss,
                    "dual_loss": dual_loss,
                }) + "\n")
                for i, v in enumerate((qa_loss, qg_loss, dual_loss)):
                    sums[i] += v
                steps += 1
            log.flush()
            path = checkpoint(f"epoch_{epoch:03d}.ckpt")
            dev_map = dev_p1 = None
            if dev_pairs is not None:
                report = _ranking_report(qa_params, vocab_q, vocab_a, dev_pairs)
                dev_map, dev_p1 = report["map"], report["p_at_1"]
            record = EpochRecord(
                epoch=epoch,
                qa_loss=sums[0] / max(steps, 1),
                qg_loss=sums[1] / max(steps, 1),
                dual_loss=sums[2] / max(steps, 1),
                dev_map=dev_map,
                dev_p_at_1=dev_p1,
                checkpoint=path,
            )
            records.append(record)
            summary = (f"epoch {epoch}: qa_loss={record.qa_loss:.4f} "
                       f"qg_loss={record.qg_loss:.4f} dual_loss={record.dual_loss:.4f}")
            if dev_map is not None:
                summary += f" dev_map={dev_map:.4f} dev_p@1={dev_p1:.4f}"
            print(summary, file=sys.stderr)
            if dev_map is not None and cfg.early_stop_patience is not None:
                if dev_map > best_map:
                    best_map = dev_map
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.early_stop_patience:
                        print(f"early stop: dev MAP stale for {stale} epochs", file=sys.stderr)
                        break
    final = checkpoint("final.ckpt")
    return TrainResult(final_checkpoint=final, epochs=records)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.lambda_q is not None:
        cfg.lambda_q = args.lambda_q
    if args.lambda_a is not None:
        cfg.lambda_a = args.lambda_a
    if args.data is not None:
        cfg.train_path = args.data
    if args.checkpoint is not None:
        cfg.checkpoint_dir = args.checkpoint
    cfg.validate()
    result = run_training(cfg)
    print(json.dumps({"final_checkpoint": result.final_checkpoint,
                      "epochs": len(result.epochs)}))
    return 0


def cmd_eval_qa(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    pairs = load_tsv(args.data)
    report = _ranking_report(ckpt.qa_params, ckpt.vocab_q, ckpt.vocab_a, pairs)
    print(json.dumps(report, sort_keys=True))
    return 0


def _decode_question(ckpt: trainer.Checkpoint, answer_tokens, max_len: int):
    a_ids = ckpt.vocab_a.encode(answer_tokens)
    hyp = qg.greedy_decode(a_ids, max_len, ckpt.qg_params)
    return qg.unk_replace(hyp, answer_tokens, ckpt.vocab_q)


def cmd_eval_qg(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    pairs = load_tsv(args.data)
    max_len = int(ckpt.config.get("max_len", RunConfig.max_len))
    candidates = []
    references = []
    for pair in pairs:
        if pair.label != 1:
            continue
        candidates.append(_decode_question(ckpt, pair.answer_tokens, max_len))
        references.append(pair.question_tokens)
    if not candidates:
        raise DataError("dataset has no positive pairs to evaluate")
    report = {"bleu4": metrics.bleu4(candidates, references), "num_pairs": len(candidates)}
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_generate(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    beam_size = (args.beam if args.beam is not None
                 else int(ckpt.config.get("beam_size", RunConfig.beam_size)))
    max_len = int(ckpt.config.get("max_len", RunConfig.max_len))
    try:
        with open(args.data, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        raise DataError(f"answers file not found: {args.data}") from None
    for lineno, line in enumerate(lines, start=1):
        try:
            answer_tokens = tokenize(line)
        except DataError as e:
            raise DataError(f"line {lineno}: {e}") from None
        a_ids = ckpt.vocab_a.encode(answer_tokens)
        for hyp in qg.beam_search(a_ids, beam_size, max_len, ckpt.qg_params):
            surface = qg.unk_replace(hyp, answer_tokens, ckpt.vocab_q)
            print(f"{hyp.log_prob:.6f}\t{' '.join(surface)}")
    return 0


def cmd_rank(args) -> int:
    ckpt = trainer.load_checkpoint(args.checkpoint)
    pairs = load_tsv(args.data)
    for qid, group in group_queries(pairs):
        q_ids = ckpt.vocab_q.encode(group[0].question_tokens)
        candidates = [ckpt.vocab_a.encode(p.answer_tokens) for p in group]
        coocs = [cooccurrence_count(p.question_tokens, p.answer_tokens) for p in group]
        scores = qa.candidate_scores(q_ids, candidates, ckpt.qa_params, coocs)
        for rank, idx in enumerate(metrics.ranked_order(scores), start=1):
            answer = " ".join(group[idx].answer_tokens)
            print(f"{qid}\t{rank}\t{scores[idx]:.6f}\t{answer}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train both models jointly")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int)
    train.add_argument("--lambda-q", dest="lambda_q", type=float)
    train.add_argument("--lambda-a", dest="lambda_a", type=float)
    train.add_argument("--data", help="override train_path")
    train.add_argument("--checkpoint", help="override checkpoint_dir")
    train.set_defaults(func=cmd_train)

    eval_qa = sub.add_parser("eval-qa", help="MAP/MRR/P@1 on a candidate dataset")
    eval_qa.add_argument("--checkpoint", required=True)
    eval_qa.add_argument("--data", required=True)
    eval_qa.set_defaults(func=cmd_eval_qa)

    eval_qg = sub.add_parser("eval-qg", help="BLEU-4 of greedy generations")
    eval_qg.add_argument("--checkpoint", required=True)
    eval_qg.add_argument("--data", required=True)
    eval_qg.set_defaults(func=cmd_eval_qg)

    generate = sub.add_parser("generate", help="beam-search questions for answer lines")
    generate.add_argument("--checkpoint", required=True)
    generate.add_argument("--data", required=True, help="text file, one answer per line")
    generate.add_argument("--beam", type=int)
    generate.set_defaults(func=cmd_generate)

    rank = sub.add_parser("rank", help="score and order candidates per question")
    rank.add_argument("--checkpoint", required=True)
    rank.add_argument("--data", required=True)
    rank.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, trainer.CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except trainer.NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
