"""Shared builders for the test suite: tiny model instances and a small
in-memory corpus, sized so full finite-difference checks stay fast."""

import numpy as np

from dualqa import bigram, text, toy, trainer

TINY_DIMS = trainer.ModelDims(
    embedding_dim=6, qa_hidden=8, qg_hidden=8, attention_dim=5,
    cooc_vocab=10, cooc_dim=4,
)

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


def toy_dual_objectives(tmp_path):
    """``_batch_objectives`` of one toy dual step, ``(record, objectives,
    qa_sum, qg_sum, dual_sum)``: acceptance criterion 7's corpus, dims,
    batch size and seed, lambda 0.1."""
    train_rows, _ = toy.generate_corpus()
    toy.write_tsv(train_rows, tmp_path / "train.tsv")
    pairs = text.load_tsv(tmp_path / "train.tsv")
    positives = [p for p in pairs if p.label == 1]
    vocab_q = text.build_vocab([p.question_tokens for p in pairs], 200)
    vocab_a = text.build_vocab([p.answer_tokens for p in pairs], 200)
    dims = trainer.ModelDims(embedding_dim=20, qa_hidden=12, qg_hidden=16, attention_dim=8)
    qa_params, qg_params = trainer.init_models(vocab_q.size, vocab_a.size, dims, seed=7)
    dual = trainer.DualTrainer(
        qa_params, qg_params,
        bigram.BigramLM.fit([p.question_tokens for p in positives]),
        bigram.BigramLM.fit([p.answer_tokens for p in positives]),
        vocab_q, vocab_a, trainer.TrainerConfig(lambda_q=0.1, lambda_a=0.1))
    batch = next(text.make_batches(pairs, 16, 10, seed=7))
    assert batch.size == 16
    return dual._batch_objectives(batch, use_dual=True)
