"""Joint training loop.

Each step takes a minibatch of positive pairs plus sampled negatives,
builds three loss sums on one computation record — the selection
model's NLL over positives and negatives, the generator's NLL over
positives, and the squared gaps between the two log-factorizations of
P(q, a), one per positive — and the objectives as one weight matrix
times those sums: the selection row weights the gap by lambda_a, the
generation row by lambda_q.  Each sum folds a (B,) vector of per-positive
terms in index order, every pair the selection model scores in a step is
a row of one block, and the generator scores every positive with a few
batch-wide nodes (``qg.sequence_log_prob``), so the losses equal those
of one node per pair and term bit for bit.  One reverse walk gives one
gradient channel per row; each model's tensors take their own row's
channel, the shared embeddings the sum of both, and AdaDelta applies the
update.  A numpy
overflow or invalid operation during a step aborts it with a
``NumericalError`` naming the step and its phase: a loss term, the
backward pass or the AdaDelta update.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import qa as qa_mod
from . import qg as qg_mod
from .bigram import BigramLM
from .text import RESERVED_TOKENS, QAPair, TrainingBatch, Vocabulary, cooccurrence_count

__all__ = [
    "TrainerConfig",
    "ModelDims",
    "AdaDeltaState",
    "NumericalError",
    "CheckpointError",
    "parameter_layout",
    "init_models",
    "named_parameters",
    "adadelta_update",
    "squared_log_gap",
    "contrast_indices",
    "dual_loss",
    "DualTrainer",
    "save_checkpoint",
    "load_checkpoint",
    "Checkpoint",
]

CHECKPOINT_MAGIC = b"DUALQA2"


class NumericalError(RuntimeError):
    """A loss became non-finite; the run aborts rather than diverge silently."""


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint file."""


@dataclass
class TrainerConfig:
    """Optimization knobs; lambda_q / lambda_a weight the duality
    regularizer in the generation / selection objectives."""

    lambda_q: float = 0.1
    lambda_a: float = 0.1
    learning_rate: float = 2.0
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6

    def __post_init__(self):
        if self.lambda_q < 0 or self.lambda_a < 0:
            raise ValueError("lambda_q and lambda_a must be non-negative")


@dataclass
class ModelDims:
    embedding_dim: int = 300
    qa_hidden: int = 100
    qg_hidden: int = 512
    attention_dim: int = 30
    cooc_vocab: int = 10
    cooc_dim: int = 10


# The gate matrices of one GRU cell, in record order.
_GATES = tuple(f.name for f in fields(qa_mod.GRUCellParams))


def parameter_layout(q_vocab_size: int, a_vocab_size: int,
                     dims: ModelDims) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every trainable tensor: the shared embeddings, then
    the selection model's, then the generator's, each GRU cell expanded
    into its gates.  This is the order of ``named_parameters``, of the
    checkpoint records and of the initial random draws."""
    emb, qa_h, qg_h, att = dims.embedding_dim, dims.qa_hidden, dims.qg_hidden, dims.attention_dim

    def cell(prefix, hidden):
        return [(f"{prefix}.{gate}", (hidden, emb if gate[0] == "W" else hidden))
                for gate in _GATES]

    return [
        ("shared.question_embeddings", (q_vocab_size, emb)),
        ("shared.answer_embeddings", (a_vocab_size, emb)),
        *cell("qa.question_fwd", qa_h), *cell("qa.question_bwd", qa_h),
        *cell("qa.answer_fwd", qa_h), *cell("qa.answer_bwd", qa_h),
        ("qa.cooc_table", (dims.cooc_vocab, dims.cooc_dim)),
        ("qa.output_weights", (2, 6 * qa_h + dims.cooc_dim)),
        ("qa.output_bias", (2,)),
        *cell("qg.encoder_fwd", qg_h), *cell("qg.encoder_bwd", qg_h),
        # The decoder state is the encoder's two directions concatenated.
        *cell("qg.decoder", 2 * qg_h),
        ("qg.att_state", (2 * qg_h, att)),
        ("qg.att_encoder", (2 * qg_h, att)),
        ("qg.att_history", (2 * qg_h, att)),
        ("qg.att_vector", (att,)),
        ("qg.output_projection", (q_vocab_size, 4 * qg_h)),
    ]


def _record_name(model: str, field: str) -> str:
    """An embedding table is shared by both models; every other field
    belongs to its model."""
    return f"shared.{field}" if field.endswith("_embeddings") else f"{model}.{field}"


def _build_models(tensors: dict[str, ad.Tensor]):
    """Both models around the tensors keyed by their layout names."""
    def build(model, cls):
        kwargs = {}
        for f in fields(cls):
            name = _record_name(model, f.name)
            kwargs[f.name] = tensors[name] if name in tensors else qa_mod.GRUCellParams(
                *(tensors[f"{name}.{gate}"] for gate in _GATES))
        return cls(**kwargs)

    return build("qa", qa_mod.QAParams), build("qg", qg_mod.QGParams)


def init_models(q_vocab_size: int, a_vocab_size: int, dims: ModelDims, seed: int):
    """Build both models around shared embedding matrices: Glorot-uniform
    draws in ``parameter_layout`` order, and a zero selection-head bias."""
    rng = np.random.default_rng(seed)
    return _build_models({
        name: ad.zeros(shape) if name == "qa.output_bias" else qa_mod.glorot_uniform(rng, shape)
        for name, shape in parameter_layout(q_vocab_size, a_vocab_size, dims)
    })


def named_parameters(qa_params: qa_mod.QAParams, qg_params: qg_mod.QGParams):
    """Canonical (name, tensor) list in ``parameter_layout`` order: the
    shared embeddings once, then the selection model's tensors, then the
    generator's."""
    if (qa_params.question_embeddings is not qg_params.question_embeddings
            or qa_params.answer_embeddings is not qg_params.answer_embeddings):
        raise ValueError("models must share their embedding matrices")
    items: dict[str, ad.Tensor] = {}
    for model, params in (("qa", qa_params), ("qg", qg_params)):
        for f in fields(params):
            name, value = _record_name(model, f.name), getattr(params, f.name)
            if isinstance(value, qa_mod.GRUCellParams):
                items.update((f"{name}.{gate}", getattr(value, gate)) for gate in _GATES)
            else:
                items.setdefault(name, value)
    return list(items.items())


@dataclass
class AdaDeltaState:
    """Per-parameter running averages of squared gradients and squared
    updates, both zero-initialized."""

    avg_sq_grad: np.ndarray
    avg_sq_update: np.ndarray

    @classmethod
    def zeros_like(cls, tensor: ad.Tensor) -> "AdaDeltaState":
        return cls(np.zeros_like(tensor.values), np.zeros_like(tensor.values))


def adadelta_update(param: ad.Tensor, grad: np.ndarray, state: AdaDeltaState,
                    config: TrainerConfig) -> ad.Tensor:
    """E[g2] <- rho E[g2] + (1-rho) g2;
    delta = -sqrt(E[d2]+eps)/sqrt(E[g2]+eps) * g;
    E[d2] <- rho E[d2] + (1-rho) delta2;  param += lr * delta.
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != param.values.shape:
        raise ValueError(f"adadelta_update: gradient shape {g.shape} does not match "
                         f"parameter shape {param.values.shape}")
    rho, eps = config.adadelta_rho, config.adadelta_eps
    state.avg_sq_grad *= rho
    state.avg_sq_grad += (1.0 - rho) * g * g
    delta = -np.sqrt(state.avg_sq_update + eps) / np.sqrt(state.avg_sq_grad + eps) * g
    state.avg_sq_update *= rho
    state.avg_sq_update += (1.0 - rho) * delta * delta
    param.values += config.learning_rate * delta
    return param


def _as_tensor(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.Tensor(x)


def squared_log_gap(log_p_answer, log_q_given_a, log_p_question, log_a_given_q) -> ad.Tensor:
    """[log P_a(a) + log P(q|a) - log P_q(q) - log P(a|q)]^2, elementwise.

    Any argument may be a plain float or a list of floats (constants), or
    a tensor already on the record; vectors of B terms give the B gaps.
    """
    lhs = ad.add(_as_tensor(log_p_answer), _as_tensor(log_q_given_a))
    rhs = ad.add(_as_tensor(log_p_question), _as_tensor(log_a_given_q))
    return ad.square(ad.add(lhs, ad.scalar_scale(rhs, -1.0)))


def contrast_indices(gold_ids: list[int], answers: list[list[int]]) -> list[int]:
    """Indices of the answers that contrast with the gold answer in the
    derived P(a|q): every answer whose ids differ from the gold's.  An
    empty contrast set is an error."""
    kept = [i for i, ids in enumerate(answers) if ids != gold_ids]
    if not kept:
        raise ValueError("conditional needs a contrast set")
    return kept


def dual_loss(log_p_answer, seq_lp: ad.Tensor, log_p_question, scores: ad.Tensor,
              lengths=None) -> ad.Tensor:
    """Duality regularizer of one positive pair, or of B as a (B,) vector.

    ``log_p_answer`` and ``log_p_question`` are the bigram marginals
    (constants), ``seq_lp`` the generator's log P(q|a), and ``scores`` the
    vector of selection scores of the gold answer first, then of its
    contrast set; log P(a|q) is the log of the gold score's softmax share.
    For B positives, ``scores`` holds their B such segments end to end and
    ``lengths`` their lengths.  Gradients flow through ``seq_lp`` and
    ``scores``.
    """
    return squared_log_gap(log_p_answer, seq_lp, log_p_question, ad.log_share(scores, lengths))


class DualTrainer:
    """Owns the parameter set, optimizer state, and step logic."""

    def __init__(self, qa_params, qg_params, lm_q, lm_a,
                 vocab_q: Vocabulary, vocab_a: Vocabulary, config: TrainerConfig):
        self.qa_params = qa_params
        self.qg_params = qg_params
        self.lm_q = lm_q
        self.lm_a = lm_a
        self.vocab_q = vocab_q
        self.vocab_a = vocab_a
        self.config = config
        self.parameters = named_parameters(qa_params, qg_params)
        # Each tensor's update from its (channels, *shape) gradient: selection
        # takes the first channel, generation the last, shared the sum.
        self._channel_rule = [
            (lambda g: g[0]) if name.startswith("qa.") else
            (lambda g: g[-1]) if name.startswith("qg.") else
            (lambda g: functools.reduce(np.add, g))
            for name, _ in self.parameters
        ]
        self.opt_state = {name: AdaDeltaState.zeros_like(t) for name, t in self.parameters}
        self.global_step = 0

    def _encode(self, pair: QAPair):
        """The pair's question and answer ids, as tuples that key their rows."""
        return (tuple(self.vocab_q.encode(pair.question_tokens)),
                tuple(self.vocab_a.encode(pair.answer_tokens)))

    def _check_finite(self, **losses):
        for key, value in losses.items():
            if not np.isfinite(value):
                raise NumericalError(
                    f"non-finite {key} ({value!r}) at step {self.global_step}"
                )

    def _apply_updates(self, grads: list[np.ndarray]):
        for (name, tensor), grad in zip(self.parameters, grads, strict=True):
            adadelta_update(tensor, grad, self.opt_state[name], self.config)

    def _batch_objectives(self, batch: TrainingBatch, use_dual: bool):
        """``(record, objectives, qa_sum, qg_sum, dual_sum)`` of one batch:
        ``objectives`` is a weight matrix times the stacked sums, with rows
        [1/m, 0, lambda_a/m] and [0, 1/m, lambda_q/m] over the three sums,
        or, without the duality term, the one row [1/m, 1/m] over the first
        two and a constant zero ``dual_sum``.

        The batch's distinct question and answer id lists are encoded as
        one block per side.  Every pair the selection model scores is a row
        of one ``pair_logits`` block: the B positives, the B negatives and,
        with the duality term, each positive's question against its
        contrast set, the batch's negative answers whose ids differ from its
        own.  Each positive's gold row is both its NLL row and the first
        score of its conditional, and each sequence's encoding is a row of
        its block, shared by every pair that holds it; gradient
        accumulation through the shared rows is what makes that sound.
        The generator scores every positive in one ``sequence_log_prob``
        call.  Each sum is the index-order fold of a (B,) vector.
        """
        record = ad.ComputationRecord()
        dual_lambda_active = use_dual and (self.config.lambda_a > 0 or self.config.lambda_q > 0)
        B = batch.size
        pairs = batch.positives + batch.negatives
        phase = "selection loss"
        try:
            with record:
                questions, answers = (list(ids) for ids in zip(*map(self._encode, pairs)))
                # Row n of the head scores questions[q_rows[n]] against answers[a_rows[n]].
                q_rows, a_rows = list(range(2 * B)), list(range(2 * B))
                coocs = [cooccurrence_count(p.question_tokens, p.answer_tokens) for p in pairs]
                score_rows, lengths = [], []
                if dual_lambda_active:
                    for b, pos in enumerate(batch.positives):
                        kept = contrast_indices(answers[b], answers[B:])
                        score_rows += [b] + list(range(len(q_rows), len(q_rows) + len(kept)))
                        lengths.append(1 + len(kept))
                        q_rows += [b] * len(kept)
                        a_rows += [B + j for j in kept]
                        coocs += [cooccurrence_count(pos.question_tokens,
                                                     batch.negatives[j].answer_tokens)
                                  for j in kept]

                def rows(side, seqs, picks):  # each pick's row of one block of distinct seqs
                    distinct = {ids: i for i, ids in enumerate(dict.fromkeys(seqs))}
                    block = qa_mod.encode_bigru(list(distinct), side, self.qa_params)
                    return ad.row_lookup(block, [distinct[seqs[n]] for n in picks])

                logits = qa_mod.pair_logits(rows("question", questions, q_rows),
                                            rows("answer", answers, a_rows), coocs,
                                            self.qa_params)
                # -(log P(1 | positive) + log P(0 | negative)) for each positive.
                log_p = ad.log_softmax(logits)
                qa_sum = ad.reduce_sum(ad.scalar_scale(ad.add(
                    ad.row_lookup(log_p, range(B), column=1),
                    ad.row_lookup(log_p, range(B, 2 * B), column=0)), -1.0))
                phase = "generation loss"
                seq_lps = qg_mod.sequence_log_prob(questions[:B], answers[:B], self.qg_params)
                qg_sum = ad.reduce_sum(ad.scalar_scale(seq_lps, -1.0))
                dual_sum = None
                if dual_lambda_active:
                    phase = "duality term"
                    dual_sum = ad.reduce_sum(dual_loss(
                        [self.lm_a.sentence_log_prob(p.answer_tokens) for p in batch.positives],
                        seq_lps,
                        [self.lm_q.sentence_log_prob(p.question_tokens) for p in batch.positives],
                        qa_mod.pair_scores(logits, score_rows), lengths))

                phase = "objectives"
                # lambda * (1.0 / m), in that order, rounds each gradient as
                # (sum + lambda * dual_sum) / m does, bit for bit.
                s, cfg = 1.0 / B, self.config
                if dual_sum is None:
                    dual_sum = ad.zeros(())
                    sums, weights = [qa_sum, qg_sum], [[s, s]]
                else:
                    sums = [qa_sum, qg_sum, dual_sum]
                    weights = [[s, 0.0, cfg.lambda_a * s], [0.0, s, cfg.lambda_q * s]]
                objectives = ad.matmul(ad.Tensor(weights), ad.concat(sums, axis="rows"))
        except FloatingPointError as e:
            raise NumericalError(f"{e} in the {phase} at step {self.global_step}") from None
        return record, objectives, qa_sum, qg_sum, dual_sum

    def _step(self, batch: TrainingBatch, use_dual: bool):
        """One reverse walk over the objectives, one channel per row.  With
        one row the two graphs meet only at the shared embeddings, so its
        sum is each model's own objective there.  A numpy overflow or
        invalid value is a ``NumericalError`` naming the step and phase."""
        m = batch.size
        if m < 1:
            raise ValueError("empty batch")
        phase = "backward pass"  # _batch_objectives names its own phases
        try:
            with np.errstate(over="raise", invalid="raise"):
                record, objectives, qa_sum, qg_sum, dual_sum = \
                    self._batch_objectives(batch, use_dual)
                qa_mean, qg_mean, dual_mean = (qa_sum.item() / m, qg_sum.item() / m,
                                               dual_sum.item() / m)
                self._check_finite(qa_loss=qa_mean, qg_loss=qg_mean, dual_loss=dual_mean)
                grads = ad.backward(objectives, [t for _, t in self.parameters])
                # Dropping the nodes breaks the tensor -> record -> node cycles,
                # so reference counting, not the cyclic collector, frees the tape.
                record.clear()
                phase = "AdaDelta update"
                # A one-entry objective comes back without its channel axis.
                k = objectives.values.size
                self._apply_updates([take(g.reshape((k,) + t.shape))
                                     for take, (_, t), g in zip(self._channel_rule,
                                                                self.parameters, grads)])
        except FloatingPointError as e:
            raise NumericalError(f"{e} in the {phase} at step {self.global_step}") from None
        self.global_step += 1
        return qa_mean, qg_mean, dual_mean

    def train_step(self, batch: TrainingBatch):
        """One minibatch update of both models; returns the mean
        selection, generation, and duality losses."""
        return self._step(batch, use_dual=True)

    def independent_step(self, batch: TrainingBatch):
        """Train both models on the batch with the duality term disabled
        outright; the reference trajectory that lambda = 0 training must
        match exactly."""
        return self._step(batch, use_dual=False)


@dataclass
class Checkpoint:
    qa_params: qa_mod.QAParams
    qg_params: qg_mod.QGParams
    lm_q: BigramLM
    lm_a: BigramLM
    vocab_q: Vocabulary
    vocab_a: Vocabulary
    config: dict


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a,
                    config: dict):
    """Write ``CHECKPOINT_MAGIC``, a u64 header length, a canonical-JSON
    header (each record's name and shape in ``named_parameters`` order, the
    vocabularies, the LM counts and the config), every record's values as
    one little-endian f64 body, and a CRC-32 of everything after the magic.
    Records stream to a temp file that then atomically replaces ``path``."""
    params = named_parameters(qa_params, qg_params)
    header = _canonical_json({
        "records": [[name, list(tensor.shape)] for name, tensor in params],
        "vocab_q": vocab_q.id_to_token,
        "vocab_a": vocab_a.id_to_token,
        "lms": {"question": lm_q.to_dict(), "answer": lm_a.to_dict()},
        "config": config,
    })
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        crc = 0
        for chunk in (len(header).to_bytes(8, "little"), header,
                      *(np.ascontiguousarray(t.values, dtype="<f8") for _, t in params)):
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(crc.to_bytes(4, "little"))
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    """Rebuild models, language models, and vocabularies.  The magic, then
    the CRC-32, then the header's records against the ``parameter_layout``
    of its config and vocabularies are checked, in that order; the finite
    records become the models' tensors."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    magic = data[:len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint version mismatch: expected {CHECKPOINT_MAGIC!r}, found {magic!r}"
        )
    view = memoryview(data)[len(CHECKPOINT_MAGIC):]
    if len(view) < 12 or zlib.crc32(view[:-4]) != int.from_bytes(view[-4:], "little"):
        raise CheckpointError("checkpoint CRC-32 mismatch: truncated or corrupted file")
    header_end = 8 + int.from_bytes(view[:8], "little")
    try:
        header = json.loads(bytes(view[8:header_end]))
        config = header["config"]
        dims = ModelDims(**{f.name: int(config[f.name]) for f in fields(ModelDims)})
        vocab_q = Vocabulary.from_tokens(header["vocab_q"][len(RESERVED_TOKENS):])
        vocab_a = Vocabulary.from_tokens(header["vocab_a"][len(RESERVED_TOKENS):])
        lm_q = BigramLM.from_dict(header["lms"]["question"])
        lm_a = BigramLM.from_dict(header["lms"]["answer"])
        records = [(name, tuple(shape)) for name, shape in header["records"]]
        stored = dict(records)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"checkpoint JSON is malformed: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(
            f"checkpoint header has the wrong structure: {type(e).__name__}: {e}"
        ) from None
    layout = parameter_layout(vocab_q.size, vocab_a.size, dims)
    if len(layout) != len(records):
        raise CheckpointError(
            f"checkpoint holds {len(records)} records, model needs {len(layout)}"
        )
    for name, shape in layout:
        if name not in stored:
            raise CheckpointError(f"checkpoint is missing record {name!r}")
        if stored[name] != shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint has {stored[name]}, model needs {shape}"
            )
    # The records are the layout's, maybe reordered: slice them with its shapes.
    shapes = dict(layout)
    sizes = [math.prod(shapes[name]) for name, _ in records]
    body = view[header_end:-4]
    if body.nbytes != 8 * sum(sizes):
        raise CheckpointError(
            f"checkpoint body holds {body.nbytes} bytes, its records need {8 * sum(sizes)}"
        )
    values = np.frombuffer(body, dtype="<f8")
    tensors, offset = {}, 0
    for (name, _), size in zip(records, sizes):
        try:
            tensors[name] = ad.Tensor(values[offset:offset + size].reshape(shapes[name]))
        except ValueError:
            raise CheckpointError(f"checkpoint record {name!r} holds non-finite values") from None
        offset += size
    qa_params, qg_params = _build_models(tensors)
    return Checkpoint(qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a, config)
