"""Joint training loop.

Each step takes a minibatch of positive pairs plus sampled negatives,
builds three loss sums on one computation record — the selection
model's NLL over positives and negatives, the generator's NLL over
positives, and for each positive a squared gap between the two
log-factorizations of P(q, a) — and the objectives as one weight matrix
times those sums: the selection row weights the gap by lambda_a, the
generation row by lambda_q.  One reverse walk gives one gradient channel
per row; each model's tensors take their own row's channel, the shared
embeddings the sum of both, and AdaDelta applies the update.  A numpy
overflow or invalid operation during a step aborts it with a
``NumericalError`` naming the step.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
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

CHECKPOINT_MAGIC = b"DUALQA1"


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


def _as_scalar_tensor(x) -> ad.Tensor:
    if isinstance(x, ad.Tensor):
        return x
    return ad.Tensor(np.asarray(float(x)))


def squared_log_gap(log_p_answer, log_q_given_a, log_p_question, log_a_given_q) -> ad.Tensor:
    """[log P_a(a) + log P(q|a) - log P_q(q) - log P(a|q)]^2.

    Any argument may be a plain float (treated as a constant) or a scalar
    tensor already on the record.
    """
    lhs = ad.add(_as_scalar_tensor(log_p_answer), _as_scalar_tensor(log_q_given_a))
    rhs = ad.add(_as_scalar_tensor(log_p_question), _as_scalar_tensor(log_a_given_q))
    return ad.square(ad.add(lhs, ad.scalar_scale(rhs, -1.0)))


def contrast_indices(gold_ids: list[int], answers: list[list[int]]) -> list[int]:
    """Indices of the answers that contrast with the gold answer in the
    derived P(a|q): every answer whose ids differ from the gold's.  An
    empty contrast set is an error."""
    kept = [i for i, ids in enumerate(answers) if ids != gold_ids]
    if not kept:
        raise ValueError("conditional needs a contrast set")
    return kept


def dual_loss(log_p_answer: float, seq_lp: ad.Tensor, log_p_question: float,
              scores: list[ad.Tensor]) -> ad.Tensor:
    """Duality regularizer for one positive pair.

    ``log_p_answer`` and ``log_p_question`` are the bigram marginals
    (constants), ``seq_lp`` the generator's log P(q|a), and ``scores`` the
    selection scores of the gold answer first, then of its contrast set;
    log P(a|q) is the log of the gold score's softmax share.  Gradients
    flow through ``seq_lp`` and ``scores``.
    """
    return squared_log_gap(log_p_answer, seq_lp, log_p_question,
                           qa_mod.log_conditional_from_scores(scores))


def _accumulate(total, term):
    return term if total is None else ad.add(total, term)


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
        q_ids = self.vocab_q.encode(pair.question_tokens)
        a_ids = self.vocab_a.encode(pair.answer_tokens)
        return q_ids, a_ids

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

        Question/answer encodings are memoized by id sequence so the
        negatives' answers are encoded once and reused by every
        conditional in the batch; gradient accumulation through the
        shared nodes is what makes that sound.
        """
        record = ad.ComputationRecord()
        dual_lambda_active = use_dual and (self.config.lambda_a > 0 or self.config.lambda_q > 0)
        with record:
            cache: dict[tuple, ad.Tensor] = {}

            def enc(ids, side):
                key = (side, tuple(ids))
                if key not in cache:
                    cache[key] = qa_mod.encode_bigru(ids, side, self.qa_params)
                return cache[key]

            encoded = []
            for pos, neg in zip(batch.positives, batch.negatives):
                qp_ids, ap_ids = self._encode(pos)
                qn_ids, an_ids = self._encode(neg)
                encoded.append((pos, neg, qp_ids, ap_ids, qn_ids, an_ids))
            # Every positive's contrast set comes from the batch's negative answers.
            contrast_ids = [an_ids for *_, an_ids in encoded]

            qa_sum = None
            qg_sum = None
            dual_sum = None
            for pos, neg, qp_ids, ap_ids, qn_ids, an_ids in encoded:
                cooc_pos = cooccurrence_count(pos.question_tokens, pos.answer_tokens)
                cooc_neg = cooccurrence_count(neg.question_tokens, neg.answer_tokens)
                v_q_pos = enc(qp_ids, "question")
                v_a_pos = enc(ap_ids, "answer")
                qa_sum = _accumulate(qa_sum, ad.add(
                    qa_mod.qa_nll_loss_from_vectors(
                        v_q_pos, v_a_pos, 1, cooc_pos, self.qa_params),
                    qa_mod.qa_nll_loss_from_vectors(
                        enc(qn_ids, "question"), enc(an_ids, "answer"), 0, cooc_neg,
                        self.qa_params),
                ))
                seq_lp = qg_mod.sequence_log_prob(qp_ids, ap_ids, self.qg_params)
                qg_sum = _accumulate(qg_sum, ad.scalar_scale(seq_lp, -1.0))
                if dual_lambda_active:
                    scores = [qa_mod.qa_score_from_vectors(
                        v_q_pos, v_a_pos, cooc_pos, self.qa_params)]
                    for j in contrast_indices(ap_ids, contrast_ids):
                        scores.append(qa_mod.qa_score_from_vectors(
                            v_q_pos, enc(contrast_ids[j], "answer"),
                            cooccurrence_count(pos.question_tokens,
                                               batch.negatives[j].answer_tokens),
                            self.qa_params,
                        ))
                    dual_sum = _accumulate(dual_sum, dual_loss(
                        self.lm_a.sentence_log_prob(pos.answer_tokens),
                        seq_lp,
                        self.lm_q.sentence_log_prob(pos.question_tokens),
                        scores,
                    ))

            # lambda * (1.0 / m), in that order, rounds each gradient as
            # (sum + lambda * dual_sum) / m does, bit for bit.
            s, cfg = 1.0 / batch.size, self.config
            if dual_sum is None:
                dual_sum = ad.zeros(())
                sums, weights = [qa_sum, qg_sum], [[s, s]]
            else:
                sums = [qa_sum, qg_sum, dual_sum]
                weights = [[s, 0.0, cfg.lambda_a * s], [0.0, s, cfg.lambda_q * s]]
            objectives = ad.matmul(ad.Tensor(weights), ad.concat(sums, axis="rows"))
        return record, objectives, qa_sum, qg_sum, dual_sum

    def _step(self, batch: TrainingBatch, use_dual: bool):
        """One reverse walk over the objectives, one channel per row.  With
        one row the two graphs meet only at the shared embeddings, so its
        sum is each model's own objective there.  A numpy overflow or
        invalid value is a ``NumericalError`` naming the step."""
        m = batch.size
        if m < 1:
            raise ValueError("empty batch")
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
                # A one-entry objective comes back without its channel axis.
                k = objectives.values.size
                self._apply_updates([take(g.reshape((k,) + t.shape))
                                     for take, (_, t), g in zip(self._channel_rule,
                                                                self.parameters, grads)])
        except FloatingPointError as e:
            raise NumericalError(f"{e} at step {self.global_step}") from None
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
    """Binary snapshot: magic, count-prefixed named f64 records, then
    vocabularies, LM counts, and the config as canonical JSON blobs.
    Written atomically via a temp file."""
    params = named_parameters(qa_params, qg_params)
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", len(params))
    for name, tensor in params:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        shape = tensor.values.shape
        out += struct.pack("<I", len(shape))
        for dim in shape:
            out += struct.pack("<Q", dim)
        out += np.ascontiguousarray(tensor.values, dtype="<f8").tobytes()
    blobs = [
        _canonical_json(vocab_q.id_to_token),
        _canonical_json(vocab_a.id_to_token),
        _canonical_json({"question": lm_q.to_dict(), "answer": lm_a.to_dict()}),
        _canonical_json(config),
    ]
    for blob in blobs:
        out += struct.pack("<I", len(blob))
        out += blob
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(out)
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("checkpoint text is not valid UTF-8") from None


def load_checkpoint(path) -> Checkpoint:
    """Rebuild models, language models, and vocabularies; the stored
    records must be the finite ``parameter_layout`` of the stored config
    and vocabularies, and become the models' tensors."""
    try:
        with open(path, "rb") as f:
            reader = _Reader(f.read())
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    magic = reader.take(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint version mismatch: expected {CHECKPOINT_MAGIC!r}, found {magic!r}"
        )
    n_records = reader.u32()
    records: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        name = reader.text()
        rank = reader.u32()
        shape = tuple(reader.u64() for _ in range(rank))
        count = math.prod(shape)
        records[name] = np.frombuffer(reader.take(8 * count), dtype="<f8").reshape(shape)

    blobs = [reader.text() for _ in range(4)]
    if reader.pos != len(reader.data):
        raise CheckpointError(
            f"checkpoint has {len(reader.data) - reader.pos} trailing bytes after its config"
        )
    try:
        vocab_q_tokens, vocab_a_tokens, lms, config = [json.loads(blob) for blob in blobs]
        dims = ModelDims(**{f.name: int(config[f.name]) for f in fields(ModelDims)})
        vocab_q = Vocabulary.from_tokens(vocab_q_tokens[len(RESERVED_TOKENS):])
        vocab_a = Vocabulary.from_tokens(vocab_a_tokens[len(RESERVED_TOKENS):])
        lm_q = BigramLM.from_dict(lms["question"])
        lm_a = BigramLM.from_dict(lms["answer"])
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint JSON is malformed: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(
            f"checkpoint blobs have the wrong structure: {type(e).__name__}: {e}"
        ) from None
    layout = parameter_layout(vocab_q.size, vocab_a.size, dims)
    if len(layout) != len(records):
        raise CheckpointError(
            f"checkpoint holds {len(records)} records, model needs {len(layout)}"
        )
    tensors = {}
    for name, shape in layout:
        if name not in records:
            raise CheckpointError(f"checkpoint is missing record {name!r}")
        stored = records[name]
        if stored.shape != shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint has {stored.shape}, model needs {shape}"
            )
        try:
            tensors[name] = ad.Tensor(stored)
        except ValueError:
            raise CheckpointError(f"checkpoint record {name!r} holds non-finite values") from None
    qa_params, qg_params = _build_models(tensors)
    return Checkpoint(qa_params, qg_params, lm_q, lm_a, vocab_q, vocab_a, config)
