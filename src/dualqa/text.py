"""Tokenization, vocabularies, TSV ingestion, and the minibatch pipeline
with cross-passage negative sampling."""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "SOS_ID",
    "EOS_ID",
    "RESERVED_TOKENS",
    "DataError",
    "Vocabulary",
    "QAPair",
    "TrainingBatch",
    "tokenize",
    "build_vocab",
    "cooccurrence_count",
    "load_tsv",
    "make_batches",
]

PAD_ID, UNK_ID, SOS_ID, EOS_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<sos>", "<eos>")

# Runs of word characters, or single non-space punctuation characters.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class DataError(ValueError):
    """Malformed input data (bad TSV rows, empty text, unusable corpora)."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation into standalone tokens, drop whitespace."""
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        raise DataError("empty sequence")
    return tokens


@dataclass
class Vocabulary:
    """Dense token<->id mapping with ids 0..3 reserved for
    PAD/UNK/SOS/EOS."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        if not tokens:
            raise DataError("empty sequence")
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        id_to_token = list(RESERVED_TOKENS) + list(tokens)
        token_to_id = {t: i for i, t in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise DataError("vocabulary contains duplicate tokens")
        return cls(token_to_id, id_to_token)


def build_vocab(corpus: list[list[str]], max_size: int) -> Vocabulary:
    """Keep the ``max_size`` most frequent tokens; ties break
    lexicographically."""
    if not corpus:
        raise DataError("empty corpus")
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [token for token, _ in ranked[:max_size]]
    return Vocabulary.from_tokens(kept)


def cooccurrence_count(question_tokens: list[str], answer_tokens: list[str]) -> int:
    """Number of distinct token types shared by both sides; the selection
    model clips it to its co-occurrence table's last row."""
    if not question_tokens or not answer_tokens:
        raise DataError("empty sequence")
    return len(set(question_tokens) & set(answer_tokens))


@dataclass
class QAPair:
    """One candidate row: a question, a candidate answer sentence, the
    answer's source passage, and a 0/1 correctness label."""

    question_tokens: list[str]
    answer_tokens: list[str]
    passage_id: str
    label: int
    question_id: str = ""

    def __post_init__(self):
        if not self.question_tokens or not self.answer_tokens:
            raise DataError("empty sequence")
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class TrainingBatch:
    """Equal-size lists of positive pairs and sampled negative pairs."""

    positives: list[QAPair]
    negatives: list[QAPair]

    def __post_init__(self):
        if len(self.positives) != len(self.negatives):
            raise DataError(
                f"batch needs equal positive/negative counts, got "
                f"{len(self.positives)} and {len(self.negatives)}"
            )

    @property
    def size(self) -> int:
        return len(self.positives)


def load_tsv(path) -> list[QAPair]:
    """Parse rows of question_id<TAB>passage_id<TAB>question<TAB>answer<TAB>label.

    Both text fields are tokenized; file order is preserved.
    """
    try:
        f = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}") from None
    pairs = []
    with f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise DataError(f"line {lineno}: expected 5 tab-separated columns, got {len(cols)}")
            question_id, passage_id, question, answer, label = cols
            if label not in ("0", "1"):
                raise DataError(f"line {lineno}: label must be 0 or 1, got {label!r}")
            try:
                pairs.append(
                    QAPair(
                        question_tokens=tokenize(question),
                        answer_tokens=tokenize(answer),
                        passage_id=passage_id,
                        label=int(label),
                        question_id=question_id,
                    )
                )
            except DataError as e:
                raise DataError(f"line {lineno}: {e}") from None
    return pairs


def make_batches(pairs: list[QAPair], batch_size: int = 64, pool_batches: int = 10, seed: int = 0):
    """Yield one epoch of TrainingBatches over the positive pairs.

    Positives are shuffled (seeded), drawn in pools of
    ``pool_batches * batch_size``, each pool sorted by answer length
    ascending and sliced into batches.  Every positive gets one negative:
    its own question paired with an answer sampled uniformly from pool
    members with a different passage_id (falling back to the full dataset
    when the pool has no cross-passage candidate).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    positives = [p for p in pairs if p.label == 1]
    if len({p.passage_id for p in positives}) < 2:
        raise DataError("cannot sample cross-passage negatives")
    rng = random.Random(seed)
    order = list(range(len(positives)))
    rng.shuffle(order)
    pool_size = batch_size * pool_batches
    for pool_start in range(0, len(order), pool_size):
        pool = [positives[i] for i in order[pool_start:pool_start + pool_size]]
        pool.sort(key=lambda p: len(p.answer_tokens))
        for batch_start in range(0, len(pool), batch_size):
            chunk = pool[batch_start:batch_start + batch_size]
            negatives = []
            for pos in chunk:
                donors = [d for d in pool if d.passage_id != pos.passage_id]
                if not donors:
                    donors = [d for d in pairs if d.passage_id != pos.passage_id]
                donor = donors[rng.randrange(len(donors))]
                negatives.append(
                    QAPair(
                        question_tokens=pos.question_tokens,
                        answer_tokens=donor.answer_tokens,
                        passage_id=donor.passage_id,
                        label=0,
                        question_id=pos.question_id,
                    )
                )
            yield TrainingBatch(chunk, negatives)
