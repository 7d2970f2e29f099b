"""Seeded synthetic corpus at mid scale.

``dualqa.toy`` tops out at 40 subjects and a 200-word vocabulary, so the
mid-scale workloads need their own inputs.  Everything here is drawn from
``random.Random(seed)``: the same seed gives byte-identical files.

Shape of the data:

* a lexicon of pseudo-words (lowercase syllable strings) large enough that
  both vocabularies fill the 5k cap, plus a few function words;
* passages of answer sentences, 15-25 tokens each;
* one question per training answer, 8-14 tokens, sharing four content
  words with its answer, so the co-occurrence feature separates gold
  answers from cross-passage distractors;
* training rows: each positive plus one cross-passage negative, in the
  program's 5-column TSV format;
* ranking questions with 10 candidates each: the gold answer, one other
  sentence of the same passage, seven cross-passage sentences and a
  verbatim copy of one of those seven, so two candidates always tie and
  the tie rule decides their order;
* answer lines for generation, taken from the ranking set's gold answers.
"""

from __future__ import annotations

import random

FUNCTION_WORDS = (
    "the", "a", "of", "in", "on", "to", "and", "is", "was", "by", "for",
    "with", "that", "as", "at", "from", "it", "its", "this", "which",
)
QUESTION_WORDS = ("what", "which", "who", "where", "when", "how", "why")
ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
          "br", "st", "tr", "pl", "kr", "sh")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")

SCALES = {
    # passages, answers per passage, ranking questions, lexicon size
    "full": {"passages": 300, "per_passage": 4, "questions": 60, "lexicon": 6000},
    "tiny": {"passages": 12, "per_passage": 3, "questions": 4, "lexicon": 300},
}


def _lexicon(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.randint(2, 4)
        words.add("".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(syllables)))
    # Sorted before shuffling so the result depends on the seed alone, not
    # on set iteration order.
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def _sentence(rng, lexicon, length):
    return [rng.choice(FUNCTION_WORDS) if rng.random() < 0.3 else rng.choice(lexicon)
            for _ in range(length)]


def _question(rng, lexicon, answer):
    content = [w for w in answer if w not in FUNCTION_WORDS]
    shared = rng.sample(content, min(4, len(content)))
    length = rng.randint(8, 14)
    filler = [rng.choice(FUNCTION_WORDS) if rng.random() < 0.5 else rng.choice(lexicon)
              for _ in range(length - 2 - len(shared))]
    body = shared + filler
    rng.shuffle(body)
    return [rng.choice(QUESTION_WORDS)] + body + ["?"]


class MidCorpus:
    """Generated rows and answer lines; ``rows`` tuples follow the TSV
    column order (question_id, passage_id, question, answer, label)."""

    def __init__(self, seed: int, scale: str = "full"):
        sizes = SCALES[scale]
        rng = random.Random(seed)
        lexicon = _lexicon(rng, sizes["lexicon"])
        passages = [
            [_sentence(rng, lexicon, rng.randint(15, 25)) for _ in range(sizes["per_passage"])]
            for _ in range(sizes["passages"])
        ]
        n = len(passages)

        def other_passage(pid):
            donor = rng.randrange(n - 1)
            return donor if donor < pid else donor + 1

        self.train_rows = []
        for pid, sentences in enumerate(passages):
            for si, answer in enumerate(sentences):
                qid = f"q{pid}_{si}"
                question = " ".join(_question(rng, lexicon, answer))
                self.train_rows.append((qid, f"p{pid}", question, " ".join(answer), 1))
                donor = other_passage(pid)
                negative = rng.choice(passages[donor])
                self.train_rows.append((qid, f"p{donor}", question, " ".join(negative), 0))

        self.rank_rows = []
        self.answer_lines = []
        for k in range(sizes["questions"]):
            pid = rng.randrange(n)
            si = rng.randrange(len(passages[pid]))
            gold = passages[pid][si]
            qid = f"r{k}"
            question = " ".join(_question(rng, lexicon, gold))
            same = passages[pid][(si + 1) % len(passages[pid])]
            cross = []
            for _ in range(7):
                donor = other_passage(pid)
                cross.append((donor, rng.choice(passages[donor])))
            candidates = [(pid, gold, 1), (pid, same, 0)]
            candidates += [(donor, sentence, 0) for donor, sentence in cross]
            candidates.append(candidates[2 + rng.randrange(7)])
            # The gold answer sits at a seeded position; the duplicate stays last.
            body = candidates[:-1]
            rng.shuffle(body)
            for donor, sentence, label in body + candidates[-1:]:
                self.rank_rows.append((qid, f"p{donor}", question, " ".join(sentence), label))
            self.answer_lines.append(" ".join(gold))


def write_tsv(rows, path):
    with open(path, "w", encoding="utf-8") as f:
        for qid, pid, question, answer, label in rows:
            f.write(f"{qid}\t{pid}\t{question}\t{answer}\t{label}\n")
