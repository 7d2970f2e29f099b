"""Templated toy corpus for desk-scale training runs.

Five question templates over animal facts, one passage per animal, so a
correct answer shares its subject word with the question while
distractors from other passages share one word less.  Small, fully
deterministic, and learnable in a few epochs.

Question surfaces are long and template-specific while answers are short
and rigid.  That keeps the answer-side bigram marginal above the
question-side one, which in turn keeps the duality regularizer's
equilibrium on the side that rewards a high derived conditional for the
gold answer once the generator has fit the data; balanced or inverted
marginals would push gold answers down the ranking instead.
"""

from __future__ import annotations

import os
import random
import sys

__all__ = ["generate_corpus", "write_tsv", "main"]

SUBJECTS = [
    "otter", "badger", "falcon", "walrus", "gecko", "heron", "ferret", "bison",
    "lemur", "osprey", "newt", "stoat", "pelican", "ibex", "marmot", "tapir",
    "puffin", "viper", "weasel", "moose", "coyote", "raven", "turtle", "shrew",
    "donkey", "crane", "beetle", "oriole", "panther", "hedgehog", "kestrel",
    "mole", "lynx", "toad", "wombat", "magpie", "cougar", "plover", "skink",
    "vole",
]

ATTRIBUTES = {
    "color": ["gray", "brown", "golden", "black", "white", "spotted", "striped", "russet"],
    "place": ["river", "forest", "desert", "marsh", "mountain", "prairie", "tundra", "canyon"],
    "food": ["fish", "insects", "berries", "roots", "grass", "seeds", "leaves", "worms"],
    "legs": ["two", "four", "six", "eight"],
    "sound": ["whistling", "clicking", "barking", "humming", "rattling", "chirping"],
}

TEMPLATES = [
    ("will you tell me what color the {s} usually is ?", "the {s} is {v} .", "color"),
    ("do you know where the {s} makes its home ?", "the {s} lives in {v} .", "place"),
    ("can you say what kind of food the {s} eats ?", "the {s} eats {v} .", "food"),
    ("would you count how many legs the {s} walks on ?", "the {s} has {v} legs .", "legs"),
    ("please describe the sound that the {s} likes to make ?", "the {s} makes {v} sounds .", "sound"),
]


def _facts(subjects, rng):
    return {
        s: {key: pool[rng.randrange(len(pool))] for key, pool in ATTRIBUTES.items()}
        for s in subjects
    }


def generate_corpus(n_subjects: int = 40, seed: int = 97, dev_questions: int = 50,
                    dev_distractors: int = 3):
    """Returns (train_rows, dev_rows); each row is a 5-tuple
    (question_id, passage_id, question, answer, label).

    Train: one positive and one cross-passage distractor per
    (subject, template).  Dev: sampled questions with the gold answer and
    ``dev_distractors`` cross-passage distractors each.
    """
    if not 2 <= n_subjects <= len(SUBJECTS):
        raise ValueError(f"n_subjects must be in [2, {len(SUBJECTS)}], got {n_subjects}")
    rng = random.Random(seed)
    subjects = SUBJECTS[:n_subjects]
    facts = _facts(subjects, rng)

    def answer_for(subject, template_idx):
        _, answer_fmt, key = TEMPLATES[template_idx]
        return answer_fmt.format(s=subject, v=facts[subject][key])

    train_rows = []
    for si, subject in enumerate(subjects):
        for ti, (question_fmt, _, _) in enumerate(TEMPLATES):
            qid = f"q{si}_{ti}"
            question = question_fmt.format(s=subject)
            train_rows.append((qid, f"p{si}", question, answer_for(subject, ti), 1))
            donor = rng.randrange(n_subjects - 1)
            donor = donor if donor < si else donor + 1
            train_rows.append((qid, f"p{donor}", question, answer_for(subjects[donor], ti), 0))

    dev_rows = []
    combos = [(si, ti) for si in range(n_subjects) for ti in range(len(TEMPLATES))]
    rng.shuffle(combos)
    for si, ti in combos[:dev_questions]:
        subject = subjects[si]
        qid = f"dev_q{si}_{ti}"
        question = TEMPLATES[ti][0].format(s=subject)
        dev_rows.append((qid, f"p{si}", question, answer_for(subject, ti), 1))
        donors = [d for d in range(n_subjects) if d != si]
        rng.shuffle(donors)
        for donor in donors[:dev_distractors]:
            dev_rows.append((qid, f"p{donor}", question, answer_for(subjects[donor], ti), 0))
    return train_rows, dev_rows


def write_tsv(rows, path):
    """Write the rows to ``path`` as tab-separated lines.  An existing file
    is overwritten in place and then cut to the new length: truncating it on
    open, as mode ``"w"`` does, can stall for about 100 ms on ext4 mounted
    with ``discard``, which a set-up that rewrites its corpus pays every
    time."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
        for qid, pid, question, answer, label in rows:
            f.write(f"{qid}\t{pid}\t{question}\t{answer}\t{label}\n")
        f.truncate()


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m dualqa.toy <output_dir>", file=sys.stderr)
        return 1
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    train_rows, dev_rows = generate_corpus()
    write_tsv(train_rows, os.path.join(outdir, "train.tsv"))
    write_tsv(dev_rows, os.path.join(outdir, "dev.tsv"))
    print(f"wrote {len(train_rows)} train rows and {len(dev_rows)} dev rows to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
