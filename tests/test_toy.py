"""Toy corpus tests: the TSV writer's bytes."""

from dualqa import toy


def tsv_bytes(rows):
    return "".join("\t".join(map(str, row)) + "\n" for row in rows).encode("utf-8")


def test_write_tsv_creates_the_file(tmp_path):
    rows, _ = toy.generate_corpus(n_subjects=3, dev_questions=2)
    toy.write_tsv(rows, tmp_path / "train.tsv")
    assert (tmp_path / "train.tsv").read_bytes() == tsv_bytes(rows)


def test_rewriting_leaves_exactly_the_new_bytes(tmp_path):
    """The writer overwrites in place rather than truncating on open: a
    shorter corpus over a longer file must leave no tail of the old one,
    and a longer one over a shorter file must be whole."""
    path = tmp_path / "train.tsv"
    long_rows, _ = toy.generate_corpus()
    short_rows, _ = toy.generate_corpus(n_subjects=3, seed=5, dev_questions=2)
    assert len(tsv_bytes(short_rows)) < len(tsv_bytes(long_rows))
    for rows in (long_rows, short_rows, long_rows, short_rows):
        toy.write_tsv(rows, path)
        assert path.read_bytes() == tsv_bytes(rows)
