"""CLI tests: config handling, flag precedence, exit codes, and the five
subcommands end to end on a small generated corpus."""

import json
import math
import os
import re
import shutil
import struct
import warnings

import pytest

from dualqa import cli, text, toy, trainer
from dualqa.cli import RunConfig, UsageError

from helpers import write_rows


def make_config(tmp_path, **overrides):
    base = dict(
        train_path=str(tmp_path / "train.tsv"),
        dev_path=str(tmp_path / "dev.tsv"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        embedding_dim=10, qa_hidden=8, qg_hidden=8, attention_dim=5,
        vocab_size=100, batch_size=8, pool_batches=2,
        lambda_q=0.1, lambda_a=0.1, max_epochs=2, seed=5,
        beam_size=2, max_len=12, early_stop_patience=None,
    )
    base.update(overrides)
    return base


def write_toy(tmp_path, n_subjects=8, seed=3, dev_questions=8):
    train_rows, dev_rows = toy.generate_corpus(
        n_subjects=n_subjects, seed=seed, dev_questions=dev_questions)
    toy.write_tsv(train_rows, tmp_path / "train.tsv")
    toy.write_tsv(dev_rows, tmp_path / "dev.tsv")


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError, match="unknown config keys.*momentum"):
            RunConfig.from_dict({"momentum": 0.9})
        with pytest.raises(UsageError, match="unknown config keys.*test_path"):
            RunConfig.from_dict({"test_path": "test.tsv"})

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(UsageError, match="qa_hidden"):
            RunConfig.from_dict({"qa_hidden": 0})

    def test_negative_lambda_rejected(self):
        with pytest.raises(UsageError, match="lambda"):
            RunConfig.from_dict({"lambda_q": -1.0})

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.embedding_dim == 300
        assert cfg.qa_hidden == 100
        assert cfg.qg_hidden == 512
        assert cfg.attention_dim == 30
        assert cfg.cooc_dim == 10 and cfg.cooc_vocab == 10
        assert cfg.vocab_size == 30000
        assert cfg.batch_size == 64 and cfg.pool_batches == 10
        assert cfg.learning_rate == 2.0
        assert cfg.beam_size == 5 and cfg.max_len == 30

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            cli.load_config(tmp_path / "none.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(UsageError, match="valid JSON"):
            cli.load_config(path)


class TestGroupQueries:
    def test_preserves_order(self, tmp_path):
        rows = [
            ("qB", "p0", "first q ?", "answer one .", 1),
            ("qA", "p1", "second q ?", "answer two .", 1),
            ("qB", "p1", "first q ?", "answer three .", 0),
        ]
        pairs = text.load_tsv(write_rows(tmp_path / "g.tsv", rows))
        grouped = cli.group_queries(pairs)
        assert [qid for qid, _ in grouped] == ["qB", "qA"]
        assert len(grouped[0][1]) == 2


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert cli.main(["train"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_1(self):
        assert cli.main(["explode"]) == 1

    def test_missing_train_file_is_2_and_names_path(self, tmp_path, capsys):
        config = make_config(tmp_path, train_path=str(tmp_path / "absent.tsv"),
                             dev_path=None)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert "absent.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("embedding_dim", "20"), ("lambda_q", None), ("max_epochs", 1.5), ("batch_size", True),
    ])
    def test_config_value_of_wrong_type_is_1(self, tmp_path, capsys, field, value):
        write_toy(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, **{field: value})))
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field " + field)
        assert not (tmp_path / "ckpt").exists()

    def test_missing_checkpoint_is_2(self, tmp_path):
        assert cli.main(["eval-qa", "--checkpoint", str(tmp_path / "no.ckpt"),
                         "--data", str(tmp_path / "no.tsv")]) == 2

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch, capsys):
        write_toy(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))

        def boom(cfg):
            raise trainer.NumericalError("non-finite qa_loss at step 0")

        monkeypatch.setattr(cli, "run_training", boom)
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_real_divergence_is_3_and_names_the_step(self, tmp_path, capsys):
        # A learning rate of 1e300 blows the first update up so far that the
        # next forward pass overflows: the second step (step 1) fails, with
        # one error line and no numpy warning before it.
        write_rows(tmp_path / "train.tsv")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(make_config(
            tmp_path, dev_path=None, batch_size=4, learning_rate=1e300)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .+ at step 1", err.splitlines()[-1])
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small training run shared by the eval-side tests."""
    tmp_path = tmp_path_factory.mktemp("cli_run")
    write_toy(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path)))
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 0
    return tmp_path


class TestTrainCommand:
    def test_writes_epoch_and_final_checkpoints(self, trained):
        ckpt = trained / "ckpt"
        assert (ckpt / "final.ckpt").exists()
        assert (ckpt / "epoch_001.ckpt").exists()
        assert (ckpt / "epoch_002.ckpt").exists()

    def test_step_log_schema(self, trained):
        lines = (trained / "ckpt" / "train_log.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"step", "qa_loss", "qg_loss", "dual_loss"}

    def test_rerun_rewrites_step_log(self, tmp_path):
        write_toy(tmp_path)
        cfg = RunConfig.from_dict(make_config(tmp_path, max_epochs=1))
        for _ in range(2):
            cli.run_training(cfg)
        lines = (tmp_path / "ckpt" / "train_log.jsonl").read_text().splitlines()
        steps = [json.loads(line)["step"] for line in lines]
        assert steps == list(range(1, len(steps) + 1))

    def test_flag_overrides_stored_in_checkpoint(self, tmp_path):
        write_toy(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, max_epochs=1)))
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--lambda-q", "0.0", "--lambda-a", "0.0", "--seed", "21"])
        assert rc == 0
        loaded = trainer.load_checkpoint(tmp_path / "ckpt" / "final.ckpt")
        assert loaded.config["lambda_q"] == 0.0
        assert loaded.config["lambda_a"] == 0.0
        assert loaded.config["seed"] == 21

    def test_identical_invocations_bit_identical(self, tmp_path):
        write_toy(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, max_epochs=1)))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "ckpt" / "final.ckpt").read_bytes()
        shutil.rmtree(tmp_path / "ckpt")
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "ckpt" / "final.ckpt").read_bytes() == first


class TestEvalQA:
    def test_report_schema(self, trained, capsys):
        rc = cli.main(["eval-qa", "--checkpoint", str(trained / "ckpt" / "final.ckpt"),
                       "--data", str(trained / "dev.tsv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"map", "mrr", "p_at_1", "num_questions", "num_skipped"}
        assert report["num_questions"] == 8
        assert report["num_skipped"] == 0
        for key in ("map", "mrr", "p_at_1"):
            assert 0.0 <= report[key] <= 1.0

    def test_checkpoint_with_trailing_bytes_is_2(self, trained, tmp_path, capsys):
        data = (trained / "ckpt" / "final.ckpt").read_bytes()
        # Give the first record dims whose product wraps to 0 in 64 bits.
        name_len = struct.unpack_from("<I", data, len(trainer.CHECKPOINT_MAGIC) + 4)[0]
        rank_at = len(trainer.CHECKPOINT_MAGIC) + 8 + name_len
        assert struct.unpack_from("<I", data, rank_at)[0] == 2
        huge = bytearray(data)
        struct.pack_into("<QQ", huge, rank_at + 4, 2**40, 2**24)
        # The config is the last blob and ends with "}".
        # One byte of the LM blob's first key: valid JSON, wrong structure.
        lm_key = b'{"answer":{"alpha"'
        assert data.count(lm_key) == 1
        # A NaN as the first value of the first record.
        nan = bytearray(data)
        struct.pack_into("<d", nan, rank_at + 4 + 16, math.nan)
        cases = [
            (data + b"\0" * 8, "8 trailing bytes"),
            (bytes(huge), "truncated checkpoint file"),
            (data[:-1] + b"!", "checkpoint JSON is malformed"),
            (data[:-1] + b"\xff", "checkpoint text is not valid UTF-8"),
            (data.replace(lm_key, b'{"bnswer":{"alpha"'), "wrong structure: KeyError: 'answer'"),
            (bytes(nan), "record 'shared.question_embeddings' holds non-finite values"),
        ]
        for corrupted, message in cases:
            path = tmp_path / "corrupted.ckpt"
            path.write_bytes(corrupted)
            rc = cli.main(["eval-qa", "--checkpoint", str(path),
                           "--data", str(trained / "dev.tsv")])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_queries_without_positive_are_skipped(self, trained, tmp_path, capsys):
        rows = [
            ("q0", "p0", "what color is the otter ?", "the otter is gray .", 1),
            ("q0", "p1", "what color is the otter ?", "the badger is brown .", 0),
            ("q_neg", "p1", "where does the badger live ?", "the otter is gray .", 0),
        ]
        data = write_rows(tmp_path / "dev.tsv", rows)
        rc = cli.main(["eval-qa", "--checkpoint", str(trained / "ckpt" / "final.ckpt"),
                       "--data", str(data)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_questions"] == 1
        assert report["num_skipped"] == 1


class TestGenerate:
    def test_emits_beam_lines_per_answer(self, trained, tmp_path, capsys):
        answers = tmp_path / "answers.txt"
        answers.write_text("the otter is gray .\nthe badger lives in marsh .\n")
        rc = cli.main(["generate", "--checkpoint", str(trained / "ckpt" / "final.ckpt"),
                       "--data", str(answers), "--beam", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        for line in lines:
            score, _, surface = line.partition("\t")
            float(score)
            assert "<unk>" not in surface.split()

    def test_blank_line_is_data_error(self, trained, tmp_path, capsys):
        answers = tmp_path / "answers.txt"
        answers.write_text("the otter is gray .\n\nthe badger .\n")
        rc = cli.main(["generate", "--checkpoint", str(trained / "ckpt" / "final.ckpt"),
                       "--data", str(answers)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


class TestRank:
    def test_emits_ranked_rows_per_question(self, trained, capsys):
        rc = cli.main(["rank", "--checkpoint", str(trained / "ckpt" / "final.ckpt"),
                       "--data", str(trained / "dev.tsv")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        pairs = text.load_tsv(trained / "dev.tsv")
        assert len(lines) == len(pairs)
        by_query = {}
        for line in lines:
            qid, rank, score, _ = line.split("\t")
            by_query.setdefault(qid, []).append((int(rank), float(score)))
        for ranked in by_query.values():
            assert [r for r, _ in ranked] == list(range(1, len(ranked) + 1))
            scores = [s for _, s in ranked]
            assert scores == sorted(scores, reverse=True)


class TestEvalQG:
    def test_report_schema(self, trained, capsys):
        rc = cli.main(["eval-qg", "--checkpoint", str(trained / "ckpt" / "final.ckpt"),
                       "--data", str(trained / "dev.tsv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"bleu4", "num_pairs"}
        assert 0.0 <= report["bleu4"] <= 1.0
        assert report["num_pairs"] == 8

    def test_memorized_pairs_reach_bleu_one_and_oracle_ranking(self, tmp_path, capsys):
        rows = [
            ("q0", "p0", "what color is the otter ?", "the otter is gray .", 1),
            ("q1", "p1", "where does the badger live ?", "the badger lives in forest .", 1),
        ]
        write_rows(tmp_path / "train.tsv", rows)
        eval_rows = [
            rows[0], ("q0", "p1", rows[0][2], rows[1][3], 0),
            rows[1], ("q1", "p0", rows[1][2], rows[0][3], 0),
        ]
        write_rows(tmp_path / "eval.tsv", eval_rows)
        config = make_config(
            tmp_path, dev_path=None, embedding_dim=12, qg_hidden=12,
            attention_dim=6, batch_size=2, lambda_q=0.0, lambda_a=0.0,
            max_epochs=120, max_len=16,
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "ckpt" / "final.ckpt")
        rc = cli.main(["eval-qg", "--checkpoint", ckpt,
                       "--data", str(tmp_path / "train.tsv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu4"] == pytest.approx(1.0)
        # A model that solved its corpus is a perfect ranking oracle too.
        rc = cli.main(["eval-qa", "--checkpoint", ckpt,
                       "--data", str(tmp_path / "eval.tsv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["map"] == report["mrr"] == report["p_at_1"] == 1.0


class TestInputsUntouched:
    def test_train_does_not_mutate_dataset_files(self, tmp_path):
        write_toy(tmp_path)
        before = [(tmp_path / n).read_bytes() for n in ("train.tsv", "dev.tsv")]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, max_epochs=1)))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        after = [(tmp_path / n).read_bytes() for n in ("train.tsv", "dev.tsv")]
        assert before == after
