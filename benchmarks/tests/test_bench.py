"""Tests of the benchmark itself: each workload at tiny scale, the result
line's form and counts, the references against the program, the checks'
negative controls, and the refusal to run without the program's sources.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from dualqa import autodiff as ad  # noqa: E402
from dualqa import bigram, qa, qg, trainer  # noqa: E402

import checks as chk  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_result_line(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    # Every check ran with a failing negative control; the learning checks
    # may not hold after a tiny run, every other check must.
    checks = [line for line in out.stdout.splitlines() if line.startswith("check ")]
    assert checks
    assert not [line for line in checks if "CONTROL PASSES" in line]
    learning = ("check train.last_epoch_losses_below_first:", "check train.first_batch_losses_fall:")
    assert not [line for line in checks if "FAILED" in line and not line.startswith(learning)]
    if trace:
        assert any(line.startswith("trace overhead: ") for line in out.stdout.splitlines())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "bench.py")
    assert out.returncode != 0
    assert not out.stdout.strip().endswith("}")


def _model(seed=3):
    return trainer.init_models(16, 16, trainer.ModelDims(6, 8, 8, 5, 10, 4), seed=seed)


def test_reference_scorer_matches_program_and_control_differs():
    qa_params, qg_params = _model()
    params = chk.param_arrays(qa_params, qg_params)
    q_ids, a_ids = [4, 7, 9], [5, 8, 10, 6]
    with ad.no_recording():
        got = qa.qa_score(q_ids, a_ids, qa_params, 2).item()
    assert abs(ref.qa_score(params, q_ids, a_ids, 2) - got) <= chk.TOL
    bumped = chk.perturbed(params, "qa.output_bias", 1, 1e-6)
    assert abs(ref.qa_score(bumped, q_ids, a_ids, 2) - got) > chk.TOL


def test_reference_rescoring_matches_program_and_control_differs():
    qa_params, qg_params = _model()
    params = chk.param_arrays(qa_params, qg_params)
    q_ids, a_ids = [4, 7, 9], [5, 8, 10, 6]
    with ad.no_recording():
        got = qg.sequence_log_prob(q_ids, a_ids, qg_params).item()
    assert abs(ref.rescore(params, a_ids, q_ids + [ref.EOS_ID]) - got) <= chk.TOL
    bumped = chk.perturbed(params, "shared.question_embeddings", ref.SOS_ID, 1e-3)
    assert abs(ref.rescore(bumped, a_ids, q_ids + [ref.EOS_ID]) - got) > chk.TOL


def test_reference_bigram_matches_program():
    corpus = [["the", "otter", "is", "gray"], ["the", "heron", "eats", "fish"]]
    lm = bigram.BigramLM.fit(corpus)
    mine = ref.Bigram(corpus)
    for sentence in (["the", "otter", "eats", "fish"], ["gray", "heron"]):
        assert mine.log_prob(sentence) == pytest.approx(lm.sentence_log_prob(sentence), abs=1e-12)
    smoother = ref.Bigram(corpus, 1.5)
    assert smoother.log_prob(["gray"]) != pytest.approx(lm.sentence_log_prob(["gray"]))


def test_brute_force_metrics_and_tie_rule():
    # Gold second of two: AP = RR = 1/2, P@1 = 0.  Tied scores: the lower
    # index ranks first, so the gold at index 0 of a tie is ranked first.
    assert ref.ranking_metrics([([0.9, 0.1], [0, 1])]) == (0.5, 0.5, 0.0)
    assert ref.ranking_metrics([([0.3, 0.3], [1, 0])]) == (1.0, 1.0, 1.0)
    assert ref.order_by_scores([0.3, 0.5, 0.3]) == [1, 0, 2]


def test_tracer_restores_every_binding():
    from dualqa import cli, text

    originals = (ad.matmul, qa.encode_bigru, cli.make_batches, text.make_batches,
                 qg.gru_step, bigram.BigramLM.__dict__["fit"],
                 trainer.DualTrainer.train_step)
    tracer = Tracer()
    tracer.install()
    try:
        assert ad.matmul is not originals[0]
        assert cli.make_batches is text.make_batches is not originals[2]
        x = ad.Tensor(np.ones((2, 2)))
        ad.matmul(x, x)
    finally:
        tracer.patches.restore()
    assert (ad.matmul, qa.encode_bigru, cli.make_batches, text.make_batches, qg.gru_step,
            bigram.BigramLM.__dict__["fit"], trainer.DualTrainer.train_step) == originals
    assert len(tracer.fn) == 1 and tracer.names[tracer.fn[0]] == "dualqa.autodiff.matmul"


def test_learning_check_reads_a_fixed_step(tmp_path):
    # A run cut short tops up to the same step, on the same batches, as a
    # run that trained past it; either way the kept parameters are those
    # after that step, not after the run's last.
    import workloads

    w = workloads.MidBasicTrain(1, "tiny", str(tmp_path))
    pairs, long_dual, _ = w._setup()
    _, short_dual, _ = w._setup()
    long = workloads.Steps(workloads.Result(), long_dual, pairs, w.BATCH, 1, learn_steps=2)
    for _ in range(4):
        long.step(long.next_batch())
    short = workloads.Steps(workloads.Result(), short_dual, pairs, w.BATCH, 1, learn_steps=2)
    short.step(short.next_batch())
    short.train_to_learn_steps()
    assert short.taken == 2 and len(short.times) == 1
    assert all(chk.same_bits(values, short.learned[name]) for name, values in long.learned.items())
    last = chk.param_arrays(long_dual.qa_params, long_dual.qg_params)
    assert not all(chk.same_bits(values, last[name]) for name, values in long.learned.items())
