"""Trajectory oracle: 10 joint and 10 independent steps at lambda 0.1 on the
small corpus must reproduce a committed fingerprint of the losses and the
final parameters.  It holds refactors to the objective they started from;
summation-order changes stay far inside its tolerance.

A change that alters the objective on purpose regenerates the file with
``PYTHONPATH=src python tests/test_trajectory.py`` and says why.
"""

import json
import pathlib
import tempfile
import zlib

import numpy as np

from dualqa import text

from helpers import make_small_trainer, small_corpus

FINGERPRINT = pathlib.Path(__file__).parent / "data" / "trajectory_fingerprint.json"
RTOL, ATOL = 1e-10, 1e-12


def trajectory_fingerprint(tmp_path, lam=0.1):
    """Each step's (QA, QG, dual) losses, then per named parameter its sum,
    its L2 norm and its dot with a vector seeded by the parameter's name."""
    pairs = small_corpus(tmp_path)
    dual = make_small_trainer(pairs, lambda_q=lam, lambda_a=lam)
    batches = list(text.make_batches(pairs, 2, 2, seed=7))
    losses = [list(dual.train_step(batches[i % len(batches)])) for i in range(10)]
    losses += [list(dual.independent_step(batches[i % len(batches)])) for i in range(10)]
    params = {}
    for name, t in dual.parameters:
        probe = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(t.shape)
        v = t.values
        params[name] = [float(v.sum()), float(np.linalg.norm(v)), float((v * probe).sum())]
    return {"losses": losses, "params": params}


def mismatches(got, want):
    """Names of the fingerprint entries that differ beyond the tolerance."""
    bad = [f"step {i}" for i, (g, w) in enumerate(zip(got["losses"], want["losses"]))
           if not np.allclose(g, w, rtol=RTOL, atol=ATOL)]
    if got["params"].keys() != want["params"].keys():
        return bad + ["parameter names"]
    return bad + [name for name, w in want["params"].items()
                  if not np.allclose(got["params"][name], w, rtol=RTOL, atol=ATOL)]


def test_trajectory_matches_fingerprint(tmp_path):
    want = json.loads(FINGERPRINT.read_text())
    assert len(want["losses"]) == 20
    assert mismatches(trajectory_fingerprint(tmp_path), want) == []


def test_perturbed_lambda_fails_to_match(tmp_path):
    want = json.loads(FINGERPRINT.read_text())
    assert mismatches(trajectory_fingerprint(tmp_path, lam=0.1001), want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        FINGERPRINT.parent.mkdir(exist_ok=True)
        FINGERPRINT.write_text(json.dumps(trajectory_fingerprint(pathlib.Path(tmp)), indent=1) + "\n")
    print(f"wrote {FINGERPRINT}")
