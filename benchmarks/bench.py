"""Benchmark for dualqa: one workload per run, one JSON result line.

    python3 benchmarks/bench.py --workload toy-dual-train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` runs the workload's fixed slice three times, plain, with spans around
every public ``dualqa`` function, and plain again, and reports per-layer
metrics and the tracing overhead.  Human-readable lines go first; the last line
of standard output is the JSON result.  Reports and span files are
written under ``.benchrun/`` at the root of the checkout.  See README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchrun"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input and model size; tiny is for the benchmark's own tests")
    return parser.parse_args(argv)


def provenance():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "dualqa").glob("*.py")))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_lines": src_lines,
    }


def run_e2e(workload, seconds, spec):
    res = workload.run(seconds)
    res.verify()
    metrics = {}
    for entry in spec["end_to_end"]:
        if entry["name"] in res.metrics:
            metrics[entry["name"]] = (res.metrics[entry["name"]], entry["unit"])
            print(f"metric {entry['name']} = {res.metrics[entry['name']]:.6g} {entry['unit']}")
    return res, metrics, {}


def run_traced(workload_cls, seed, scale, workdir, tag, spec):
    from layers import layer_metrics
    from tracing import Tracer

    def plain_pass(sub):
        os.mkdir(os.path.join(workdir, sub))
        t0 = time.perf_counter()
        out = workload_cls(seed, scale, os.path.join(workdir, sub)).run(None)
        return out, time.perf_counter() - t0

    # Plain, traced, plain: the first plain pass also takes the warm-up,
    # and the two together bracket the traced pass in time.
    before, before_s = plain_pass("plain-1")
    os.mkdir(os.path.join(workdir, "traced"))
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        res = workload_cls(seed, scale, os.path.join(workdir, "traced")).run(None)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.patches.restore()
    after, after_s = plain_pass("plain-2")
    untraced_s = (before_s + after_s) / 2
    res.verify()
    for plain in (before, after):
        res.ops.attempted += plain.ops.attempted
        res.ops.failed += plain.ops.failed

    metrics, table, counts = layer_metrics(tracer, res.epochs)
    span_path = OUT / f"spans-{tag}.npz"
    tracer.save(span_path)
    overhead = traced_s / untraced_s - 1.0
    print(f"trace overhead: {100 * overhead:+.1f}% (same slice traced {traced_s:.3f} s, untraced "
          f"{before_s:.3f} s before and {after_s:.3f} s after; {len(tracer.fn)} spans -> "
          f"{span_path.relative_to(ROOT)})")
    print(f"traced slice: {counts['steps']} steps, {counts['questions']} questions, "
          f"{counts['answers']} answers, {res.epochs} epochs")
    wall = table.roots_s
    print(f"{'layer':<18}{'calls':>10}{'self s':>10}{'share':>8}")
    for layer, (calls, self_s) in table.by_layer().items():
        print(f"{layer:<18}{calls:>10}{self_s:>10.3f}{100 * self_s / wall:>7.1f}%")
    print(f"{'function':<52}{'calls':>9}{'incl s':>9}{'self s':>9}")
    for name, calls, incl, self_s in table.by_function()[:20]:
        print(f"{name:<52}{calls:>9}{incl:>9.3f}{self_s:>9.3f}")
    if counts["steps"]:
        step_s = table.seconds(table.STEP) / counts["steps"]
        nodes = metrics["autodiff.tape_nodes_per_step"][0]
        shares = ", ".join(
            f"{kind} {100 * metrics[f'autodiff.tape_nodes.{kind}'][0] / nodes:.0f}%"
            for kind in ("matmul", "add", "elementwise_mul", "sigmoid", "row_lookup"))
        print(f"per traced step: {step_s:.3f} s, {nodes:.0f} tape nodes ({shares}), backward "
              f"{100 * metrics['autodiff.backward_s_per_step'][0] / step_s:.0f}% of the step")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} = {value:.6g} {unit}")
    listed = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    unlisted = {name: value for name, (value, _) in metrics.items() if name not in listed}
    for name, unit in listed.items():
        if name in metrics and metrics[name][1] != unit:
            raise ValueError(f"{name}: computed in {metrics[name][1]}, listed in {unit}")
    extra = {"trace_overhead": overhead, "untraced_slice_s": [before_s, after_s],
             "traced_slice_s": traced_s, "unlisted_layer_metrics": unlisted}
    return res, {name: v for name, v in metrics.items() if name in listed}, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualqa" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'dualqa'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    facts = provenance()
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = OUT / f"work-{tag}"  # fresh per run: train_log.jsonl is opened for append
    OUT.mkdir(exist_ok=True)
    try:
        workdir.mkdir()
        cls = WORKLOADS[args.workload]
        if args.trace:
            res, metrics, extra = run_traced(cls, args.seed, args.scale, str(workdir), tag, spec)
        else:
            res, metrics, extra = run_e2e(cls(args.seed, args.scale, str(workdir)), args.seconds,
                                          spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for c in res.checks.items:
        status = "ok" if c["passed"] and c["control_failed"] else "FAILED"
        control = "control fails" if c["control_failed"] else "CONTROL PASSES"
        print(f"check {c['check']}: {status} ({control}) {c['detail']}".rstrip())
    print(f"operations: attempted {res.ops.attempted}, failed {res.ops.failed}")
    wanted = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    result = {
        "correct": res.checks.ok and not missing,
        "attempted": res.ops.attempted,
        "failed": res.ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "provenance": facts,
              "checks": res.checks.items, **extra, **result}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
