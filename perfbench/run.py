"""The repository's benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wifi-noble --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``wifi-noble`` — open-loop Poisson scans, NObLe on the thread path.
* ``wifi-knn-workers`` — open-loop Poisson scans, binned sharded kNN
  on two shard-worker processes.
* ``track-particle`` — closed loop of simulated walkers served by the
  streaming particle tracker, with checkpoints and a simulated crash.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced pass, writes its spans to
``.perfbench/<workload>-<seed>.spans.jsonl.gz`` and reports the tracing
overhead.  The lines before the last describe the machine, every phase
and the sample count behind each metric; the last line is the result
object.  Exit status: 0 when every answer was right, 1 when any was
wrong, 3 when the load generator could not keep to its schedule or a
shard worker was respawned without the benchmark's BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wifi-noble", "wifi-knn-workers", "track-particle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> "list[dict]":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str):
    if name == "track-particle":
        import track

        return track.run(seed, seconds, trace, work_dir)
    import wifi

    spec = wifi.NOBLE if name == "wifi-noble" else wifi.KNN_WORKERS
    return wifi.run(spec, seed, seconds, trace, work_dir)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import harness

    out_dir = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except harness.InvalidLoad as error:
        print(f"perfbench: phase invalid: {error}", file=sys.stderr)
        return 3
    finally:
        harness.stop_processes()
        shutil.rmtree(work_dir, ignore_errors=True)

    result.put("ok_frac", 1.0 - result.failed / result.attempted, "1", result.attempted)
    metrics = {}
    for declared in declared_metrics(bool(args.trace)):
        name = declared["name"]
        if name in result.metrics:
            value = result.metrics[name][0]
        elif args.trace:
            value = 0.0  # a layer this workload does not run
        else:
            raise KeyError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": declared["unit"]}
    if args.trace:
        spans = os.path.join(out_dir, f"{args.workload}-{args.seed}.spans.jsonl.gz")
        result.tracer.dump(spans)
        result.report["spans_file"] = os.path.relpath(spans, ROOT)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.machine_fingerprint(),
        "samples": result.samples,
        **result.report,
    }
    print(json.dumps(report, default=float))
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
