"""Repository benchmark: three workloads over the TimeKD serving stack
and training pipeline, with a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload predict-keepalive --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
Every workload reports each of them, read for its own unit of work:

=================  ====================  ==================  ===================
metric             predict-keepalive     ingest-fleet        fit-distill
=================  ====================  ==================  ===================
throughput_per_s   answered requests/s   accepted ticks/s    trained windows/s
op_p50/p99_ms      HTTP round trip       ``Gateway.ingest``  ``TimeKDTrainer.fit``
result_p50/p99_ms  round trip (the       re-forecast round:  fit + test
                   answer is the         first tick to last  evaluation
                   forecast)             forecast resolved
=================  ====================  ==================  ===================

``setup_s`` is the median of several stack constructions, each up to and
including its warm-up; ``peak_rss_mb`` is the process's peak.
ingest-fleet computes each metric per window of 8 rounds and reports the
median across windows.  Where there are fewer than a hundred samples
(fits, re-forecast rounds), p99 sits at the slowest of them.

``--trace 1`` runs half the time untraced and half traced (fit-distill
alternates untraced and traced fits) and prints the per-layer metrics: self times of the spans in ``layers.py``, counters,
the tracing overhead (traced minus untraced end-to-end p50) and the
share of the end-to-end time no layer span covers.  A layer a workload
bypasses reads 0.  The last line of standard output is one JSON object.

The benchmark imports ``src/repro`` from the checkout it lives in and
writes only under ``.perfbench-work/`` there, which it removes again.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"predict-keepalive": "predict", "ingest-fleet": "ingest",
             "fit-distill": "fit"}


def _layer_values(reported: dict, prefixes, names) -> dict:
    """Every per-layer metric: bypassed layers read 0, a layer the
    workload claims to report must be present."""
    values = {}
    for name in names:
        if name in reported:
            values[name] = reported[name]
        elif any(name == p or name.startswith(p + ".") for p in prefixes):
            raise KeyError(f"workload did not report {name!r}")
        else:
            values[name] = 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    scratch = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        outcome, reported = workload.run(args.seed, args.seconds,
                                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    names = [metric["name"] for metric in group]
    if args.trace:
        reported = _layer_values(reported, workload.REPORTS, names)
    metrics = {}
    for metric in group:
        value = float(reported[metric["name"]])
        if not math.isfinite(value):
            outcome.fail(f"{metric['name']} is not finite")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
