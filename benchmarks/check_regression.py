"""Gate the BENCH trajectory against a committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/ -q   # produce the JSONs
    python benchmarks/check_regression.py            # gate vs baseline
    python benchmarks/check_regression.py --update   # re-seed baseline

Each tracked metric is compared against ``benchmarks/baseline.json``: a
throughput-style metric (higher is better) fails when it drops more
than ``--threshold`` (default 25%) below baseline, a latency-style
metric when it rises more than that above.  ``--warn-only`` downgrades
failures to warnings (exit 0) — the right mode on shared CI runners,
whose absolute perf tells you little; run strict on the machine the
baseline was recorded on.

The metric list lives here, the recorded values in the baseline file,
so adding a metric is one line plus ``--update``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: (json file stem, dotted metric path, direction). Direction "higher"
#: = throughput-style (regression is a drop), "lower" = latency-style
#: (regression is a rise).
METRICS: list[tuple[str, str, str]] = [
    ("perf_pipeline", "lazy_epoch_s", "lower"),
    ("perf_pipeline", "precompute_s", "lower"),
    ("perf_pipeline", "warm_epoch_s", "lower"),
    ("perf_pipeline", "precomputed_epoch_s", "lower"),
    ("perf_pipeline", "epoch_speedup", "higher"),
    ("perf_serve", "sequential_rps", "higher"),
    ("perf_serve", "coalesced_rps", "higher"),
    ("perf_serve", "speedup", "higher"),
    ("perf_stream", "ingest_ticks_per_s", "higher"),
    ("perf_stream", "forecast_ticks_per_s", "higher"),
    ("perf_stream", "durability.wal_ticks_per_s", "higher"),
    ("perf_stream", "durability.snapshot_s", "lower"),
    ("perf_stream", "durability.restore_s", "lower"),
    ("perf_infer", "batches.1.speedup", "higher"),
    ("perf_infer", "batches.64.speedup", "higher"),
    ("perf_infer", "shape_churn.speedup", "higher"),
    ("perf_infer", "shape_churn.polymorphic_windows_per_s", "higher"),
    ("scale_curve", "summary.w1_aggregate_ingest_ticks_per_s", "higher"),
    ("scale_curve", "summary.w4_aggregate_ingest_ticks_per_s", "higher"),
    ("scale_curve", "summary.ingest_speedup_4w", "higher"),
    ("scale_curve", "summary.w4_aggregate_forecast_ticks_per_s", "higher"),
    ("scale_curve", "summary.w4_p99_forecast_latency_s", "lower"),
    ("perf_gateway", "http_rps", "higher"),
    ("perf_gateway", "decision_us", "lower"),
    ("perf_gateway", "shed_rps", "higher"),
]

_HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(_HERE, "baseline.json")


def default_bench_dir() -> str:
    """Mirror ``benchmarks/conftest.bench_dir`` without importing it."""
    cache = os.environ.get("REPRO_CACHE")
    root = cache if cache else os.path.join(os.getcwd(), "artifacts")
    return os.path.join(root, "bench")


def lookup(payload: dict, dotted: str):
    value: object = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


def collect(bench_dir: str) -> dict[str, float | None]:
    current: dict[str, float | None] = {}
    cache: dict[str, dict | None] = {}
    for stem, dotted, _ in METRICS:
        if stem not in cache:
            path = os.path.join(bench_dir, f"{stem}.json")
            try:
                with open(path) as fh:
                    cache[stem] = json.load(fh)
            except (OSError, ValueError):
                cache[stem] = None
        payload = cache[stem]
        key = f"{stem}:{dotted}"
        current[key] = None if payload is None else lookup(payload, dotted)
    return current


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON (default: benchmarks/"
                             "baseline.json)")
    parser.add_argument("--bench-dir", default=None,
                        help="directory holding the perf_*.json "
                             "trajectories (default: $REPRO_CACHE/bench "
                             "or ./artifacts/bench)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression (default 0.25 "
                             "= 25%%)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (for CI "
                             "runners whose absolute perf is not "
                             "comparable to the baseline machine)")
    parser.add_argument("--update", action="store_true",
                        help="re-seed the baseline file from the current "
                             "trajectories instead of checking")
    args = parser.parse_args(argv)

    bench_dir = args.bench_dir or default_bench_dir()
    current = collect(bench_dir)

    if args.update:
        missing = sorted(k for k, v in current.items() if v is None)
        if missing:
            print(f"refusing to seed a baseline with missing metrics: "
                  f"{missing}", file=sys.stderr)
            return 1
        payload = {"bench_dir": bench_dir, "threshold": args.threshold,
                   "metrics": current}
        with open(args.baseline, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline seeded with {len(current)} metrics "
              f"-> {args.baseline}")
        return 0

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)["metrics"]
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read baseline {args.baseline!r}: {error}",
              file=sys.stderr)
        return 1

    failures: list[str] = []
    directions = {f"{stem}:{dotted}": direction
                  for stem, dotted, direction in METRICS}
    for key, reference in sorted(baseline.items()):
        direction = directions.get(key)
        if direction is None:
            continue  # metric retired from METRICS; stale baseline row
        value = current.get(key)
        if value is None:
            failures.append(f"{key}: missing from {bench_dir} "
                            f"(baseline {reference:.4g})")
            continue
        if direction == "higher":
            regressed = value < reference * (1.0 - args.threshold)
            delta = (value - reference) / reference if reference else 0.0
        else:
            regressed = value > reference * (1.0 + args.threshold)
            delta = (reference - value) / reference if reference else 0.0
        marker = "FAIL" if regressed else "ok"
        print(f"[{marker:>4}] {key}: {value:.4g} vs baseline "
              f"{reference:.4g} ({delta:+.1%}, {direction} is better)")
        if regressed:
            failures.append(
                f"{key}: {value:.4g} regressed >{args.threshold:.0%} "
                f"vs baseline {reference:.4g}")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        if args.warn_only:
            print("(--warn-only: exiting 0)", file=sys.stderr)
            return 0
        return 1
    print(f"\nall {len(baseline)} baseline metrics within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
