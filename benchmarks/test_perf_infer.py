"""BENCH: compiled inference engine — tape-free forward vs module path.

The claim behind ``repro.infer``: exporting the fitted student into a
flat numpy tape (no Tensor wrapping, no graph bookkeeping, preallocated
scratch, attention skipped) must return *bitwise identical* forecasts
while cutting per-window cost — >= 3x at batch 1, where autograd
overhead dominates, and measurably at serve batch sizes.

The **shape-churn scenario** pits the polymorphic engine (one compile
at its batch capacity, every batch size served from stride-adjusted
views, zero rebuilds after warmup) against the v1 per-batch-shape
behavior (each new coalesced size pays a tape rebuild + probe on the
hot path) and demands >= 2x.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import bench_dir, run_once

from repro.core import TimeKDConfig
from repro.core.student import StudentModel
from repro.infer import CompiledStudent

#: Paper-shape student (Section V-A4 defaults: d_model 64, 2 layers).
CONFIG = TimeKDConfig(history_length=96, horizon=24, num_variables=7)

#: Batch sizes the micro-batching queue actually drains at.
SERVE_BATCH_SIZES = (1, 16, 64)

NUM_REQUESTS = 256

#: Shape-churn scenario: coalesced batch sizes arriving in no useful
#: order, most of them new (the v1 engine's worst case — every distinct
#: size was a tape rebuild + probe on the hot path).
CHURN_REQUESTS = 40
CHURN_MAX_BATCH = 64


def _best_seconds_per_call(fns, x, repeats: int = 15,
                           inner: int = 30) -> list[float]:
    """Best-of-``repeats`` mean call time of each of ``fns``.

    The functions take turns within every repeat, so a host slowdown
    that lasts longer than one repeat hits all of them alike instead of
    skewing their ratio.
    """
    for fn in fns:
        fn(x)  # warm-up: builds plans / tensors outside the timed region
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(inner):
                fn(x)
            best[index] = min(best[index],
                              (time.perf_counter() - start) / inner)
    return best


def _write_result(result: dict) -> None:
    """Write what was measured so far, so a failing ratio assert still
    leaves its timings behind."""
    with open(os.path.join(bench_dir(), "perf_infer.json"), "w") as fh:
        json.dump(result, fh, indent=2)


def test_compiled_engine_speedup(benchmark):
    student = StudentModel(CONFIG)
    student.eval()
    rng = np.random.default_rng(0)
    for p in student.parameters():
        p.data[...] = rng.standard_normal(p.data.shape).astype(
            np.float32) * 0.1
    engine = CompiledStudent(student)
    windows = rng.normal(
        size=(NUM_REQUESTS, CONFIG.history_length,
              CONFIG.num_variables)).astype(np.float32)

    def run() -> dict:
        result: dict = {"config": {
            "history_length": CONFIG.history_length,
            "horizon": CONFIG.horizon,
            "num_variables": CONFIG.num_variables,
            "d_model": CONFIG.d_model,
            "num_layers": CONFIG.num_layers,
        }, "batches": {}}

        # Direct forward at every serve batch size, bitwise-checked.
        for batch in SERVE_BATCH_SIZES:
            x = windows[:batch]
            np.testing.assert_array_equal(
                engine.predict(x), student.predict(x),
                err_msg="compiled engine must be bitwise identical "
                "to the module forward")
            module_s, compiled_s = _best_seconds_per_call(
                (student.predict, engine.predict), x)
            result["batches"][str(batch)] = {
                "module_s_per_call": module_s,
                "compiled_s_per_call": compiled_s,
                "module_windows_per_s": batch / module_s,
                "compiled_windows_per_s": batch / compiled_s,
                "speedup": module_s / compiled_s,
            }
        _write_result(result)

        single = result["batches"]["1"]["speedup"]
        assert single >= 3.0, (
            f"expected >= 3x single-window speedup from the compiled "
            f"engine, got {single:.2f}x")
        for batch in SERVE_BATCH_SIZES[1:]:
            batched = result["batches"][str(batch)]["speedup"]
            assert batched >= 1.15, (
                f"expected measurable batched gains at B={batch}, got "
                f"{batched:.2f}x")

        # ----------------------------------------------------------
        # Shape churn: varying coalesced batch sizes through ONE engine.
        # ----------------------------------------------------------
        churn_rng = np.random.default_rng(42)
        churn_batches = churn_rng.integers(
            1, CHURN_MAX_BATCH + 1, size=CHURN_REQUESTS).tolist()
        churn_windows = [
            churn_rng.normal(size=(batch, CONFIG.history_length,
                                   CONFIG.num_variables)).astype(np.float32)
            for batch in churn_batches]
        total_windows = sum(churn_batches)

        # Polymorphic engine: the one compile happens at warmup (engine
        # construction with max_batch); the churn itself never rebuilds.
        poly = CompiledStudent(student, max_batch=CHURN_MAX_BATCH)
        warm_rebuilds = poly.rebuilds

        def drain_poly() -> float:
            start = time.perf_counter()
            for x in churn_windows:
                poly.predict(x)
            return time.perf_counter() - start

        # v1 behavior, reconstructed: a plan was built and probe-verified
        # per batch shape, cached per shape thereafter.  One exactly-
        # sized engine per distinct batch size reproduces that cost
        # structure — each first encounter pays the build + probe on the
        # hot path, repeats are as cheap as v1's plan-cache hits.
        def drain_legacy() -> float:
            per_shape: dict[int, CompiledStudent] = {}
            start = time.perf_counter()
            for x in churn_windows:
                batch = len(x)
                eng_for_shape = per_shape.get(batch)
                if eng_for_shape is None:
                    eng_for_shape = CompiledStudent(student,
                                                    max_batch=batch)
                    per_shape[batch] = eng_for_shape
                eng_for_shape.predict(x)
            return time.perf_counter() - start

        poly_s = min(drain_poly() for _ in range(3))
        legacy_s = min(drain_legacy() for _ in range(3))
        assert poly.rebuilds == warm_rebuilds, (
            "shape churn must not rebuild a warmed polymorphic plan")
        # Spot-check parity under churn (full parity is tier-1 tested).
        np.testing.assert_array_equal(
            poly.predict(churn_windows[0]),
            student.predict(churn_windows[0]))
        churn_speedup = legacy_s / poly_s
        result["shape_churn"] = {
            "requests": CHURN_REQUESTS,
            "windows": total_windows,
            "distinct_batches": len(set(churn_batches)),
            "legacy_windows_per_s": total_windows / legacy_s,
            "polymorphic_windows_per_s": total_windows / poly_s,
            "speedup": churn_speedup,
            "rebuilds_after_warmup": poly.rebuilds - warm_rebuilds,
            "plan_stats": poly.plan_stats(),
        }
        _write_result(result)
        assert churn_speedup >= 2.0, (
            f"expected >= 2x coalesced-serve throughput from the "
            f"shape-polymorphic plan under batch-size churn, got "
            f"{churn_speedup:.2f}x")

        return result

    run_once(benchmark, run)
