"""fit-distill: the paper's pipeline, ``TimeKDTrainer.fit`` then test.

Joint mode on synthetic ETTm1 (700 rows): 5 teacher warm-up epochs and
10 student epochs over every train window, CLM embeddings precomputed
once per fit and never cached on disk, so every fit pays the same CLM
encode.  The backbone always loads from the checked-in
``artifacts/llm`` checkpoint of this checkout, never from a pretraining
run.  This is the only workload that reaches ``llm``, ``core`` and
``nn``; it bypasses every serving layer.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.core import TimeKDConfig
from repro.core.trainer import TimeKDTrainer
from repro.data import load_dataset, make_forecasting_data

import layers
from stack import Outcome, peak_rss_mb
from tracer import Tracer

#: Layer prefixes this workload reports; the others read 0 (bypassed).
REPORTS = ("core", "llm", "nn", "eval", "trace")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BACKBONE = "gpt2-tiny"
PRETRAIN_STEPS = 60
MIN_FITS = 3
#: Set-up takes milliseconds, so each fit's is sampled several times,
#: spread over the run like the fits.
SETUPS_PER_FIT = 5


def _config(data) -> TimeKDConfig:
    return TimeKDConfig(
        history_length=96, horizon=24, num_variables=data.num_variables,
        frequency_minutes=data.frequency_minutes, d_model=32, num_heads=2,
        num_layers=1, ffn_dim=64, llm_name=BACKBONE,
        llm_pretrain_steps=PRETRAIN_STEPS, prompt_value_stride=8,
        teacher_epochs=5, student_epochs=10, batch_size=16,
        max_batches_per_epoch=None, precompute_embeddings=True,
        embedding_cache_dir=None, training_mode="joint", seed=0)


class _PinnedBackbone:
    """Point the backbone cache at this checkout's checkpoint.

    The trainer resolves the cache from ``REPRO_CACHE`` or the working
    directory; pinning it keeps set-up a load, never a pretraining run.
    """

    def __enter__(self):
        root = os.path.join(ROOT, "artifacts")
        checkpoint = os.path.join(root, "llm",
                                  f"{BACKBONE}-s{PRETRAIN_STEPS}.npz")
        if not os.path.exists(checkpoint):
            raise FileNotFoundError(f"backbone checkpoint {checkpoint} is "
                                    f"missing from the checkout")
        self.saved = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = root
        return self

    def __exit__(self, *exc):
        if self.saved is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = self.saved


def run(seed: int, seconds: float, trace: bool, workdir: str):
    outcome = Outcome()
    # The seed picks the synthetic replica; model initialisation stays
    # at seed 0, so a seed's test MSE is fixed by the numerics alone.
    data = make_forecasting_data(
        load_dataset("ETTm1", length=700, seed_offset=seed),
        history_length=96, horizon=24)
    config = _config(data)
    # One ground-truth and one historical CLM forward per precompute chunk.
    encodes = 2 * math.ceil(len(data.train) / config.precompute_chunk_size)
    windows_per_fit = ((config.teacher_epochs + config.student_epochs)
                       * len(data.train))
    fits: list[dict] = []
    setups: list[float] = []

    with _PinnedBackbone(), Tracer() as tracer:
        layers.install_fit(tracer)
        deadline = time.perf_counter() + seconds
        while True:
            for _ in range(SETUPS_PER_FIT):
                start = time.perf_counter()
                trainer = TimeKDTrainer(config, data)
                setups.append(time.perf_counter() - start)
            # A traced run alternates untraced and traced fits.
            traced = trace and len(fits) % 2 == 1
            tracer.enabled = traced
            start = time.perf_counter()
            trainer.fit()
            fit_s = time.perf_counter() - start
            tracer.enabled = False
            mse = trainer.evaluate(data.test)["mse"]
            result_s = time.perf_counter() - start
            outcome.check(math.isfinite(mse), f"test MSE {mse} not finite")
            forwards = trainer.clm.num_forwards
            outcome.check(forwards == encodes, f"{forwards} CLM forwards, "
                                               f"expected {encodes}")
            if fits:
                outcome.check(mse == fits[0]["mse"],
                              f"test MSE {mse} != {fits[0]['mse']} of the "
                              f"first fit: training is not deterministic")
            fits.append({"fit_s": fit_s, "result_s": result_s, "mse": mse,
                         "forwards": forwards, "traced": traced})
            if len(fits) >= MIN_FITS and time.perf_counter() >= deadline:
                break

    if trace:
        traced_s = [fit["fit_s"] for fit in fits if fit["traced"]]
        untraced_s = [fit["fit_s"] for fit in fits if not fit["traced"]]
        per_fit = 1e3 / len(traced_s)
        spans = {name + "_ms": tracer.self_s(name) * per_fit
                 for name in layers.FIT_SPANS}
        spans["core.trainer.prepare_s"] = spans.pop(
            "core.trainer.prepare_ms") / 1e3
        spans["llm.clm_forwards"] = fits[-1]["forwards"]
        spans["eval.test_mse"] = fits[0]["mse"]
        spans["trace.unattributed_pct"] = 100.0 * (
            1.0 - tracer.self_s(*layers.FIT_SPANS) / sum(traced_s))
        spans["trace.overhead_pct"] = 100.0 * (
            np.median(traced_s) / np.median(untraced_s) - 1.0)
        return outcome, spans

    def column(name):
        return np.asarray([fit[name] for fit in fits]) * 1e3

    return outcome, {
        "setup_s": float(np.median(setups)),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": windows_per_fit / float(np.median(
            [fit["fit_s"] for fit in fits])),
        "op_p50_ms": float(np.median(column("fit_s"))),
        "op_p99_ms": float(column("fit_s").max()),
        "result_p50_ms": float(np.median(column("result_s"))),
        "result_p99_ms": float(column("result_s").max()),
    }
