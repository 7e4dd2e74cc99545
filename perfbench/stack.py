"""Shared set-up for the workloads: the bench-size student, key file,
service arguments and small statistics helpers."""

from __future__ import annotations

import inspect
import os
import resource

import numpy as np

from repro.core import TimeKDConfig
from repro.core.student import StudentModel
from repro.data import StandardScaler
from repro.gateway import write_keys_file
from repro.nn import init as nn_init
from repro.serve import ForecastService, save_student_artifact

#: The bench-size student every serving stack loads.
STUDENT = dict(history_length=96, horizon=24, num_variables=7, d_model=32,
               num_heads=2, num_layers=1, ffn_dim=64)
DATASET = "ETTm1"
API_KEY = "k-bench"
#: Far above anything a run can spend, so no legitimate request is shed.
UNLIMITED = 10 ** 12
MAX_BATCH = 64


def make_artifact(directory: str) -> tuple[str, TimeKDConfig]:
    """Write the bench-size student bundle; weights are fixed (seed 0)."""
    os.makedirs(directory, exist_ok=True)
    config = TimeKDConfig(**STUDENT)
    nn_init.seed_everything(0)
    student = StudentModel(config)
    student.eval()
    scaler = StandardScaler().fit(
        np.random.default_rng(0).normal(1.0, 2.0, size=(500, 7)))
    path = os.path.join(directory, "ettm1-h24.npz")
    save_student_artifact(path, student, config, scaler=scaler,
                          metadata={"dataset": DATASET})
    return path, config


def write_keys(directory: str) -> str:
    path = os.path.join(directory, "keys.json")
    write_keys_file(path, {API_KEY: {"tenant": "bench", "units": UNLIMITED,
                                     "rate": float(UNLIMITED),
                                     "burst": float(UNLIMITED)}})
    return path


def service_kwargs() -> dict:
    """What the CLI passes: the compiled engine at its default float32.

    ``engine=`` is passed only while the constructor still takes it.
    """
    kwargs = {"max_batch": MAX_BATCH}
    if "engine" in inspect.signature(ForecastService.__init__).parameters:
        kwargs["engine"] = "compiled"
    return kwargs


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operation accounting shared by every workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.fail(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)
