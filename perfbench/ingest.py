"""ingest-fleet: closed-loop scrape rounds through ``Gateway.ingest``.

Each round sends one tick to every series of the fleet through the
in-process gateway over a 2-worker ``ShardRouter`` and then waits for
the forecasts that round triggered.  Every series is warmed to one row
short of a full window, so with cadence 4 one round in four re-forecasts
the whole fleet and the other three are pure ingest.  A
``ShardedSnapshotter`` keeps the WAL on and checkpoints every few rounds;
the run ends with a timed ``ShardedRecoverer.recover`` into a fresh
router.  No HTTP traffic: this is the write path.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.durable import ShardedRecoverer, ShardedSnapshotter
from repro.gateway import ApiKeyRegistry, Gateway
from repro.serve.artifact import load_student_artifact
from repro.shard import ShardRouter

import layers
from stack import (
    API_KEY,
    Outcome,
    make_artifact,
    peak_rss_mb,
    percentile,
    service_kwargs,
    write_keys,
)
from tracer import Tracer

#: Layer prefixes this workload reports; the others read 0 (bypassed).
REPORTS = ("gateway.app", "serve", "infer", "shard", "stream", "durable",
           "trace")
SERIES = 1024
WORKERS = 2
CADENCE = 4
SETUPS = 5
#: Distinct tick rows per series, cycled through by the rounds.
POOL_ROUNDS = 64
#: Each shard checkpoints after about this many rounds of its ticks.
CHECKPOINT_ROUNDS = 8
#: Rounds logged after the final checkpoint, replayed by recovery.
TAIL_ROUNDS = 4
#: Rounds per measurement window: two re-forecast rounds and about one
#: checkpoint per shard.
WINDOW_ROUNDS = 8
#: Series compared with the oracle after every re-forecast round.
SAMPLES = 8


class _Stack:
    """Router → gateway → sharded forecaster with WAL + snapshots."""

    def __init__(self, artifact_dir: str, keys_path: str, snapshot_dir: str):
        self.router = ShardRouter(artifact_dir, workers=WORKERS,
                                  **service_kwargs())
        try:
            # Room for a whole fleet's re-forecasts in flight at once.
            self.gateway = Gateway(self.router, ApiKeyRegistry(keys_path),
                                   cadence=CADENCE, max_pending=4 * SERIES)
            self.forecaster = self.gateway.forecaster_for()
            self.tenant = self.gateway.authenticate(API_KEY)
            self.snapshotter = None
            if snapshot_dir is not None:
                self.snapshotter = ShardedSnapshotter(
                    self.forecaster, snapshot_dir,
                    every=SERIES // WORKERS * CHECKPOINT_ROUNDS)
        except BaseException:
            self.router.close()
            raise

    def warm(self, names, history) -> None:
        for name, rows in zip(names, history):
            response = self.gateway.ingest(self.tenant, {
                "series": name, "timestamp": 0.0, "values": rows})
            if response.status != 200:
                raise RuntimeError(f"warm ingest answered {response.status}: "
                                   f"{response.payload}")

    def close(self) -> None:
        if self.snapshotter is not None:
            self.snapshotter.close()
        self.router.close()


class _Fleet:
    """The seeded inputs: series names, warm history, tick rows."""

    def __init__(self, seed: int, config):
        rng = np.random.default_rng(seed)
        self.warm_rows = config.history_length - 1
        walks = rng.normal(size=(SERIES, self.warm_rows + POOL_ROUNDS,
                                 config.num_variables)).cumsum(axis=1)
        self.names = [f"s{index:04d}" for index in range(SERIES)]
        self.history = [walk[: self.warm_rows].tolist() for walk in walks]
        self.ticks = [[walk[self.warm_rows + r].tolist() for walk in walks]
                      for r in range(POOL_ROUNDS)]
        self.order = rng.permutation(SERIES)
        self.rng = rng


def _rounds(stack: _Stack, fleet: _Fleet, first: int, outcome: Outcome,
            oracle, tracer: Tracer, *, seconds: float | None = None,
            count: int | None = None) -> dict:
    """Drive rounds from round ``first`` for ``seconds`` or ``count``."""
    gateway, tenant = stack.gateway, stack.tenant
    appends: list[float] = []
    rounds: list[float] = []
    forecast_rounds: list[tuple[int, float]] = []
    shed = 0
    deadline = time.perf_counter() + (seconds or 0.0)
    index = first
    while (index - first < count if count is not None
           else time.perf_counter() < deadline):
        rows = fleet.ticks[index % POOL_ROUNDS]
        timestamp = float(fleet.warm_rows + index)
        triggered = []
        started = time.perf_counter()
        for series in fleet.order:
            payload = {"series": fleet.names[series],
                       "timestamp": timestamp, "values": rows[series]}
            begin = time.perf_counter()
            response = gateway.ingest(tenant, payload)
            appends.append(time.perf_counter() - begin)
            if response.status != 200:
                shed += response.status in (429, 503)
                outcome.fail(f"ingest answered {response.status}")
            elif response.payload["forecast_triggered"]:
                triggered.append(("bench", fleet.names[series]))
        for key in triggered:
            try:
                stack.forecaster.latest(key)  # waits for the forecast
            except Exception as error:  # noqa: BLE001 — counted, not fatal
                outcome.fail(f"forecast for {key} failed: {error!r}")
        rounds.append(time.perf_counter() - started)
        outcome.attempted += len(fleet.order) + len(triggered)
        if triggered:
            forecast_rounds.append((len(rounds) - 1, rounds[-1]))
            _check_forecasts(stack, fleet, outcome, oracle, tracer)
        index += 1
    return {"appends": appends, "rounds": rounds,
            "forecast_rounds": forecast_rounds, "shed": shed, "next": index}


def _check_forecasts(stack, fleet, outcome, oracle, tracer) -> None:
    """Sampled latest forecasts equal a predict on their ring window."""
    enabled, tracer.enabled = tracer.enabled, False
    try:
        for series in fleet.rng.choice(SERIES, size=SAMPLES, replace=False):
            key = ("bench", fleet.names[series])
            window = stack.forecaster.state(key).window()
            expected = oracle.predict(window.astype(np.float32)[None])[0]
            outcome.check(np.array_equal(stack.forecaster.latest(key),
                                         expected),
                          f"forecast for {key} differs from the oracle")
    finally:
        tracer.enabled = enabled


def _check_recovered(live: _Stack, recovered: _Stack, outcome) -> None:
    """The recovered universe matches the live one: seq and rings."""
    live_fc, back_fc = live.forecaster, recovered.forecaster
    outcome.check(live_fc.seq == back_fc.seq,
                  f"recovered seq {back_fc.seq} != live seq {live_fc.seq}")
    keys = sorted(live_fc.keys())
    outcome.check(keys == sorted(back_fc.keys()),
                  "recovered series differ from the live ones")
    for key in keys:
        mine, theirs = live_fc.state(key), back_fc.state(key)
        if not (mine.count == theirs.count
                and np.array_equal(mine.window(), theirs.window())):
            outcome.fail(f"recovered ring of {key} differs")
            return


def _window(rounds, appends, forecasts) -> dict:
    forecasts = forecasts or [float("nan")]
    return {"throughput_per_s": len(appends) / sum(rounds),
            "op_p50_ms": percentile(appends, 50) * 1e3,
            "op_p99_ms": percentile(appends, 99) * 1e3,
            "result_p50_ms": percentile(forecasts, 50) * 1e3,
            "result_p99_ms": percentile(forecasts, 99) * 1e3}


def _e2e(loop: dict) -> dict:
    """Each metric per window of rounds, reported as the median across
    windows: a slow second on a shared machine moves the windows it
    hits, not the reported figure."""
    rounds, appends = loop["rounds"], loop["appends"]
    windows = max(len(rounds) // WINDOW_ROUNDS, 1)
    size = len(rounds) // windows
    per_window = []
    for window in range(windows):
        first, last = window * size, (window + 1) * size
        per_window.append(_window(
            rounds[first:last], appends[first * SERIES:last * SERIES],
            [seconds for index, seconds in loop["forecast_rounds"]
             if first <= index < last]))
    return {name: float(np.nanmedian([window[name] for window in per_window]))
            for name in per_window[0]}


def _layer_metrics(tracer, probes, loop: dict, untraced: dict) -> dict:
    appends = loop["appends"]
    metrics = layers.serving_metrics(tracer, probes, len(appends))
    metrics["gateway.app.shed"] = loop["shed"]
    append_s = sum(appends)
    attributed_s = (tracer.total_s(*layers.POLICY)
                    + tracer.self_s(*layers.INGEST_CHILDREN))
    metrics["trace.unattributed_pct"] = (
        100.0 * (append_s - attributed_s) / append_s)
    metrics["trace.overhead_pct"] = (
        100.0 * (_e2e(loop)["op_p50_ms"] - untraced["op_p50_ms"])
        / untraced["op_p50_ms"])
    return metrics


def run(seed: int, seconds: float, trace: bool, workdir: str):
    outcome = Outcome()
    artifact_dir = os.path.join(workdir, "artifacts")
    artifact_path, config = make_artifact(artifact_dir)
    keys_path = write_keys(workdir)
    fleet = _Fleet(seed, config)
    oracle = load_student_artifact(artifact_path).build_student()

    with Tracer() as tracer:
        probes = layers.install_serving(tracer)
        setups = []
        for attempt in range(SETUPS):
            snapshot_dir = os.path.join(workdir, f"snapshots-{attempt}")
            start = time.perf_counter()
            stack = _Stack(artifact_dir, keys_path, snapshot_dir)
            stack.warm(fleet.names, fleet.history)
            setups.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                stack.close()
        recovered = None
        try:
            run_args = (stack, fleet, 0, outcome, oracle, tracer)
            if trace:
                first = _rounds(*run_args, seconds=seconds / 2)
                tracer.enabled = True
                loop = _rounds(stack, fleet, first["next"], outcome, oracle,
                               tracer, seconds=seconds / 2)
                tracer.enabled = False
                metrics = _layer_metrics(tracer, probes, loop, _e2e(first))
                tracer.reset()
            else:
                loop = _rounds(*run_args, seconds=seconds)
                metrics = _e2e(loop)

            stack.snapshotter.checkpoint()
            _rounds(stack, fleet, loop["next"], outcome, oracle, tracer,
                    count=TAIL_ROUNDS)
            stack.snapshotter.close()
            recovered = _Stack(artifact_dir, keys_path, None)
            tracer.enabled = trace
            state = ShardedRecoverer().recover(snapshot_dir,
                                               recovered.forecaster)
            tracer.enabled = False
            outcome.check(state.failure_reason is None,
                          f"recovery failed: {state.failure_reason}")
            _check_recovered(stack, recovered, outcome)
        finally:
            if recovered is not None:
                recovered.close()
            stack.close()

    if trace:
        locate = tracer.total_s("durable.recover.locate")
        verify = tracer.total_s("durable.recover.verify")
        metrics["durable.recover.locate_ms"] = locate * 1e3
        metrics["durable.recover.verify_ms"] = verify * 1e3
        metrics["durable.recover.import_ms"] = (
            tracer.total_s("durable.recover") - locate - verify) * 1e3
        return outcome, metrics
    metrics["setup_s"] = float(np.median(setups))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome, metrics
