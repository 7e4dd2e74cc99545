"""predict-keepalive: closed-loop HTTP predicts on persistent connections.

Two client threads each hold one ``http.client`` connection to a
``GatewayServer`` over an unsharded ``ForecastService`` and send
``POST /v1/predict`` with one window, waiting for each answer before
sending the next.  This is the path a deployment sees; it does no
stream, WAL, shard or training work.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import numpy as np

from repro.gateway import ApiKeyRegistry, Gateway, GatewayServer
from repro.serve import ForecastService
from repro.serve.artifact import load_student_artifact

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
REPORTS = ("gateway", "serve", "infer", "trace")
CLIENTS = 2
WINDOWS = 64
SETUPS = 9
#: Every n-th answer per client is compared bitwise with the oracle.
CHECK_EVERY = 8
TIMEOUT_S = 30.0
HEADERS = {"Authorization": f"Bearer {API_KEY}",
           "Content-Type": "application/json"}


class _Connection(http.client.HTTPConnection):
    """Counts the sockets it opens, so keep-alive reuse is measured."""

    opened = 0

    def connect(self):
        super().connect()
        self.opened += 1


class _Stack:
    """Service → gateway → HTTP server, warmed by one request."""

    def __init__(self, artifact_dir: str, keys_path: str, body: bytes):
        self.service = ForecastService(artifact_dir, **service_kwargs())
        self.gateway = Gateway(self.service, ApiKeyRegistry(keys_path))
        self.server = GatewayServer(self.gateway).start()
        connection = _Connection(self.server.host, self.server.port,
                                 timeout=TIMEOUT_S)
        try:
            connection.request("POST", "/v1/predict", body, HEADERS)
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(
                    f"warm-up predict answered {response.status}")
        finally:
            connection.close()

    def close(self) -> None:
        self.server.close()
        self.service.close()


def _closed_loop(stack: _Stack, bodies, expected, seconds: float,
                 outcome: Outcome) -> dict:
    """Run the clients for ``seconds``; returns latencies and counts."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    connections = [_Connection(stack.server.host, stack.server.port,
                               timeout=TIMEOUT_S) for _ in range(CLIENTS)]
    outcomes = [Outcome() for _ in range(CLIENTS)]
    shed = [0] * CLIENTS
    sent_by = [0] * CLIENTS
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        connection, mine = connections[index], outcomes[index]
        sent = 0
        while time.perf_counter() < deadline:
            window = (index * WINDOWS // CLIENTS + sent) % WINDOWS
            sent += 1
            sent_by[index] = sent
            mine.attempted += 1
            start = time.perf_counter()
            try:
                connection.request("POST", "/v1/predict", bodies[window],
                                   HEADERS)
                response = connection.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                mine.fail(f"predict transport error: {error!r}")
                continue
            elapsed = time.perf_counter() - start
            if response.status != 200:
                shed[index] += response.status in (429, 503)
                mine.fail(f"predict answered {response.status}")
                continue
            latencies[index].append(elapsed)
            forecast = json.loads(payload)["forecast"]
            if sent % CHECK_EVERY == 0:
                mine.check(np.array_equal(
                    np.asarray(forecast, dtype=np.float32), expected[window]),
                    "HTTP forecast differs from StudentModel.predict")

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for connection in connections:
        connection.close()
    for mine in outcomes:
        outcome.attempted += mine.attempted
        outcome.failed += mine.failed
        outcome.problems.extend(mine.problems[:2])
    merged = [value for client_latencies in latencies
              for value in client_latencies]
    return {"latencies": merged, "wall": wall,
            "sent": sum(sent_by),
            "opened": sum(c.opened for c in connections),
            "shed": sum(shed)}


def _e2e(loop: dict) -> dict:
    latencies = loop["latencies"] or [float("nan")]
    p50 = percentile(latencies, 50) * 1e3
    p99 = percentile(latencies, 99) * 1e3
    # The response carries the forecast, so the result is in hand when
    # the call returns: result latency equals call latency here.
    return {"throughput_per_s": len(loop["latencies"]) / loop["wall"],
            "op_p50_ms": p50, "op_p99_ms": p99,
            "result_p50_ms": p50, "result_p99_ms": p99}


def run(seed: int, seconds: float, trace: bool, workdir: str):
    outcome = Outcome()
    artifact_dir = os.path.join(workdir, "artifacts")
    artifact_path, config = make_artifact(artifact_dir)
    keys_path = write_keys(workdir)
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(WINDOWS, config.history_length,
                               config.num_variables)).astype(np.float32)
    bodies = [json.dumps({"history": window.tolist()}).encode("utf-8")
              for window in windows]
    oracle = load_student_artifact(artifact_path).build_student()
    expected = [oracle.predict(window[None])[0] for window in windows]

    with Tracer() as tracer:
        probes = layers.install_serving(tracer)
        setups = []
        for attempt in range(SETUPS):
            start = time.perf_counter()
            stack = _Stack(artifact_dir, keys_path, bodies[0])
            setups.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                stack.close()
        try:
            if not trace:
                loop = _closed_loop(stack, bodies, expected, seconds, outcome)
                metrics = _e2e(loop)
                metrics["setup_s"] = float(np.median(setups))
                metrics["peak_rss_mb"] = peak_rss_mb()
                return outcome, metrics
            untraced = _e2e(_closed_loop(stack, bodies, expected,
                                         seconds / 2, outcome))
            tracer.enabled = True
            loop = _closed_loop(stack, bodies, expected, seconds / 2, outcome)
            tracer.enabled = False
        finally:
            stack.close()
        requests = len(loop["latencies"])
        metrics = layers.serving_metrics(tracer, probes, requests)
        # Sums over requests: the client's round trips, and what each
        # layer held them for (a shared forward counts once per window).
        round_trip_s = sum(loop["latencies"])
        server_self_s = round_trip_s - tracer.total_s(
            "gateway.authenticate", "gateway.predict")
        attributed_s = (server_self_s + tracer.total_s(*layers.POLICY)
                        + tracer.total_s("serve.submit")
                        + sum(probes.queue_waits) + probes.forward_request_s)
        metrics["gateway.server.self_us"] = server_self_s / requests * 1e6
        metrics["gateway.server.requests_per_connection"] = (
            loop["sent"] / max(loop["opened"], 1))
        metrics["gateway.app.shed"] = loop["shed"]
        metrics["trace.unattributed_pct"] = (
            100.0 * (round_trip_s - attributed_s) / round_trip_s)
        metrics["trace.overhead_pct"] = (
            100.0 * (_e2e(loop)["op_p50_ms"] - untraced["op_p50_ms"])
            / untraced["op_p50_ms"])
        return outcome, metrics
