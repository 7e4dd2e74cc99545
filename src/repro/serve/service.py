"""Batched student serving: LRU model registry + micro-batching queue.

:class:`ForecastService` is the process-level serving layer the ROADMAP
north-star asks for: it lazily loads student artifact bundles from a
directory, keeps at most ``max_models`` of them resident (LRU), and
coalesces concurrent single-window requests for the same model into one
batched forward of that model's :class:`repro.infer.CompiledStudent`.
The student is batch-independent (RevIN is per-instance, every matmul
runs the same per-slice GEMM) and the compiled engine is bitwise equal
to ``StudentModel.predict``, so a coalesced forward is *bitwise
identical* to batch-1 module inference — only faster, because B
windows share one pass of Python/layer overhead.

One drain thread serves every model, one batch at a time, in FIFO
order per model.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from ..infer import CompiledStudent
from .artifact import (
    ArtifactError,
    StudentArtifact,
    load_student_artifact,
    read_artifact_info,
)

__all__ = ["ForecastService", "ServiceStats", "scan_artifact_dir"]


def scan_artifact_dir(artifact_dir: str) -> dict[tuple[str, int], str]:
    """Index a directory of ``.npz`` student bundles by ``(dataset, horizon)``.

    Two bundles claiming the same key keep the lexicographically last
    path (stable, and re-scans pick up replacements); unreadable files
    are skipped — a half-written bundle must not take a service down.
    Shared by :class:`ForecastService` and the shard router, so every
    worker of a sharded runtime sees the identical registry.
    """
    paths: dict[tuple[str, int], str] = {}
    if os.path.isdir(artifact_dir):
        for name in sorted(os.listdir(artifact_dir)):
            if not name.endswith(".npz"):
                continue
            path = os.path.join(artifact_dir, name)
            try:
                config, metadata = read_artifact_info(path)
            except ArtifactError:
                continue
            key = (str(metadata.get("dataset", "")), config.horizon)
            paths[key] = path
    return paths


@dataclass
class ServiceStats:
    """Counters exposed for benchmarks and monitoring (O(1) space).

    The ``plan_*`` fields aggregate the compiled engines' shape-plan
    caches across the *resident* models: ``plan_rebuilds`` counts full
    polymorphic compiles (scratch
    allocation + probe), while hits/misses/evictions track the cheap
    per-batch-size view bindings.  A healthy steady state shows
    rebuilds frozen at one per model and hits dwarfing misses.
    """

    requests: int = 0
    batches: int = 0
    served: int = 0
    max_coalesced: int = 0
    loads: int = 0
    evictions: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    plan_rebuilds: int = 0
    #: Instantaneous gauges (not counters): requests still queued and
    #: requests popped into a running batch whose future is unresolved.
    #: The admission layer (repro.gateway) reads these to shed load
    #: before a saturated queue grows unboundedly.
    queue_depth: int = 0
    in_flight: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "served": self.served,
            "max_coalesced": self.max_coalesced,
            "loads": self.loads,
            "evictions": self.evictions,
            "mean_batch": self.served / self.batches if self.batches else 0.0,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_evictions": self.plan_evictions,
            "plan_rebuilds": self.plan_rebuilds,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceStats":
        """Rebuild counters from :meth:`as_dict` output.

        Derived fields (``mean_batch``) and unknown keys are ignored, so
        snapshots from newer builds still restore what this one knows.
        """
        fields = {name: int(payload[name]) for name in (
            "requests", "batches", "served", "max_coalesced",
            "loads", "evictions") if name in payload}
        return cls(**fields)

    @classmethod
    def merge(cls, parts: list["ServiceStats"]) -> "ServiceStats":
        """Fold per-shard counters into one cluster view.

        Additive fields sum; ``max_coalesced`` takes the maximum (it is
        a high-water mark, not a count).  The result reads exactly like
        a single service's stats, so monitoring does not care whether a
        deployment is sharded.
        """
        merged = cls()
        for part in parts:
            merged.requests += part.requests
            merged.batches += part.batches
            merged.served += part.served
            merged.loads += part.loads
            merged.evictions += part.evictions
            merged.plan_hits += part.plan_hits
            merged.plan_misses += part.plan_misses
            merged.plan_evictions += part.plan_evictions
            merged.plan_rebuilds += part.plan_rebuilds
            merged.queue_depth += part.queue_depth
            merged.in_flight += part.in_flight
            merged.max_coalesced = max(merged.max_coalesced,
                                       part.max_coalesced)
        return merged


class _Request:
    __slots__ = ("history", "raw_values", "future")

    def __init__(self, history: np.ndarray, raw_values: bool):
        self.history = history
        self.raw_values = raw_values
        self.future: Future = Future()


class _LoadedModel:
    __slots__ = ("artifact", "compiled")

    def __init__(self, artifact: StudentArtifact, compiled: CompiledStudent):
        self.artifact = artifact
        self.compiled = compiled


class ForecastService:
    """Serve student forecasts from a directory of artifact bundles.

    Parameters
    ----------
    artifact_dir:
        Directory scanned for ``.npz`` student bundles.  Each bundle is
        indexed by its ``(dataset, horizon)`` key; two bundles claiming
        the same key keep the lexicographically last path (stable, and
        re-scans pick up replacements).
    max_models:
        Resident-model cap; least-recently-used bundles are evicted.
    max_batch:
        Upper bound on how many queued requests one forward coalesces.
        Each model's :class:`repro.infer.CompiledStudent` is built at
        load time with this as its batch capacity, so the serve path
        never recompiles: every coalesced batch size binds views of the
        one load-time plan.

    Requests enter through :meth:`submit` (returns a
    :class:`~concurrent.futures.Future`) or the blocking :meth:`predict`.
    A drain loop batches everything pending per model into one forward,
    so N concurrent clients cost one pass of layer overhead instead of N.
    """

    #: Lock discipline, machine-checked by ``repro lint``: ``_wake`` is
    #: a Condition wrapping ``_lock``, so holding either guards the
    #: shared state.
    GUARDED_BY = {
        "stats": ("_lock", "_wake"),
        "_paths": ("_lock", "_wake"),
        "_resolved": ("_lock", "_wake"),
        "_models": ("_lock", "_wake"),
        "_pending": ("_lock", "_wake"),
        "_queue_depth": ("_lock", "_wake"),
        "_in_flight": ("_lock", "_wake"),
        "_paused": ("_lock", "_wake"),
        "_closed": ("_lock", "_wake"),
    }

    #: Serializes bundle loads across every service in the process.
    _load_lock = threading.Lock()

    def __init__(self, artifact_dir: str, max_models: int = 4,
                 max_batch: int = 64):
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.artifact_dir = artifact_dir
        self.max_models = int(max_models)
        self.max_batch = int(max_batch)
        self.stats = ServiceStats()

        self._paths: dict[tuple[str, int], str] = {}
        #: ``(dataset, horizon)`` → the key it resolved to; ``scan()``
        #: empties it.
        self._resolved: dict = {}
        self._models: OrderedDict[tuple[str, int], _LoadedModel] = OrderedDict()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: OrderedDict[tuple[str, int], list[_Request]] = OrderedDict()
        # Live gauges (see ServiceStats.queue_depth / in_flight).
        self._queue_depth = 0
        self._in_flight = 0
        self._paused = False
        self._closed = False
        self.scan()
        self._worker = threading.Thread(
            target=self._serve_loop, name="forecast-service", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def scan(self) -> dict[tuple[str, int], str]:
        """(Re)index the artifact directory; returns the key → path map."""
        paths = scan_artifact_dir(self.artifact_dir)
        with self._lock:
            self._paths = paths
            self._resolved = {}
        return dict(paths)

    def keys(self) -> list[tuple[str, int]]:
        with self._lock:
            return list(self._paths)

    def path_for(self, key: tuple[str, int]) -> str:
        """Bundle path registered for ``key``."""
        with self._lock:
            path = self._paths.get(key)
        if path is None:
            raise KeyError(f"no artifact registered for {key!r}")
        return path

    def resolve_key(self, dataset: str | None = None,
                    horizon: int | None = None) -> tuple[str, int]:
        """The registry key serving ``(dataset, horizon)``; ``None``
        matches anything, so one bundle answers ``(None, None)``.

        A resolved pair is remembered until the next :meth:`scan`, so
        every tick and submit after the first is one dict lookup.
        Raises ``KeyError`` when no bundle or several bundles match.
        """
        with self._lock:
            key = self._resolved.get((dataset, horizon))
            if key is None:
                key = self._match(dataset, horizon)
                self._resolved[(dataset, horizon)] = key
        return key

    # requires-lock: _lock
    def _match(self, dataset, horizon) -> tuple[str, int]:
        keys = list(self._paths)
        if dataset is None and horizon is None and len(keys) == 1:
            return keys[0]
        matches = [k for k in keys
                   if (dataset is None or k[0] == dataset)
                   and (horizon is None or k[1] == horizon)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(
                f"no artifact for dataset={dataset!r} horizon={horizon!r} "
                f"in {self.artifact_dir!r}; available: {sorted(keys)}")
        raise KeyError(
            f"ambiguous request dataset={dataset!r} horizon={horizon!r}; "
            f"matches {sorted(matches)} — pass both dataset and horizon")

    def config_for(self, key: tuple[str, int]):
        """Resolved :class:`TimeKDConfig` of the bundle behind ``key``.

        Loads the model lazily (it is about to be used anyway), so the
        config and the served weights always come from the same bundle.
        """
        return self._get_model(key).artifact.config

    def snapshot(self) -> ServiceStats:
        """Consistent copy of the counters.

        The drain thread mutates :attr:`stats` under the service lock;
        reading the live dataclass field-by-field can interleave with a
        batch completing.  ``snapshot()`` copies everything under the
        same lock and folds in the resident compiled engines' plan-cache
        counters, so derived values (like ``mean_batch``) are computed
        from one coherent state.
        """
        with self._lock:
            stats = replace(self.stats)
            stats.queue_depth = self._queue_depth
            stats.in_flight = self._in_flight
            engines = [m.compiled for m in self._models.values()]
        for engine in engines:
            plan = engine.plan_stats()
            stats.plan_hits += plan["hits"]
            stats.plan_misses += plan["misses"]
            stats.plan_evictions += plan["evictions"]
            stats.plan_rebuilds += plan["rebuilds"]
        return stats

    def queue_depth(self) -> int:
        """Requests accepted by :meth:`submit` but not yet popped into a
        batch.  A gauge, not a counter — safe to poll at request rate."""
        with self._lock:
            return self._queue_depth

    def in_flight(self) -> int:
        """Requests popped into a running batch whose future has not
        resolved yet (the work the drain loop is committed to)."""
        with self._lock:
            return self._in_flight

    def pressure(self) -> tuple[int, int]:
        """One consistent ``(queue_depth, in_flight)`` reading.

        The admission controller needs both gauges from the same
        instant — reading them through two lock acquisitions could see
        a batch counted twice (still queued in one read, already in
        flight in the next) and over-shed at the boundary.
        """
        with self._lock:
            return self._queue_depth, self._in_flight

    def restore_stats(self, payload: dict) -> None:
        """Fold a recovered snapshot's service counters into this process.

        Counters are cumulative across incarnations: additive fields
        merge by addition and ``max_coalesced`` by maximum, so a
        monitoring pipeline sees one continuous history over a crash.
        ``plan_*`` counters are skipped — they are derived live from the
        resident engines' caches and restoring stale ones would double
        count.
        """
        restored = ServiceStats.from_dict(payload)
        with self._lock:
            self.stats.requests += restored.requests
            self.stats.batches += restored.batches
            self.stats.served += restored.served
            self.stats.loads += restored.loads
            self.stats.evictions += restored.evictions
            self.stats.max_coalesced = max(
                self.stats.max_coalesced, restored.max_coalesced)

    def _cached_model(self, key: tuple[str, int]) -> _LoadedModel | None:
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
            return model

    def _get_model(self, key: tuple[str, int]) -> _LoadedModel:
        """Fetch (loading lazily, LRU-evicting) the model for ``key``."""
        model = self._cached_model(key)
        if model is not None:
            return model
        # Misses load one at a time and re-check the cache first, so a
        # burst of cold requests reads and compiles each bundle once.
        # The lock is process-wide because np.load parses .npy headers
        # with ``ast``, and on CPython 3.11 two threads inside ``ast``
        # at once can raise SystemError.
        with self._load_lock:
            model = self._cached_model(key)
            if model is not None:
                return model
            with self._lock:
                path = self._paths.get(key)
            if path is None:
                raise KeyError(f"no artifact registered for {key!r}")
            artifact = load_student_artifact(path)
            student = artifact.build_student()
            # max_batch doubles as the engine's batch capacity: the one
            # compile stall happens here, at load time, and no coalesced
            # batch size can ever trigger a rebuild on the request path.
            model = _LoadedModel(
                artifact, CompiledStudent(student, max_batch=self.max_batch))
            with self._lock:
                self._models[key] = model
                self.stats.loads += 1
                while len(self._models) > self.max_models:
                    self._models.popitem(last=False)
                    self.stats.evictions += 1
        return model

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, history: np.ndarray, dataset: str | None = None,
               horizon: int | None = None,
               raw_values: bool = False) -> Future:
        """Enqueue one ``(H, N)`` window; resolves to a ``(M, N)`` forecast.

        ``raw_values=True`` treats the window as unscaled data: the
        bundled scaler z-scales it on the way in and inverse-transforms
        the forecast on the way out.
        """
        key = self.resolve_key(dataset, horizon)
        model = self._get_model(key)
        config = model.artifact.config
        history = np.asarray(history, dtype=np.float32)
        expected = (config.history_length, config.num_variables)
        if history.shape != expected:
            raise ValueError(
                f"request window for {key!r} must have shape {expected}, "
                f"got {history.shape}")
        if raw_values and model.artifact.scaler is None:
            raise ValueError(
                f"artifact for {key!r} was saved without a scaler; "
                "raw-value requests are unavailable")
        request = _Request(history, raw_values)
        with self._wake:
            if self._closed:
                raise RuntimeError("ForecastService is closed")
            self._pending.setdefault(key, []).append(request)
            self.stats.requests += 1
            self._queue_depth += 1
            self._wake.notify()
        return request.future

    def predict(self, history: np.ndarray, dataset: str | None = None,
                horizon: int | None = None,
                raw_values: bool = False) -> np.ndarray:
        """Blocking single-window convenience around :meth:`submit`."""
        return self.submit(history, dataset=dataset, horizon=horizon,
                           raw_values=raw_values).result()

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Hold the worker so queued requests accumulate (benchmarking)."""
        with self._wake:
            self._paused = True

    def resume(self) -> None:
        with self._wake:
            self._paused = False
            self._wake.notify_all()

    def _serve_loop(self) -> None:
        while True:
            with self._wake:
                while (self._paused or not self._pending) and not self._closed:
                    self._wake.wait()
                if not self._pending:
                    return  # closed and drained
                # One batch from the first pending key.  A key keeps its
                # place until its queue empties, so one model's requests
                # run in FIFO order.
                key, queue = next(iter(self._pending.items()))
                batch = queue[: self.max_batch]
                del queue[: len(batch)]
                if not queue:
                    del self._pending[key]
                self.stats.batches += 1
                self.stats.served += len(batch)
                self.stats.max_coalesced = max(
                    self.stats.max_coalesced, len(batch))
                self._queue_depth -= len(batch)
                self._in_flight += len(batch)
            self._run_guarded(key, batch)

    def _run_guarded(self, key: tuple[str, int],
                     batch: list[_Request]) -> None:
        try:
            self._run_batch(key, batch)
        except BaseException as error:  # noqa: BLE001 — fail futures
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
        finally:
            # Every future in the batch is resolved (result or error) by
            # this point, so the requests leave the in-flight gauge.
            with self._lock:
                self._in_flight -= len(batch)

    def _run_batch(self, key: tuple[str, int], batch: list[_Request]) -> None:
        model = self._get_model(key)
        scaler = model.artifact.scaler
        histories = []
        for request in batch:
            window = request.history
            if request.raw_values:
                window = scaler.transform(window).astype(np.float32)
            histories.append(window)
        predictions = model.compiled.predict(np.stack(histories))
        for request, prediction in zip(batch, predictions):
            if request.raw_values:
                prediction = scaler.inverse_transform(prediction)
            request.future.set_result(prediction)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker after draining already-queued requests."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._worker.join()

    def __enter__(self) -> "ForecastService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
