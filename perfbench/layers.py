"""Which public call into each ``src/repro`` layer gets a span.

Serving layers (gateway policy, serve, infer, shard, stream, durable)
and training layers (core, llm, nn, eval) are patched separately, so a
workload only wraps the calls it can reach.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core import distill as core_distill
from repro.core import trainer as core_trainer
from repro.core.store import EmbeddingStore
from repro.core.student import StudentModel
from repro.core.teacher import CrossModalityTeacher
from repro.core.trainer import TimeKDTrainer
from repro.durable import recover as durable_recover
from repro.durable.shard import ShardedRecoverer
from repro.durable.snapshot import StreamSnapshotter
from repro.durable.wal import TickWAL
from repro.gateway.admission import AdmissionController
from repro.gateway.app import Gateway
from repro.gateway.meter import TenantAccount, TokenBucket, UnitReservation
from repro.infer import CompiledStudent
from repro.nn.optim import AdamW
from repro.nn.tensor import Tensor
from repro.serve import ForecastService
from repro.shard.ring import HashRing
from repro.stream.forecaster import StreamingForecaster
from repro.stream.ingest import StreamIngestor

from tracer import Tracer, per_call

#: Spans that make up the gateway's policy decision for one request.
POLICY = ("gateway.authenticate", "policy.admit", "policy.reserve",
          "policy.rate", "policy.settle")
#: Spans nested inside one ``Gateway.ingest`` call, besides policy.
INGEST_CHILDREN = ("shard.ring.lookup", "stream.ingest.append",
                   "stream.forecaster.append", "durable.wal.append",
                   "serve.submit", "durable.snapshot.checkpoint")
FIT_SPANS = ("core.trainer.prepare", "llm.encode", "core.store.gather",
             "core.teacher.forward", "core.student.forward",
             "core.distill.pkd", "nn.backward", "nn.optim.step",
             "eval.validate")


class ServingProbes:
    """Counters the serving spans feed, beyond calls and seconds."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.lock = threading.Lock()
        self.queue_waits: list[float] = []
        self.windows = 0
        self.forward_request_s = 0.0
        self.engines: dict[int, CompiledStudent] = {}
        self.wal_bytes = 0
        self.checkpoint_bytes = 0
        self.shard_ticks: dict[int, int] = {}

    # -- hooks ---------------------------------------------------------
    def after_submit(self, args, future, token) -> None:
        if future.done():
            return
        submitted = time.perf_counter()

        def served(_):
            # Runs on the thread that resolved the future, right after
            # the forward that served it: that span started last there.
            start = self.tracer.last_start()
            if start is not None:
                self.queue_waits.append(max(0.0, start - submitted))

        future.add_done_callback(served)

    def after_forward(self, args, result, token) -> None:
        engine, histories = args[0], args[1]
        batch = len(histories)
        elapsed = time.perf_counter() - self.tracer.last_start()
        with self.lock:
            self.windows += batch
            self.forward_request_s += elapsed * batch
            self.engines[id(engine)] = engine

    @staticmethod
    def before_wal(args):
        return getattr(args[0], "durable_size", None)

    def after_wal(self, args, result, before) -> None:
        after = getattr(args[0], "durable_size", None)
        if before is not None and after is not None:
            self.wal_bytes += after - before

    def after_checkpoint(self, args, path, token) -> None:
        if isinstance(path, str) and os.path.exists(path):
            self.checkpoint_bytes += os.path.getsize(path)

    def after_lookup(self, args, shard, token) -> None:
        with self.lock:
            self.shard_ticks[shard] = self.shard_ticks.get(shard, 0) + 1


def install_serving(tracer: Tracer) -> ServingProbes:
    probes = ServingProbes(tracer)
    tracer.patch(Gateway, "authenticate", "gateway.authenticate")
    tracer.patch(Gateway, "predict", "gateway.predict")
    tracer.patch(AdmissionController, "admit", "policy.admit")
    tracer.patch(TenantAccount, "reserve", "policy.reserve")
    tracer.patch(TokenBucket, "try_acquire", "policy.rate")
    for settle in ("commit", "release", "split"):
        tracer.patch(UnitReservation, settle, "policy.settle")
    tracer.patch(ForecastService, "submit", "serve.submit",
                 after=probes.after_submit)
    tracer.patch(CompiledStudent, "predict", "infer.forward",
                 after=probes.after_forward)
    tracer.patch(HashRing, "shard_for", "shard.ring.lookup",
                 after=probes.after_lookup)
    tracer.patch(StreamIngestor, "append", "stream.ingest.append")
    tracer.patch(StreamingForecaster, "append", "stream.forecaster.append")
    tracer.patch(TickWAL, "append", "durable.wal.append",
                 before=probes.before_wal, after=probes.after_wal)
    tracer.patch(StreamSnapshotter, "checkpoint",
                 "durable.snapshot.checkpoint", after=probes.after_checkpoint)
    tracer.patch(durable_recover, "locate_chain", "durable.recover.locate")
    tracer.patch(durable_recover, "verify_chain", "durable.recover.verify")
    tracer.patch(ShardedRecoverer, "recover", "durable.recover")
    return probes


def serving_metrics(tracer: Tracer, probes: ServingProbes,
                    operations: int) -> dict:
    """Serve/infer/shard/stream/durable metrics of the traced phase.

    Times are self times per call; ``gateway.app.policy_us`` is the
    policy spans' time per operation (one request or one append).
    """
    forwards = tracer.count("infer.forward")
    forward_s = tracer.total_s("infer.forward")
    ticks = sorted(probes.shard_ticks.values())
    plans = [engine.plan_stats() for engine in probes.engines.values()
             if hasattr(engine, "plan_stats")]
    wal_appends = tracer.count("durable.wal.append")
    checkpoints = tracer.count("durable.snapshot.checkpoint")
    waits = probes.queue_waits
    return {
        "gateway.app.policy_us":
            tracer.total_s(*POLICY) / max(operations, 1) * 1e6,
        "serve.submit_us": per_call(tracer, "serve.submit"),
        "serve.queue_wait_us": sum(waits) / len(waits) * 1e6 if waits else 0.0,
        "serve.mean_batch": probes.windows / forwards if forwards else 0.0,
        "serve.batches": forwards,
        "infer.forward_us": per_call(tracer, "infer.forward"),
        "infer.windows_per_busy_s":
            probes.windows / forward_s if forward_s else 0.0,
        # Cumulative since each engine was loaded (compiles included).
        "infer.plan_rebuilds": sum(plan.get("rebuilds", 0) for plan in plans),
        "infer.plan_misses": sum(plan.get("misses", 0) for plan in plans),
        "shard.ring.lookup_us": per_call(tracer, "shard.ring.lookup"),
        "shard.skew": (ticks[-1] / (sum(ticks) / len(ticks))
                       if ticks else 0.0),
        "stream.ingest.append_us": per_call(tracer, "stream.ingest.append"),
        "stream.forecaster.append_self_us":
            per_call(tracer, "stream.forecaster.append"),
        "stream.ticks": tracer.count("stream.forecaster.append"),
        "stream.forecasts":
            tracer.count("serve.submit", "stream.forecaster.append"),
        "durable.wal.append_us": per_call(tracer, "durable.wal.append"),
        "durable.wal.bytes_per_tick":
            probes.wal_bytes / wal_appends if wal_appends else 0.0,
        "durable.snapshot.checkpoint_ms":
            per_call(tracer, "durable.snapshot.checkpoint", 1e3),
        "durable.snapshot.checkpoints": checkpoints,
        "durable.snapshot.bytes":
            probes.checkpoint_bytes / checkpoints if checkpoints else 0.0,
    }


def install_fit(tracer: Tracer) -> None:
    tracer.patch(TimeKDTrainer, "prepare_embeddings", "core.trainer.prepare")
    tracer.patch(CrossModalityTeacher, "encode_prompts", "llm.encode")
    tracer.patch(EmbeddingStore, "get_batch", "core.store.gather")
    tracer.patch(CrossModalityTeacher, "forward", "core.teacher.forward")
    tracer.patch(StudentModel, "forward", "core.student.forward")
    # The trainer calls the name it imported; patch both bindings.
    tracer.patch(core_trainer, "pkd_loss", "core.distill.pkd")
    tracer.patch(core_distill, "pkd_loss", "core.distill.pkd")
    tracer.patch(Tensor, "backward", "nn.backward")
    tracer.patch(AdamW, "step", "nn.optim.step")
    tracer.patch(TimeKDTrainer, "evaluate", "eval.validate")
