"""Command-line interface for training, serving and forecasting TimeKD.

Usage::

    python -m repro.cli train --dataset ETTm1 --horizon 24 \
        --out artifacts/models/ettm1_h24.npz
    python -m repro.cli evaluate --dataset ETTm1 \
        --artifact artifacts/models/ettm1_h24.npz
    python -m repro.cli predict --artifact artifacts/models/ettm1_h24.npz \
        --dataset ETTm1 --raw
    python -m repro.cli serve --artifacts artifacts/models \
        --dataset ETTm1 --horizon 24 --requests 64
    python -m repro.cli stream --artifacts artifacts/models \
        --dataset ETTm1 --horizon 24 --ticks 200 --verify
    python -m repro.cli gateway --artifacts artifacts/models \
        --keys keys.json --port 8080
    python -m repro.cli compare --dataset Exchange --horizon 24 \
        --models TimeKD iTransformer
    python -m repro.cli lint --strict --format json

``train --out`` writes a self-contained student artifact bundle
(weights + config + scaler + provenance); ``evaluate``/``predict``/
``serve``/``stream``/``gateway`` restore students from bundles without
ever constructing a trainer or pretraining a CLM, and all of them run
the tape-free :mod:`repro.infer` forward — bitwise identical to
``StudentModel.predict`` and several times faster per window.

``serve``, ``stream`` and ``gateway`` run one topology: ``--workers
N`` (default 1) shared-nothing shard workers (each with its own model
registry, micro-batch queue and drain thread) behind a deterministic
consistent-hash router (``--shard-vnodes`` tunes ring balance when
N > 1).  Sharding never changes a forecast — an N-worker replay is
bitwise identical to the 1-worker run, so ``--verify`` holds at any
worker count.

``stream`` can persist its online state: ``--snapshot-dir`` keeps one
chain per shard — ``snapshot-{shard}-{seq}.npz`` plus the
``wal-{shard}-{seq}.log`` per-tick WAL after it (``--snapshot-every
N`` checkpoints periodically, graceful shutdown and completion write
a final one) — and ``--resume`` recovers from them: forecasts after a
kill/resume are bitwise identical to an uninterrupted run.  A
directory that already holds chains is refused without ``--resume``.
``--resume`` under a different ``--workers`` reshards the recovered
state through the ring, then re-anchors the directory on the new ring
and prunes the superseded files.  ``--resume`` reads only the formats
and file names this build writes and refuses anything older.

``gateway`` fronts the same serving stack with a multi-tenant HTTP
server (see :mod:`repro.gateway`): API keys from a hot-reloadable
``--keys`` file, per-tenant unit metering and token-bucket rate
limits, and queue-depth admission control.  SIGINT/SIGTERM drain
gracefully — in-flight requests finish, per-tenant usage counters are
persisted to ``--snapshot-dir`` (restored on the next start), and
``--stats-out`` is written even on abnormal exit.

``lint`` runs the repo's static invariant checks (:mod:`repro.analyze`)
over the given paths (default: the installed ``repro`` package): lock
discipline, atomic writes, dtype hygiene, fail-closed recovery,
monotonic clocks and thread lifecycles.  Exit code 0 means clean, 1
means findings (warnings fail only under ``--strict``), 2 means a usage
error; ``--format json`` and ``--output`` feed CI.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import time

import numpy as np

from .core import TimeKDConfig, TimeKDForecaster
from .data import dataset_names, load_dataset, make_forecasting_data
from .eval import format_table
from .experiments.common import (
    ExperimentScale,
    cache_disabled,
    prepare_data,
    run_model,
    strip_private,
)
from .persist import atomic_save_array

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, choices=dataset_names())
    parser.add_argument("--horizon", type=int, default=24)
    parser.add_argument("--history", type=int, default=96)
    parser.add_argument("--length", type=int, default=None,
                        help="series length override (default per dataset)")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--d-model", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--embedding-cache", default=None, metavar="DIR",
                        help="directory for the fingerprinted CLM embedding "
                             "store; repeated runs over the same dataset and "
                             "config skip CLM re-encoding ('off' disables "
                             "persistence)")
    parser.add_argument("--no-precompute", action="store_true",
                        help="keep the lazy per-batch embedding fill instead "
                             "of encoding the whole train split up front")


def _positive_int(flag: str):
    """argparse type hook factory: fail fast on non-positive counts."""
    def parse(value: str) -> int:
        try:
            parsed = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects an integer, got {value!r}")
        if parsed < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 1, got {parsed}")
        return parsed
    return parse


def _nonneg_int(flag: str):
    """argparse type hook factory: fail fast on negative counts."""
    def parse(value: str) -> int:
        try:
            parsed = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects an integer, got {value!r}")
        if parsed < 0:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 0, got {parsed}")
        return parsed
    return parse


def _positive_float(flag: str):
    """argparse type hook factory: fail fast on non-positive values."""
    def parse(value: str) -> float:
        try:
            parsed = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} expects a number, got {value!r}")
        if parsed <= 0:
            raise argparse.ArgumentTypeError(
                f"{flag} must be > 0, got {parsed}")
        return parsed
    return parse


def _add_shard(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", default=1, metavar="N",
                        type=_positive_int("--workers"),
                        help="N shared-nothing shard workers (each with "
                             "its own model registry, micro-batch queue "
                             "and drain thread) behind a consistent-hash "
                             "router; forecasts are bitwise identical at "
                             "any worker count (default 1)")
    parser.add_argument("--shard-vnodes", default=None, metavar="V",
                        type=_positive_int("--shard-vnodes"),
                        help="virtual nodes per shard on the hash ring "
                             "(balance knob, default 64; requires "
                             "--workers > 1)")


def _check_stream_flags(parser: argparse.ArgumentParser, args) -> None:
    """Durability flags all hang off --snapshot-dir."""
    if getattr(args, "snapshot_dir", None):
        return
    for flag, name in ((getattr(args, "snapshot_every", 0),
                        "--snapshot-every"),
                       (getattr(args, "resume", False), "--resume"),
                       (getattr(args, "no_wal", False), "--no-wal")):
        if flag:
            parser.error(f"{name} requires --snapshot-dir")


def _check_shard_flags(parser: argparse.ArgumentParser, args) -> None:
    """Ring-shape flags only mean something with multiple shards."""
    if getattr(args, "shard_vnodes", None) is not None and args.workers < 2:
        parser.error(
            "--shard-vnodes requires --workers > 1 (the ring shape "
            "only matters when keys split across shards)")


def _make_service(args):
    """A :class:`repro.shard.ShardRouter` over ``--workers`` shards."""
    from .shard import DEFAULT_VNODES, ShardRouter

    return ShardRouter(args.artifacts, workers=args.workers,
                       vnodes=args.shard_vnodes or DEFAULT_VNODES,
                       max_models=args.max_models, max_batch=args.max_batch)


def _scale(args) -> ExperimentScale:
    return ExperimentScale(
        history_length=args.history, d_model=args.d_model,
        epochs=args.epochs, seed=args.seed)


def _data(args, history_length: int | None = None,
          horizon: int | None = None):
    series = load_dataset(args.dataset, length=args.length)
    return make_forecasting_data(
        series,
        history_length=history_length or args.history,
        horizon=horizon or args.horizon)


def _embedding_options(args) -> dict:
    """TimeKDConfig overrides from the embedding-pipeline flags.

    Only explicitly set flags are forwarded, so defaults (like the
    experiment grid's shared cache directory) survive.
    """
    options: dict = {}
    if args.embedding_cache is not None:
        # Same convention as REPRO_EMBED_CACHE: 'off'/'none'/'0'/''
        # disable persistence explicitly (compare defaults it on).
        options["embedding_cache_dir"] = (
            None if cache_disabled(args.embedding_cache)
            else args.embedding_cache)
    if args.no_precompute:
        options["precompute_embeddings"] = False
    return options


def _cmd_train(args) -> int:
    data = _data(args)
    config = TimeKDConfig(
        history_length=args.history, horizon=args.horizon,
        d_model=args.d_model, student_epochs=args.epochs, seed=args.seed,
        frequency_minutes=data.frequency_minutes,
        num_variables=data.num_variables,
        **_embedding_options(args))
    model = TimeKDForecaster(config).fit(data)
    metrics = model.evaluate(data.test)
    print(f"test MSE={metrics['mse']:.4f} MAE={metrics['mae']:.4f}")
    if args.out:
        model.save(args.out, metadata={
            "test_mse": metrics["mse"], "test_mae": metrics["mae"]})
        print(f"student artifact saved to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    # Shapes come from the bundle's own config — the artifact is the
    # source of truth, so there are no --horizon/--history flags to
    # half-honor.
    model = TimeKDForecaster.from_artifact(args.artifact)
    config = model.config
    data = _data(args, history_length=config.history_length,
                 horizon=config.horizon)
    metrics = model.evaluate(data.test, engine="compiled")
    print(f"test MSE={metrics['mse']:.4f} MAE={metrics['mae']:.4f}")
    return 0


def _cmd_predict(args) -> int:
    from .serve import read_artifact_info

    config, metadata = read_artifact_info(args.artifact)
    if args.input:
        windows = np.load(args.input)
    else:
        data = _data(args, history_length=config.history_length,
                     horizon=config.horizon)
        windows, _ = data.test[-1]
        if args.raw:
            windows = data.scaler.inverse_transform(windows)
    if args.serve:
        # Serve-mode prediction: route the windows through a
        # ForecastService built over the artifact's directory (the
        # service loads the bundle itself; no second student here).
        import os

        from .serve import ForecastService

        with ForecastService(os.path.dirname(os.path.abspath(
                args.artifact))) as service:
            batch = windows[None] if windows.ndim == 2 else windows
            dataset = metadata.get("dataset") or None
            futures = [service.submit(window, dataset=dataset,
                                      horizon=config.horizon,
                                      raw_values=args.raw)
                       for window in batch]
            forecast = np.stack([f.result() for f in futures])
            if windows.ndim == 2:
                forecast = forecast[0]
    else:
        model = TimeKDForecaster.from_artifact(args.artifact)
        forecast = model.predict(windows, raw_values=args.raw,
                                 engine="compiled")
    print(f"forecast shape: {np.asarray(forecast).shape} "
          f"(horizon {config.horizon}, "
          f"{config.num_variables} variables)")
    if args.out:
        atomic_save_array(args.out, np.asarray(forecast))
        print(f"forecast saved to {args.out}")
    return 0


@contextlib.contextmanager
def _graceful_shutdown(service, drain_actions: list | None = None):
    """Drain the micro-batch queue on SIGINT/SIGTERM before exiting.

    The signal handler only raises: the interrupted frame may be inside
    the service holding its (non-reentrant) lock, so touching the
    service from signal context could self-deadlock.  The exception
    unwinds the main thread (releasing any held locks), then the drain
    runs below, outside signal context: the worker is resumed so queued
    requests flush, and ``close()`` completes every in-flight future
    before the worker exits — no client is ever left holding a
    forever-pending future.

    ``drain_actions`` is a caller-owned list of zero-arg callables run
    *after* the drain (every future resolved) — the stream command
    appends its snapshotter's ``checkpoint`` so a graceful shutdown
    persists a final snapshot.  Actions registered by the body run even
    though the list was empty on entry.
    """
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # non-main thread / unsupported
            pass
    try:
        yield
    except BaseException:
        service.resume()
        service.close()
        for action in (drain_actions or []):
            try:
                action()
            except Exception as error:  # noqa: BLE001 — don't mask exit
                print(f"shutdown action failed: {error}", file=sys.stderr)
        raise
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _make_stats_writer(path: str, collect, drain_actions: list):
    """Stats-dump plumbing shared by serve/stream/gateway.

    Returns a writer callable and registers an ``{"aborted": true}``
    variant on ``drain_actions``, so ``--stats-out`` lands on disk even
    when the command dies to a signal or an exception mid-run — a
    monitoring pipeline must never lose the run's counters to the very
    incident it exists to explain.  ``collect()`` is called at write
    time (after the drain), so the dump reflects final counters.
    """
    from .persist import atomic_write_json

    def write(extra: dict | None = None) -> None:
        payload = collect()
        if extra:
            payload.update(extra)
        # Atomic (tmp + os.replace): a crash mid-dump must not leave a
        # truncated JSON for a dashboard to choke on.
        atomic_write_json(path, payload)
        print(f"stats written to {path}")

    drain_actions.append(lambda: write({"aborted": True}))
    return write


def _cmd_serve(args) -> int:
    from .serve import read_artifact_info

    drain_actions: list = []
    with _make_service(args) as service, \
            _graceful_shutdown(service, drain_actions):
        write_stats = None
        if args.stats_out:
            write_stats = _make_stats_writer(
                args.stats_out, lambda: service.snapshot().as_dict(),
                drain_actions)
        keys = service.keys()
        print(f"serving {len(keys)} artifact(s) from {args.artifacts} "
              f"[{args.workers} shard worker(s)]: {sorted(keys)}")
        key = service.resolve_key(args.dataset, args.horizon)
        if args.input:
            windows = np.load(args.input)
            if windows.ndim == 2:
                windows = windows[None]
        else:
            config, _ = read_artifact_info(service.path_for(key))
            series = load_dataset(key[0], length=args.length)
            data = make_forecasting_data(
                series, history_length=config.history_length,
                horizon=config.horizon)
            count = min(args.requests, len(data.test))
            windows = np.stack(
                [data.test[i][0] for i in range(count)])
            if args.raw:
                windows = data.scaler.inverse_transform(windows)
        start = time.perf_counter()
        futures = [service.submit(window, dataset=key[0],
                                  horizon=key[1], raw_values=args.raw)
                   for window in windows]
        forecasts = np.stack([f.result() for f in futures])
        elapsed = time.perf_counter() - start
        stats = service.snapshot().as_dict()
    print(f"{len(windows)} requests in {elapsed:.3f}s "
          f"({len(windows) / max(elapsed, 1e-9):.1f} req/s), "
          f"{stats['batches']} batches, "
          f"max coalesced {stats['max_coalesced']}")
    if stats["plan_rebuilds"]:
        print(f"plan cache: {stats['plan_hits']} hits, "
              f"{stats['plan_misses']} misses, "
              f"{stats['plan_evictions']} evictions, "
              f"{stats['plan_rebuilds']} rebuild(s)")
    if args.out:
        atomic_save_array(args.out, forecasts)
        print(f"forecasts saved to {args.out}")
    if write_stats is not None:
        drain_actions.clear()  # the normal-path write supersedes it
        write_stats({
            "requests": len(windows),
            "elapsed_s": elapsed,
            "requests_per_second": len(windows) / max(elapsed, 1e-9),
        })
    return 0


def _cmd_stream(args) -> int:
    from .durable import (RecoveryError, ShardedRecoverer,
                          ShardedSnapshotter, chain_files)
    from .shard import ShardedStreamingForecaster
    from .stream import replay, verify_parity

    if args.snapshot_dir and not args.resume:
        existing = chain_files(args.snapshot_dir)
        if existing:
            # A fresh run would log seq 1.. into the earlier run's live
            # WAL segment; the next recovery then hits a WAL gap and
            # loses the earlier run's durable ticks too.
            print(f"--snapshot-dir {args.snapshot_dir!r} already holds "
                  f"{len(existing)} snapshot/WAL file(s); pass --resume "
                  f"to continue that run, or choose an empty directory",
                  file=sys.stderr)
            return 1

    drain_actions: list = []
    with _make_service(args) as service, \
            _graceful_shutdown(service, drain_actions):
        key = service.resolve_key(args.dataset, args.horizon)
        config = service.config_for(key)
        series = load_dataset(key[0], length=args.length)
        data = make_forecasting_data(
            series, history_length=config.history_length,
            horizon=config.horizon)
        segment = data.test.values
        if args.raw:
            segment = data.scaler.inverse_transform(segment)

        forecaster = ShardedStreamingForecaster(
            service, dataset=key[0], horizon=key[1], cadence=args.cadence,
            policy=args.policy, interval=float(data.frequency_minutes),
            raw_values=args.raw)
        print(f"sharded streaming: {args.workers} worker(s), "
              f"{service.ring.vnodes} vnodes/shard")

        write_stats = None
        if args.stats_out:
            def _collect() -> dict:
                snap = forecaster.snapshot()
                return {"stream": snap["stream"],
                        "service": snap["service"]}
            write_stats = _make_stats_writer(
                args.stats_out, _collect, drain_actions)

        if args.resume:
            recoverer = ShardedRecoverer()
            try:
                # Torn trailing WAL record = an un-fsynced crash's
                # signature; --resume trims it (that tick was never
                # durable) instead of refusing to start.
                recovered = forecaster.restore_from(
                    args.snapshot_dir, strict_wal=False,
                    recoverer=recoverer)
            except RecoveryError as error:
                print(f"recovery failed at stage "
                      f"{recoverer.state().stage.value!r}: {error}",
                      file=sys.stderr)
                return 1
            detail = recovered.detail
            origin = (f"{detail['source_shards']} shard chain(s)"
                      + (" [resharded]" if detail["resharded"] else ""))
            print(f"recovered {detail['keys']} series at seq "
                  f"{detail['final_seq']} from {origin} "
                  f"(+{detail['replayed']} WAL tick(s) replayed)")

        snapshotter = None
        if args.snapshot_dir:
            snapshotter = ShardedSnapshotter(
                forecaster, args.snapshot_dir,
                every=args.snapshot_every, wal=not args.no_wal)
            if args.resume and recovered.detail["resharded"]:
                # Re-anchor the directory on the new ring: write every
                # target shard's chain first (until then the old chains
                # are the only durable copy), then drop the superseded
                # labels (a shrink's orphans), which a later --resume
                # would otherwise merge back in as stale state.
                snapshotter.checkpoint()
                pruned = snapshotter.prune_foreign()
                if pruned:
                    print(f"pruned {len(pruned)} superseded chain "
                          f"file(s) from the previous shard layout")
            drain_actions.append(snapshotter.checkpoint)

        reports = []
        for index in range(args.series):
            series_key = ("replay", f"{key[0]}#{index}")
            try:
                first_tick = forecaster.state(series_key).count
            except KeyError:
                first_tick = 0
            max_ticks = (None if args.ticks is None
                         else max(args.ticks - first_tick, 0))
            reports.append(replay(
                forecaster, segment, key=series_key,
                max_ticks=max_ticks, first_tick=first_tick))
        report = reports[-1]
        # Snapshot before --verify: parity re-predicts each window
        # sequentially and would contaminate the coalescing counters.
        snapshot = forecaster.snapshot()
        stream, serve = snapshot["stream"], snapshot["service"]

        if snapshotter is not None:
            final_paths = snapshotter.checkpoint()
            snapshotter.close()
            drain_actions.clear()
            print(f"final snapshots written: {', '.join(final_paths)}")

        compared = None
        if args.verify:
            compared = sum(verify_parity(r, forecaster, segment)
                           for r in reports)
        total_ticks = sum(r.ticks for r in reports)
        total_s = sum(r.duration_s for r in reports)
        print(f"replayed {total_ticks} ticks across {args.series} "
              f"series in {total_s:.3f}s "
              f"({total_ticks / max(total_s, 1e-9):.1f} ticks/s), "
              f"{stream['forecasts']} forecasts, "
              f"{stream['gaps']} gaps ({stream['filled']} rows filled)")
        print(f"service: {serve['batches']} batches, "
              f"mean batch {serve['mean_batch']:.2f}, "
              f"max coalesced {serve['max_coalesced']}")
        if compared is not None:
            print(f"parity: {compared} streamed forecast(s) bitwise "
                  f"identical to offline predict")
        if write_stats is not None:
            payload = report.as_dict()
            # The pre-verify snapshot: --verify re-predicts every
            # window and would contaminate the coalescing counters the
            # writer would otherwise re-collect.
            payload["stream"], payload["service"] = stream, serve
            payload["total_ticks"] = total_ticks
            payload["ticks_per_second"] = total_ticks / max(total_s, 1e-9)
            if compared is not None:
                payload["parity_checked"] = compared
            write_stats(payload)
    return 0


def _cmd_gateway(args) -> int:
    import os

    from .gateway import ApiKeyRegistry, Gateway, GatewayServer, KeyFileError

    try:
        registry = ApiKeyRegistry(
            args.keys, default_units=args.quota,
            default_rate=args.rate, default_burst=args.burst)
    except KeyFileError as error:
        print(str(error), file=sys.stderr)
        return 1

    drain_actions: list = []
    with _make_service(args) as service, \
            _graceful_shutdown(service, drain_actions):
        gateway = Gateway(
            service, registry, cadence=args.cadence, policy=args.policy,
            interval=args.interval, max_gap=args.max_gap,
            raw_values=args.raw, max_pending=args.max_pending,
            retry_after=args.retry_after)

        if args.snapshot_dir:
            os.makedirs(args.snapshot_dir, exist_ok=True)
            usage_path = os.path.join(args.snapshot_dir, "usage.json")
            if gateway.load_usage(usage_path):
                tenants = gateway.meter.usage()
                spent = sum(t["spent"] for t in tenants.values())
                print(f"restored usage for {len(tenants)} tenant(s) "
                      f"({spent} unit(s) spent) from {usage_path}")
            # Runs after the service drain: every committed request has
            # settled its reservation by then, so the persisted counters
            # are exact (reserved is transient and never persisted).
            drain_actions.append(lambda: gateway.save_usage(usage_path))

        if args.stats_out:
            _make_stats_writer(
                args.stats_out, gateway.snapshot, drain_actions)

        server = GatewayServer(gateway, host=args.host, port=args.port)
        keys = service.keys()
        print(f"gateway listening on {server.url} — {len(keys)} "
              f"artifact(s) from {args.artifacts}, "
              f"{len(registry.keys())} API key(s), quota {args.quota} "
              f"unit(s), admission bound {args.max_pending} "
              f"[{args.workers} shard worker(s)]", flush=True)
        try:
            # Runs until SIGINT/SIGTERM raises SystemExit out of the
            # accept loop.  The drain then unwinds inside-out: stop
            # accepting and join in-flight HTTP handlers (server.close,
            # while the service still resolves their futures), then
            # _graceful_shutdown closes the service, then the drain
            # actions persist usage and stats.
            server.serve_forever()
        finally:
            server.close()
    return 0


def _cmd_compare(args) -> int:
    scale = _scale(args)
    data = prepare_data(args.dataset, args.horizon, scale,
                        length=args.length)
    rows = []
    for name in args.models:
        row = strip_private(run_model(name, data, scale,
                                      **_embedding_options(args)))
        rows.append(row)
    print(format_table(
        rows, title=f"{args.dataset}, horizon {args.horizon}"))
    return 0


def _cmd_lint(args) -> int:
    import json
    import os

    from .analyze import (all_rules, analyze_paths, findings_payload,
                          get_rules, has_failures, render_text)
    from .persist import atomic_write_json

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:18s} {rule.severity:8s} {rule.description}")
        return 0
    names = None
    if args.rule:
        names = [name.strip() for spec in args.rule
                 for name in spec.split(",") if name.strip()]
    try:
        rules = get_rules(names)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    try:
        findings = analyze_paths(paths, rules=rules)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = findings_payload(findings, rules=rules)
    if args.output:
        atomic_write_json(args.output, payload)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_text(findings))
    return 1 if has_failures(findings, strict=args.strict) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train TimeKD on a dataset")
    _add_common(train)
    train.add_argument("--out", default=None,
                       help="save a deployable student artifact bundle")
    train.set_defaults(func=_cmd_train)

    evaluate = commands.add_parser(
        "evaluate", help="evaluate a saved student artifact bundle")
    evaluate.add_argument("--dataset", required=True,
                          choices=dataset_names())
    evaluate.add_argument("--length", type=int, default=None,
                          help="series length override (default per "
                               "dataset)")
    evaluate.add_argument("--artifact", required=True,
                          help="student artifact bundle from train --out; "
                               "window shapes come from the bundle's config")
    evaluate.set_defaults(func=_cmd_evaluate)

    predict = commands.add_parser(
        "predict", help="forecast from a saved student artifact bundle")
    predict.add_argument("--artifact", required=True,
                         help="student artifact bundle from train --out")
    predict.add_argument("--dataset", default="ETTm1",
                         choices=dataset_names(),
                         help="dataset supplying the input window when "
                              "--input is not given")
    predict.add_argument("--length", type=int, default=None)
    predict.add_argument("--input", default=None, metavar="NPY",
                         help=".npy file of history windows (H, N) or "
                              "(B, H, N)")
    predict.add_argument("--raw", action="store_true",
                         help="treat inputs/outputs as raw data units "
                              "(apply the bundled scaler)")
    predict.add_argument("--serve", action="store_true",
                         help="route the prediction through a "
                              "ForecastService (coalescing serve path)")
    predict.add_argument("--out", default=None, help="save forecasts (.npy)")
    predict.set_defaults(func=_cmd_predict)

    serve = commands.add_parser(
        "serve", help="batch-serve requests from a directory of artifacts")
    serve.add_argument("--artifacts", required=True,
                       help="directory of student artifact bundles")
    serve.add_argument("--dataset", default=None, choices=dataset_names(),
                       help="registry key of the model to serve")
    serve.add_argument("--horizon", type=int, default=None)
    serve.add_argument("--length", type=int, default=None)
    serve.add_argument("--input", default=None, metavar="NPY",
                       help=".npy file of request windows (B, H, N); "
                            "defaults to test windows of --dataset")
    serve.add_argument("--requests", type=int, default=64,
                       help="number of test-window requests when --input "
                            "is not given")
    serve.add_argument("--raw", action="store_true")
    serve.add_argument("--max-models", type=int, default=4)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--out", default=None, help="save forecasts (.npy)")
    serve.add_argument("--stats-out", default=None, metavar="JSON",
                       help="dump service stats as JSON (written "
                            "atomically, even on abnormal exit)")
    _add_shard(serve)
    serve.set_defaults(func=_cmd_serve)

    stream = commands.add_parser(
        "stream", help="replay a dataset through the streaming "
                       "forecaster (online ingestion + micro-batched "
                       "re-forecasting)")
    stream.add_argument("--artifacts", required=True,
                        help="directory of student artifact bundles")
    stream.add_argument("--dataset", default=None, choices=dataset_names(),
                        help="registry key of the model to stream against")
    stream.add_argument("--horizon", type=int, default=None)
    stream.add_argument("--length", type=int, default=None,
                        help="series length override (default per dataset)")
    stream.add_argument("--ticks", type=int, default=None,
                        help="replay at most this many ticks of the test "
                             "segment (default: all)")
    stream.add_argument("--series", type=int, default=1,
                        help="replay the stream as this many parallel "
                             "series keys (exercises coalescing)")
    stream.add_argument("--cadence", type=int, default=1,
                        help="re-forecast every K ingested ticks (0 = "
                             "on-demand only)")
    stream.add_argument("--policy", default="error",
                        choices=["error", "ffill", "interpolate"],
                        help="missing-tick policy")
    stream.add_argument("--raw", action="store_true",
                        help="stream raw data units through the bundled "
                             "scaler")
    stream.add_argument("--verify", action="store_true",
                        help="assert streamed forecasts are bitwise "
                             "identical to offline predict")
    stream.add_argument("--max-models", type=int, default=4)
    stream.add_argument("--max-batch", type=int, default=64)
    stream.add_argument("--stats-out", default=None, metavar="JSON",
                        help="dump replay + service stats as JSON "
                             "(written atomically)")
    stream.add_argument("--snapshot-dir", default=None, metavar="DIR",
                        help="durable state directory: one chain per "
                             "shard worker (snapshot-{shard}-{seq}.npz "
                             "plus a per-tick WAL); graceful shutdown and "
                             "normal completion both write a final "
                             "snapshot; a directory holding an earlier "
                             "run's chains requires --resume")
    stream.add_argument("--snapshot-every", type=int, default=0,
                        metavar="N",
                        help="checkpoint every N accepted ticks "
                             "(0 = only the final/shutdown snapshot; "
                             "requires --snapshot-dir)")
    stream.add_argument("--resume", action="store_true",
                        help="recover state from --snapshot-dir before "
                             "replaying (latest snapshot + WAL replay per "
                             "shard), then continue each series where it "
                             "left off")
    stream.add_argument("--no-wal", action="store_true",
                        help="disable the append-only tick WAL; crash "
                             "recovery then loses ticks after the last "
                             "snapshot")
    _add_shard(stream)
    stream.set_defaults(func=_cmd_stream)

    gateway = commands.add_parser(
        "gateway", help="serve artifacts over HTTP with API keys, "
                        "per-tenant metering and admission control")
    gateway.add_argument("--artifacts", required=True,
                         help="directory of student artifact bundles")
    gateway.add_argument("--keys", required=True, metavar="JSON",
                         help="API-key file (see repro.gateway.auth); "
                              "hot-reloaded on change, so keys and "
                              "quotas can be edited on a live gateway")
    gateway.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    gateway.add_argument("--port", default=8080, metavar="N",
                         type=_nonneg_int("--port"),
                         help="bind port (0 = any free port, printed "
                              "on startup)")
    gateway.add_argument("--quota", default=10_000, metavar="UNITS",
                         type=_nonneg_int("--quota"),
                         help="issued request units for keys whose file "
                              "entry omits 'units' (a forecast costs 4, "
                              "an ingested tick 1)")
    gateway.add_argument("--rate", default=100.0, metavar="UNITS/S",
                         type=_positive_float("--rate"),
                         help="token-bucket refill for keys omitting "
                              "'rate'")
    gateway.add_argument("--burst", default=200.0, metavar="UNITS",
                         type=_positive_float("--burst"),
                         help="token-bucket capacity for keys omitting "
                              "'burst'")
    gateway.add_argument("--max-pending", default=256, metavar="N",
                         type=_positive_int("--max-pending"),
                         help="admission bound on queued + in-flight "
                              "requests; beyond it new work is shed "
                              "with 503 Retry-After")
    gateway.add_argument("--retry-after", default=1.0, metavar="S",
                         type=_positive_float("--retry-after"),
                         help="Retry-After hint (seconds) on shed "
                              "responses")
    gateway.add_argument("--cadence", type=int, default=1,
                         help="ingest path: re-forecast every K ticks "
                              "(0 = never; predict-only gateway)")
    gateway.add_argument("--policy", default="error",
                         choices=["error", "ffill", "interpolate"],
                         help="ingest path: missing-tick policy")
    gateway.add_argument("--interval", default=1.0, metavar="S",
                         type=_positive_float("--interval"),
                         help="ingest path: expected tick spacing on "
                              "the timestamp grid")
    gateway.add_argument("--max-gap", type=int, default=16,
                         help="ingest path: largest fillable gap")
    gateway.add_argument("--raw", action="store_true",
                         help="treat request/stream values as raw data "
                              "units (apply each bundle's scaler)")
    gateway.add_argument("--max-models", type=int, default=4)
    gateway.add_argument("--max-batch", type=int, default=64)
    gateway.add_argument("--snapshot-dir", default=None, metavar="DIR",
                         help="durable state directory: per-tenant "
                              "usage counters are saved here on "
                              "shutdown and restored on start")
    gateway.add_argument("--stats-out", default=None, metavar="JSON",
                         help="dump gateway/service/stream stats as "
                              "JSON on exit (written atomically, even "
                              "on abnormal exit)")
    _add_shard(gateway)
    gateway.set_defaults(func=_cmd_gateway)

    compare = commands.add_parser("compare",
                                  help="compare models on one dataset")
    _add_common(compare)
    compare.add_argument("--models", nargs="+",
                         default=["TimeKD", "iTransformer"])
    compare.set_defaults(func=_cmd_compare)

    lint = commands.add_parser(
        "lint", help="run the repo's static invariant checks")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to analyze (default: the "
                           "installed repro package)")
    lint.add_argument("--format", choices=("human", "json"),
                      default="human", help="report format")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="ID[,ID...]",
                      help="run only these rules (repeatable)")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail (exit 1)")
    lint.add_argument("--output", default=None, metavar="JSON",
                      help="also write the JSON report to this file "
                           "(atomically)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and exit")
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    _check_stream_flags(parser, args)
    _check_shard_flags(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
