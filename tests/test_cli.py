"""Tests for the command-line interface and multi-seed helper."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.common import ExperimentScale, prepare_data, run_model_seeds
from repro.nn.serialization import load_arrays, save_arrays

MICRO_ARGS = ["--length", "500", "--epochs", "1", "--d-model", "16"]


def make_tiny_bundle(directory: str, history_length: int = 32,
                     horizon: int = 8, num_variables: int = 3) -> None:
    """A minimal (untrained) student bundle for CLI plumbing tests."""
    from repro.core import TimeKDConfig
    from repro.core.student import StudentModel
    from repro.data import StandardScaler
    from repro.serve import save_student_artifact

    config = TimeKDConfig(
        history_length=history_length, horizon=horizon,
        num_variables=num_variables, d_model=16, num_heads=2,
        num_layers=1, ffn_dim=32)
    student = StudentModel(config)
    student.eval()
    scaler = StandardScaler().fit(np.random.default_rng(0).normal(
        size=(120, num_variables)))
    save_student_artifact(
        os.path.join(directory, "ettm1.npz"), student, config,
        scaler=scaler, metadata={"dataset": "ETTm1"})


class TestCLI:
    def test_train_evaluate_predict_serve(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "models", "ettm1-h12.npz")
        code = main(["train", "--dataset", "ETTm1", "--horizon", "12",
                     "--out", out] + MICRO_ARGS)
        assert code == 0
        assert os.path.exists(out)
        assert "test MSE=" in capsys.readouterr().out

        code = main(["evaluate", "--dataset", "ETTm1", "--length", "500",
                     "--artifact", out])
        assert code == 0
        assert "test MSE=" in capsys.readouterr().out

        preds = os.path.join(tmp_path, "preds.npy")
        code = main(["predict", "--artifact", out, "--dataset", "ETTm1",
                     "--length", "500", "--raw", "--out", preds])
        assert code == 0
        assert "forecast shape: (12, 7)" in capsys.readouterr().out
        assert np.load(preds).shape == (12, 7)

        code = main(["predict", "--artifact", out, "--dataset", "ETTm1",
                     "--length", "500", "--serve"])
        assert code == 0
        assert "forecast shape: (12, 7)" in capsys.readouterr().out

        code = main(["serve", "--artifacts", os.path.dirname(out),
                     "--dataset", "ETTm1", "--length", "500",
                     "--requests", "8"])
        assert code == 0
        served = capsys.readouterr().out
        assert "8 requests" in served and "req/s" in served
        assert "plan cache:" in served  # the compiled engine's stats

        stats_path = os.path.join(tmp_path, "stream.json")
        code = main(["stream", "--artifacts", os.path.dirname(out),
                     "--dataset", "ETTm1", "--length", "500",
                     "--ticks", "120", "--verify",
                     "--stats-out", stats_path])
        assert code == 0
        streamed = capsys.readouterr().out
        assert "ticks/s" in streamed and "bitwise identical" in streamed
        import json

        with open(stats_path) as fh:
            payload = json.load(fh)
        assert payload["parity_checked"] == payload["stream"]["forecasts"]
        assert payload["stream"]["forecasts"] > 0

        code = main(["stream", "--artifacts", os.path.dirname(out),
                     "--dataset", "ETTm1", "--length", "500",
                     "--ticks", "120", "--verify", "--workers", "2"])
        assert code == 0
        sharded = capsys.readouterr().out
        assert "sharded streaming: 2 worker(s), 64 vnodes/shard" in sharded
        assert "bitwise identical" in sharded

    def test_compare(self, capsys):
        code = main(["compare", "--dataset", "Exchange", "--horizon", "12",
                     "--models", "iTransformer", "PatchTST"] + MICRO_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "iTransformer" in out and "PatchTST" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "NotADataset"])

    def test_help_documents_embedding_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--embedding-cache" in out
        assert "--no-precompute" in out

    def test_no_precompute_flag_trains(self, tmp_path, capsys):
        cache = os.path.join(tmp_path, "emb")
        code = main(["train", "--dataset", "ETTm1", "--horizon", "12",
                     "--embedding-cache", cache, "--no-precompute"]
                    + MICRO_ARGS)
        assert code == 0
        assert "test MSE=" in capsys.readouterr().out
        assert any(name.endswith(".npz") for name in os.listdir(cache))

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestDurabilityFlagValidation:
    """--snapshot-* / --resume fail fast at the parser, never mid-run."""

    @pytest.mark.parametrize("flags", [
        ["--resume"],
        ["--snapshot-every", "50"],
        ["--no-wal"],
    ])
    def test_durability_flags_require_snapshot_dir(self, flags, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--artifacts", "nowhere"] + flags)
        assert "requires --snapshot-dir" in capsys.readouterr().err

    def test_help_documents_durability_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--snapshot-dir", "--snapshot-every", "--resume",
                     "--no-wal"):
            assert flag in out


def read_tree(directory: str) -> dict:
    """``{name: bytes}`` of every file in ``directory``."""
    tree = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


class TestStreamSnapshotDir:
    """stream --snapshot-dir: a used directory needs --resume, a
    --resume on fewer workers re-anchors it, and an unlabeled or
    format-1 chain is refused untouched."""

    @pytest.fixture()
    def artifacts(self, tmp_path) -> str:
        directory = str(tmp_path / "artifacts")
        os.makedirs(directory)
        make_tiny_bundle(directory, history_length=96, num_variables=7,
                         horizon=24)
        return directory

    @staticmethod
    def stream(artifacts, snapdir, ticks, *extra) -> int:
        return main(["stream", "--artifacts", artifacts, "--dataset",
                     "ETTm1", "--length", "500", "--ticks", str(ticks),
                     "--snapshot-dir", snapdir, *extra])

    def test_fresh_run_refuses_a_used_snapshot_dir(self, artifacts,
                                                   tmp_path, capsys):
        snapdir = str(tmp_path / "snaps")
        assert self.stream(artifacts, snapdir, 30) == 0
        assert "final snapshots written" in capsys.readouterr().out
        before = read_tree(snapdir)
        assert before

        assert self.stream(artifacts, snapdir, 10) != 0
        captured = capsys.readouterr()
        assert "--resume" in captured.err
        assert "sharded streaming" not in captured.out  # nothing attached
        assert read_tree(snapdir) == before

    def test_resume_on_fewer_workers_reanchors_the_directory(
            self, artifacts, tmp_path, capsys):
        snapdir = str(tmp_path / "snaps")
        assert self.stream(artifacts, snapdir, 100, "--workers", "2") == 0
        orphans = [name for name in os.listdir(snapdir)
                   if name.startswith(("snapshot-1-", "wal-1-"))]
        assert orphans
        # What a crash inside shard 1's atomic writes would leave.
        staging = ["snapshot-1-000000000100.npz.crash.tmp",
                   "wal-1-000000000100.log.crash.tmp"]
        for name in staging:
            open(os.path.join(snapdir, name), "wb").close()
        orphans += staging
        capsys.readouterr()

        assert self.stream(artifacts, snapdir, 120, "--resume",
                           "--verify") == 0
        out = capsys.readouterr().out
        assert "recovered 1 series at seq 100 from 2 shard chain(s) " \
            "[resharded]" in out
        assert f"pruned {len(orphans)} superseded chain file(s)" in out
        assert "bitwise identical" in out and "parity: 0 " not in out
        assert all(name.startswith(("snapshot-0-", "wal-0-"))
                   for name in os.listdir(snapdir))

    def test_resume_refuses_an_unlabeled_chain_untouched(self, artifacts,
                                                         tmp_path, capsys):
        snapdir = str(tmp_path / "snaps")
        assert self.stream(artifacts, snapdir, 100) == 0
        # Rename shard 0's chain to the unlabeled snapshot-{seq}.npz /
        # wal-{seq}.log names, which this build no longer reads.
        for name in os.listdir(snapdir):
            os.rename(os.path.join(snapdir, name),
                      os.path.join(snapdir, name.replace("-0-", "-", 1)))
        before = read_tree(snapdir)
        capsys.readouterr()

        assert self.stream(artifacts, snapdir, 120, "--resume") != 0
        err = capsys.readouterr().err
        assert "recovery failed at stage 'reading'" in err
        assert "unlabeled snapshot-{seq}" in err
        assert "last read by commit 7fb55d7" in err
        # Still a used directory: a fresh run is refused too.
        assert self.stream(artifacts, snapdir, 120) != 0
        assert "--resume" in capsys.readouterr().err
        assert read_tree(snapdir) == before

    def test_resume_refuses_a_format1_chain_untouched(self, artifacts,
                                                      tmp_path, capsys):
        snapdir = str(tmp_path / "snaps")
        assert self.stream(artifacts, snapdir, 100) == 0
        # Stamp every snapshot with format 1, which this build no longer
        # reads; the format check runs before the digest check.
        for name in os.listdir(snapdir):
            if name.startswith("snapshot-"):
                path = os.path.join(snapdir, name)
                arrays = load_arrays(path)
                arrays["__format__"] = np.int64(1)
                save_arrays(path, arrays)
        before = read_tree(snapdir)
        capsys.readouterr()

        assert self.stream(artifacts, snapdir, 120, "--resume") != 0
        err = capsys.readouterr().err
        assert "recovery failed at stage 'verifying'" in err
        assert "snapshot format 1 of" in err
        assert "last read by commit 7fb55d7" in err
        assert read_tree(snapdir) == before


class TestShardFlagValidation:
    """--workers/--shard-vnodes fail fast at the parser, never mid-run."""

    @pytest.mark.parametrize("command", ["serve", "stream"])
    def test_shard_vnodes_requires_multiple_workers(self, command,
                                                    capsys):
        with pytest.raises(SystemExit):
            main([command, "--artifacts", "nowhere",
                  "--shard-vnodes", "32"])
        assert "requires --workers > 1" in capsys.readouterr().err

    def test_shard_vnodes_with_one_worker_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--artifacts", "nowhere", "--workers", "1",
                  "--shard-vnodes", "16"])
        assert "requires --workers > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_workers_rejected(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--artifacts", "nowhere",
                  "--workers", value])
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_nonpositive_vnodes_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--artifacts", "nowhere", "--workers", "2",
                  "--shard-vnodes", "0"])
        assert "--shard-vnodes must be >= 1" in capsys.readouterr().err

    def test_help_documents_shard_flags(self, capsys):
        for command in ("serve", "stream"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            assert "--workers" in out
            assert "--shard-vnodes" in out


class TestGatewayFlagValidation:
    """gateway flags fail fast at the parser, never on a live socket."""

    BASE = ["gateway", "--artifacts", "nowhere", "--keys", "keys.json"]

    def test_keys_file_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["gateway", "--artifacts", "nowhere"])
        assert "--keys" in capsys.readouterr().err

    def test_negative_port_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--port", "-1"])
        assert "--port must be >= 0" in capsys.readouterr().err

    def test_negative_quota_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--quota", "-5"])
        assert "--quota must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rate", "--burst",
                                      "--retry-after", "--interval"])
    def test_nonpositive_rates_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + [flag, "0"])
        assert f"{flag} must be > 0" in capsys.readouterr().err

    def test_nonpositive_max_pending_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--max-pending", "0"])
        assert "--max-pending must be >= 1" in capsys.readouterr().err

    def test_shard_vnodes_requires_multiple_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--shard-vnodes", "32"])
        assert "requires --workers > 1" in capsys.readouterr().err

    def test_missing_key_file_is_a_clean_error(self, tmp_path, capsys):
        code = main(["gateway", "--artifacts", str(tmp_path),
                     "--keys", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read key file" in capsys.readouterr().err

    def test_help_documents_gateway_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gateway", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--keys", "--quota", "--rate", "--burst",
                     "--max-pending", "--retry-after", "--snapshot-dir",
                     "--stats-out", "--workers"):
            assert flag in out


class TestStatsOutOnAbnormalExit:
    """--stats-out must land on disk even when the run dies mid-flight."""

    def test_serve_stats_written_when_interrupted(self, tmp_path,
                                                  monkeypatch, capsys):
        import json

        make_tiny_bundle(str(tmp_path), history_length=96,
                         num_variables=7, horizon=24)
        stats_path = str(tmp_path / "serve-stats.json")
        # simulate a signal arriving mid-run: the first submit is the
        # first thing the body does after loading request windows
        from repro.serve import ForecastService

        def boom(*args, **kwargs):
            raise SystemExit(143)

        monkeypatch.setattr(ForecastService, "submit", boom)
        with pytest.raises(SystemExit):
            main(["serve", "--artifacts", str(tmp_path),
                  "--dataset", "ETTm1", "--length", "500",
                  "--requests", "4", "--stats-out", stats_path])
        assert "stats written" in capsys.readouterr().out
        with open(stats_path) as fh:
            payload = json.load(fh)
        assert payload["aborted"] is True
        assert payload["requests"] == 0

    def test_stream_stats_written_when_interrupted(self, tmp_path,
                                                   monkeypatch, capsys):
        import json

        make_tiny_bundle(str(tmp_path), history_length=96,
                         num_variables=7, horizon=24)
        stats_path = str(tmp_path / "stream-stats.json")
        import repro.cli as cli
        from repro.stream import replay as real_replay  # noqa: F401

        def boom(*args, **kwargs):
            raise SystemExit(143)

        monkeypatch.setattr("repro.stream.replay", boom)
        with pytest.raises(SystemExit):
            cli.main(["stream", "--artifacts", str(tmp_path),
                      "--dataset", "ETTm1", "--length", "500",
                      "--ticks", "10", "--stats-out", stats_path])
        assert "stats written" in capsys.readouterr().out
        with open(stats_path) as fh:
            payload = json.load(fh)
        assert payload["aborted"] is True
        assert payload["stream"]["ticks"] == 0
        assert "service" in payload


class TestMultiSeed:
    def test_run_model_seeds_aggregates(self):
        scale = ExperimentScale(
            data_length=500, d_model=16, num_heads=2, num_layers=1,
            ffn_dim=32, epochs=1, teacher_epochs=1, batch_size=8,
            max_batches=2, llm_pretrain_steps=10, prompt_value_stride=8)
        data = prepare_data("Exchange", 12, scale)
        row = run_model_seeds("iTransformer", data, scale, seeds=(0, 1))
        assert set(row) == {"model", "mse", "mae", "mse_std", "mae_std"}
        assert np.isfinite(row["mse"]) and row["mse_std"] >= 0.0


class TestLint:
    """The ``repro lint`` subcommand: exit codes, formats, filters."""

    BAD = ("import time\n"
           "stamp = time.time()\n")
    WARN_ONLY = ("import threading\n"
                 "threading.Thread(target=print).start()\n")
    CLEAN = "VALUE = 1\n"

    @staticmethod
    def _write(tmp_path, name, source, package="repro/gateway"):
        target = tmp_path / "src" / package / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return str(target)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "clean.py", self.CLEAN)
        assert main(["lint", path]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_one_with_json(self, tmp_path, capsys):
        import json

        path = self._write(tmp_path, "bad.py", self.BAD)
        assert main(["lint", "--format", "json", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "wall-clock"
        assert finding["line"] == 2
        assert finding["severity"] == "error"

    def test_warning_exits_zero_unless_strict(self, tmp_path, capsys):
        path = self._write(tmp_path, "spawn.py", self.WARN_ONLY)
        assert main(["lint", path]) == 0
        assert main(["lint", "--strict", path]) == 1
        out = capsys.readouterr().out
        assert "thread-lifecycle" in out

    def test_rule_filter(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.py", self.BAD)
        assert main(["lint", "--rule", "atomic-write", path]) == 0
        assert main(["lint", "--rule", "wall-clock,atomic-write",
                     path]) == 1
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "clean.py", self.CLEAN)
        assert main(["lint", "--rule", "no-such-rule", path]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["lint", missing]) == 2
        assert "error" in capsys.readouterr().err

    def test_output_writes_json_report(self, tmp_path, capsys):
        import json

        path = self._write(tmp_path, "bad.py", self.BAD)
        report = tmp_path / "findings.json"
        assert main(["lint", "--output", str(report), path]) == 1
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["summary"]["by_rule"]["wall-clock"] == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("lock-discipline", "atomic-write", "dtype-hygiene",
                        "fail-closed", "wall-clock", "thread-lifecycle"):
            assert rule_id in out

    def test_default_paths_cover_installed_package(self, capsys):
        # No paths = lint the installed repro package; the repo gate in
        # test_analyze.py keeps this at zero findings.
        assert main(["lint", "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
