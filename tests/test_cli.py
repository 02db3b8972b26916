"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_cli_subprocess(*argv):
    """The CLI in a real process, with stdout and stderr kept apart."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return completed.returncode, completed.stdout, completed.stderr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_game(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["session", "tetris"])

    def test_rejects_bad_seed_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snip", "colorphun",
                                       "--profile-seeds", "a,b"])

    def test_parses_seed_list(self):
        args = build_parser().parse_args(
            ["snip", "colorphun", "--profile-seeds", "3,4,5"]
        )
        assert args.profile_seeds == [3, 4, 5]

    def test_devreport_takes_no_cache_flag(self):
        # devreport never reads or writes the package cache.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["devreport", "colorphun", "--no-cache"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_list_games(self):
        code, text = run_cli("list-games")
        assert code == 0
        assert "colorphun" in text and "race_kings" in text
        assert len(text.strip().splitlines()) == 7

    def test_session(self):
        code, text = run_cli("session", "colorphun", "--duration", "5")
        assert code == 0
        assert "battery life" in text
        assert "useless events" in text

    def test_snip_pipeline(self):
        code, text = run_cli(
            "snip", "colorphun",
            "--profile-duration", "15", "--eval-duration", "10",
        )
        assert code == 0
        assert "savings" in text and "coverage" in text

    def test_devreport(self):
        code, text = run_cli(
            "devreport", "colorphun", "--profile-duration", "10"
        )
        assert code == 0
        assert "Developer report" in text

    def test_ota_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "table.json")
        code, text = run_cli(
            "ota", "colorphun", "--out", path, "--profile-duration", "10"
        )
        assert code == 0 and "wrote" in text
        code, text = run_cli("ota-info", path)
        assert code == 0
        assert "entries" in text and "key = [" in text
        torn = tmp_path / "torn.json"
        torn.write_bytes(Path(path).read_bytes()[:200])
        capsys.readouterr()
        code, text = run_cli("ota-info", str(torn))
        stderr = capsys.readouterr().err
        assert code == 2 and text == ""
        assert stderr.startswith("ota-info error: ") and stderr.count("\n") == 1


class TestCacheCommands:
    def test_stats_json(self, tmp_path):
        code, text = run_cli(
            "cache", "stats", "--dir", str(tmp_path), "--format", "json"
        )
        assert code == 0
        import json

        payload = json.loads(text)
        assert payload["entries"] == 0
        assert payload["corrupt_evictions"] == 0

    def test_clear_reports_reclaimed_bytes(self, tmp_path):
        code, text = run_cli("cache", "clear", "--dir", str(tmp_path))
        assert code == 0
        assert "reclaimed" in text


class TestRegistryCommands:
    GAME = "colorphun"

    def _publish(self, directory):
        return run_cli(
            "registry", "publish", "--dir", directory, "--game", self.GAME,
            "--profile-seeds", "1", "--profile-duration", "6", "--no-energy",
        )

    def test_list_empty(self, tmp_path):
        code, text = run_cli("registry", "list", "--dir", str(tmp_path))
        assert code == 0
        assert "(empty)" in text

    def test_actions_need_game(self, tmp_path):
        code, _ = run_cli("registry", "show", "--dir", str(tmp_path))
        assert code == 2

    def test_publish_promote_show_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        code, text = self._publish(directory)
        assert code == 0 and "published" in text
        # The 6 s profile undershoots the default accuracy floor; this
        # test exercises the CLI plumbing, not the model quality.
        code, text = run_cli(
            "registry", "promote", "--dir", directory, "--game", self.GAME,
            "--min-accuracy", "0.5",
        )
        assert code == 0 and "promoted v1" in text
        code, text = run_cli(
            "registry", "show", "--dir", directory, "--game", self.GAME
        )
        assert code == 0
        assert "champion v1" in text and "[champion]" in text
        code, text = run_cli(
            "registry", "show", "--dir", directory, "--game", self.GAME,
            "--format", "json",
        )
        assert code == 0
        import json

        payload = json.loads(text)
        assert payload["champion_version"] == 1
        assert payload["entries"][0]["status"] == "champion"

    def test_promote_below_floor_fails_loudly(self, tmp_path):
        directory = str(tmp_path)
        self._publish(directory)
        code, text = run_cli(
            "registry", "promote", "--dir", directory, "--game", self.GAME,
            "--min-hit-rate", "1.0",
        )
        assert code == 1
        assert "rejected" in text

    def test_promote_without_candidates_errors(self, tmp_path):
        code, _ = run_cli(
            "registry", "promote", "--dir", str(tmp_path), "--game", self.GAME
        )
        assert code == 1

    def test_gc_reports_reclaimed(self, tmp_path):
        directory = str(tmp_path)
        self._publish(directory)
        run_cli(
            "registry", "promote", "--dir", directory, "--game", self.GAME,
            "--min-accuracy", "0.5",
        )
        code, text = run_cli(
            "registry", "gc", "--dir", directory, "--game", self.GAME
        )
        assert code == 0
        assert "reclaimed" in text


class TestJsonOutputPurity:
    """``--format json`` must leave stdout a single parseable document.

    Progress and telemetry narrate on stderr only; the regression these
    tests pin is human-facing chatter leaking into machine-facing
    output and breaking ``repro-snip ... | jq``.
    """

    def test_fleet_json_stdout_is_pure_with_progress_enabled(self):
        code, stdout, stderr = run_cli_subprocess(
            "fleet", "--game", "colorphun", "--devices", "2",
            "--sessions", "1", "--duration", "2", "--shard-size", "1",
            "--profile-duration", "4", "--no-federate",
            "--no-cache", "--format", "json", "--progress",
        )
        assert code == 0, stderr
        payload = json.loads(stdout)
        assert payload["totals"]["devices"] == 2
        assert "run started" in stderr  # progress went to stderr

    def test_registry_list_json_stdout_is_pure(self, tmp_path):
        code, stdout, stderr = run_cli_subprocess(
            "registry", "list", "--dir", str(tmp_path), "--format", "json"
        )
        assert code == 0, stderr
        assert json.loads(stdout) == []

    def test_serve_json_stdout_is_pure_with_telemetry_enabled(self, tmp_path):
        code, stdout, stderr = run_cli_subprocess(
            "serve", "--game", "colorphun", "--cycles", "2",
            "--run-dir", str(tmp_path / "run"),
            "--devices", "4", "--duration", "2", "--shard-size", "2",
            "--profile-duration", "3", "--eval-duration", "3",
            "--format", "json",
        )
        assert code == 0, stderr
        document = json.loads(stdout)
        assert sum(1 for cycle in document["cycles"] if cycle["complete"]) == 2
        # The default (non --quiet) serve narrates cycles on stderr.
        assert "cycle 0 started" in stderr
        assert "cycle 1 finished" in stderr


class TestServeCommand:
    def test_serve_text_summarises_cycles(self, tmp_path):
        code, stdout, stderr = run_cli_subprocess(
            "serve", "--game", "colorphun", "--cycles", "1", "--quiet",
            "--run-dir", str(tmp_path / "run"),
            "--devices", "4", "--duration", "2", "--shard-size", "2",
            "--profile-duration", "3", "--eval-duration", "3",
        )
        assert code == 0, stderr
        assert "serve: 1 cycles complete" in stdout
        assert "cycle 0: offline | promoted -> champion v1" in stdout
        assert stderr == ""  # --quiet silences the narration

    @pytest.mark.parametrize("stop_cycle", [0, 1])
    def test_serve_stopped_at_a_cycle_start_prints_the_ledger_on_disk(
        self, tmp_path, monkeypatch, stop_cycle
    ):
        """A stop that lands between a cycle's start and its first stage
        record prints the ledger the run directory holds, without the
        empty cycle that only lived in memory."""
        import signal

        from repro import fleet
        from repro.fleet.telemetry import CYCLE_STARTED
        from repro.service.ledger import CycleLedger

        def stop(event):
            if event.kind == CYCLE_STARTED and event.payload["cycle"] == stop_cycle:
                # What a SIGTERM arriving now runs: the daemon's handler.
                signal.getsignal(signal.SIGTERM)(signal.SIGTERM, None)

        class StoppingBus(fleet.TelemetryBus):
            def __init__(self):
                super().__init__()
                self.subscribe(stop)

        monkeypatch.setattr(fleet, "TelemetryBus", StoppingBus)
        run_dir = tmp_path / "run"
        code, stdout = run_cli(
            "serve", "--game", "colorphun", "--cycles", "2", "--quiet",
            "--run-dir", str(run_dir), "--devices", "2", "--duration", "2",
            "--shard-size", "2", "--profile-duration", "3",
            "--eval-duration", "3", "--format", "json",
        )
        assert code == 0
        printed = json.loads(stdout)
        assert [cycle["complete"] for cycle in printed["cycles"]] == [True] * stop_cycle
        assert printed == CycleLedger(run_dir / "ledger.json").to_dict()

    def test_serve_rejects_mismatched_run_dir(self, tmp_path):
        run_dir = str(tmp_path / "run")
        args = [
            "serve", "--game", "colorphun", "--cycles", "1", "--quiet",
            "--run-dir", run_dir, "--devices", "4", "--duration", "2",
            "--shard-size", "2", "--profile-duration", "3",
            "--eval-duration", "3",
        ]
        code, _, stderr = run_cli_subprocess(*args)
        assert code == 0, stderr
        code, _, stderr = run_cli_subprocess(*args, "--seed", "5")
        assert code == 1
        assert "different service config" in stderr


class TestStoreErrors:
    """A damaged or mismatched store is one error line and exit 1 (exit 2
    for ``ota-info``), not a traceback."""

    def test_serve_on_a_torn_registry_state(self, tmp_path, capsys):
        from repro.core.config import SnipConfig
        from repro.registry.records import config_fingerprint

        run_dir = tmp_path / "run"
        state = (
            run_dir / "registry" / "colorphun"
            / config_fingerprint(SnipConfig()) / "registry.json"
        )
        state.parent.mkdir(parents=True)
        state.write_text('{"format_version": 1, "entr')
        code, text = run_cli(
            "serve", "--game", "colorphun", "--cycles", "1", "--quiet",
            "--run-dir", str(run_dir), "--devices", "2", "--duration", "2",
            "--shard-size", "2", "--profile-duration", "3",
            "--eval-duration", "3",
        )
        stderr = capsys.readouterr().err
        assert code == 1 and text == ""
        assert stderr.startswith("serve error: unreadable registry state ")
        assert stderr.count("\n") == 1

    def test_fleet_checkpoint_of_another_spec(self, tmp_path, capsys):
        from repro.fleet import CheckpointStore, FleetSpec

        checkpoint = tmp_path / "ck"
        CheckpointStore(checkpoint).initialise(
            FleetSpec(game_name="colorphun", devices=2, seed=99)
        )
        code, text = run_cli(
            "fleet", "--game", "colorphun", "--devices", "2",
            "--sessions", "1", "--duration", "2", "--shard-size", "1",
            "--profile-duration", "4", "--no-federate",
            "--checkpoint", str(checkpoint),
        )
        stderr = capsys.readouterr().err
        assert code == 1 and text == ""
        assert stderr.startswith("fleet error: ") and stderr.count("\n") == 1
        assert "use a fresh --checkpoint directory" in stderr

    def test_ota_info_on_a_missing_file(self, tmp_path, capsys):
        code, text = run_cli("ota-info", str(tmp_path / "missing.json"))
        stderr = capsys.readouterr().err
        assert code == 2 and text == ""
        assert stderr.startswith("ota-info error: ") and stderr.count("\n") == 1


class TestExtensionCommands:
    def test_experiment_accepts_extension_ids(self):
        args = build_parser().parse_args(["experiment", "quantization"])
        assert args.id == "quantization"

    def test_fleet_parses_rollout_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--challenger-fraction", "0.25",
             "--challenger-version", "3", "--registry", "/tmp/reg"]
        )
        assert args.challenger_fraction == 0.25
        assert args.challenger_version == 3
        assert args.registry == "/tmp/reg"

    def test_federate_command(self):
        code, text = run_cli(
            "federate", "colorphun", "--devices", "2",
            "--sessions", "1", "--duration", "10",
        )
        assert code == 0
        assert "fleet table" in text and "uplink" in text
