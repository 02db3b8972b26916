"""Kill the daemon anywhere; the resumed ledger is byte-identical.

The determinism contract for ``repro-snip serve``: the cycle ledger is
a pure function of (config, policy). These tests kill a daemon at
parametrized stage boundaries — and in the middle of a ship fleet —
then resume with a fresh process-equivalent :class:`SnipService` and
compare the finished ledger byte-for-byte against the uninterrupted
reference run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet import SerialExecutor
from repro.service import CycleLedger, ServiceConfig
from repro.service.daemon import LEDGER_NAME, MANIFEST_NAME

from tests.service.conftest import make_service


class KilledAt(Exception):
    """The simulated crash (power loss, OOM kill, deploy restart)."""


def killer(kill_cycle: int, kill_stage: str, kill_phase: str):
    """A stage hook that dies at one precise point in the run."""

    def hook(cycle: int, stage: str, phase: str) -> None:
        if (cycle, stage, phase) == (kill_cycle, kill_stage, kill_phase):
            raise KilledAt(f"cycle {cycle} {stage} {phase}")

    return hook


class DyingExecutor(SerialExecutor):
    """Streams ``limit`` shard results, then the process 'dies'."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def stream(self, fn, payloads, telemetry=None):
        inner = super().stream(fn, payloads, telemetry=telemetry)
        for count, item in enumerate(inner):
            if count >= self.limit:
                raise KilledAt(f"after {count} shards")
            yield item


# "pre" kills before a stage's side effects, "post" kills after its
# side effects landed but telemetry never fired — the two halves of
# every stage's crash window. The stages cover ISSUE's kill points:
# mid-profile, mid-publish, and mid-ship of both bootstrap and
# steady-state cycles.
KILL_POINTS = [
    (0, "ingest", "pre"),
    (0, "ship", "post"),
    (1, "profile", "pre"),
    (1, "profile", "post"),
    (1, "publish", "pre"),
    (1, "publish", "post"),
    (2, "plan", "post"),
    (2, "ship", "pre"),
]


@pytest.mark.parametrize("cycle, stage, phase", KILL_POINTS)
def test_killed_daemon_resumes_to_identical_ledger(
    tmp_path, shared_cache, tiny_config, reference_ledger, cycle, stage, phase
):
    run_dir = tmp_path / "run"
    crashing = make_service(
        tiny_config, run_dir, shared_cache,
        stage_hook=killer(cycle, stage, phase),
    )
    with pytest.raises(KilledAt):
        crashing.run(cycles=3)
    # The crash left a loadable (if incomplete) ledger behind.
    assert CycleLedger(run_dir / LEDGER_NAME).completed_count() <= cycle

    resumed = make_service(tiny_config, run_dir, shared_cache)
    result = resumed.run(cycles=3)
    assert result.cycles_completed == 3
    assert resumed.ledger.to_json() == reference_ledger


def test_killed_mid_fleet_resumes_from_shard_checkpoints(
    tmp_path, shared_cache, tiny_config, reference_ledger
):
    run_dir = tmp_path / "run"
    crashing = make_service(
        tiny_config, run_dir, shared_cache, executor=DyingExecutor(limit=1)
    )
    with pytest.raises(KilledAt):
        crashing.run(cycles=3)
    # The ship stage never recorded, but its fleet checkpointed the
    # finished shard; resume folds it instead of re-running it.
    checkpoint = run_dir / "fleet" / "cycle_0000"
    assert list(checkpoint.glob("shards/*.pkl"))

    resumed = make_service(tiny_config, run_dir, shared_cache)
    result = resumed.run(cycles=3)
    assert result.cycles_completed == 3
    assert resumed.ledger.to_json() == reference_ledger
    # Completed cycles garbage-collect their fleet checkpoints.
    assert not checkpoint.exists()


def test_killed_rollout_resumes_to_identical_ledger(
    tmp_path, shared_cache, tiny_config
):
    # Same contract under staged rollouts: the ship stage judges
    # cohorts and mutates the registry, so a kill on either side of it
    # must still converge.
    config = dataclasses.replace(tiny_config, challenger_fraction=0.5)
    reference = make_service(config, tmp_path / "reference", shared_cache)
    reference.run(cycles=3)
    assert "rollout" in reference.ledger.to_json()

    for phase in ("pre", "post"):
        run_dir = tmp_path / f"killed-{phase}"
        crashing = make_service(
            config, run_dir, shared_cache, stage_hook=killer(1, "ship", phase)
        )
        with pytest.raises(KilledAt):
            crashing.run(cycles=3)
        resumed = make_service(config, run_dir, shared_cache)
        resumed.run(cycles=3)
        assert resumed.ledger.to_json() == reference.ledger.to_json()


def test_stop_flag_halts_at_stage_boundary_and_resumes(
    tmp_path, shared_cache, tiny_config, reference_ledger
):
    run_dir = tmp_path / "run"
    service = make_service(tiny_config, run_dir, shared_cache)

    def request_stop(cycle: int, stage: str, phase: str) -> None:
        # What the SIGTERM handler does, minus the signal plumbing.
        if (cycle, stage, phase) == (1, "profile", "post"):
            service._stop = True

    service.stage_hook = request_stop
    result = service.run(cycles=3)
    assert result.stopped
    assert result.cycles_completed == 1  # cycle 1 parked mid-flight

    resumed = make_service(tiny_config, run_dir, shared_cache)
    final = resumed.run(cycles=3)
    assert not final.stopped
    assert final.cycles_completed == 3
    assert resumed.ledger.to_json() == reference_ledger


SERVE_ARGS = [
    "serve", "--game", "colorphun", "--cycles", "3", "--quiet",
    "--devices", "4", "--duration", "2", "--shard-size", "2",
    "--profile-duration", "3", "--eval-duration", "3",
]


def _serve(run_dir: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *SERVE_ARGS, "--run-dir", str(run_dir),
         *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_sigterm_exits_cleanly_and_leaves_a_resumable_run_dir(tmp_path):
    run_dir = tmp_path / "run"
    daemon = _serve(run_dir)
    # Wait for the supervisor loop (which installs the handlers and
    # opens the ledger) before delivering the signal.
    deadline = time.monotonic() + 60
    while not (run_dir / LEDGER_NAME).exists():
        if daemon.poll() is not None or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    stdout, stderr = daemon.communicate(timeout=120)
    assert daemon.returncode == 0, stderr

    # The run dir survived in a resumable state...
    assert (run_dir / MANIFEST_NAME).exists()
    ledger = CycleLedger(run_dir / LEDGER_NAME)
    assert ledger.completed_count() <= 3

    # ...and a second invocation with the same flags finishes the job.
    resume = _serve(run_dir, "--format", "json")
    stdout, stderr = resume.communicate(timeout=300)
    assert resume.returncode == 0, stderr
    document = json.loads(stdout)
    assert sum(1 for cycle in document["cycles"] if cycle["complete"]) == 3


def test_config_matches_the_cli_defaults_used_above():
    # The subprocess test relies on the CLI mapping these flags onto
    # ServiceConfig; pin the translation so flag drift fails loudly.
    config = ServiceConfig(
        game_name="colorphun",
        devices=4,
        session_duration_s=2.0,
        shard_size=2,
        profile_duration_s=3.0,
        eval_duration_s=3.0,
    )
    assert config.seed == 0
    assert config.base_profile_seeds == (1,)
    assert config.challenger_fraction == 0.0
