"""SnipService supervisor: cycle mechanics, planning, and telemetry."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.errors import ServiceError
from repro.fleet.telemetry import (
    CYCLE_FINISHED,
    CYCLE_STARTED,
    PEAK_RSS,
    QUEUE_DEPTH,
    STAGE_FINISHED,
    TelemetryBus,
    TelemetryEvent,
)
from repro.registry.promotion import PromotionPolicy
from repro.service import ServiceConfig, SnipService
from repro.service.daemon import (
    MODE_OFFLINE,
    MODE_ROLLOUT,
    MODE_STEADY,
    STAGE_INGEST,
    STAGE_PROFILE,
    STAGE_SHIP,
    STAGES,
    service_progress_printer,
)
from repro.service.reports import DeviceReport, ReportQueue

from tests.service.conftest import make_service


@pytest.fixture(scope="module")
def telemetry_events():
    """Every telemetry event the shared 3-cycle daemon emits, in order."""
    return []


@pytest.fixture(scope="module")
def three_cycles(tmp_path_factory, shared_cache, telemetry_events):
    """One uninterrupted 3-cycle daemon shared by the read-only tests."""
    config = ServiceConfig(
        game_name="colorphun",
        devices=6,
        sessions_per_device=1,
        session_duration_s=3.0,
        seed=0,
        shard_size=2,
        base_profile_seeds=(1,),
        profile_duration_s=5.0,
        max_profile_seeds=4,
        seeds_per_cycle=1,
        ungated_cycles=1,
        eval_duration_s=5.0,
    )
    run_dir = tmp_path_factory.mktemp("daemon") / "run"
    telemetry = TelemetryBus()
    telemetry.subscribe(telemetry_events.append)
    service = make_service(config, run_dir, shared_cache, telemetry=telemetry)
    result = service.run(cycles=3)
    return service, result


def test_run_completes_every_stage_of_every_cycle(three_cycles):
    service, result = three_cycles
    assert result.cycles_completed == 3
    assert not result.stopped
    assert result.ledger_path == service.run_dir / "ledger.json"
    assert service.ledger.completed_count() == 3
    for index in range(3):
        record = service.ledger.cycle(index)
        assert record["complete"]
        assert sorted(record["stages"]) == sorted(STAGES)


def test_bootstrap_cycle_establishes_a_champion(three_cycles):
    service, _ = three_cycles
    plan = service.ledger.stage(0, "plan")
    ship = service.ledger.stage(0, STAGE_SHIP)
    # No champion exists yet, so cycle 0 promotes offline and ungated.
    assert plan["mode"] == MODE_OFFLINE
    assert plan["ungated"] is True
    assert plan["champion_version_before"] is None
    assert ship["promoted"] is True
    assert ship["champion_version_after"] == 1


def test_champion_lineage_flows_through_the_ledger(three_cycles):
    service, _ = three_cycles
    champion = None
    for index in range(3):
        plan = service.ledger.stage(index, "plan")
        ship = service.ledger.stage(index, STAGE_SHIP)
        assert plan["champion_version_before"] == champion
        champion = ship["champion_version_after"]
        assert champion is not None
        if plan["mode"] == MODE_STEADY:
            assert ship["promoted"] is False
            assert ship["decision"] is None


def test_reports_loop_back_into_the_next_ingest(three_cycles):
    service, _ = three_cycles
    # Cycle 0 starts with an empty queue; each later cycle consumes
    # exactly the batch the previous cycle's fleet enqueued.
    assert service.ledger.stage(0, STAGE_INGEST)["batches"] == []
    for index in (1, 2):
        ingest = service.ledger.stage(index, STAGE_INGEST)
        assert ingest["batches"] == [index - 1]
        assert ingest["reports"] == service.config.devices
        assert ingest["deferred"] == 0
    # The final cycle's batch is produced but never consumed.
    assert service.queue.pending() == [2]


def test_adopted_seeds_grow_the_profile_corpus(three_cycles):
    service, _ = three_cycles
    base = list(service.config.base_profile_seeds)
    assert service.ledger.stage(0, STAGE_PROFILE)["seeds"] == base
    adopted = service.ledger.stage(1, STAGE_INGEST)["adopted"]
    assert len(adopted) == 1  # seeds_per_cycle
    assert adopted[0]["misses"] > 0
    assert adopted[0]["seed"] >= 100_000  # clear of hand-picked seeds
    assert (
        service.ledger.stage(1, STAGE_PROFILE)["seeds"]
        == base + [adopted[0]["seed"]]
    )


def test_ship_records_carry_no_wall_clock(three_cycles):
    service, _ = three_cycles
    text = service.ledger.to_json()
    for key in ("wall_s", "elapsed", "timestamp", "time"):
        assert f'"{key}"' not in text


def test_identical_config_reproduces_identical_ledger_bytes(
    three_cycles, reference_ledger
):
    service, _ = three_cycles
    # Two independent daemons (fresh run dirs, fresh registries) with
    # the same config converge on byte-identical ledgers.
    assert service.ledger.to_json() == reference_ledger


def test_telemetry_narrates_cycles_and_stages(three_cycles, telemetry_events):
    service, _ = three_cycles
    kinds = [event.kind for event in telemetry_events]
    assert kinds.count(CYCLE_STARTED) == 3
    assert kinds.count(CYCLE_FINISHED) == 3
    assert kinds.count(STAGE_FINISHED) == 3 * len(STAGES)
    assert QUEUE_DEPTH in kinds
    assert PEAK_RSS in kinds
    assert service.telemetry.counters.peak_rss_bytes > 0
    finished = [
        event for event in telemetry_events if event.kind == CYCLE_FINISHED
    ]
    assert [event.payload["cycle"] for event in finished] == [0, 1, 2]
    assert all(event.payload["wall_s"] >= 0 for event in finished)


def test_progress_printer_renders_lifecycle_lines():
    def event(kind, **payload):
        return TelemetryEvent(
            kind=kind, shard_index=None, payload=payload, elapsed_s=0.0
        )

    out = io.StringIO()
    printer = service_progress_printer(out)
    printer(event(CYCLE_STARTED, cycle=0, queue_depth=2))
    printer(event(STAGE_FINISHED, cycle=0, stage="profile", wall_s=0.25))
    printer(
        event(CYCLE_FINISHED, cycle=0, mode="offline", promoted=True, wall_s=1.0)
    )
    text = out.getvalue()
    assert "cycle 0 started (queue depth 2)" in text
    assert "cycle 0 profile done (0.25s)" in text
    assert "cycle 0 finished (offline, promoted, 1.00s)" in text


def test_backpressure_merges_deep_backlogs(tmp_path, shared_cache, tiny_config):
    config = dataclasses.replace(tiny_config, max_batches_per_cycle=1)
    run_dir = tmp_path / "run"
    # A backlog deeper than one cycle's claim, queued before the daemon
    # starts (sequences far above the daemon's own cycle indices).
    queue = ReportQueue(run_dir / "queue")
    noisy = DeviceReport(
        device_id=99, archetype="budget", cohort="champion",
        sessions=1, events=50, hits=10, misses=40,
    )
    queue.enqueue([noisy], producer_cycle=100, sequence=100)
    queue.enqueue([noisy], producer_cycle=101, sequence=101)

    service = make_service(config, run_dir, shared_cache)
    service.run(cycles=2)
    first = service.ledger.stage(0, STAGE_INGEST)
    assert first["batches"] == [100]
    assert first["deferred"] == 1
    assert first["adopted"][0]["device_id"] == 99
    # Cycle 1 claims the oldest pending batch — its own cycle-0 report
    # — and keeps merging the leftover backlog forward.
    second = service.ledger.stage(1, STAGE_INGEST)
    assert second["batches"] == [0]
    assert second["deferred"] == 1
    assert service.queue.pending() == [1, 101]


def test_rollout_mode_judges_cohorts_and_records_the_verdict(
    tmp_path, shared_cache, tiny_config
):
    config = dataclasses.replace(tiny_config, challenger_fraction=0.5)
    service = make_service(config, tmp_path / "run", shared_cache)
    service.run(cycles=3)
    plans = [service.ledger.stage(index, "plan") for index in range(3)]
    modes = [plan["mode"] for plan in plans]
    assert modes[0] == MODE_OFFLINE  # bootstrap never rolls out
    assert MODE_ROLLOUT in modes[1:]
    rollout = modes.index(MODE_ROLLOUT)
    ship = service.ledger.stage(rollout, STAGE_SHIP)
    decision = ship["decision"]
    assert decision is not None
    assert decision["version"] == plans[rollout]["candidate_version"]
    assert decision["promoted"] == ship["promoted"]
    # The fleet actually split: the spec pinned both cohort digests.
    assert plans[rollout]["candidate_digest"] != ""
    if ship["promoted"]:
        assert ship["champion_version_after"] == plans[rollout]["candidate_version"]
    else:
        assert (
            ship["champion_version_after"]
            == plans[rollout]["champion_version_before"]
        )


def test_run_dir_rejects_a_different_config_or_policy(
    tmp_path, shared_cache, tiny_config
):
    run_dir = tmp_path / "run"
    make_service(tiny_config, run_dir, shared_cache)
    with pytest.raises(ServiceError, match="different service config"):
        make_service(
            dataclasses.replace(tiny_config, seed=1), run_dir, shared_cache
        )
    with pytest.raises(ServiceError, match="different service config"):
        make_service(
            tiny_config, run_dir, shared_cache,
            policy=PromotionPolicy(min_hit_rate=0.5),
        )
    # Same config and policy: reopening is fine (that's resume).
    make_service(tiny_config, run_dir, shared_cache)


def test_run_dir_rejects_foreign_format_and_torn_manifest(
    tmp_path, shared_cache, tiny_config
):
    run_dir = tmp_path / "run"
    service = make_service(tiny_config, run_dir, shared_cache)
    manifest = json.loads(service.manifest_path.read_text())
    manifest["format_version"] = 999
    service.manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ServiceError, match="format 999"):
        make_service(tiny_config, run_dir, shared_cache)
    service.manifest_path.write_text("{ torn")
    with pytest.raises(ServiceError, match="unreadable service manifest"):
        make_service(tiny_config, run_dir, shared_cache)


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"devices": 0}, "devices must be positive"),
        ({"session_duration_s": 0.0}, "durations must be positive"),
        ({"eval_duration_s": -1.0}, "eval_duration_s must be positive"),
        ({"base_profile_seeds": ()}, "must not be empty"),
        ({"max_profile_seeds": 0}, "must cover the base corpus"),
        ({"seeds_per_cycle": -1}, "seeds_per_cycle"),
        ({"max_batches_per_cycle": 0}, "max_batches_per_cycle"),
        ({"ungated_cycles": -1}, "ungated_cycles"),
        ({"challenger_fraction": 1.5}, "challenger_fraction"),
    ],
)
def test_config_validation_is_loud(tiny_config, overrides, match):
    with pytest.raises(ServiceError, match=match):
        dataclasses.replace(tiny_config, **overrides)


def test_fingerprint_pins_config_and_policy(tiny_config):
    policy = PromotionPolicy()
    base = tiny_config.fingerprint(policy)
    assert base == tiny_config.fingerprint(PromotionPolicy())
    assert base != dataclasses.replace(tiny_config, seed=1).fingerprint(policy)
    assert base != tiny_config.fingerprint(PromotionPolicy(min_hit_rate=0.9))
