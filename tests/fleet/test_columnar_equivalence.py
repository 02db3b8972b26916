"""The columnar session fast path changes nothing observable.

``run_device`` routes every device through structure-of-arrays trace
assembly, batched probes, and columnar energy ledgers; the scalar
``run_device_reference`` is the seed implementation kept verbatim.
These tests assert *byte* identity — pickled :class:`DeviceResult`
payloads and rendered fleet reports — across every game, both cohorts
of a staged rollout, and job counts.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.fleet import FleetEngine, FleetSpec, QueueFleetExecutor
from repro.fleet.spec import COHORT_CHALLENGER, COHORT_CHAMPION
from repro.fleet.work import run_device, run_device_reference
from repro.games.registry import GAME_NAMES


def _small_spec(game_name: str, **overrides) -> FleetSpec:
    settings = dict(
        game_name=game_name,
        devices=3,
        sessions_per_device=1,
        duration_s=1.0,
        seed=11,
        shard_size=3,
        profile_seeds=(1,),
        profile_duration_s=2.0,
        measure_energy=True,
        federate=True,
    )
    settings.update(overrides)
    return FleetSpec(**settings)


def _build_package(game_name: str, spec: FleetSpec, seeds=None):
    return CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
        game_name,
        seeds=list(seeds if seeds is not None else spec.profile_seeds),
        duration_s=spec.profile_duration_s,
    )


class TestDeviceEquivalence:
    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_device_results_pickle_identically_across_games(self, game_name):
        spec = _small_spec(game_name)
        package = _build_package(game_name, spec)
        config = SnipConfig()
        for device in range(spec.devices):
            batched = run_device(
                device, spec, package.selection, package.table, config
            )
            reference = run_device_reference(
                device, spec, package.selection, package.table, config
            )
            assert pickle.dumps(batched) == pickle.dumps(reference), (
                f"{game_name} device {device}: batched DeviceResult "
                f"diverged from the scalar reference"
            )

    def test_no_energy_federation_only_devices_identical(self):
        spec = _small_spec("candy_crush", measure_energy=False)
        package = _build_package(spec.game_name, spec)
        config = SnipConfig()
        for device in range(spec.devices):
            batched = run_device(
                device, spec, package.selection, package.table, config
            )
            reference = run_device_reference(
                device, spec, package.selection, package.table, config
            )
            assert pickle.dumps(batched) == pickle.dumps(reference)

    def test_challenger_cohort_devices_identical(self):
        spec = _small_spec(
            "candy_crush", devices=10, shard_size=5, challenger_fraction=0.5
        )
        cohorts = {spec.cohort_of(device) for device in range(spec.devices)}
        assert cohorts == {COHORT_CHAMPION, COHORT_CHALLENGER}, (
            "the spec must deal devices into both cohorts for this test"
        )
        champion = _build_package(spec.game_name, spec)
        challenger = _build_package(spec.game_name, spec, seeds=(2,))
        config = SnipConfig()
        for device in range(spec.devices):
            batched = run_device(
                device,
                spec,
                champion.selection,
                champion.table,
                config,
                challenger_selection=challenger.selection,
                challenger_table=challenger.table,
            )
            reference = run_device_reference(
                device,
                spec,
                champion.selection,
                champion.table,
                config,
                challenger_selection=challenger.selection,
                challenger_table=challenger.table,
            )
            assert pickle.dumps(batched) == pickle.dumps(reference), (
                f"device {device} ({spec.cohort_of(device)} cohort): "
                f"batched DeviceResult diverged from the scalar reference"
            )


class TestFleetReportEquivalence:
    def test_fleet_report_identical_across_jobs_and_batching(self, monkeypatch):
        spec = _small_spec("candy_crush", devices=8, shard_size=2)
        serial = FleetEngine(spec, cache=None).run()
        parallel = FleetEngine(
            spec, executor=QueueFleetExecutor(jobs=4), cache=None
        ).run()
        assert parallel.to_json() == serial.to_json()
        assert parallel.to_text() == serial.to_text()

        # The serial engine calls run_device in-process, so patching the
        # module attribute sends every device through the scalar loop.
        monkeypatch.setattr(
            "repro.fleet.work.run_device", run_device_reference
        )
        scalar = FleetEngine(spec, cache=None).run()
        assert scalar.to_json() == serial.to_json()
        assert scalar.to_text() == serial.to_text()
