"""Tests for the SNIP evaluation figures (9, 11, 12)."""

import shutil

import pytest

from repro.analysis.fig9_pfi_trimming import run_fig9
from repro.analysis.fig11_energy_benefits import run_fig11
from repro.analysis.fig12_continuous_learning import run_fig12
from repro.core.config import SnipConfig
from repro.fleet.executors import SerialExecutor, make_executor
from repro.games.base import InputCategory
from repro.registry import PackageRegistry

#: The small Fig. 12 loop the tests drive (about 2 s per run).
FIG12_KWARGS = dict(
    game_name="colorphun",
    epochs=4,
    session_duration_s=15.0,
    initial_events=40,
    ramp=2.5,
)


class TestFig9:
    @pytest.fixture(scope="class")
    def fig9(self):
        return run_fig9(seeds=(1, 2), duration_s=30.0)

    def test_starts_at_full_accuracy(self, fig9):
        assert fig9.points[0].error == pytest.approx(0.0, abs=1e-9)

    def test_necessary_inputs_are_a_sliver(self, fig9):
        # Paper: ~0.2% of the input record suffices.
        assert fig9.necessary_fraction < 0.02
        assert fig9.necessary_bytes < 4096

    def test_error_explodes_once_necessary_fields_go(self, fig9):
        # The deep end of the walk (almost nothing kept) is far worse
        # than the plateau around the selection's byte budget.
        deep_end = fig9.points[-1].error
        assert deep_end > 0.25

    def test_event_category_survives(self, fig9):
        # Fig. 9's right-most bars are In.Event fields.
        split = fig9.necessary_category_bytes
        assert split[InputCategory.EVENT] > 0

    def test_error_at_bytes_lookup(self, fig9):
        assert fig9.error_at_bytes(fig9.points[0].bytes_kept) is not None
        assert fig9.error_at_bytes(-1) is None

    def test_renders(self, fig9):
        text = fig9.to_text()
        assert "bytes kept" in text and "necessary inputs" in text


class TestFig11:
    @pytest.fixture(scope="class")
    def fig11(self):
        # Three representative games keep the test affordable: the
        # lightest, the paper's flagship, and the heaviest.
        return run_fig11(
            games=("colorphun", "ab_evolution", "race_kings"),
            seed=7,
            duration_s=40.0,
        )

    def test_snip_savings_in_band(self, fig11):
        for item in fig11.comparisons:
            assert 0.15 < item.savings("snip") < 0.45

    def test_partial_schemes_stay_small(self, fig11):
        for item in fig11.comparisons:
            assert item.savings("max_cpu") < 0.16
            assert item.savings("max_ip") < 0.16

    def test_snip_beats_partial_schemes_everywhere(self, fig11):
        for item in fig11.comparisons:
            assert item.savings("snip") > item.savings("max_cpu")
            assert item.savings("snip") > item.savings("max_ip")

    def test_coverage_band(self, fig11):
        for item in fig11.comparisons:
            assert 0.30 < item.coverage("snip") < 0.75

    def test_no_overheads_is_the_headroom(self, fig11):
        for item in fig11.comparisons:
            assert item.savings("no_overheads") >= item.savings("snip") - 1e-6
            assert item.snip_overhead_fraction < 0.08

    def test_battery_hours_extended(self, fig11):
        assert fig11.average_extra_battery_hours > 0.5

    def test_race_kings_least_coverable(self, fig11):
        by_game = fig11.by_game()
        assert by_game["race_kings"].coverage("snip") == min(
            item.coverage("snip") for item in fig11.comparisons
        )

    def test_renders(self, fig11):
        text = fig11.to_text()
        assert "(a) energy benefits" in text
        assert "(c) SNIP overheads" in text


class TestFig12:
    @pytest.fixture(scope="class")
    def fig12(self):
        return run_fig12(**FIG12_KWARGS)

    @pytest.fixture(scope="class")
    def serial_registry(self, tmp_path_factory):
        """A serial run's result and the registry it published into."""
        registry = PackageRegistry(tmp_path_factory.mktemp("fig12") / "registry")
        result = run_fig12(
            **FIG12_KWARGS, executor=SerialExecutor(), registry=registry
        )
        return result, registry

    def test_initial_error_heavy(self, fig12):
        # Paper: ~40% erroneous output fields on the starved profile.
        assert fig12.initial_error > 0.10

    def test_final_error_negligible(self, fig12):
        assert fig12.final_error < 0.01

    def test_convergence_epoch_found(self, fig12):
        assert fig12.converged_epoch is not None

    def test_renders(self, fig12):
        assert "% erroneous fields" in fig12.to_text()

    def test_every_cycle_has_a_registry_decision(self, fig12):
        assert fig12.decisions is not None
        assert [d.epoch for d in fig12.decisions] == [0, 1, 2, 3]

    def test_starved_cycle_is_rejected_not_shipped(self, fig12):
        # The data-starved first table mispredicts far below the
        # accuracy floor, so the promotion pass must refuse to ship it.
        first = fig12.decisions[0]
        assert not first.shipped
        assert first.reasons

    def test_recovered_cycle_ships(self, fig12):
        assert fig12.first_shipped_epoch is not None
        assert fig12.first_shipped_epoch > 0
        assert "shipped" in fig12.to_text()

    def test_supplied_registry_ends_with_a_champion(self, tmp_path):
        from repro.core.config import SnipConfig
        from repro.registry import PackageRegistry

        registry = PackageRegistry(tmp_path / "registry")
        result = run_fig12(
            game_name="colorphun",
            epochs=3,
            session_duration_s=15.0,
            initial_events=40,
            ramp=2.5,
            registry=registry,
        )
        state = registry.load_state("colorphun", SnipConfig())
        assert len(state.entries) == len(
            {d.version for d in result.decisions}
        )
        shipped = [d for d in result.decisions if d.shipped]
        if shipped:
            assert state.champion_version == shipped[-1].version
        else:
            assert state.champion_version is None

    def test_worker_pool_matches_the_serial_run(self, serial_registry, tmp_path):
        serial, serial_store = serial_registry
        registry = PackageRegistry(tmp_path / "registry")
        pooled = run_fig12(
            **FIG12_KWARGS, executor=make_executor(2), registry=registry
        )
        assert pooled.to_text() == serial.to_text()
        slot = ("colorphun", SnipConfig())
        assert (
            registry.state_path(*slot).read_bytes()
            == serial_store.state_path(*slot).read_bytes()
        )

    def test_bad_ramp_is_a_value_error_on_every_executor(self):
        kwargs = dict(FIG12_KWARGS, ramp=1.0)
        for executor in (SerialExecutor(), make_executor(2)):
            with pytest.raises(ValueError, match="ramp must exceed 1.0"):
                run_fig12(**kwargs, executor=executor)

    def test_rerun_against_the_same_registry_ships_nothing(
        self, serial_registry, tmp_path
    ):
        # Every table deduplicates to the version the first run
        # published, and a deduplicated version is not judged again.
        first, published = serial_registry
        registry = PackageRegistry(tmp_path / "registry")
        shutil.copytree(published.root, registry.root)
        state_path = registry.state_path("colorphun", SnipConfig())
        state = state_path.read_bytes()
        again = run_fig12(**FIG12_KWARGS, registry=registry)
        versions = [decision.version for decision in first.decisions]
        assert [decision.version for decision in again.decisions] == versions
        assert not any(decision.shipped for decision in again.decisions)
        assert [decision.reasons for decision in again.decisions] == [
            (f"identical to registered version {version}",)
            for version in versions
        ]
        assert state_path.read_bytes() == state
