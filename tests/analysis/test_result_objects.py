"""Unit tests for analysis result objects using synthetic inputs."""

import pytest

from repro.analysis.fig2_energy_breakdown import Fig2Result, GameBreakdown
from repro.analysis.fig3_battery_drain import DrainRow, Fig3Result
from repro.analysis.fig4_useless_events import Fig4Result, UselessRow
from repro.analysis.fig11_energy_benefits import Fig11Result, GameComparison
from repro.analysis.fig12_continuous_learning import Fig12Result
from repro.core.learning import EpochResult
from repro.schemes.base import SchemeRun
from repro.soc.battery import Battery
from repro.soc.component import ComponentGroup
from repro.soc.energy import EnergyMeter


def scheme_run(name, joules, coverage=0.5, lookup=0.0):
    meter = EnergyMeter()
    meter.charge("cpu", ComponentGroup.CPU, joules - lookup)
    if lookup:
        meter.charge("cpu", ComponentGroup.CPU, lookup, tag="lookup")
    return SchemeRun(
        scheme_name=name,
        game_name="toy",
        seed=1,
        duration_s=10.0,
        report=meter.report(),
        battery_hours=Battery().hours_to_empty(joules / 10.0),
        coverage=coverage,
        hit_rate=coverage,
    )


class TestSchemeRunMath:
    def test_savings(self):
        base = scheme_run("baseline", 100.0)
        snip = scheme_run("snip", 70.0)
        assert snip.savings_vs(base) == pytest.approx(0.30)

    def test_lookup_overhead_fraction(self):
        run = scheme_run("snip", 100.0, lookup=3.0)
        assert run.lookup_overhead_fraction == pytest.approx(0.03)

    def test_average_watts(self):
        assert scheme_run("x", 50.0).average_watts == pytest.approx(5.0)


class TestGameComparison:
    @pytest.fixture()
    def comparison(self):
        base = scheme_run("baseline", 100.0)
        return GameComparison(
            game_name="toy",
            baseline=base,
            runs={
                "max_cpu": scheme_run("max_cpu", 95.0, coverage=0.1),
                "max_ip": scheme_run("max_ip", 93.0, coverage=0.08),
                "snip": scheme_run("snip", 70.0, coverage=0.5, lookup=2.0),
                "no_overheads": scheme_run("no_overheads", 68.0, coverage=0.5),
            },
        )

    def test_savings_accessor(self, comparison):
        assert comparison.savings("snip") == pytest.approx(0.30)

    def test_overhead_is_gap_to_free_lookups(self, comparison):
        assert comparison.snip_overhead_fraction == pytest.approx(0.02)

    def test_result_averages(self, comparison):
        result = Fig11Result(comparisons=[comparison], compared_bytes={})
        assert result.average_savings("snip") == pytest.approx(0.30)
        assert result.average_coverage("max_cpu") == pytest.approx(0.1)
        assert "toy" in result.by_game()


class TestFig2Math:
    def test_sensors_plus_memory(self):
        item = GameBreakdown("toy", cpu=0.5, ip=0.4, memory=0.06, sensor=0.04)
        assert item.sensors_plus_memory == pytest.approx(0.10)
        result = Fig2Result(breakdowns=[item])
        assert result.by_game()["toy"] is item


class TestFig3Math:
    def test_speedup_vs_idle(self):
        result = Fig3Result(
            idle_hours=20.0,
            rows=[DrainRow("light", 1.0, 10.0), DrainRow("heavy", 4.0, 2.5)],
        )
        assert result.drain_speedup_vs_idle == pytest.approx(8.0)


class TestFig4Math:
    def test_max_useless_game(self):
        result = Fig4Result(rows=[
            UselessRow("a", 0.2, 0.1, 100),
            UselessRow("b", 0.4, 0.3, 100),
        ])
        assert result.max_useless_game == "b"


class TestFig12Math:
    def _epoch(self, epoch, error, confident=False):
        return EpochResult(
            epoch=epoch, training_events=10 * (epoch + 1), table_entries=5,
            hit_fraction=0.5, error_fraction=error, confident=confident,
        )

    def test_error_endpoints(self):
        result = Fig12Result("toy", [
            self._epoch(0, 0.4), self._epoch(1, 0.05), self._epoch(2, 0.0, True),
        ])
        assert result.initial_error == pytest.approx(0.4)
        assert result.final_error == 0.0
        assert result.converged_epoch == 2

    def test_no_convergence(self):
        result = Fig12Result("toy", [self._epoch(0, 0.4)])
        assert result.converged_epoch is None
