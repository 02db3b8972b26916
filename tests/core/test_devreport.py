"""Tests for the developer-intervention report."""

from repro.android.events import EventType
from repro.core.devreport import build_developer_report


class TestDeveloperReport:
    def test_every_profiled_handler_reported(self, ab_analysis, ab_package):
        report = build_developer_report(
            "ab_evolution", ab_analysis, ab_package.selection
        )
        assert set(report.verdicts) == set(ab_analysis.profiles)

    def test_kept_matches_selection(self, ab_analysis, ab_package):
        report = build_developer_report(
            "ab_evolution", ab_analysis, ab_package.selection
        )
        for event_type in report.verdicts:
            kept = {v.name for v in report.kept_fields(event_type)}
            selected = {
                info.name
                for info in ab_package.selection.fields_for(event_type)
            }
            assert kept == selected

    def test_kept_plus_dropped_is_universe(self, ab_analysis, ab_package):
        report = build_developer_report(
            "ab_evolution", ab_analysis, ab_package.selection
        )
        for event_type, profile in ab_analysis.profiles.items():
            names = {v.name for v in report.verdicts[event_type]}
            assert names == {info.name for info in profile.universe}

    def test_temp_output_candidates_found(self, ab_analysis, ab_package):
        report = build_developer_report(
            "ab_evolution", ab_analysis, ab_package.selection
        )
        tick_temps = report.temp_output_fields[EventType.FRAME_TICK]
        assert "temp:frame" in tick_temps

    def test_renders(self, ab_analysis, ab_package):
        report = build_developer_report(
            "ab_evolution", ab_analysis, ab_package.selection
        )
        text = report.to_text()
        assert "Developer report" in text
        assert "KEEP" in text and "drop" in text
        assert "out.temp candidates" in text
