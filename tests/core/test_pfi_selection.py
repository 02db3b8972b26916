"""Tests for PFI analysis and necessary-input selection."""

import pytest

from repro.android.events import EventType
from repro.core.overrides import DeveloperOverrides
from repro.core.pfi import build_event_profiles
from repro.core.selection import (
    gated_table_stats,
    select_necessary_inputs,
    table_error,
    trimming_curve,
)
from repro.errors import ProfilerError
from repro.games.base import InputCategory


class TestEventProfiles:
    def test_one_profile_per_event_type(self, ab_records, snip_config):
        profiles = build_event_profiles(ab_records, snip_config)
        assert set(profiles) == {record.event_type for record in ab_records}

    def test_dataset_shape(self, ab_records, snip_config):
        profiles = build_event_profiles(ab_records, snip_config)
        profile = profiles[EventType.MULTI_TOUCH]
        assert profile.dataset.n_rows == len(profile.records)
        assert profile.dataset.n_features == len(profile.universe)

    def test_weights_are_cycles(self, ab_records, snip_config):
        profiles = build_event_profiles(ab_records, snip_config)
        profile = profiles[EventType.SWIPE]
        expected = [float(r.trace.total_cycles) for r in profile.records]
        assert profile.dataset.sample_weight.tolist() == expected

    def test_empty_profile_rejected(self, snip_config):
        with pytest.raises(ProfilerError):
            build_event_profiles([], snip_config)


class TestPfi:
    def test_importances_cover_universe(self, ab_analysis):
        for event_type, ranked in ab_analysis.importances.items():
            universe_names = {
                info.name for info in ab_analysis.profiles[event_type].universe
            }
            assert {imp.name for imp in ranked} == universe_names

    def test_importances_sorted_descending(self, ab_analysis):
        for ranked in ab_analysis.importances.values():
            values = [imp.importance for imp in ranked]
            assert values == sorted(values, reverse=True)

    def test_stretch_matters_for_drags(self, ab_analysis):
        # The catapult stretch is the dominant drag input; PFI must not
        # rank it at the bottom.
        ranked = ab_analysis.importances[EventType.MULTI_TOUCH]
        position = next(
            i for i, imp in enumerate(ranked) if imp.name == "hist:stretch"
        )
        assert position < len(ranked) / 2

    def test_event_types_ordered_by_cycles(self, ab_analysis):
        ordered = ab_analysis.event_types()
        cycles = [ab_analysis.profiles[t].total_cycles for t in ordered]
        assert cycles == sorted(cycles, reverse=True)


class TestTableError:
    def test_full_universe_error_is_zero(self, ab_analysis):
        # Keying on every input location reproduces outputs exactly.
        for profile in ab_analysis.profiles.values():
            assert table_error(profile, profile.universe) == pytest.approx(0.0)

    def test_empty_key_error_is_high(self, ab_analysis):
        profile = ab_analysis.profiles[EventType.FRAME_TICK]
        assert table_error(profile, []) > 0.3

    def test_error_monotone_under_refinement(self, ab_analysis):
        profile = ab_analysis.profiles[EventType.MULTI_TOUCH]
        subset = profile.universe[:3]
        superset = profile.universe[:8]
        assert table_error(profile, superset) <= table_error(profile, subset) + 1e-9


class TestGatedStats:
    def test_coverage_and_error_in_unit_interval(self, ab_analysis, snip_config):
        profile = ab_analysis.profiles[EventType.FRAME_TICK]
        stats = gated_table_stats(profile, profile.universe[:4], snip_config)
        assert 0.0 <= stats.coverage <= 1.0
        assert 0.0 <= stats.error <= 1.0

    def test_gate_kills_fragmenting_keys(self, ab_analysis, snip_config):
        profile = ab_analysis.profiles[EventType.FRAME_TICK]
        score = [info for info in profile.universe if info.name == "hist:score"]
        with_score = gated_table_stats(profile, profile.universe, snip_config)
        # Keying on everything (incl. per-session-unique combos) can
        # never beat the curated selection.
        selection = select_necessary_inputs(ab_analysis, snip_config)
        selected = selection.fields_for(EventType.FRAME_TICK)
        curated = gated_table_stats(profile, selected, snip_config)
        assert curated.coverage >= with_score.coverage - 1e-9
        assert score  # the fragmenting field exists in the universe

    def test_error_stays_below_consistency_slack(self, ab_analysis, snip_config):
        selection = select_necessary_inputs(ab_analysis, snip_config)
        for event_type, profile in ab_analysis.profiles.items():
            stats = gated_table_stats(
                profile, selection.fields_for(event_type), snip_config
            )
            # The consistency gate bounds in-profile error.
            assert stats.error <= (1 - snip_config.table_consistency) + 0.01


class TestSelection:
    def test_selected_fields_subset_of_universe(self, ab_analysis, ab_package):
        for event_type, fields in ab_package.selection.by_event_type.items():
            universe = {
                info.name for info in ab_analysis.profiles[event_type].universe
            }
            assert {info.name for info in fields} <= universe

    def test_selection_sheds_wide_blobs(self, ab_package):
        # The 100+ kB layout buffer must never survive into a key.
        for event_type in ab_package.selection.by_event_type:
            assert ab_package.selection.comparison_bytes(event_type) < 1_000

    def test_selection_is_tiny_fraction_of_record(self, ab_package):
        # Fig. 9: necessary inputs are a sliver of the full record.
        full = ab_package.full_record_bytes / max(1, ab_package.profile_events)
        assert ab_package.selection.total_bytes < full * 0.05

    def test_forced_fields_kept(self, ab_analysis, snip_config):
        overrides = DeveloperOverrides()
        overrides.force("hist:wind", EventType.MULTI_TOUCH)
        selection = select_necessary_inputs(ab_analysis, snip_config, overrides)
        names = {info.name for info in selection.fields_for(EventType.MULTI_TOUCH)}
        assert "hist:wind" in names

    def test_category_breakdown_sums(self, ab_package):
        split = ab_package.selection.category_breakdown()
        assert sum(split.values()) == ab_package.selection.total_bytes

    def test_unknown_event_type_empty(self, ab_package):
        assert ab_package.selection.fields_for(EventType.GPS) == []
        assert ab_package.selection.comparison_bytes(EventType.GPS) == 0


class TestTrimmingCurve:
    def test_starts_accurate_ends_inaccurate(self, ab_analysis):
        points = trimming_curve(ab_analysis)
        assert points[0].error == pytest.approx(0.0, abs=1e-9)
        assert points[-1].error > points[0].error

    def test_bytes_monotone_decreasing(self, ab_analysis):
        points = trimming_curve(ab_analysis)
        sizes = [point.bytes_kept for point in points]
        assert sizes == sorted(sizes, reverse=True)

    def test_one_point_per_removable_field(self, ab_analysis):
        points = trimming_curve(ab_analysis)
        removable = sum(
            len(profile.universe) for profile in ab_analysis.profiles.values()
        )
        assert len(points) == removable + 1

    def test_removal_metadata_populated(self, ab_analysis):
        points = trimming_curve(ab_analysis)
        assert points[0].removed_field is None
        assert all(point.removed_field for point in points[1:])
        assert all(
            isinstance(point.removed_category, InputCategory)
            for point in points[1:]
        )
