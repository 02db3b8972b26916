"""Unit tests for the continuous-learning machinery's internals."""

import pytest

from repro.core.learning import (
    available_events,
    epoch_seeds,
    evaluate_table,
    run_epoch,
    truncate_trace,
)
from repro.users.tracegen import generate_trace


class TestDataStarvation:
    def test_available_events_ramp(self):
        assert available_events(40, 2.0, 0) == 40
        assert available_events(40, 2.0, 1) == 80
        assert available_events(40, 2.0, 3) == 320

    def test_truncation_caps_each_session(self):
        trace = generate_trace("colorphun", seed=1, duration_s=10.0)
        truncated = truncate_trace(trace, 25)
        assert len(truncated) == 25
        assert truncated.game_name == trace.game_name
        assert truncated.events == trace.events[:25]

    def test_truncation_beyond_length_is_identity(self):
        trace = generate_trace("colorphun", seed=1, duration_s=5.0)
        assert len(truncate_trace(trace, 10**6)) == len(trace)


class TestEpochBookkeeping:
    def test_traces_accumulate_across_epochs(self):
        # Epoch k trains on the sessions of epochs 0..k, each capped at
        # epoch k's event budget.
        kwargs = dict(session_duration_s=8.0, initial_events=30, ramp=3.0)
        first, _ = run_epoch("colorphun", 0, **kwargs)
        second, _ = run_epoch("colorphun", 1, **kwargs)
        sessions = [
            generate_trace("colorphun", epoch_seeds(0, epoch)[0], 8.0)
            for epoch in (0, 1)
        ]
        assert first.epoch == 0 and second.epoch == 1
        assert first.training_events == min(30, len(sessions[0]))
        assert second.training_events == sum(
            min(90, len(session)) for session in sessions
        )

    def test_epochs_are_deterministic(self):
        def run():
            return run_epoch(
                "colorphun", 0, session_duration_s=8.0, initial_events=30,
                ramp=3.0, seed=4,
            )[0]

        first, second = run(), run()
        assert first.error_fraction == pytest.approx(second.error_fraction)
        assert first.table_entries == second.table_entries

    def test_ungated_epochs_fire_harder(self):
        kwargs = dict(
            session_duration_s=10.0, initial_events=40, ramp=3.0, seed=2
        )
        gated, _ = run_epoch("colorphun", 0, **kwargs)
        ungated, _ = run_epoch("colorphun", 0, ungated_epochs=1, **kwargs)
        # Without the confidence gate the starved table substitutes far
        # more aggressively (and pays for it in errors).
        assert ungated.hit_fraction >= gated.hit_fraction
        assert ungated.error_fraction >= gated.error_fraction


class TestEvaluation:
    def test_evaluate_counts_every_event(self, ab_package):
        trace = generate_trace("ab_evolution", seed=42, duration_s=8.0)
        hit_fraction, error_fraction = evaluate_table(
            "ab_evolution", ab_package.table, trace
        )
        assert 0.0 <= hit_fraction <= 1.0
        assert 0.0 <= error_fraction <= 1.0

    def test_empty_table_never_errs(self, ab_package):
        from repro.core.table import SnipTable

        trace = generate_trace("ab_evolution", seed=42, duration_s=8.0)
        hit_fraction, error_fraction = evaluate_table(
            "ab_evolution", SnipTable(ab_package.selection), trace
        )
        assert hit_fraction == 0.0
        assert error_fraction == 0.0
