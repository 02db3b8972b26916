"""Tests for the evaluation schemes (Sec. VII comparison points)."""

import pytest

from repro.core.config import SnipConfig
from repro.schemes import (
    BaselineScheme,
    MaxCpuScheme,
    MaxIpScheme,
    NoOverheadsScheme,
    SnipScheme,
    run_scheme_session,
)

GAME = "ab_evolution"
DURATION = 20.0


@pytest.fixture(scope="module")
def snip_scheme():
    scheme = SnipScheme(
        SnipConfig(), profile_seeds=(1, 2), profile_duration_s=30.0
    )
    scheme.prepare(GAME)
    return scheme


@pytest.fixture(scope="module")
def runs(snip_scheme):
    no_overheads = NoOverheadsScheme(snip_scheme.config)
    no_overheads._packages[GAME] = snip_scheme.package_for(GAME)
    schemes = {
        "baseline": BaselineScheme(),
        "max_cpu": MaxCpuScheme(),
        "max_ip": MaxIpScheme(),
        "snip": snip_scheme,
        "no_overheads": no_overheads,
    }
    return {
        name: run_scheme_session(scheme, GAME, seed=7, duration_s=DURATION)
        for name, scheme in schemes.items()
    }


class TestBaseline:
    def test_no_coverage(self, runs):
        assert runs["baseline"].coverage == 0.0
        assert runs["baseline"].hit_rate == 0.0
        assert runs["baseline"].lookup_overhead_fraction == 0.0

    def test_savings_vs_self_zero(self, runs):
        assert runs["baseline"].savings_vs(runs["baseline"]) == pytest.approx(0.0)


class TestMaxCpu:
    def test_saves_a_little(self, runs):
        savings = runs["max_cpu"].savings_vs(runs["baseline"])
        assert 0.0 <= savings < 0.15

    def test_far_below_snip(self, runs):
        assert runs["max_cpu"].savings_vs(runs["baseline"]) < \
            runs["snip"].savings_vs(runs["baseline"]) / 2


class TestMaxIp:
    def test_saves_a_little(self, runs):
        savings = runs["max_ip"].savings_vs(runs["baseline"])
        assert 0.0 < savings < 0.15

    def test_far_below_snip(self, runs):
        assert runs["max_ip"].savings_vs(runs["baseline"]) < \
            runs["snip"].savings_vs(runs["baseline"]) / 2


class TestSnip:
    def test_savings_in_paper_band(self, runs):
        savings = runs["snip"].savings_vs(runs["baseline"])
        assert 0.20 < savings < 0.45

    def test_coverage_in_paper_band(self, runs):
        assert 0.35 < runs["snip"].coverage < 0.70

    def test_extends_battery(self, runs):
        assert runs["snip"].battery_hours > runs["baseline"].battery_hours

    def test_lookup_overhead_small(self, runs):
        assert 0.0 < runs["snip"].lookup_overhead_fraction < 0.06

    def test_fresh_tables_per_session(self, snip_scheme):
        first = run_scheme_session(snip_scheme, GAME, seed=7, duration_s=10.0)
        second = run_scheme_session(snip_scheme, GAME, seed=7, duration_s=10.0)
        # Online learning in run 1 must not leak into run 2.
        assert first.report.total_joules == pytest.approx(second.report.total_joules)

    def test_shipped_table_untouched_by_sessions(self, snip_scheme):
        before = snip_scheme.package_for(GAME).table.entry_count
        run_scheme_session(snip_scheme, GAME, seed=9, duration_s=10.0)
        assert snip_scheme.package_for(GAME).table.entry_count == before


class TestNoOverheads:
    def test_beats_snip(self, runs):
        assert runs["no_overheads"].savings_vs(runs["baseline"]) >= \
            runs["snip"].savings_vs(runs["baseline"])

    def test_no_lookup_energy(self, runs):
        assert runs["no_overheads"].lookup_overhead_fraction == 0.0


class TestOrdering:
    def test_paper_scheme_ordering(self, runs):
        """Fig. 11a's qualitative ordering: partial schemes << SNIP."""
        base = runs["baseline"]
        assert (
            runs["max_cpu"].savings_vs(base)
            < runs["snip"].savings_vs(base)
            <= runs["no_overheads"].savings_vs(base)
        )
        assert runs["max_ip"].savings_vs(base) < runs["snip"].savings_vs(base)
