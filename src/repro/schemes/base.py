"""Scheme interface and the shared session runner.

A scheme supplies a per-event ``deliver`` implementation; the runner
feeds it the same generated event stream the baseline sees, advancing
simulated time in between, and packages the ledger plus the scheme's
short-circuit statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.games.base import Game
from repro.soc.energy import ColumnarMeter, EnergyReport, TAG_LOOKUP
from repro.soc.soc import Soc, snapdragon_821
from repro.games.registry import GAME_CONTENT_SEED, create_game, fresh_game
from repro.users.tracegen import generate_events, generate_trace


@dataclass
class SchemeRun:
    """Result of one scheme session: its ledger and counters, not the
    SoC that played it, so a run pickles to under a kilobyte."""

    scheme_name: str
    game_name: str
    seed: int
    duration_s: float
    report: EnergyReport
    #: Projected hours to drain a full battery at this session's power.
    battery_hours: float
    #: Cycle-weighted fraction of execution the scheme short-circuited.
    coverage: float
    #: Fraction of events the scheme's table/cache hit (0 for baseline).
    hit_rate: float

    @property
    def average_watts(self) -> float:
        """Mean device power over the session."""
        return self.report.total_joules / self.duration_s

    @property
    def lookup_overhead_fraction(self) -> float:
        """Share of total energy spent probing lookup tables."""
        return self.report.tag_fraction(TAG_LOOKUP)

    def savings_vs(self, baseline: "SchemeRun") -> float:
        """Energy saved relative to a baseline run of the same session."""
        if baseline.report.total_joules <= 0:
            return 0.0
        return 1.0 - self.report.total_joules / baseline.report.total_joules


class Scheme:
    """One optimization scheme: builds a runner for a (soc, game) pair."""

    name = "abstract"

    def prepare(self, game_name: str) -> None:
        """One-time setup before sessions (e.g. build the SNIP table)."""

    def make_runner(self, soc: Soc, game: Game):
        """Return an object exposing ``deliver(event)`` plus counters.

        The runner must expose ``coverage`` and ``hit_rate`` attributes
        (floats) when the session ends.
        """
        raise NotImplementedError


def run_scheme_session_reference(
    scheme: Scheme,
    game_name: str,
    seed: int = 0,
    duration_s: float = 60.0,
    soc: Optional[Soc] = None,
) -> SchemeRun:
    """Scalar golden reference for :func:`run_scheme_session`.

    Kept verbatim: the equivalence suite asserts the batched session
    runner produces identical :class:`SchemeRun` reports against this.
    """
    soc = soc or snapdragon_821()
    game = create_game(game_name, seed=GAME_CONTENT_SEED)
    runner = scheme.make_runner(soc, game)
    clock = 0.0
    for event in generate_events(game_name, seed, duration_s):
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runner.deliver(event)
    if duration_s > clock:
        soc.advance_time(duration_s - clock)
    return _package_run(scheme, game_name, seed, duration_s, soc, runner)


def run_scheme_session(
    scheme: Scheme,
    game_name: str,
    seed: int = 0,
    duration_s: float = 60.0,
) -> SchemeRun:
    """Run one full session under ``scheme`` and collect the ledger.

    Fast path: the events come from
    :func:`~repro.users.tracegen.generate_trace` (each materialised
    exactly once) and the ledger is an append-only
    :class:`~repro.soc.energy.ColumnarMeter` folded once at report
    time. Reports are byte-identical to the scalar reference.
    """
    soc = snapdragon_821(meter=ColumnarMeter())
    game = fresh_game(game_name, seed=GAME_CONTENT_SEED)
    runner = scheme.make_runner(soc, game)
    clock = 0.0
    for event in generate_trace(game_name, seed, duration_s).events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runner.deliver(event)
    if duration_s > clock:
        soc.advance_time(duration_s - clock)
    return _package_run(scheme, game_name, seed, duration_s, soc, runner)


def _package_run(
    scheme: Scheme,
    game_name: str,
    seed: int,
    duration_s: float,
    soc: Soc,
    runner,
) -> SchemeRun:
    report = soc.report()
    return SchemeRun(
        scheme_name=scheme.name,
        game_name=game_name,
        seed=seed,
        duration_s=duration_s,
        report=report,
        battery_hours=soc.battery.hours_to_empty(report.total_joules / duration_s),
        coverage=runner.coverage,
        hit_rate=runner.hit_rate,
    )
