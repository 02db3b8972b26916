"""End-to-end game sessions on the simulated phone.

A session wires a generated event stream through the Android delivery
path into a game on a fresh SoC, advancing simulated wall time between
events so background/idle power is accounted. The result object carries
everything the characterization figures need: the energy ledger, every
processing trace, and battery-life projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.android.dispatch import BatchedEventLoop, EventLoop
from repro.android.events import Event, EventType
from repro.games.base import Game, ProcessingTrace
from repro.games.registry import GAME_CONTENT_SEED, create_game, fresh_game
from repro.soc.energy import ColumnarMeter, EnergyReport
from repro.soc.soc import Soc, snapdragon_821
from repro.users.tracegen import columnar_session, generate_events

#: Default session length used by the characterization experiments; the
#: paper measures 5-10 minute windows and extrapolates.
DEFAULT_DURATION_S = 120.0


def estimate_trace_energy(soc: Soc, trace: ProcessingTrace) -> float:
    """Handler-only energy of one trace, without charging anything.

    This is the *avoidable* energy of the event: CPU work, IP
    invocations, and memory traffic — but not sensing/delivery, which
    happen before any short-circuit decision.
    """
    energy = 0.0
    big_cycles = trace.cpu_big_cycles
    little_cycles = trace.cpu_little_cycles
    for func_call in trace.cpu_funcs:
        if func_call.big:
            big_cycles += func_call.cycles
        else:
            little_cycles += func_call.cycles
    energy += soc.cpu.energy_for(big_cycles, big=True)
    energy += soc.cpu.energy_for(little_cycles, big=False)
    energy += soc.memory.energy_for(trace.memory_bytes)
    for call in trace.ip_calls:
        energy += soc.ip(call.ip_name).energy_for(
            call.work_units, bytes_in=call.bytes_in, bytes_out=call.bytes_out
        )
    return energy


@dataclass
class SessionResult:
    """Everything observed during one simulated session."""

    game_name: str
    seed: int
    duration_s: float
    report: EnergyReport
    traces: List[ProcessingTrace]
    events: List[Event]
    soc: Soc
    game: Game

    @property
    def average_watts(self) -> float:
        """Mean device power over the session."""
        return self.report.total_joules / self.duration_s

    @property
    def battery_hours(self) -> float:
        """Projected hours to drain a full battery at this power."""
        return self.soc.battery.hours_to_empty(self.average_watts)

    # -- user-event statistics (paper Fig. 4) ---------------------------

    def user_traces(self) -> List[ProcessingTrace]:
        """Traces of user-originated events (everything but vsync)."""
        return [t for t in self.traces if t.event_type is not EventType.FRAME_TICK]

    @property
    def useless_user_fraction(self) -> float:
        """Fraction of user events that changed nothing (Fig. 4 left)."""
        user = self.user_traces()
        if not user:
            return 0.0
        return sum(1 for t in user if t.useless) / len(user)

    @property
    def wasted_energy_fraction(self) -> float:
        """Share of user-event processing energy spent on useless events
        (Fig. 4 right axis)."""
        user = self.user_traces()
        total = sum(estimate_trace_energy(self.soc, t) for t in user)
        if total <= 0:
            return 0.0
        wasted = sum(
            estimate_trace_energy(self.soc, t) for t in user if t.useless
        )
        return wasted / total

    @property
    def useless_cycle_fraction(self) -> float:
        """Cycle-weighted useless share over *all* processing."""
        total = sum(t.total_cycles for t in self.traces)
        if total <= 0:
            return 0.0
        return sum(t.total_cycles for t in self.traces if t.useless) / total


def run_baseline_session_task(payload: tuple) -> SessionResult:
    """Picklable adapter for fleet executors.

    ``payload`` is ``(game_name, seed, duration_s)``; module-level so a
    ``multiprocessing`` pool can ship it to workers. The analysis
    drivers fan their per-game sessions out through this.
    """
    game_name, seed, duration_s = payload
    return run_baseline_session(game_name, seed=seed, duration_s=duration_s)


def run_baseline_session_reference(
    game_name: str,
    seed: int = 0,
    duration_s: float = DEFAULT_DURATION_S,
) -> SessionResult:
    """Scalar golden reference for :func:`run_baseline_session`.

    Kept verbatim: the equivalence suite asserts the batched session
    produces an identical :class:`SessionResult` against this.
    """
    soc = snapdragon_821()
    game = create_game(game_name, seed=GAME_CONTENT_SEED)
    loop = EventLoop(soc, game)
    events = generate_events(game_name, seed, duration_s)
    traces: List[ProcessingTrace] = []
    clock = 0.0
    for event in events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        traces.append(loop.deliver(event))
    if duration_s > clock:
        soc.advance_time(duration_s - clock)
    return SessionResult(
        game_name=game_name,
        seed=seed,
        duration_s=duration_s,
        report=soc.report(),
        traces=traces,
        events=events,
        soc=soc,
        game=game,
    )


def run_baseline_session(
    game_name: str,
    seed: int = 0,
    duration_s: float = DEFAULT_DURATION_S,
) -> SessionResult:
    """Play one unoptimized session and return its full observation.

    Columnar fast path: events are generated in structure-of-arrays
    form (each materialised exactly once), delivery/upkeep energy lands
    in an append-only :class:`~repro.soc.energy.ColumnarMeter` via
    static cost patterns, and the game comes from the template cache.
    The result — ledger report, traces, events — is identical to the
    scalar reference.
    """
    soc = snapdragon_821(meter=ColumnarMeter())
    game = fresh_game(game_name, seed=GAME_CONTENT_SEED)
    loop = BatchedEventLoop(soc, game)
    events = columnar_session(game_name, seed, duration_s).events
    traces: List[ProcessingTrace] = []
    clock = 0.0
    for event in events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        traces.append(loop.deliver(event))
    if duration_s > clock:
        soc.advance_time(duration_s - clock)
    return SessionResult(
        game_name=game_name,
        seed=seed,
        duration_s=duration_s,
        report=soc.report(),
        traces=traces,
        events=events,
        soc=soc,
        game=game,
    )
