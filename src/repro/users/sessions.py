"""End-to-end game sessions on the simulated phone.

A session wires a generated event stream through the Android delivery
path into a game on a fresh SoC, advancing simulated wall time between
events so background/idle power is accounted. The result object carries
what the characterization figures need: the energy ledger, the
battery-life projection, and the user-event tallies behind Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.android.dispatch import EventLoop, Work, handler_work
from repro.android.events import EventType
from repro.games.base import ProcessingTrace
from repro.games.handler_memo import MemoBaselineLoop
from repro.games.registry import GAME_CONTENT_SEED, create_game, fresh_game
from repro.soc.energy import ColumnarMeter, EnergyReport
from repro.soc.soc import Soc, snapdragon_821
from repro.users.tracegen import generate_events, generate_trace

#: Default session length used by the characterization experiments; the
#: paper measures 5-10 minute windows and extrapolates.
DEFAULT_DURATION_S = 120.0


def estimate_work_energy(soc: Soc, work: Work) -> float:
    """Handler-only energy of one :func:`handler_work` record, uncharged.

    This is the *avoidable* energy of the event: CPU work, IP
    invocations, and memory traffic — but not sensing/delivery, which
    happen before any short-circuit decision.
    """
    big_cycles, little_cycles, memory_bytes, invocations = work
    energy = 0.0
    energy += soc.cpu.energy_for(big_cycles, big=True)
    energy += soc.cpu.energy_for(little_cycles, big=False)
    energy += soc.memory.energy_for(memory_bytes)
    for ip_name, work_units, bytes_in, bytes_out in invocations:
        energy += soc.ip(ip_name).energy_for(
            work_units, bytes_in=bytes_in, bytes_out=bytes_out
        )
    return energy


def estimate_trace_energy(soc: Soc, trace: ProcessingTrace) -> float:
    """:func:`estimate_work_energy` of one handler trace."""
    return estimate_work_energy(soc, handler_work(trace))


@dataclass(frozen=True)
class SessionResult:
    """What one simulated session measured, small enough to ship back
    from a pool worker.

    ``user_joules`` and ``wasted_joules`` are the handler energies
    (:func:`estimate_work_energy`) of the user events — every event but
    the vsync tick — and of the useless ones among them, each summed in
    event order.
    """

    game_name: str
    seed: int
    duration_s: float
    report: EnergyReport
    event_count: int
    battery_hours: float
    user_events: int
    useless_user_events: int
    user_joules: float
    wasted_joules: float

    @property
    def average_watts(self) -> float:
        """Mean device power over the session."""
        return self.report.total_joules / self.duration_s

    # -- user-event statistics (paper Fig. 4) ---------------------------

    @property
    def useless_user_fraction(self) -> float:
        """Fraction of user events that changed nothing (Fig. 4 left)."""
        if not self.user_events:
            return 0.0
        return self.useless_user_events / self.user_events

    @property
    def wasted_energy_fraction(self) -> float:
        """Share of user-event processing energy spent on useless events
        (Fig. 4 right axis)."""
        if self.user_joules <= 0:
            return 0.0
        return self.wasted_joules / self.user_joules


def _session_result(
    game_name: str,
    seed: int,
    duration_s: float,
    soc: Soc,
    event_count: int,
    user_energies: List[float],
    wasted_energies: List[float],
) -> SessionResult:
    """Close a played session: its report and the Fig. 4 tallies.

    Both energy lists are in event order and summed with builtin
    ``sum``, as Fig. 4 always was: ``sum`` compensates from Python 3.12
    on, so a running ``+=`` would change the fractions' last bits there.
    """
    report = soc.report()
    return SessionResult(
        game_name=game_name,
        seed=seed,
        duration_s=duration_s,
        report=report,
        event_count=event_count,
        battery_hours=soc.battery.hours_to_empty(report.total_joules / duration_s),
        user_events=len(user_energies),
        useless_user_events=len(wasted_energies),
        user_joules=sum(user_energies),
        wasted_joules=sum(wasted_energies),
    )


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

    Runs every handler through :class:`EventLoop` on a plain-meter SoC
    and tallies Fig. 4 from the traces; the equivalence suite asserts
    the memoised session pickles to the same bytes.
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
    user = [t for t in traces if t.event_type is not EventType.FRAME_TICK]
    return _session_result(
        game_name, seed, duration_s, soc, len(events),
        [estimate_trace_energy(soc, t) for t in user],
        [estimate_trace_energy(soc, t) for t in user if t.useless],
    )


def run_baseline_session(
    game_name: str,
    seed: int = 0,
    duration_s: float = DEFAULT_DURATION_S,
) -> SessionResult:
    """Play one unoptimised session and return what it measured.

    The events of :func:`~repro.users.tracegen.generate_trace` are
    delivered through :class:`~repro.games.handler_memo.MemoBaselineLoop`
    on a columnar SoC, so a handler runs only for (state, event) pairs
    the process has not seen. Each delivered memo entry carries what Fig. 4
    reads of its event: whether any write changed a value, and the
    handler's work, priced with :func:`estimate_work_energy`. The result
    is identical to the scalar reference.
    """
    soc = snapdragon_821(meter=ColumnarMeter())
    loop = MemoBaselineLoop(soc, fresh_game(game_name, seed=GAME_CONTENT_SEED))
    events = generate_trace(game_name, seed, duration_s).events
    user_energies: List[float] = []
    wasted_energies: List[float] = []
    clock = 0.0
    for event in events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        entry = loop.deliver(event)
        if event.event_type is not EventType.FRAME_TICK:
            energy = estimate_work_energy(soc, entry.work)
            user_energies.append(energy)
            if not any(write.changed for write in entry.writes):
                wasted_energies.append(energy)
    if duration_s > clock:
        soc.advance_time(duration_s - clock)
    return _session_result(
        game_name, seed, duration_s, soc, len(events), user_energies, wasted_energies
    )
