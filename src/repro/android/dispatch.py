"""Event delivery loop: sensors -> hub -> manager -> binder -> handler.

This is the device-side execution path. :func:`charge_trace` converts a
handler's :class:`~repro.games.base.ProcessingTrace` into SoC energy;
the optimization schemes reuse it to charge exactly the work they did
not avoid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.android import binder, sensor_hub, sensor_manager
from repro.android.events import Event, EventType
from repro.soc.energy import ColumnarMeter
from repro.soc.power_profiles import PowerProfiles
from repro.soc.soc import Soc, snapdragon_821

if TYPE_CHECKING:  # pragma: no cover - layering: games sit above android
    from repro.games.base import Game, ProcessingTrace

#: A handler's work as the ledger prices it: ``(big-core cycles,
#: little-core cycles, DRAM bytes, IP invocations)``, with the named
#: sub-functions' cycles folded into their cluster's total and each
#: invocation reduced to ``(ip name, work units, bytes in, bytes out)``.
Work = Tuple[int, int, int, Tuple[Tuple[str, float, int, int], ...]]


def handler_work(trace: "ProcessingTrace") -> Work:
    """The part of a trace :func:`charge_work` prices."""
    big_cycles = trace.cpu_big_cycles
    little_cycles = trace.cpu_little_cycles
    for func_call in trace.cpu_funcs:
        if func_call.big:
            big_cycles += func_call.cycles
        else:
            little_cycles += func_call.cycles
    invocations = tuple(
        [(call.ip_name, call.work_units, call.bytes_in, call.bytes_out)
         for call in trace.ip_calls]
    )
    return big_cycles, little_cycles, trace.memory_bytes, invocations


def charge_trace(soc: Soc, trace: "ProcessingTrace", tag: str = "event") -> None:
    """Charge one handler trace's work to the SoC.

    The trace is an abstract work record; this function is the single
    place that converts it into component energy, so CPU-only or IP-only
    schemes can instead charge just the slices they execute.
    """
    charge_work(soc, handler_work(trace), tag)


def charge_work(soc: Soc, work: Work, tag: str = "event") -> None:
    """Charge a :func:`handler_work` record, as :func:`charge_trace` does."""
    big_cycles, little_cycles, memory_bytes, invocations = work
    if big_cycles:
        soc.charge_cycles(big_cycles, big=True, tag=tag)
    if little_cycles:
        soc.charge_cycles(little_cycles, big=False, tag=tag)
    if memory_bytes:
        soc.charge_transfer(memory_bytes, tag=tag)
    for ip_name, work_units, bytes_in, bytes_out in invocations:
        soc.charge_invocation(
            ip_name, work_units, bytes_in=bytes_in, bytes_out=bytes_out, tag=tag
        )


def charge_upkeep(soc: Soc, game: "Game", event: Event, tag: str = "event") -> int:
    """Charge the game's unavoidable engine upkeep for one event.

    Ticks the engine, then charges the upkeep work of the event's type
    (:func:`_charge_upkeep_work`). Returns the cycles charged so callers
    can fold them into coverage denominators (upkeep executes under
    every scheme, snipped or not).
    """
    game.advance_engine(event)
    return _charge_upkeep_work(soc, game, event.event_type, tag)


def _charge_upkeep_work(
    soc: Soc, game: "Game", event_type: EventType, tag: str
) -> int:
    """Charge one event type's upkeep cycles, then its upkeep IP
    invocations; returns the cycles. The engine tick is the caller's."""
    cycles = game.upkeep_cycles_for(event_type)
    if cycles:
        soc.cpu.execute(cycles, big=True, tag=tag)
    for ip_name, units in game.upkeep_ip_units_for(event_type).items():
        if units:
            soc.ip(ip_name).invoke(units, bytes_in=128 * 1024, tag=tag)
    return cycles


def charge_delivery(soc: Soc, event: Event, tag: str = "event") -> None:
    """Charge the unavoidable pre-handler pipeline for one event.

    Sensing, hub batching, gesture synthesis and the Binder hop happen
    before any lookup can decide to short-circuit, so every scheme pays
    this cost for every event.
    """
    samples = sensor_hub.capture(soc, event, tag=tag)
    sensor_manager.synthesize(soc, event, samples, tag=tag)
    binder.transfer(soc, event, tag=tag)


class EventLoop:
    """Baseline device execution: deliver and fully process every event."""

    def __init__(self, soc: Soc, game: "Game") -> None:
        self.soc = soc
        self.game = game

    def deliver(self, event: Event) -> "ProcessingTrace":
        """Run one event end-to-end, charging every stage to the SoC."""
        charge_delivery(self.soc, event)
        charge_upkeep(self.soc, self.game, event)
        trace = self.game.process(event)
        charge_trace(self.soc, trace)
        return trace


# -- batched fast path --------------------------------------------------

#: A static charge pattern: parallel key-id and joules columns, ready
#: for :meth:`~repro.soc.energy.ColumnarMeter.extend`.
Pattern = Tuple[Tuple[int, ...], Tuple[float, ...]]


#: Static delivery+upkeep charge patterns keyed by (game name, event
#: type, power profiles). Every charge those stages emit depends only on
#: the event's *type* and the phone's constants — schema nbytes, sensor
#: burst shape, synthesis cycles, and the game class's upkeep tables are
#: all type-level — so one recorded sequence replays exactly for every
#: later event of the type on a SoC with those profiles.
_COST_PATTERNS: Dict[Tuple[str, EventType, PowerProfiles], Pattern] = {}


def delivery_upkeep_pattern(
    game: "Game", event: Event, profiles: PowerProfiles
) -> Pattern:
    """The exact charge sequence the scalar delivery + upkeep stages emit.

    Recorded once per ``(game, event type, profiles)`` by running the
    scalar helpers on a scratch SoC built from ``profiles`` on a
    :class:`~repro.soc.energy.ColumnarMeter`, whose records keep the
    precise charge order, values, and zero-skips. Valid
    only for SoCs with those profiles whose components are all IDLE
    (:attr:`~repro.soc.soc.Soc.idle`). Its two users check that before
    every event and raise :class:`~repro.errors.SimulationError`
    otherwise: :class:`~repro.games.handler_memo.MemoBaselineLoop` and
    :class:`~repro.core.runtime.SnipRuntime` on a columnar SoC. Schemes
    that sleep components (Max IP) charge through the scalar helpers.
    """
    key = (game.name, event.event_type, profiles)
    pattern = _COST_PATTERNS.get(key)
    if pattern is None:
        meter = ColumnarMeter()
        scratch = snapdragon_821(profiles=profiles, meter=meter)
        charge_delivery(scratch, event)
        _charge_upkeep_work(scratch, game, event.event_type, "event")
        pattern = _COST_PATTERNS[key] = meter.records_since(0)
    return pattern


class DeliveryPatterns:
    """One session's delivery + upkeep charges, as static patterns.

    Resolves each event type's :func:`delivery_upkeep_pattern` once per
    session: the process-wide table is keyed on the SoC's power
    profiles, whose hash walks every component's constants, and a SoC
    keeps its profiles for life. Requires a columnar SoC
    (:attr:`~repro.soc.soc.Soc.columnar`).
    """

    def __init__(self, soc: Soc, game: "Game") -> None:
        self._soc = soc
        self._game = game
        self._by_type: Dict[EventType, Pattern] = {}

    def charge(self, event: Event) -> None:
        """Append the event's delivery + upkeep charges.

        The game's engine tick is not part of it: the caller runs it
        where the game's state is live.
        """
        pattern = self._by_type.get(event.event_type)
        if pattern is None:
            pattern = self._by_type[event.event_type] = delivery_upkeep_pattern(
                self._game, event, self._soc.profiles
            )
        self._soc.meter.extend(*pattern)

