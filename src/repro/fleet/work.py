"""Per-shard fleet work: the function that runs inside worker processes.

Everything that crosses the process boundary lives here and must stay
picklable: the :class:`ShardTask` going out (spec + shipped table) and
the :class:`ShardResult` coming back (per-device ledgers, runtime
counters, federated statistics). Each device is simulated purely from
``(spec.seed, device_id)``; the shard a device lands in never feeds any
random stream, which is the root of the engine's jobs/shard-size
determinism guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.android.dispatch import BatchedEventLoop, EventLoop
from repro.core.config import SnipConfig
from repro.core.federated import ContributionBuilder, DeviceContribution
from repro.core.runtime import SnipRuntime
from repro.core.selection import SelectedInputs
from repro.core.table import SnipTable
from repro.errors import FleetError
from repro.fleet.spec import COHORT_CHALLENGER, COHORT_CHAMPION, FleetSpec
from repro.games.registry import GAME_CONTENT_SEED, create_game, fresh_game
from repro.soc.energy import ColumnarMeter, EnergyReport, merge_reports
from repro.soc.soc import snapdragon_821
from repro.users.population import Population


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, shipped to a worker process."""

    shard_index: int
    spec: FleetSpec
    device_ids: Tuple[int, ...]
    #: The centrally profiled artifacts every device receives over the
    #: air: the necessary-input selection and the seed table.
    selection: SelectedInputs
    table: SnipTable
    config: SnipConfig
    #: The staged-rollout candidate shipped to the challenger cohort
    #: (``None`` unless ``spec.challenger_fraction > 0``).
    challenger_selection: Optional[SelectedInputs] = None
    challenger_table: Optional[SnipTable] = None


@dataclass
class DeviceResult:
    """Everything one device reports back to the aggregator."""

    device_id: int
    archetype: str
    sessions: int
    #: Which rollout cohort the device was dealt into (always
    #: ``"champion"`` outside staged rollouts).
    cohort: str = COHORT_CHAMPION
    events: int = 0
    #: SNIP-runtime ledger merged over the device's sessions.
    report: Optional[EnergyReport] = None
    baseline_joules: float = 0.0
    hits: int = 0
    misses: int = 0
    avoided_cycles: float = 0.0
    executed_cycles: float = 0.0
    raw_uplink_bytes: int = 0
    contribution: Optional[DeviceContribution] = None

    @property
    def snip_joules(self) -> float:
        """Total energy the device spent under the SNIP runtime."""
        return self.report.total_joules if self.report else 0.0


@dataclass
class ShardResult:
    """One shard's aggregated worker output."""

    shard_index: int
    spec_fingerprint: str
    device_results: List[DeviceResult] = field(default_factory=list)

    @property
    def device_count(self) -> int:
        """Devices simulated by this shard."""
        return len(self.device_results)

    @property
    def events_processed(self) -> int:
        """Simulated events across the shard's devices."""
        return sum(result.events for result in self.device_results)


def _replay_through(runner, trace, effective_s: float, soc) -> None:
    """Feed a recorded trace through a runner, advancing session time."""
    clock = 0.0
    for recorded in trace:
        event = recorded.to_event()
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runner.deliver(event)
    if effective_s > clock:
        soc.advance_time(effective_s - clock)


def run_device_reference(
    device_id: int,
    spec: FleetSpec,
    selection: SelectedInputs,
    table: SnipTable,
    config: SnipConfig,
    population: Optional[Population] = None,
    challenger_selection: Optional[SelectedInputs] = None,
    challenger_table: Optional[SnipTable] = None,
) -> DeviceResult:
    """Scalar golden reference for :func:`run_device`.

    The original per-event device loop, kept verbatim: the equivalence
    suite asserts the batched path produces byte-identical
    ``DeviceResult`` pickles against this.
    """
    population = population or Population(seed=spec.seed)
    archetype = population.archetype_of(device_id)
    cohort = spec.cohort_of(device_id)
    if cohort == COHORT_CHALLENGER:
        if challenger_table is None or challenger_selection is None:
            raise FleetError(
                f"device {device_id} was dealt into the challenger cohort "
                f"but no challenger package was shipped"
            )
        selection, table = challenger_selection, challenger_table
    result = DeviceResult(
        device_id=device_id,
        archetype=archetype.name,
        sessions=spec.sessions_per_device,
        cohort=cohort,
    )
    # Sessions stream one trace at a time: each is generated, replayed
    # through every consumer (SNIP pass, baseline pass, contribution
    # fold), and dropped — peak memory per device is one session's
    # events, never the whole session list.
    builder = (
        ContributionBuilder(device_id, spec.game_name, selection)
        if spec.federate and cohort == COHORT_CHAMPION
        else None
    )
    session_reports = []
    traces = population.iter_user_traces(
        spec.game_name, device_id, spec.sessions_per_device, spec.duration_s
    )
    for session, trace in enumerate(traces):
        result.events += len(trace)
        result.raw_uplink_bytes += trace.uplink_bytes
        if spec.measure_energy:
            effective_s = spec.duration_s * archetype.session_scale
            # The SNIP pass: shipped table (private copy, so online
            # learning stays per-session), full probe accounting.
            soc = snapdragon_821()
            game = create_game(spec.game_name, seed=GAME_CONTENT_SEED)
            runtime = SnipRuntime(soc, game, table.clone(), config)
            _replay_through(runtime, trace, effective_s, soc)
            session_reports.append(soc.report())
            result.hits += runtime.stats.hits
            result.misses += runtime.stats.misses
            result.avoided_cycles += runtime.stats.avoided_cycles
            result.executed_cycles += runtime.stats.executed_cycles
            # The baseline pass: same events on an unmodified phone.
            base_soc = snapdragon_821()
            base_game = create_game(spec.game_name, seed=GAME_CONTENT_SEED)
            loop = EventLoop(base_soc, base_game)
            _replay_through(loop, trace, effective_s, base_soc)
            result.baseline_joules += base_soc.meter.total_joules
        if builder is not None:
            builder.add_session(trace, session)
    if spec.measure_energy:
        result.report = merge_reports(session_reports)
    if builder is not None:
        result.contribution = builder.finish()
    return result


def _replay_columnar(runner, events, keys, effective_s: float, soc) -> None:
    """Feed materialised session events through a runner with the clock.

    ``keys`` carries per-event precomputed probe keys (from
    :meth:`SnipRuntime.session_keys`) or ``None`` for runners whose
    ``deliver`` takes no key (the baseline loop).
    """
    clock = 0.0
    deliver = runner.deliver
    advance = soc.advance_time
    if keys is None:
        for event in events:
            timestamp = event.timestamp
            if timestamp > clock:
                advance(timestamp - clock)
                clock = timestamp
            deliver(event)
    else:
        for event, key in zip(events, keys):
            timestamp = event.timestamp
            if timestamp > clock:
                advance(timestamp - clock)
                clock = timestamp
            deliver(event, key)
    if effective_s > clock:
        advance(effective_s - clock)


def run_device(
    device_id: int,
    spec: FleetSpec,
    selection: SelectedInputs,
    table: SnipTable,
    config: SnipConfig,
    population: Optional[Population] = None,
    challenger_selection: Optional[SelectedInputs] = None,
    challenger_table: Optional[SnipTable] = None,
) -> DeviceResult:
    """Simulate one device's sessions; pure in ``(spec.seed, device_id)``.

    Columnar fast path: sessions are generated in structure-of-arrays
    form (each event materialised exactly once), games come from the
    template cache, energy lands in append-only :class:`ColumnarMeter`
    ledgers fed by static delivery/upkeep cost patterns, probe keys for
    event-only selections are precomputed per session, and the
    federated statistics fold runs fused over the already-materialised
    events. Byte-identical to :func:`run_device_reference` — same
    ``DeviceResult`` pickles, same fleet reports — as asserted by the
    golden-equivalence suite.

    During a staged rollout, devices dealt into the challenger cohort
    run the challenger's table instead of the champion's. Challenger
    devices sit out the federated statistics pass: contributions are
    keyed by the necessary-input selection, and merging two selections'
    statistics into one fleet table would corrupt it.
    """
    population = population or Population(seed=spec.seed)
    archetype = population.archetype_of(device_id)
    cohort = spec.cohort_of(device_id)
    if cohort == COHORT_CHALLENGER:
        if challenger_table is None or challenger_selection is None:
            raise FleetError(
                f"device {device_id} was dealt into the challenger cohort "
                f"but no challenger package was shipped"
            )
        selection, table = challenger_selection, challenger_table
    result = DeviceResult(
        device_id=device_id,
        archetype=archetype.name,
        sessions=spec.sessions_per_device,
        cohort=cohort,
    )
    builder = (
        ContributionBuilder(device_id, spec.game_name, selection)
        if spec.federate and cohort == COHORT_CHAMPION
        else None
    )
    session_reports = []
    sessions = population.iter_columnar_sessions(
        spec.game_name, device_id, spec.sessions_per_device, spec.duration_s
    )
    for session, columnar in enumerate(sessions):
        events = columnar.events
        result.events += len(events)
        result.raw_uplink_bytes += columnar.uplink_bytes
        if spec.measure_energy:
            effective_s = spec.duration_s * archetype.session_scale
            soc = snapdragon_821(meter=ColumnarMeter())
            game = fresh_game(spec.game_name, seed=GAME_CONTENT_SEED)
            runtime = SnipRuntime(soc, game, table.clone(), config)
            keys = runtime.session_keys(events)
            _replay_columnar(runtime, events, keys, effective_s, soc)
            session_reports.append(soc.report())
            result.hits += runtime.stats.hits
            result.misses += runtime.stats.misses
            result.avoided_cycles += runtime.stats.avoided_cycles
            result.executed_cycles += runtime.stats.executed_cycles
            base_soc = snapdragon_821(meter=ColumnarMeter())
            base_game = fresh_game(spec.game_name, seed=GAME_CONTENT_SEED)
            loop = BatchedEventLoop(base_soc, base_game)
            _replay_columnar(loop, events, None, effective_s, base_soc)
            result.baseline_joules += base_soc.meter.total_joules
        if builder is not None:
            builder.add_session_events(events, session)
    if spec.measure_energy:
        result.report = merge_reports(session_reports)
    if builder is not None:
        result.contribution = builder.finish()
    return result


def run_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: simulate every device in the shard.

    Deliberately clock-free: a ``ShardResult`` is pickled back to the
    parent and checkpointed to disk, so a wall-time field — however
    "telemetry-only" — makes the checkpoint bytes differ between two
    identical runs.  Shard wall time is measured by the executor in
    the parent process instead and emitted straight to telemetry.
    """
    population = Population(seed=task.spec.seed)
    result = ShardResult(
        shard_index=task.shard_index,
        spec_fingerprint=task.spec.fingerprint(),
    )
    for device_id in task.device_ids:
        result.device_results.append(
            run_device(
                device_id,
                task.spec,
                task.selection,
                task.table,
                task.config,
                population=population,
                challenger_selection=task.challenger_selection,
                challenger_table=task.challenger_table,
            )
        )
    return result
