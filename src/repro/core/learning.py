"""Continuous learning (paper Sec. V-B Option 2, Fig. 12).

Instead of fixing the necessary inputs at development time, SNIP keeps
looping: record the user's sessions, rebuild the profile, re-run PFI,
re-ship the table. :class:`ContinuousLearner` drives that loop epoch by
epoch and measures, after each epoch, the erroneous-output-field rate
the *current* table would exhibit on the next (unseen) session — the
Fig. 12 y-axis.

To reproduce the paper's experiment exactly, the first epochs can be
made artificially data-starved (``initial_events`` / ``ramp``): early
tables then mispredict heavily (~40%), and the error collapses as real
profile volume accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.android.tracing import RecordedTrace
from repro.core.config import SnipConfig
from repro.core.overrides import DeveloperOverrides
from repro.core.profiler import CloudProfiler
from repro.core.table import SnipTable
from repro.rng import ReproRng
from repro.users.tracegen import generate_trace


@dataclass(frozen=True)
class EpochResult:
    """One continuous-learning epoch's outcome."""

    epoch: int
    training_events: int
    table_entries: int
    hit_fraction: float        # of evaluation events that would hit
    error_fraction: float      # of evaluated output fields that are wrong
    confident: bool            # error below the adoption threshold


class ContinuousLearner:
    """Drives the record -> profile -> PFI -> evaluate loop."""

    def __init__(
        self,
        game_name: str,
        config: Optional[SnipConfig] = None,
        overrides: Optional[DeveloperOverrides] = None,
        session_duration_s: float = 30.0,
        initial_events: int = 40,
        ramp: float = 1.8,
        confidence_threshold: float = 0.001,
        ungated_epochs: int = 0,
        seed: int = 0,
    ) -> None:
        if initial_events < 1:
            raise ValueError("initial_events must be positive")
        if ramp <= 1.0:
            raise ValueError("ramp must exceed 1.0")
        self.game_name = game_name
        self.config = config or SnipConfig()
        self.profiler = CloudProfiler(self.config, overrides)
        self.session_duration_s = session_duration_s
        self.initial_events = initial_events
        self.ramp = ramp
        self.confidence_threshold = confidence_threshold
        #: For the first N epochs the table ships *without* the
        #: confidence gate, reproducing the paper's Fig. 12 setup where
        #: an insufficient profile short-circuits ~40% of output fields
        #: wrongly before the loop recovers.
        self.ungated_epochs = ungated_epochs
        self.seed = seed
        self._traces: List[RecordedTrace] = []
        self.history: List[EpochResult] = []
        #: The package each epoch built, in epoch order; the fig12
        #: driver publishes these to the registry instead of blindly
        #: shipping them.
        self.packages: List = []

    # -- data starvation (Fig. 12 setup) -----------------------------------

    def _available_events(self, epoch: int) -> int:
        """How many events per session the profile may use at an epoch."""
        return int(self.initial_events * (self.ramp ** epoch))

    def _truncate(self, trace: RecordedTrace, limit: int) -> RecordedTrace:
        events = trace.events[:limit]
        return RecordedTrace(
            game_name=trace.game_name,
            seed=trace.seed,
            events=events,
            uplink_bytes=sum(event.nbytes for event in events),
        )

    # -- the loop --------------------------------------------------------------

    def _epoch_seeds(self, epoch: int) -> tuple:
        """``(session_seed, eval_seed)`` for one epoch.

        A pure function of ``(self.seed, epoch)`` — this is what lets a
        fleet executor compute epochs in independent workers: any epoch's
        training corpus can be regenerated from the seeds of the epochs
        before it, with no state carried between processes.
        """
        rng = ReproRng(self.seed).fork(f"epoch:{epoch}")
        return rng.integer(1, 2**31), rng.integer(1, 2**31)

    def ingest_session(self, epoch: int) -> None:
        """Record (generate) one epoch's play session without profiling.

        Parallel epoch evaluation pre-loads a learner with sessions
        ``0..epoch-1`` through this before calling :meth:`run_epoch`.
        """
        session_seed, _ = self._epoch_seeds(epoch)
        self._traces.append(
            generate_trace(self.game_name, session_seed, self.session_duration_s)
        )

    def run_epoch(self, epoch: int) -> EpochResult:
        """One loop turn: record a session, rebuild, evaluate on the next."""
        _, eval_seed = self._epoch_seeds(epoch)
        self.ingest_session(epoch)
        limit = self._available_events(epoch)
        training = [self._truncate(trace, limit) for trace in self._traces]
        if epoch < self.ungated_epochs:
            from dataclasses import replace

            starved_config = replace(
                self.config, table_min_count=1, table_consistency=0.5
            )
            profiler = CloudProfiler(starved_config, self.profiler.overrides)
            package = profiler.build_package(self.game_name, training)
        else:
            package = self.profiler.build_package(self.game_name, training)
        eval_trace = generate_trace(
            self.game_name, eval_seed, self.session_duration_s
        )
        hit_fraction, error_fraction = self.evaluate(package.table, eval_trace)
        result = EpochResult(
            epoch=epoch,
            training_events=sum(len(trace) for trace in training),
            table_entries=package.table.entry_count,
            hit_fraction=hit_fraction,
            error_fraction=error_fraction,
            confident=error_fraction <= self.confidence_threshold,
        )
        self.history.append(result)
        self.packages.append(package)
        return result

    def run(self, epochs: int) -> List[EpochResult]:
        """Run the loop for ``epochs`` turns, returning all results."""
        return [self.run_epoch(epoch) for epoch in range(epochs)]

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, table: SnipTable, trace: RecordedTrace) -> tuple:
        """(hit fraction, erroneous-output-field fraction) on a session."""
        return evaluate_table(self.game_name, table, trace)


def evaluate_table(
    game_name: str, table: SnipTable, trace: RecordedTrace
) -> tuple:
    """(hit fraction, erroneous-output-field fraction) on a session.

    The session is replayed faithfully (ground truth evolves from
    real processing); at each event we ask what the table would have
    substituted and compare its output fields against the truth.
    Output fields of missed events are counted as correct — they
    would have been computed, not substituted.

    Shared by the continuous learner (Fig. 12's y-axis) and the
    package registry, whose recorded ``selection_accuracy`` metric is
    ``1 - error_fraction`` on a held-out session.
    """
    from repro.games.registry import GAME_CONTENT_SEED, create_game

    game = create_game(game_name, seed=GAME_CONTENT_SEED)
    hits = 0
    total_fields = 0
    wrong_fields = 0
    events = 0
    for event in trace.events:
        game.advance_engine(event)
        entry = None
        if table.knows(event.event_type):
            fields = table.fields_for(event.event_type)
            key = []
            for info in fields:
                kind, _, name = info.name.partition(":")
                if kind == "event":
                    key.append(event.values.get(name))
                elif kind == "hist":
                    key.append(
                        game.state.peek(name) if game.state.has(name) else None
                    )
                else:
                    key.append(game.extern_source.peek(name)[0])
            entry = table.lookup(event.event_type, tuple(key))
        truth = game.process(event)  # ground truth always executes
        events += 1
        total_fields += max(1, len(truth.writes))
        if entry is None:
            continue
        hits += 1
        predicted = {write.name: write.value for write in entry.writes}
        actual = {write.name: write.value for write in truth.writes}
        for name in sorted(set(predicted) | set(actual)):
            if predicted.get(name) != actual.get(name):
                wrong_fields += 1
    hit_fraction = hits / events if events else 0.0
    error_fraction = wrong_fields / total_fields if total_fields else 0.0
    return (hit_fraction, error_fraction)
