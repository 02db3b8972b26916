"""Continuous learning (paper Sec. V-B Option 2, Fig. 12).

Instead of fixing the necessary inputs at development time, SNIP keeps
looping: record the user's sessions, rebuild the profile, re-run PFI,
re-ship the table. :func:`run_epoch` computes one turn of that loop and
measures the erroneous-output-field rate the turn's table would exhibit
on the next (unseen) session — the Fig. 12 y-axis.

An epoch is a pure function of its arguments: its training corpus is
the sessions of every epoch up to it, each regenerated from
:func:`epoch_seeds`. Epochs therefore run in any order and in any
process, and the Fig. 12 driver fans them out on a fleet executor.

To reproduce the paper's experiment exactly, the first epochs can be
made artificially data-starved (``initial_events`` / ``ramp``): early
tables then mispredict heavily (~40%), and the error collapses as real
profile volume accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.android.tracing import RecordedTrace
from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler, SnipPackage
from repro.core.runtime import key_readers
from repro.core.table import SnipTable
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.rng import ReproRng
from repro.users.tracegen import generate_trace

#: An epoch is confident when at most this fraction of its evaluated
#: output fields is wrong: only then would the runtime adopt its table.
CONFIDENCE_THRESHOLD = 0.001


@dataclass(frozen=True)
class EpochResult:
    """One continuous-learning epoch's outcome."""

    epoch: int
    training_events: int
    table_entries: int
    hit_fraction: float        # of evaluation events that would hit
    error_fraction: float      # of evaluated output fields that are wrong
    confident: bool            # error below the adoption threshold


def epoch_seeds(seed: int, epoch: int) -> Tuple[int, int]:
    """``(session_seed, eval_seed)`` for one epoch of a loop seeded ``seed``."""
    rng = ReproRng(seed).fork(f"epoch:{epoch}")
    return rng.integer(1, 2**31), rng.integer(1, 2**31)


def check_ramp(initial_events: int, ramp: float) -> None:
    """Reject a data-starvation ramp that does not grow the profile."""
    if initial_events < 1:
        raise ValueError("initial_events must be positive")
    if ramp <= 1.0:
        raise ValueError("ramp must exceed 1.0")


def available_events(initial_events: int, ramp: float, epoch: int) -> int:
    """How many events per session the profile may use at an epoch."""
    return int(initial_events * (ramp ** epoch))


def truncate_trace(trace: RecordedTrace, limit: int) -> RecordedTrace:
    """The first ``limit`` events of a session, as the device uploads them."""
    events = trace.events[:limit]
    return RecordedTrace(
        game_name=trace.game_name,
        seed=trace.seed,
        events=events,
        uplink_bytes=sum(event.nbytes for event in events),
    )


def run_epoch(
    game_name: str,
    epoch: int,
    config: Optional[SnipConfig] = None,
    session_duration_s: float = 30.0,
    initial_events: int = 40,
    ramp: float = 1.8,
    ungated_epochs: int = 0,
    seed: int = 0,
) -> Tuple[EpochResult, SnipPackage]:
    """One loop turn: profile every session so far, evaluate on the next.

    Returns the epoch's numbers and the package it built. For the
    first ``ungated_epochs`` epochs the table is built without the
    confidence gate, reproducing the paper's Fig. 12 setup where an
    insufficient profile short-circuits ~40% of output fields wrongly
    before the loop recovers.
    """
    check_ramp(initial_events, ramp)
    config = config or SnipConfig()
    if epoch < ungated_epochs:
        config = replace(config, table_min_count=1, table_consistency=0.5)
    limit = available_events(initial_events, ramp, epoch)
    training = [
        truncate_trace(
            generate_trace(
                game_name, epoch_seeds(seed, earlier)[0], session_duration_s
            ),
            limit,
        )
        for earlier in range(epoch + 1)
    ]
    package = CloudProfiler(config).build_package(game_name, training)
    _, eval_seed = epoch_seeds(seed, epoch)
    eval_trace = generate_trace(game_name, eval_seed, session_duration_s)
    hit_fraction, error_fraction = evaluate_table(
        game_name, package.table, eval_trace
    )
    result = EpochResult(
        epoch=epoch,
        training_events=sum(len(trace) for trace in training),
        table_entries=package.table.entry_count,
        hit_fraction=hit_fraction,
        error_fraction=error_fraction,
        confident=error_fraction <= CONFIDENCE_THRESHOLD,
    )
    return result, package


def evaluate_table(
    game_name: str, table: SnipTable, trace: RecordedTrace
) -> tuple:
    """(hit fraction, erroneous-output-field fraction) on a session.

    The session is replayed faithfully (ground truth evolves from
    real processing); at each event we ask what the table would have
    substituted and compare its output fields against the truth.
    Output fields of missed events are counted as correct — they
    would have been computed, not substituted. Keys are read as the
    SNIP runtime reads them (:func:`~repro.core.runtime.key_readers`).

    Shared by the continuous-learning loop (Fig. 12's y-axis) and the
    package registry, whose recorded ``selection_accuracy`` metric is
    ``1 - error_fraction`` on a held-out session.
    """
    game = create_game(game_name, seed=GAME_CONTENT_SEED)
    readers = key_readers(table, game)
    hits = 0
    total_fields = 0
    wrong_fields = 0
    events = 0
    for event in trace.events:
        game.advance_engine(event)
        entry = None
        probe = readers.get(event.event_type)
        if probe is not None:
            entry = table.lookup(
                event.event_type, tuple([read(event) for read in probe])
            )
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
