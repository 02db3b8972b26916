"""Execution backends for fleet work: serial and bounded-queue pool.

Every executor implements the same contract: run a picklable function
over an indexed sequence of payloads and **stream** ``(index, result)``
pairs back in completion order. Every payload is a pure function of its
input, so an exception it raises would recur on any retry: it
propagates as itself. Only a dead worker is retried — the pool is
rebuilt and the work it owed re-queued — against a run-wide budget of
:data:`DEFAULT_RETRY_BUDGET` crashes; exhausting it raises
:class:`~repro.errors.WorkerCrashError`. Because every payload is
self-contained and results carry their index, the choice of executor
(and the number of workers) can never change what a fleet run computes
— only how fast, and in what order, it computes it. Consumers that
need payload-ordered lists use :meth:`FleetExecutor.run`, which slots
the stream by index.

:class:`QueueFleetExecutor` is the multi-worker backend: it submits
from a window of ``jobs * PREFETCH`` indices anchored at the oldest
payload whose result is still owed, instead of materialising every
future upfront. A million-device sweep therefore holds only the
in-flight tasks in memory, and a consumer that restores payload order
holds at most ``window`` results. Backlog depth is reported through
``queue_depth`` telemetry gauges.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import FleetError, WorkerCrashError
from repro.fleet.telemetry import (
    QUEUE_DEPTH,
    SHARD_FINISHED,
    SHARD_RETRIED,
    SHARD_STARTED,
    WORKER_FAILURE,
    TelemetryBus,
)

#: Pool crashes one run may recover from (across the run, not per
#: payload) before it raises :class:`~repro.errors.WorkerCrashError`.
DEFAULT_RETRY_BUDGET = 3

#: Submitted-but-unreduced payloads per worker for the queue executor:
#: enough to keep workers busy while the reducer folds, small enough
#: that in-flight results stay bounded.
PREFETCH = 2


class FleetExecutor:
    """Contract shared by every execution backend."""

    #: Worker parallelism the backend provides.
    jobs: int = 1

    def stream(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        telemetry: Optional[TelemetryBus] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs in completion order.

        This is the primitive the streaming engine consumes: results
        surface as workers finish them, so the caller can fold and
        drop each one instead of collecting the whole sweep. Payloads
        may be any sequence — including a lazily materialising one —
        and are only indexed when (re)submitted.

        Window bound: every yielded index is below ``oldest + window``,
        where ``oldest`` is the smallest index not yet yielded and
        ``window`` is 1 for :class:`SerialExecutor` (payload order) and
        :attr:`QueueFleetExecutor.window` for the pool. A consumer that
        restores payload order therefore holds at most ``window``
        results at once. Telemetry names each payload by its own
        ``shard_index`` when it has one, by its index otherwise.
        """
        raise NotImplementedError

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        telemetry: Optional[TelemetryBus] = None,
    ) -> List[Any]:
        """Run ``fn`` over ``payloads``; results ordered by payload index.

        Materialises every result — callers that can fold
        incrementally should consume :meth:`stream` instead.
        """
        results: List[Any] = [None] * len(payloads)
        for index, result in self.stream(fn, payloads, telemetry=telemetry):
            results[index] = result
        return results


def _shard_label(payload: Any, index: int) -> int:
    """Telemetry's name for ``payloads[index]``: the payload's own
    ``shard_index`` when it has one (a resumed fleet skips checkpointed
    shards, so positions are not shard numbers), else the index."""
    return getattr(payload, "shard_index", index)


class SerialExecutor(FleetExecutor):
    """In-process executor sharing the pool executor's interface.

    Used for ``--jobs 1``, for environments without usable process
    pools, and as the determinism reference the parallel paths are
    byte-compared against.
    """

    jobs = 1

    def stream(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        telemetry: Optional[TelemetryBus] = None,
    ) -> Iterator[Tuple[int, Any]]:
        total = len(payloads)
        for index in range(total):
            payload = payloads[index]
            label = _shard_label(payload, index)
            started = telemetry.elapsed_seconds() if telemetry else 0.0
            if telemetry:
                telemetry.emit(SHARD_STARTED, shard_index=label)
            result = fn(payload)
            wall_s = telemetry.elapsed_seconds() - started if telemetry else None
            _announce(telemetry, label, result, wall_s=wall_s)
            if telemetry:
                telemetry.emit(QUEUE_DEPTH, depth=total - index - 1)
            yield index, result


class QueueFleetExecutor(FleetExecutor):
    """Queue-fed pool executor with an anchored submission window.

    Payloads are drawn from a FIFO backlog, and index ``p`` is
    submitted only while ``p < oldest + window``, where ``oldest`` is
    the smallest index whose result has not been yielded — so neither
    the futures table nor a consumer's reorder buffer grows with the
    sweep size, however slow the oldest payload runs. An exception a
    payload raises in its worker is re-raised here as itself, as soon
    as it arrives: the queued payloads are cancelled and the workers
    stopped, without waiting for the payloads still running. A pool
    crash (a worker killed outright) rebuilds the pool and puts every
    payload submitted to the dead pool without a yielded result back at
    the head of the backlog (the anchor cannot pass them until they are
    yielded); each crash, however many payloads it took down, is
    charged once to the run's budget of :data:`DEFAULT_RETRY_BUDGET`.
    Emits ``queue_depth`` gauges so the telemetry bus tracks how deep
    the unprocessed queue ran.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise FleetError(f"QueueFleetExecutor needs jobs >= 1, got {jobs}")
        self.jobs = jobs

    @property
    def window(self) -> int:
        """How far past the oldest unyielded index submission may run."""
        return self.jobs * PREFETCH

    def stream(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        telemetry: Optional[TelemetryBus] = None,
    ) -> Iterator[Tuple[int, Any]]:
        crashes_left = DEFAULT_RETRY_BUDGET
        backlog = deque(range(len(payloads)))
        # The window's anchor, and the indices past it already yielded.
        oldest = 0
        yielded: Set[int] = set()
        while backlog:
            # ``(index, label, submitted at)`` of every payload submitted
            # to the current pool whose result has not been yielded: an
            # index leaves only once its future's outcome has been
            # handled, so a crash re-queues exactly the work the dead
            # pool still owed.
            inflight: Dict[Future, Tuple[int, int, float]] = {}
            try:
                with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                    while backlog or inflight:
                        # Re-queued indices at the head were submitted
                        # before, so they always fit; fresh ones wait
                        # for the anchor to move.
                        while backlog and backlog[0] < oldest + self.window:
                            # Peek first: submit raises BrokenProcessPool
                            # once the pool has died, and the index must
                            # stay queued for the rebuilt pool.
                            index = backlog[0]
                            payload = payloads[index]
                            future = pool.submit(fn, payload)
                            backlog.popleft()
                            label = _shard_label(payload, index)
                            started = telemetry.elapsed_seconds() if telemetry else 0.0
                            inflight[future] = (index, label, started)
                            if telemetry:
                                telemetry.emit(SHARD_STARTED, shard_index=label)
                        if telemetry:
                            telemetry.emit(
                                QUEUE_DEPTH, depth=len(inflight) + len(backlog)
                            )
                        done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                        for future in done:
                            # A payload's own exception recurs on any
                            # retry: stop the workers so it surfaces
                            # now, not after the pool's exit has waited
                            # out the window. BrokenProcessPool leaves
                            # the pool to be rebuilt.
                            error = future.exception()
                            if error is not None and not isinstance(
                                error, BrokenProcessPool
                            ):
                                _stop_workers(pool)
                            result = future.result()
                            index, label, started = inflight.pop(future)
                            wall_s = (
                                telemetry.elapsed_seconds() - started
                                if telemetry
                                else None
                            )
                            _announce(telemetry, label, result, wall_s=wall_s)
                            yielded.add(index)
                            while oldest in yielded:
                                yielded.remove(oldest)
                                oldest += 1
                            yield index, result
            except BrokenProcessPool as exc:
                if crashes_left <= 0:
                    raise WorkerCrashError(
                        f"retry budget exhausted: {exc!r}"
                    ) from exc
                crashes_left -= 1
                casualties = sorted(inflight.values())
                # Put the crashed window back at the head of the queue
                # so recovery re-runs the oldest work first.
                for index, _, _ in reversed(casualties):
                    backlog.appendleft(index)
                if telemetry:
                    telemetry.emit(WORKER_FAILURE, error="process pool crashed")
                    for _, label, _ in casualties:
                        telemetry.emit(SHARD_RETRIED, shard_index=label)


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Cancel ``pool``'s queued work and end its workers at once.

    What ``ProcessPoolExecutor.terminate_workers`` does on Python 3.14:
    shut down without waiting, then terminate each worker still running
    a payload, here also reaping it.
    """
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.join()


def _announce(
    telemetry: Optional[TelemetryBus],
    shard: int,
    result: Any,
    wall_s: Optional[float] = None,
) -> None:
    """Emit SHARD_FINISHED, reading counters off fleet shard results.

    ``wall_s`` is measured by the executor in the *parent* process
    (submission to completion on the telemetry bus clock) rather than
    carried on the result: shard results are pickled and checkpointed,
    so a wall-time field would make two identical runs byte-differ.
    """
    if telemetry is None:
        return
    payload = {}
    for attribute, name in (
        ("events_processed", "events"),
        ("device_count", "devices"),
    ):
        value = getattr(result, attribute, None)
        if value is not None:
            payload[name] = value
    if wall_s is not None:
        payload["wall_s"] = wall_s
    telemetry.emit(SHARD_FINISHED, shard_index=shard, **payload)


def make_executor(jobs: int) -> FleetExecutor:
    """The executor for a ``--jobs N`` request: serial for one job, the
    bounded-queue process pool otherwise."""
    if jobs < 1:
        raise FleetError(f"jobs must be positive, got {jobs}")
    return SerialExecutor() if jobs == 1 else QueueFleetExecutor(jobs)
