"""Execution backends for fleet work: serial and bounded-queue pool.

Every executor implements the same contract: run a picklable function
over an indexed sequence of payloads and **stream** ``(index, result)``
pairs back in completion order. Failures are retried against a capped,
run-wide retry budget; exhausting it raises
:class:`~repro.errors.WorkerCrashError`. Because every payload is
self-contained and results carry their index, the choice of executor
(and the number of workers) can never change what a fleet run computes
— only how fast, and in what order, it computes it. Consumers that
need payload-ordered lists use :meth:`FleetExecutor.run`, which slots
the stream by index.

:class:`QueueFleetExecutor` is the multi-worker backend: it keeps a
bounded submission window (``jobs * PREFETCH``) over the payload
sequence instead of materialising every future upfront, so a million-
device sweep holds only the in-flight tasks in memory, and it reports
its backlog through ``queue_depth`` telemetry gauges.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FleetError, WorkerCrashError
from repro.fleet.telemetry import (
    QUEUE_DEPTH,
    SHARD_FINISHED,
    SHARD_RETRIED,
    SHARD_STARTED,
    WORKER_FAILURE,
    TelemetryBus,
)

#: Default cap on retries across one whole run (not per payload).
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
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs in completion order.

        This is the primitive the streaming engine consumes: results
        surface as workers finish them, so the caller can fold and
        drop each one instead of collecting the whole sweep. Payloads
        may be any sequence — including a lazily materialising one —
        and are only indexed when (re)submitted.
        """
        raise NotImplementedError

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        telemetry: Optional[TelemetryBus] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ) -> List[Any]:
        """Run ``fn`` over ``payloads``; results ordered by payload index.

        ``on_result(index, result)`` fires as each result lands (in
        completion order), while the returned list is always
        index-ordered. Materialises every result — callers that can
        fold incrementally should consume :meth:`stream` instead.
        """
        results: List[Any] = [None] * len(payloads)
        for index, result in self.stream(
            fn, payloads, telemetry=telemetry, retry_budget=retry_budget
        ):
            results[index] = result
            if on_result:
                on_result(index, result)
        return results


class _RetryBudget:
    """Run-wide failure allowance shared by all payloads."""

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise FleetError(f"retry budget must be non-negative, got {budget}")
        self._remaining = budget

    def spend(self, index: Optional[int], error: BaseException) -> None:
        """Consume one retry, or raise when the budget is gone."""
        if self._remaining <= 0:
            raise WorkerCrashError(
                f"retry budget exhausted at shard {index}: {error!r}"
            ) from error
        self._remaining -= 1


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
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ) -> Iterator[Tuple[int, Any]]:
        budget = _RetryBudget(retry_budget)
        total = len(payloads)
        for index in range(total):
            while True:
                started = telemetry.elapsed_seconds() if telemetry else 0.0
                if telemetry:
                    telemetry.emit(SHARD_STARTED, shard_index=index)
                try:
                    result = fn(payloads[index])
                except Exception as exc:
                    budget.spend(index, exc)
                    if telemetry:
                        telemetry.emit(
                            WORKER_FAILURE, shard_index=index, error=repr(exc)
                        )
                        telemetry.emit(SHARD_RETRIED, shard_index=index)
                    continue
                wall_s = (
                    telemetry.elapsed_seconds() - started if telemetry else None
                )
                _announce(telemetry, index, result, wall_s=wall_s)
                if telemetry:
                    telemetry.emit(QUEUE_DEPTH, depth=total - index - 1)
                yield index, result
                break


class QueueFleetExecutor(FleetExecutor):
    """Queue-fed pool executor with a bounded in-flight window.

    Payloads are drawn from a FIFO backlog and at most
    ``jobs * PREFETCH`` are submitted at once, so neither the futures
    table nor the unreduced results can grow with the sweep size.
    Worker exceptions send the payload back to the backlog; a pool
    crash (a worker killed outright) rebuilds the pool and puts every
    payload submitted to the dead pool without a yielded result back
    at the head of the backlog. Each failure, and each crash however
    many payloads it took down, is charged once to the shared retry
    budget. Emits ``queue_depth`` gauges so the telemetry bus tracks
    how deep the unprocessed queue ran.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise FleetError(f"QueueFleetExecutor needs jobs >= 1, got {jobs}")
        self.jobs = jobs

    @property
    def window(self) -> int:
        """Most payloads submitted-but-unreduced at any moment."""
        return self.jobs * PREFETCH

    def stream(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        telemetry: Optional[TelemetryBus] = None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ) -> Iterator[Tuple[int, Any]]:
        budget = _RetryBudget(retry_budget)
        backlog = deque(range(len(payloads)))
        starts: dict = {}
        while backlog:
            # Every payload submitted to the current pool whose result
            # has not been yielded: an index leaves only once its
            # future's outcome has been handled, so a crash re-queues
            # exactly the work the dead pool still owed.
            inflight: dict = {}
            try:
                with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                    while backlog or inflight:
                        while backlog and len(inflight) < self.window:
                            # Peek first: submit raises BrokenProcessPool
                            # once the pool has died, and the index must
                            # stay queued for the rebuilt pool.
                            index = backlog[0]
                            inflight[pool.submit(fn, payloads[index])] = index
                            backlog.popleft()
                            if telemetry:
                                starts[index] = telemetry.elapsed_seconds()
                                telemetry.emit(SHARD_STARTED, shard_index=index)
                        if telemetry:
                            telemetry.emit(
                                QUEUE_DEPTH, depth=len(inflight) + len(backlog)
                            )
                        done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                        for future in done:
                            try:
                                result = future.result()
                            except BrokenProcessPool:
                                raise
                            except Exception as exc:
                                index = inflight.pop(future)
                                budget.spend(index, exc)
                                if telemetry:
                                    telemetry.emit(
                                        WORKER_FAILURE,
                                        shard_index=index,
                                        error=repr(exc),
                                    )
                                    telemetry.emit(
                                        SHARD_RETRIED, shard_index=index
                                    )
                                backlog.append(index)
                                continue
                            index = inflight.pop(future)
                            wall_s = (
                                telemetry.elapsed_seconds() - starts[index]
                                if telemetry
                                else None
                            )
                            _announce(telemetry, index, result, wall_s=wall_s)
                            yield index, result
            except BrokenProcessPool as exc:
                budget.spend(None, exc)
                casualties = sorted(inflight.values())
                # Put the crashed window back at the head of the queue
                # so recovery re-runs the oldest work first.
                for index in reversed(casualties):
                    backlog.appendleft(index)
                if telemetry:
                    telemetry.emit(WORKER_FAILURE, error="process pool crashed")
                    for index in casualties:
                        telemetry.emit(SHARD_RETRIED, shard_index=index)


def _announce(
    telemetry: Optional[TelemetryBus],
    index: int,
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
    telemetry.emit(SHARD_FINISHED, shard_index=index, **payload)


def make_executor(jobs: int) -> FleetExecutor:
    """The executor for a ``--jobs N`` request: serial for one job, the
    bounded-queue process pool otherwise."""
    if jobs < 1:
        raise FleetError(f"jobs must be positive, got {jobs}")
    return SerialExecutor() if jobs == 1 else QueueFleetExecutor(jobs)
