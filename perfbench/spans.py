"""Span recording for the benchmark's traced runs (``--trace 1``).

The program under test has no span recorder of its own, so the traced
run wraps the calls into each layer from here: every hook in
:data:`HOOKS` replaces one function or method with a wrapper that opens
a span named after the layer, and :func:`install` puts the originals
back when the run ends. Spans nest on one stack (the benchmark drives
everything in one thread), and each layer is charged its *self* time:
its span's duration minus the time its child spans cover.

A hook whose target no longer exists is skipped, and :func:`install`
yields the targets it could not find: the run names them on stderr and
reports their number as ``hooks_missing``, so a layer that reads 0
because a refactor moved its function is not taken for a measured 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Self time and call counts per span name, plus free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans: ``[name, start, time covered by children]``.
        self._stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @property
    def current(self) -> Optional[str]:
        """The innermost open span's name."""
        return self._stack[-1][0] if self._stack else None

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
        """Self time, calls and counters as plain (picklable) dicts."""
        return dict(self.self_s), dict(self.calls), dict(self.counters)


@dataclass(frozen=True)
class Hook:
    """One wrapped call site.

    ``target`` is ``"module:Qualified.name"``. ``span`` names the layer
    the call is charged to; ``span_of`` picks it per call from the
    arguments instead. ``before`` sees the arguments ahead of the span,
    ``after`` the return value after it.
    """

    target: str
    span: Optional[str] = None
    span_of: Optional[Callable[[tuple], str]] = None
    before: Optional[Callable[[SpanRecorder, tuple], None]] = None
    after: Optional[Callable[[SpanRecorder, Any], None]] = None


def _runner_pass(args: tuple) -> str:
    # ``_replay_columnar(runner, ...)`` serves both device passes.
    return "snip_pass" if type(args[0]).__name__ == "SnipRuntime" else "baseline_pass"


def _stage_span(args: tuple) -> str:
    # ``SnipService._stage(self, index, name, execute)``.
    return f"stage_{args[2]}"


def _count_replayed(recorder: SpanRecorder, args: tuple) -> None:
    # ``ContributionBuilder._fold_events(self, events)``.
    recorder.counters["fold_replay_events"] += len(args[1])


def _pickle_result(recorder: SpanRecorder, args: tuple) -> None:
    # ``FleetFold.fold(self, shard)``: what a pool worker would send back.
    shard = args[1]
    with recorder.span("result_pickle"):
        size = len(pickle.dumps(shard))
    recorder.counters["result_bytes"] += size
    recorder.counters["result_devices"] += shard.device_count


def _cache_outcome(recorder: SpanRecorder, result: Any) -> None:
    recorder.counters["package_cache_miss" if result is None else "package_cache_hit"] += 1


#: Every layer boundary the traced run records. Fleet device work, the
#: shard envelope and the streaming fold; the daemon's stages and the
#: stores they write; the cloud profiler's pipeline.
HOOKS: Tuple[Hook, ...] = (
    Hook("repro.fleet.engine:FleetEngine.run", "engine"),
    Hook("repro.fleet.engine:run_shard", "shard"),
    Hook("repro.fleet.work:run_device", "device"),
    Hook("repro.fleet.work:snapdragon_821", "device_setup"),
    Hook("repro.fleet.work:fresh_game", "device_setup"),
    Hook("repro.core.table:SnipTable.clone", "device_setup"),
    Hook("repro.core.runtime:SnipRuntime.__init__", "device_setup"),
    Hook("repro.android.dispatch:EventLoop.__init__", "device_setup"),
    Hook("repro.soc.energy:ColumnarMeter._folded", "energy_ledger"),
    Hook("repro.fleet.work:merge_reports", "energy_ledger"),
    Hook("repro.users.population:Population.iter_columnar_sessions", "tracegen"),
    Hook("repro.core.runtime:SnipRuntime.session_keys", "snip_pass"),
    Hook("repro.fleet.work:_replay_columnar", span_of=_runner_pass),
    Hook("repro.core.federated:ContributionBuilder.add_session_events", "fed_fold"),
    Hook(
        "repro.core.federated:ContributionBuilder._fold_events",
        "fed_fold_replay",
        before=_count_replayed,
    ),
    Hook("repro.fleet.reducers:FleetFold.fold", "reduce_fold", before=_pickle_result),
    Hook("repro.fleet.reducers:FleetFold.finalize", "reduce_finalize"),
    Hook("repro.fleet.checkpoint:CheckpointStore.save", "checkpoint_io"),
    Hook("repro.fleet.checkpoint:CheckpointStore.load", "checkpoint_io"),
    Hook("repro.service.daemon:SnipService._stage", span_of=_stage_span),
    Hook("repro.service.daemon:measure_package", "eval"),
    Hook("repro.service.ledger:CycleLedger.begin_cycle", "ledger_io"),
    Hook("repro.service.ledger:CycleLedger.record_stage", "ledger_io"),
    Hook("repro.service.ledger:CycleLedger.complete_cycle", "ledger_io"),
    Hook("repro.service.reports:ReportQueue.enqueue", "queue_io"),
    Hook("repro.service.reports:ReportQueue.load", "queue_io"),
    Hook("repro.service.reports:ReportQueue.pending", "queue_io"),
    Hook("repro.service.reports:ReportQueue.ack", "queue_io"),
    Hook("repro.registry.store:PackageRegistry.publish", "registry_io"),
    Hook("repro.registry.store:PackageRegistry.promote", "registry_io"),
    Hook("repro.registry.store:PackageRegistry.apply_decision", "registry_io"),
    Hook("repro.core.profiler:generate_trace", "profile_tracegen"),
    Hook("repro.core.profiler:CloudProfiler.replay_traces", "profile_replay"),
    Hook("repro.core.pfi:build_event_profiles", "profile_encode"),
    Hook("repro.ml.forest:RandomForestClassifier.fit", "forest_fit"),
    Hook("repro.core.pfi:permutation_importance", "pfi"),
    Hook("repro.core.profiler:CloudProfiler.select", "select"),
    Hook("repro.core.table:SnipTable.build", "table_build"),
    Hook(
        "repro.core.package_cache:PackageCache.load",
        "package_cache_io",
        after=_cache_outcome,
    ),
    Hook("repro.core.package_cache:PackageCache.store", "package_cache_io"),
)

#: Handler executions are counted per enclosing span rather than timed:
#: inside ``fed_fold_replay`` each one is a per-event memo miss.
HANDLER_TARGET = "repro.games.base:Game.process"


def _wrap_function(fn: Callable, hook: Hook, recorder: SpanRecorder) -> Callable:
    enter, leave = recorder.enter, recorder.exit

    if inspect.isgeneratorfunction(fn):
        # Charge the time spent producing each item, not the consumer's.
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            name = hook.span or hook.span_of(args)
            items = fn(*args, **kwargs)
            while True:
                enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    leave()
                yield item

        return generator

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook.before is not None:
            hook.before(recorder, args)
        enter(hook.span or hook.span_of(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if hook.after is not None:
            hook.after(recorder, result)
        return result

    return wrapper


def _wrap_counter(fn: Callable, recorder: SpanRecorder) -> Callable:
    counters = recorder.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[f"handler_calls:{recorder.current}"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute)`` for a hook target."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


def _patch(target: str, make: Callable[[Callable], Callable], undo: List) -> bool:
    """Wrap ``target``; False when it does not exist."""
    try:
        owner, attribute, raw = _resolve(target)
    except (ImportError, AttributeError, KeyError):
        return False
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(make(raw.__func__))
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attribute, replacement)
    undo.append((owner, attribute, raw))
    return True


@contextmanager
def install(recorder: SpanRecorder) -> Iterator[List[str]]:
    """Wrap every hook target for the duration of the block.

    Yields the targets that were not found.
    """
    undo: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    try:
        for hook in HOOKS:
            if not _patch(
                hook.target, lambda fn, hook=hook: _wrap_function(fn, hook, recorder), undo
            ):
                missing.append(hook.target)
        if not _patch(HANDLER_TARGET, lambda fn: _wrap_counter(fn, recorder), undo):
            missing.append(HANDLER_TARGET)
        yield missing
    finally:
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)
