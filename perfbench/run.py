#!/usr/bin/env python3
"""Repository benchmark: fleet and serve-daemon workloads, end to end
and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-cli --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``fleet-cli``, ``fleet-scale``,
``serve-loop``. A run

1. times the workload's set-up at least :data:`SETUP_REPEATS` times and
   for at least :data:`SETUP_MIN_S`, each time in a child forked from
   the process as it was before any set-up, so every one is cold
   (nothing a set-up memoises in-process reaches the next), and reports
   the median as ``setup_s``; then sets up once more, untimed, in the
   process the requests fork from;
2. for ``--seconds`` of wall time, executes the workload's requests
   (units) round-robin, each execution in a child process forked from
   the set-up process, so that every repeat of a request starts from
   the same process state and does the same work; every request's
   output is checked, and every repeat of a request must reproduce its
   output digest;
3. re-checks determinism outside the measured window (a fleet report is
   invariant under the shard size; a daemon crashed mid-run resumes to
   the ledger of the uninterrupted run);
4. prints one JSON object as the last line of stdout: the end-to-end
   metrics with ``--trace 0``, the per-layer breakdown (``spans.py``)
   with ``--trace 1``.

Every time reported is scaled to a reference machine speed by the
probe in ``speed.py``, timed right before and after each set-up and
each step of a request (a fleet run, a daemon cycle), so the scale
follows the machine's speed within a request; stderr also shows the
median raw request latency. A request's latency is the median of its
scaled repeats, which are spread over the whole window.

Everything the run writes goes to ``.bench_work/`` under the
repository root, which is removed when the run ends. Exits 2 without a
result when the program's sources (``src/repro``) are not beside the
benchmark.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from speed import timed

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
WORKLOADS = ("fleet-cli", "fleet-scale", "serve-loop")

#: Layers whose self time the traced run reports, in ms per request;
#: ``request`` is the benchmark's own span around each request, so its
#: self time is the part no layer hook accounts for.
LAYER_SPANS = (
    "engine", "shard", "device", "device_setup", "tracegen", "snip_pass",
    "baseline_pass", "energy_ledger",
    "fed_fold", "fed_fold_replay", "reduce_fold", "reduce_finalize",
    "result_pickle", "checkpoint_io",
    "stage_ingest", "stage_profile", "stage_publish", "stage_plan",
    "stage_ship", "eval", "ledger_io", "queue_io", "registry_io",
    "profile_tracegen", "profile_replay", "profile_encode", "forest_fit",
    "pfi", "select", "table_build", "package_cache_io",
)


class ChildFailed(Exception):
    """A forked request process raised or died; carries its traceback."""


def in_child(fn):
    """``fn()`` run in a process forked from this one; its return value.

    The child sends the pickled result back through a pipe and exits;
    the parent waits for it, so no child outlives the call.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, fn())
            except Exception:
                payload = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise ChildFailed(f"request process {pid} died without a result") from exc
    if not ok:
        raise ChildFailed(value)
    return value


def run_unit(workload, unit: int, recorder):
    """One execution of a unit's request (in a child).

    Returns its scaled and raw latency (the sums over its steps), its
    outcome, and the span totals when tracing.
    """
    workload.prepare(unit)
    scaled = raw = 0.0
    for step in workload.steps(unit):
        def call(step=step):
            if recorder is None:
                return step()
            with recorder.span("request"):
                return step()

        outcome, step_scaled, step_raw = timed(call)
        scaled += step_scaled
        raw += step_raw
    workload.finish(unit)
    spans = None if recorder is None else recorder.totals()
    return scaled, raw, outcome, spans


class Results:
    """Every execution of every unit, and what went wrong."""

    def __init__(self) -> None:
        #: ``unit -> [scaled latency, ...]`` over repeats.
        self.latencies = defaultdict(list)
        self.raw_latencies = []
        self.outcomes = {}
        self.fingerprints = defaultdict(set)
        #: ``unit -> [(scale, span totals), ...]`` over repeats.
        self.unit_spans = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, unit: int, result) -> None:
        latency, raw, outcome, spans = result
        self.attempted += 1
        self.raw_latencies.append(raw)
        if spans is not None:
            self.unit_spans[unit].append((latency / raw, spans))
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems)
            return
        self.latencies[unit].append(latency)
        self.outcomes[unit] = outcome
        self.fingerprints[unit].add(outcome.fingerprint)

    def add_failure(self, unit: int, error: str) -> None:
        if self.failed == 0:
            print(error, file=sys.stderr)
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"unit {unit}: {error.strip().splitlines()[-1]}")

    def agreed_fingerprints(self):
        """The one output digest of each request; flags any that differ."""
        agreed = {}
        for unit, seen in sorted(self.fingerprints.items()):
            if len(seen) > 1:
                self.problems.append(f"unit {unit}: repeats produced "
                                     f"{len(seen)} different outputs")
            agreed[unit] = min(seen)
        return agreed

    def typical(self):
        """Median scaled latency of each request over its successful repeats."""
        return {key: statistics.median(values) for key, values in self.latencies.items()}


def measure(workload, seconds: float, recorder=None) -> Results:
    """Units round-robin, each in a fresh child, until ``seconds`` pass
    and every unit has run at least once."""
    results = Results()
    deadline = time.perf_counter() + seconds
    for count, unit in enumerate(itertools.cycle(range(workload.units)), 1):
        try:
            results.add(unit, in_child(lambda: run_unit(workload, unit, recorder)))
        except ChildFailed as exc:
            results.add_failure(unit, str(exc))
        if count >= workload.units and time.perf_counter() >= deadline:
            return results


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end_metrics(results: Results, setup_s: float) -> dict:
    typical = results.typical()
    devices = sum(results.outcomes[unit].devices for unit in typical)
    return {
        "request_ms": _metric(statistics.median(typical.values()) * 1e3, "ms"),
        "devices_per_s": _metric(devices / sum(typical.values()), "1/s"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer_metrics(results: Results, hooks_missing: int) -> dict:
    """Scaled self time per layer, averaged over every traced request."""
    self_s, calls, counters = Counter(), Counter(), Counter()
    requests = 0
    for repeats in results.unit_spans.values():
        for scale, (unit_self, _, _) in repeats:
            self_s.update({name: value * scale for name, value in unit_self.items()})
        requests += len(repeats)
        # Every repeat makes the same calls and counts; take one.
        _, (_, unit_calls, unit_counters) = repeats[0]
        calls.update(unit_calls)
        counters.update(unit_counters)
    metrics = {
        f"{name}_ms": _metric(self_s.get(name, 0.0) * 1e3 / requests, "ms")
        for name in LAYER_SPANS
    }
    request_s = sum(self_s.values())
    metrics["unattributed_ms"] = _metric(self_s.get("request", 0.0) * 1e3 / requests, "ms")
    metrics["attributed_share"] = _metric(
        1.0 - _ratio(self_s.get("request", 0.0), request_s), "ratio"
    )
    metrics["traced_request_ms"] = _metric(
        statistics.median(results.typical().values()) * 1e3, "ms"
    )
    hits = sum(outcome.hits for outcome in results.outcomes.values())
    misses = sum(outcome.misses for outcome in results.outcomes.values())
    metrics["table_hit_rate"] = _metric(_ratio(hits, hits + misses), "ratio")
    folds = calls.get("fed_fold", 0)
    metrics["fold_memo_hit_rate"] = _metric(
        _ratio(folds - calls.get("fed_fold_replay", 0), folds), "ratio"
    )
    replayed = counters.get("fold_replay_events", 0)
    metrics["event_memo_hit_rate"] = _metric(
        _ratio(replayed - counters.get("handler_calls:fed_fold_replay", 0), replayed),
        "ratio",
    )
    cache_hits = counters.get("package_cache_hit", 0)
    metrics["package_cache_hit_rate"] = _metric(
        _ratio(cache_hits, cache_hits + counters.get("package_cache_miss", 0)), "ratio"
    )
    metrics["result_bytes_per_device"] = _metric(
        _ratio(counters.get("result_bytes", 0), counters.get("result_devices", 0)),
        "bytes",
    )
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"
    )
    metrics["hooks_missing"] = _metric(hooks_missing, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    # Keep every file the program writes inside the checkout: its
    # package cache, registry default, and temporary spill directories.
    os.environ["REPRO_SNIP_CACHE_DIR"] = str(work_dir / "cache")
    os.environ["REPRO_SNIP_REGISTRY_DIR"] = str(work_dir / "registry")
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    (work_dir / "tmp").mkdir()
    tempfile.tempdir = None
    # Request processes are forked; keep numerical libraries to the one
    # thread a fork carries over.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SOURCE))
    try:
        import spans
        import workloads

        workload = workloads.make_workload(args.workload, args.seed, work_dir)
        setups = []
        started = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
            setups.append(in_child(lambda: timed(workload.setup)[1]))
        setup_s = statistics.median(setups)
        workload.setup()
        # Children inherit the set-up heap; keep their collector off it.
        gc.collect()
        gc.freeze()

        hooks_missing = []
        if args.trace:
            recorder = spans.SpanRecorder()
            with spans.install(recorder) as hooks_missing:
                results = measure(workload, args.seconds, recorder)
        else:
            results = measure(workload, args.seconds)
        fingerprints = results.agreed_fingerprints()
        try:
            results.problems.extend(in_child(lambda: workload.verify(fingerprints)))
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            results.problems.append("verification raised")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run shares it

    for problem in results.problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for target in hooks_missing:
        print(f"perfbench: trace hook {target} not found; its layer is not measured",
              file=sys.stderr)
    if not results.latencies:
        print("perfbench: no request succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(results, len(hooks_missing))
    else:
        metrics = end_to_end_metrics(results, setup_s)
    repeats = [len(values) for values in results.latencies.values()]
    print(
        f"perfbench: {args.workload} seed {args.seed}: {results.attempted} requests "
        f"({len(repeats)} distinct, {min(repeats)}-{max(repeats)} repeats each), "
        f"{results.failed} failed; raw request median "
        f"{statistics.median(results.raw_latencies) * 1e3:.1f} ms",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not results.problems,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
