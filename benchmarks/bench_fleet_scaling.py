"""Fleet-engine scaling: constant-memory streaming at up to 1M devices.

Runs the streaming fleet engine at increasing device counts — each
scale in its own subprocess so ``ru_maxrss`` measures that scale alone —
and gates two properties:

* **throughput**: devices simulated per second stays above a floor at
  every scale (the fold must not degrade as the sweep grows);
* **peak RSS**: memory grows sub-linearly in devices (the 10x-device
  jump may cost at most a small constant factor), and stays under an
  absolute ceiling — the observable proof that shard results are folded
  and dropped rather than collected.

* **batch speedup**: the columnar session fast path sustains at least
  ``BATCH_SPEEDUP_FLOOR``x the scalar engine's recorded throughput
  floor at the steady-state (largest) scale.

Also re-checks the engine's core guarantees at benchmark scale: serial
and queue-executor runs render byte-identical reports, and the batched
pipeline renders the same report as the scalar ``*_reference`` path.
Writes ``BENCH_fleet.json`` at the repo root.

Run directly (CI's perf-smoke job uses ``--quick``; the full run
simulates 1,000,000 devices)::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_fleet.json"

#: Scales per mode: a 10x device jump whose RSS ratio is gated.
QUICK_SCALES = (2_000, 20_000)
FULL_SCALES = (100_000, 1_000_000)

#: Shards stay this size at every scale, so per-shard memory is flat
#: and only the engine's buffering could grow with the fleet.
SHARD_SIZE = 500

#: Recorded steady-state throughput of the scalar (pre-columnar) engine
#: at this exact spec — the 1M-device serial sweep in the BENCH_fleet
#: history before the batched session pipeline landed.
SCALAR_FLOOR_DEVICES_PER_S = 525.3713084465782

#: The batched pipeline must beat the scalar floor by at least this
#: factor at the steady-state (largest) scale. The smallest scale runs
#: in a cold subprocess whose process-wide fold/event memos warm over
#: the first few hundred devices, so it under-reads steady state.
BATCH_SPEEDUP_FLOOR = 5.0


def _build_spec(devices: int):
    from repro.fleet import FleetSpec

    # Federation on, energy off: the reduction path (contributions,
    # census, totals) is what scales; the tripled energy replays would
    # only multiply wall time without touching more of the engine.
    return FleetSpec(
        game_name="candy_crush",
        devices=devices,
        sessions_per_device=1,
        duration_s=0.25,
        seed=11,
        shard_size=min(SHARD_SIZE, devices),
        profile_seeds=(1,),
        profile_duration_s=3.0,
        measure_energy=False,
        federate=True,
    )


def _worker(devices: int) -> int:
    """One scale, measured in isolation: prints a JSON line to stdout."""
    from repro.fleet import FleetEngine, TelemetryBus, peak_rss_bytes

    spec = _build_spec(devices)
    telemetry = TelemetryBus()
    engine = FleetEngine(
        spec,
        telemetry=telemetry,
        cache=None,
    )
    engine.build_package()  # profile outside the timed window
    start = time.perf_counter()
    report = engine.run()
    wall_s = time.perf_counter() - start
    counters = telemetry.counters
    print(
        json.dumps(
            {
                "devices": devices,
                "shards": spec.shard_count,
                "events": report.totals.events,
                "wall_s": wall_s,
                "devices_per_s": devices / wall_s,
                "peak_rss_bytes": peak_rss_bytes(),
                "peak_live_shards": counters.peak_live_shards,
                "worker_failures": counters.worker_failures,
                "table_entries": report.table_entries,
            }
        )
    )
    return 0


def _run_scale(devices: int) -> dict:
    """Run one scale in a fresh subprocess for a clean ru_maxrss."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        str(devices),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, cwd=str(REPO_ROOT)
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"scale {devices} failed:\n{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _equivalence_check() -> dict:
    """Serial, queue-executor, and scalar runs must render byte-identical
    reports."""
    from unittest import mock

    from repro.fleet import FleetEngine, QueueFleetExecutor
    from repro.fleet.work import run_device_reference

    spec = _build_spec(64)
    serial = FleetEngine(spec, cache=None).run()
    queued = FleetEngine(
        spec,
        executor=QueueFleetExecutor(jobs=2),
        cache=None,
    ).run()
    executors_identical = (
        serial.to_text() == queued.to_text()
        and serial.to_json() == queued.to_json()
    )
    # The serial engine runs shards in-process, so patching the module
    # attribute routes every device through the scalar reference loop.
    with mock.patch("repro.fleet.work.run_device", run_device_reference):
        scalar = FleetEngine(spec, cache=None).run()
    scalar_identical = (
        serial.to_text() == scalar.to_text()
        and serial.to_json() == scalar.to_json()
    )
    return {
        "devices": spec.devices,
        "identical": executors_identical,
        "scalar_identical": scalar_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller scales and relaxed gates (CI smoke mode)",
    )
    parser.add_argument(
        "--worker", type=int, default=None, metavar="DEVICES",
        help=argparse.SUPPRESS,  # internal: run one isolated scale
    )
    args = parser.parse_args(argv)
    if args.worker is not None:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        return _worker(args.worker)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    quick = args.quick
    scales = QUICK_SCALES if quick else FULL_SCALES
    gates = {
        # Conservative floors: one CI core sustains several hundred
        # devices/sec at these session settings.
        "min_devices_per_s": 60.0,
        # 10x the devices may cost at most this factor in peak RSS —
        # the sub-linear-memory proof. (Linear growth would be ~10x.)
        "max_rss_growth": 3.0,
        "max_rss_bytes": 800_000_000 if quick else 1_500_000_000,
    }

    results = {
        "quick": quick,
        "shard_size": SHARD_SIZE,
        "scales": [],
        "gates": {},
    }

    equivalence = _equivalence_check()
    results["equivalence"] = equivalence
    print(
        f"equivalence: serial vs queue at {equivalence['devices']} devices "
        f"-> {'identical' if equivalence['identical'] else 'DIVERGED'}; "
        "batched vs scalar -> "
        f"{'identical' if equivalence['scalar_identical'] else 'DIVERGED'}",
        flush=True,
    )

    for devices in scales:
        outcome = _run_scale(devices)
        results["scales"].append(outcome)
        print(
            f"{devices:>9,d} devices: {outcome['devices_per_s']:7.0f} dev/s, "
            f"peak RSS {outcome['peak_rss_bytes'] / 1e6:7.1f} MB, "
            f"live shards <= {outcome['peak_live_shards']}",
            flush=True,
        )

    failed = []
    if not equivalence["identical"]:
        failed.append("equivalence: serial and queue reports diverged")
    if not equivalence["scalar_identical"]:
        failed.append("equivalence: batched and scalar reports diverged")
    worst_throughput = min(s["devices_per_s"] for s in results["scales"])
    throughput_ok = worst_throughput >= gates["min_devices_per_s"]
    results["gates"]["throughput"] = {
        "floor": gates["min_devices_per_s"],
        "worst_devices_per_s": worst_throughput,
        "ok": throughput_ok,
    }
    if not throughput_ok:
        failed.append(
            f"throughput: {worst_throughput:.0f} dev/s < "
            f"{gates['min_devices_per_s']:.0f} dev/s"
        )

    first, last = results["scales"][0], results["scales"][-1]
    growth = last["peak_rss_bytes"] / max(first["peak_rss_bytes"], 1)
    device_ratio = last["devices"] / first["devices"]
    growth_ok = growth <= gates["max_rss_growth"]
    results["gates"]["rss_growth"] = {
        "ceiling": gates["max_rss_growth"],
        "device_ratio": device_ratio,
        "rss_ratio": growth,
        "ok": growth_ok,
    }
    if not growth_ok:
        failed.append(
            f"rss growth: {growth:.2f}x over a {device_ratio:.0f}x device "
            f"jump (ceiling {gates['max_rss_growth']:.1f}x)"
        )

    worst_rss = max(s["peak_rss_bytes"] for s in results["scales"])
    ceiling_ok = worst_rss <= gates["max_rss_bytes"]
    results["gates"]["rss_ceiling"] = {
        "ceiling_bytes": gates["max_rss_bytes"],
        "worst_bytes": worst_rss,
        "ok": ceiling_ok,
    }
    if not ceiling_ok:
        failed.append(
            f"rss ceiling: {worst_rss / 1e6:.0f} MB > "
            f"{gates['max_rss_bytes'] / 1e6:.0f} MB"
        )

    steady = results["scales"][-1]["devices_per_s"]
    speedup = steady / SCALAR_FLOOR_DEVICES_PER_S
    speedup_ok = speedup >= BATCH_SPEEDUP_FLOOR
    results["gates"]["batch_speedup"] = {
        "floor": BATCH_SPEEDUP_FLOOR,
        "scalar_devices_per_s": SCALAR_FLOOR_DEVICES_PER_S,
        "steady_devices_per_s": steady,
        "speedup": speedup,
        "ok": speedup_ok,
    }
    if not speedup_ok:
        failed.append(
            f"batch speedup: {speedup:.2f}x over the scalar floor "
            f"(floor {BATCH_SPEEDUP_FLOOR:.1f}x)"
        )

    # The gauge samples at the buffer's high-water mark, right after a
    # shard is inserted and before the fold drains it — so a run that
    # buffers nothing still peaks at 1. The sweep runs the serial
    # executor, whose window (``FleetExecutor.stream``) is 1, so the
    # buffer never holds more.
    buffer_ok = all(s["peak_live_shards"] == 1 for s in results["scales"])
    results["gates"]["bounded_buffer"] = {
        "ceiling": 1,
        "peaks": [s["peak_live_shards"] for s in results["scales"]],
        "ok": buffer_ok,
    }
    if not buffer_ok:
        failed.append("bounded buffer: live-shard peak is not 1")

    failures_ok = all(s["worker_failures"] == 0 for s in results["scales"])
    if not failures_ok:
        failed.append("worker failures occurred during the sweep")

    REPORT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REPORT_PATH}")
    if failed:
        print("FAILED gates: " + "; ".join(failed), file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
