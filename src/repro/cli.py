"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing code:

* ``list-games`` — the seven-game catalogue;
* ``session`` — run one baseline session and print its energy summary;
* ``snip`` — profile a game, ship the table, evaluate on a fresh session;
* ``experiment`` — regenerate one paper figure/table by id;
* ``devreport`` — the Option-1 developer-intervention report;
* ``ota`` / ``ota-info`` — write and inspect the over-the-air table file;
* ``fleet`` — the parallel fleet-simulation engine (``--jobs N``,
  checkpoint/resume, deterministic aggregate report; with
  ``--challenger-fraction`` it stages a registry challenger on a
  cohort of the fleet and acts on the comparison);
* ``registry`` — the versioned SnipPackage registry
  (``list|show|publish|promote|rollback|gc``);
* ``serve`` — the continuous profile -> train -> ship daemon
  (crash-resumable cycle ledger, report-queue backpressure,
  clean SIGTERM/SIGINT shutdown; see ``docs/SERVICE.md``);
* ``cache`` — inspect or clear the on-disk package cache.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.core.config import SnipConfig
from repro.core.devreport import build_developer_report
from repro.core.profiler import CloudProfiler
from repro.core.serialization import dump_table, load_table
from repro.games.registry import GAME_NAMES, GAMES
from repro.schemes import SnipScheme, run_scheme_session
from repro.soc.component import ComponentGroup
from repro.units import format_bytes
from repro.users.sessions import run_baseline_session


def _parse_seeds(raw: str) -> List[int]:
    try:
        return [int(chunk) for chunk in raw.split(",") if chunk.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list: {raw!r}") from None


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="profile from scratch, bypassing the on-disk package cache",
    )


def _cache_mode(args) -> Optional[str]:
    """CloudProfiler ``cache`` argument for one profiling command."""
    return None if getattr(args, "no_cache", False) else "auto"


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNIP (IISWC 2020) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-games", help="show the workload catalogue")

    session = commands.add_parser("session", help="run one baseline session")
    session.add_argument("game", choices=GAME_NAMES)
    session.add_argument("--seed", type=int, default=1)
    session.add_argument("--duration", type=float, default=60.0)

    snip = commands.add_parser("snip", help="profile, ship, and evaluate SNIP")
    snip.add_argument("game", choices=GAME_NAMES)
    snip.add_argument("--profile-seeds", type=_parse_seeds, default=[1, 2])
    snip.add_argument("--profile-duration", type=float, default=45.0)
    snip.add_argument("--eval-seed", type=int, default=7)
    snip.add_argument("--eval-duration", type=float, default=45.0)
    _add_cache_flag(snip)

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper figure/table"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiments that support fan-out",
    )

    devreport = commands.add_parser(
        "devreport", help="developer-intervention report (Option 1)"
    )
    devreport.add_argument("game", choices=GAME_NAMES)
    devreport.add_argument("--profile-seeds", type=_parse_seeds, default=[1, 2])
    devreport.add_argument("--profile-duration", type=float, default=30.0)

    ota = commands.add_parser("ota", help="build and write the OTA table file")
    ota.add_argument("game", choices=GAME_NAMES)
    ota.add_argument("--out", required=True)
    ota.add_argument("--profile-seeds", type=_parse_seeds, default=[1, 2])
    ota.add_argument("--profile-duration", type=float, default=45.0)
    _add_cache_flag(ota)

    ota_info = commands.add_parser("ota-info", help="inspect an OTA table file")
    ota_info.add_argument("path")

    commands.add_parser(
        "summary", help="quick paper-vs-measured digest (Figs. 2-4, 6, 8)"
    )

    federated = commands.add_parser(
        "federate", help="build a fleet table from per-device statistics"
    )
    federated.add_argument("game", choices=GAME_NAMES)
    federated.add_argument("--devices", type=int, default=4)
    federated.add_argument("--sessions", type=int, default=2)
    federated.add_argument("--duration", type=float, default=30.0)
    _add_cache_flag(federated)

    fleet = commands.add_parser(
        "fleet", help="simulate a device fleet across a worker pool"
    )
    fleet.add_argument("--game", choices=GAME_NAMES, default="candy_crush")
    fleet.add_argument("--devices", type=int, default=50)
    fleet.add_argument("--sessions", type=int, default=1)
    fleet.add_argument("--duration", type=float, default=10.0)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--jobs", type=int, default=1)
    fleet.add_argument("--shard-size", type=int, default=8)
    fleet.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report rendering (both byte-identical across schedules)",
    )
    fleet.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="run directory for checkpoint/resume of the sweep",
    )
    fleet.add_argument(
        "--no-federate", action="store_true",
        help="skip the federated statistics pass",
    )
    fleet.add_argument(
        "--no-energy", action="store_true",
        help="skip the per-device energy/baseline sessions",
    )
    fleet.add_argument("--profile-duration", type=float, default=15.0)
    fleet.add_argument(
        "--progress", action="store_true",
        help="stream shard progress to stderr (never part of the report)",
    )
    fleet.add_argument(
        "--challenger-fraction", type=float, default=0.0, metavar="F",
        help="stage a registry challenger on this fleet fraction "
             "(0 disables the cohort split)",
    )
    fleet.add_argument(
        "--challenger-version", type=int, default=None, metavar="N",
        help="registry version to trial (default: the latest candidate)",
    )
    fleet.add_argument(
        "--registry", default=None, metavar="DIR",
        help="registry directory for staged rollouts (default: "
             "$REPRO_SNIP_REGISTRY_DIR or ~/.cache/repro-snip/registry)",
    )
    _add_cache_flag(fleet)

    serve = commands.add_parser(
        "serve",
        help="run the continuous profile -> train -> ship daemon",
    )
    serve.add_argument("--game", choices=GAME_NAMES, required=True)
    serve.add_argument(
        "--run-dir", required=True, metavar="DIR",
        help="service run directory (ledger, report queue, per-cycle "
             "fleet checkpoints; resumable after a kill)",
    )
    serve.add_argument(
        "--cycles", type=int, default=None, metavar="N",
        help="stop once the ledger holds N complete cycles "
             "(default: run until SIGTERM/SIGINT)",
    )
    serve.add_argument("--jobs", type=int, default=1)
    serve.add_argument("--devices", type=int, default=8)
    serve.add_argument("--sessions", type=int, default=1)
    serve.add_argument("--duration", type=float, default=5.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--shard-size", type=int, default=4)
    serve.add_argument(
        "--profile-seeds", type=_parse_seeds, default=[1],
        help="base profiling corpus (adopted device seeds ride along)",
    )
    serve.add_argument("--profile-duration", type=float, default=8.0)
    serve.add_argument(
        "--max-profile-seeds", type=int, default=8,
        help="cap on the profiling corpus (oldest adopted seeds drop)",
    )
    serve.add_argument(
        "--seeds-per-cycle", type=int, default=1,
        help="worst-missing devices adopted into the corpus per cycle",
    )
    serve.add_argument(
        "--max-batches-per-cycle", type=int, default=4,
        help="backpressure: report batches one ingest claims; a deeper "
             "backlog is merged into later cycles",
    )
    serve.add_argument(
        "--ungated-cycles", type=int, default=1,
        help="early cycles promote with permissive floors (bootstrap)",
    )
    serve.add_argument(
        "--challenger-fraction", type=float, default=0.0, metavar="F",
        help="ship candidates via staged rollout on this fleet fraction "
             "(0 uses offline gated promotion)",
    )
    serve.add_argument(
        "--eval-duration", type=float, default=20.0,
        help="held-out session length for candidate metrics",
    )
    serve.add_argument(
        "--measure-energy", action="store_true",
        help="measure candidate energy on the held-out session "
             "(the expensive half of publish)",
    )
    serve.add_argument(
        "--registry", default=None, metavar="DIR",
        help="registry directory (default: <run-dir>/registry)",
    )
    serve.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout rendering: text summary or the canonical cycle "
             "ledger as a single JSON document",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cycle progress lines on stderr",
    )

    cache = commands.add_parser(
        "cache", help="inspect or clear the on-disk package cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_SNIP_CACHE_DIR "
             "or ~/.cache/repro-snip)",
    )
    cache.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stats report format",
    )

    registry = commands.add_parser(
        "registry",
        help="the versioned SnipPackage registry "
             "(publish, promote, rollback, gc)",
    )
    registry.add_argument(
        "action",
        choices=("list", "show", "publish", "promote", "rollback", "gc"),
    )
    registry.add_argument(
        "--dir", default=None, metavar="DIR",
        help="registry directory (default: $REPRO_SNIP_REGISTRY_DIR "
             "or ~/.cache/repro-snip/registry)",
    )
    registry.add_argument(
        "--game", choices=GAME_NAMES, default=None,
        help="registry slot to act on (required except for list)",
    )
    registry.add_argument(
        "--version", type=int, default=None, metavar="N",
        help="entry version for promote/rollback (defaults: latest "
             "candidate / previous champion)",
    )
    registry.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format for list/show",
    )
    registry.add_argument("--profile-seeds", type=_parse_seeds, default=[1, 2])
    registry.add_argument("--profile-duration", type=float, default=45.0)
    registry.add_argument(
        "--no-energy", action="store_true",
        help="publish without the energy measurement (skips its floor)",
    )
    registry.add_argument(
        "--min-hit-rate", type=float, default=0.0,
        help="promotion floor: table hit rate",
    )
    registry.add_argument(
        "--min-accuracy", type=float, default=0.98,
        help="promotion floor: selection accuracy",
    )
    registry.add_argument(
        "--min-energy-saved", type=float, default=0.0,
        help="promotion floor: energy saved vs the unoptimised baseline",
    )
    registry.add_argument(
        "--max-table-bytes", type=int, default=0,
        help="promotion ceiling on shipped table size (0 disables)",
    )

    lint = commands.add_parser(
        "lint", help="run the repro static-analysis rule pack"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (json is what CI consumes; sarif uploads "
        "to GitHub code scanning)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="run only these rule ids (default: all registered rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rule ids and exit",
    )

    return parser


# -- command implementations ----------------------------------------------


def _cmd_list_games(out) -> int:
    for name in GAME_NAMES:
        info = GAMES[name]
        print(f"{name:14s} {info.category:16s} {info.display_name}", file=out)
    return 0


def _cmd_session(args, out) -> int:
    result = run_baseline_session(args.game, seed=args.seed,
                                  duration_s=args.duration)
    report = result.report
    print(f"game:            {args.game}", file=out)
    print(f"events:          {result.event_count}", file=out)
    print(f"energy:          {report.total_joules:.1f} J "
          f"({result.average_watts:.2f} W)", file=out)
    print(f"battery life:    {result.battery_hours:.1f} h", file=out)
    print(f"useless events:  {result.useless_user_fraction:.1%}", file=out)
    for group in ComponentGroup:
        print(f"  {group.value:7s} {report.group_fraction(group):6.1%}", file=out)
    return 0


def _cmd_snip(args, out) -> int:
    scheme = SnipScheme(
        profile_seeds=args.profile_seeds,
        profile_duration_s=args.profile_duration,
        cache=_cache_mode(args),
    )
    package = scheme.prepare(args.game)
    print(f"table: {package.table.entry_count} entries, "
          f"{format_bytes(package.table_bytes)} "
          f"({package.shrink_factor:.0f}x below naive)", file=out)
    run = run_scheme_session(
        scheme, args.game, seed=args.eval_seed, duration_s=args.eval_duration
    )
    baseline = run_baseline_session(
        args.game, seed=args.eval_seed, duration_s=args.eval_duration
    )
    savings = 1 - run.report.total_joules / baseline.report.total_joules
    print(f"savings:  {savings:.1%}", file=out)
    print(f"coverage: {run.coverage:.1%}", file=out)
    print(f"hit rate: {run.hit_rate:.1%}", file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    import inspect

    kwargs = {}
    if getattr(args, "jobs", 1) > 1:
        from repro.fleet.executors import make_executor

        driver = EXPERIMENTS[args.id]
        if "executor" in inspect.signature(driver).parameters:
            kwargs["executor"] = make_executor(args.jobs)
        else:
            print(f"note: {args.id} does not fan out; --jobs ignored",
                  file=sys.stderr)
    result = run_experiment(args.id, **kwargs)
    print(result.to_text(), file=out)
    return 0


def _cmd_devreport(args, out) -> int:
    # The package does not carry the PFI analysis, so the report builds
    # its own, from the same stages, and the package cache is not used.
    profiler = CloudProfiler(SnipConfig(), cache=None)
    analysis = profiler.analyze_sessions(
        args.game, args.profile_seeds, args.profile_duration
    )
    report = build_developer_report(args.game, analysis, profiler.select(analysis))
    print(report.to_text(), file=out)
    return 0


def _cmd_ota(args, out) -> int:
    profiler = CloudProfiler(SnipConfig(), cache=_cache_mode(args))
    package = profiler.build_package_from_sessions(
        args.game, seeds=args.profile_seeds, duration_s=args.profile_duration
    )
    nbytes = dump_table(package.table, args.out)
    print(f"wrote {args.out}: {format_bytes(nbytes)} "
          f"({package.table.entry_count} entries)", file=out)
    return 0


def _cmd_summary(out) -> int:
    from repro.analysis.summary import run_summary

    summary = run_summary()
    print(summary.to_text(), file=out)
    print(
        "all checks hold" if summary.all_hold else "some checks deviate",
        file=out,
    )
    return 0 if summary.all_hold else 1


def _cmd_federate(args, out) -> int:
    from repro.fleet import FleetEngine, FleetSpec
    from repro.users.population import Population

    spec = FleetSpec(
        game_name=args.game,
        devices=args.devices,
        sessions_per_device=args.sessions,
        duration_s=args.duration,
        seed=11,
        profile_seeds=(1,),
        profile_duration_s=args.duration,
        measure_energy=False,
    )
    report = FleetEngine(spec, cache=_cache_mode(args)).run()
    # The report's census is sorted by archetype name; this line keeps
    # the population's archetype order.
    census = Population(seed=spec.seed).census(spec.devices)
    print(f"fleet: {spec.devices} devices x {spec.sessions_per_device} "
          f"sessions ({census})", file=out)
    print(f"fleet table: {report.table_entries} entries, "
          f"{format_bytes(report.table_bytes)}", file=out)
    print(f"uplink (statistics only): {format_bytes(report.uplink_bytes)}", file=out)
    return 0


def _cmd_fleet(args, out) -> int:
    from repro.errors import CacheError, CheckpointError, RegistryError
    from repro.fleet import FleetEngine, FleetSpec, TelemetryBus, make_executor
    from repro.fleet.telemetry import progress_printer

    spec = FleetSpec(
        game_name=args.game,
        devices=args.devices,
        sessions_per_device=args.sessions,
        duration_s=args.duration,
        seed=args.seed,
        shard_size=args.shard_size,
        profile_duration_s=args.profile_duration,
        measure_energy=not args.no_energy,
        federate=not args.no_federate,
        challenger_fraction=args.challenger_fraction,
    )
    telemetry = TelemetryBus()
    if args.progress:
        telemetry.subscribe(progress_printer(sys.stderr))
    executor = make_executor(args.jobs)
    try:
        if args.challenger_fraction > 0:
            from repro.registry import PackageRegistry, run_staged_rollout

            registry = (
                PackageRegistry(args.registry) if args.registry else PackageRegistry()
            )
            result = run_staged_rollout(
                registry,
                args.game,
                spec,
                challenger_version=args.challenger_version,
                executor=executor,
                telemetry=telemetry,
                checkpoint=args.checkpoint,
            )
            report, to_text = result.report, result.to_text
        else:
            report = FleetEngine(
                spec,
                executor=executor,
                telemetry=telemetry,
                checkpoint=args.checkpoint,
                cache=_cache_mode(args),
            ).run()
            to_text = report.to_text
    except (CacheError, CheckpointError, RegistryError) as exc:
        # The stores' typed errors only: a simulation bug keeps its
        # traceback.
        print(f"fleet error: {exc}", file=sys.stderr)
        return 1
    print(report.to_json() if args.format == "json" else to_text(), file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from repro.errors import CacheError, CheckpointError, RegistryError, ServiceError
    from repro.fleet import TelemetryBus, make_executor
    from repro.registry import PackageRegistry
    from repro.service import ServiceConfig, SnipService
    from repro.service.daemon import service_progress_printer

    config = ServiceConfig(
        game_name=args.game,
        devices=args.devices,
        sessions_per_device=args.sessions,
        session_duration_s=args.duration,
        seed=args.seed,
        shard_size=args.shard_size,
        base_profile_seeds=tuple(args.profile_seeds),
        profile_duration_s=args.profile_duration,
        max_profile_seeds=args.max_profile_seeds,
        seeds_per_cycle=args.seeds_per_cycle,
        max_batches_per_cycle=args.max_batches_per_cycle,
        ungated_cycles=args.ungated_cycles,
        challenger_fraction=args.challenger_fraction,
        measure_candidate_energy=args.measure_energy,
        eval_duration_s=args.eval_duration,
    )
    telemetry = TelemetryBus()
    if not args.quiet:
        # Progress narrates on stderr only: --format json keeps stdout
        # a single parseable document.
        telemetry.subscribe(service_progress_printer(sys.stderr))
    try:
        service = SnipService(
            config,
            args.run_dir,
            registry=PackageRegistry(args.registry) if args.registry else None,
            executor=make_executor(args.jobs),
            telemetry=telemetry,
        )
        result = service.run(cycles=args.cycles)
    except (CacheError, CheckpointError, RegistryError, ServiceError) as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        out.write(service.ledger.to_json())
        return 0
    print(
        f"serve: {result.cycles_completed} cycles complete in "
        f"{result.run_dir}"
        + (" (stopped by signal; resumable)" if result.stopped else ""),
        file=out,
    )
    for index in range(service.ledger.cycle_count):
        ship = service.ledger.stage(index, "ship")
        if ship is None:
            print(f"  cycle {index}: in flight (resumable)", file=out)
            continue
        champion = (
            f"champion v{ship['champion_version_after']}"
            if ship["champion_version_after"] is not None
            else "no champion"
        )
        print(
            f"  cycle {index}: {ship['mode']} | "
            f"{'promoted' if ship['promoted'] else 'kept'} -> {champion} | "
            f"{ship['devices']} devices, {ship['misses']} misses, "
            f"savings {ship['savings']:.2%}",
            file=out,
        )
    return 0


def _cmd_lint(args, out) -> int:
    import os

    from repro import lint
    from repro.errors import LintError

    if args.list_rules:
        for rule_id in lint.iter_rule_ids():
            print(f"{rule_id:20s} {lint.RULE_REGISTRY[rule_id].description}",
                  file=out)
        return 0
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    rule_ids = None
    if args.rules:
        rule_ids = [chunk.strip() for chunk in args.rules.split(",")
                    if chunk.strip()]
    try:
        result = lint.lint_paths(paths, rule_ids=rule_ids)
    except LintError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    # Unused suppressions go to stderr: visible in CI logs, invisible
    # to anything parsing the report on stdout.
    for s_path, s_line, s_rule in result.unused_suppressions:
        where = f"{s_path}:{s_line}" if s_line is not None else s_path
        print(f"lint: unused suppression: {where} [{s_rule}]",
              file=sys.stderr)
    renderers = {
        "json": lint.render_json,
        "sarif": lint.render_sarif,
        "text": lint.render_text,
    }
    print(renderers[args.format](result), file=out)
    return 0 if result.clean else 1


def _cmd_cache(args, out) -> int:
    import json

    from repro.core.package_cache import PackageCache

    store = PackageCache(args.dir) if args.dir else PackageCache()
    if args.action == "clear":
        cleared = store.clear()
        print(
            f"removed {cleared.entries} cached packages from {store.root} "
            f"({format_bytes(cleared.bytes_reclaimed)} reclaimed)",
            file=out,
        )
        return 0
    stats = store.stats()
    if args.format == "json":
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True), file=out)
        return 0
    print(f"cache dir: {stats.root}", file=out)
    print(f"entries:   {stats.entries}", file=out)
    print(f"size:      {format_bytes(stats.total_bytes)}", file=out)
    print(f"corrupt evictions: {stats.corrupt_evictions}", file=out)
    return 0


def _registry_entry_line(entry) -> str:
    metrics = entry.metrics
    energy = (
        f"{metrics.energy_saved_fraction:.1%}"
        if metrics.energy_saved_fraction is not None
        else "n/a"
    )
    return (
        f"  v{entry.version} [{entry.status}] digest {entry.digest} "
        f"source {entry.source} | hit {metrics.hit_rate:.1%} "
        f"acc {metrics.selection_accuracy:.2%} energy {energy} "
        f"fields {metrics.selected_fields} "
        f"table {format_bytes(metrics.table_bytes)}"
    )


def _cmd_registry(args, out) -> int:
    import json

    from repro.errors import PromotionError, RegistryError
    from repro.registry import (
        PackageRegistry,
        PromotionPolicy,
        publish_candidate,
    )

    registry = PackageRegistry(args.dir) if args.dir else PackageRegistry()
    config = SnipConfig()
    if args.action != "list" and not args.game:
        print(f"registry {args.action} needs --game", file=sys.stderr)
        return 2
    try:
        if args.action == "list":
            slots = [
                {
                    "game": game,
                    "config_fingerprint": fingerprint,
                    "versions": len(state.entries),
                    "champion_version": state.champion_version,
                }
                for game, fingerprint, state in registry.slots()
            ]
            if args.format == "json":
                print(json.dumps(slots, indent=2, sort_keys=True), file=out)
                return 0
            print(f"registry: {registry.root}", file=out)
            if not slots:
                print("(empty)", file=out)
            for slot in slots:
                champion = (
                    f"champion v{slot['champion_version']}"
                    if slot["champion_version"] is not None
                    else "no champion"
                )
                print(
                    f"  {slot['game']} ({slot['config_fingerprint']}): "
                    f"{slot['versions']} versions, {champion}",
                    file=out,
                )
            return 0
        if args.action == "show":
            state = registry.load_state(args.game, config)
            if args.format == "json":
                print(
                    json.dumps(state.to_dict(), indent=2, sort_keys=True),
                    file=out,
                )
                return 0
            champion = (
                f"v{state.champion_version}"
                if state.champion_version is not None
                else "none"
            )
            history = (
                " -> ".join(f"v{version}" for version in state.champion_history)
                or "none"
            )
            print(f"{args.game}: champion {champion} (history: {history})",
                  file=out)
            for version in sorted(state.entries):
                print(_registry_entry_line(state.entries[version]), file=out)
            return 0
        if args.action == "publish":
            entry, _, created = publish_candidate(
                registry,
                args.game,
                seeds=args.profile_seeds,
                duration_s=args.profile_duration,
                config=config,
                measure_energy=not args.no_energy,
            )
            verb = "published" if created else "already registered as"
            print(f"{verb} {args.game} v{entry.version} "
                  f"(digest {entry.digest})", file=out)
            return 0
        if args.action == "promote":
            policy = PromotionPolicy(
                min_hit_rate=args.min_hit_rate,
                min_selection_accuracy=args.min_accuracy,
                min_energy_saved_fraction=args.min_energy_saved,
                max_table_bytes=args.max_table_bytes,
            )
            decision = registry.promote(
                args.game, config, version=args.version, policy=policy
            )
            if decision.promoted:
                print(f"promoted v{decision.version} to champion "
                      f"(score {decision.challenger_score:.6f})", file=out)
                return 0
            print(f"rejected v{decision.version}:", file=out)
            for reason in decision.reasons:
                print(f"  - {reason}", file=out)
            return 1
        if args.action == "rollback":
            entry = registry.rollback(args.game, config, version=args.version)
            print(f"rolled back: champion is now v{entry.version} "
                  f"(digest {entry.digest})", file=out)
            return 0
        stats = registry.gc(args.game, config)
        print(
            f"gc: removed {stats.entries_removed} entries, "
            f"{stats.payloads_removed} payloads "
            f"({format_bytes(stats.bytes_reclaimed)} reclaimed)",
            file=out,
        )
        return 0
    except (RegistryError, PromotionError) as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 1


def _cmd_ota_info(args, out) -> int:
    from repro.errors import MemoizationError

    try:
        table = load_table(args.path)
    except (FileNotFoundError, MemoizationError) as exc:
        print(f"ota-info error: {exc}", file=sys.stderr)
        return 2
    print(f"entries:  {table.entry_count}", file=out)
    print(f"size:     {format_bytes(table.total_bytes)}", file=out)
    for event_type in table.event_types():
        fields = ", ".join(info.name for info in table.fields_for(event_type))
        print(f"  {event_type.value}: {table.entries_for(event_type)} entries, "
              f"key = [{fields}]", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "list-games": lambda: _cmd_list_games(out),
        "session": lambda: _cmd_session(args, out),
        "snip": lambda: _cmd_snip(args, out),
        "experiment": lambda: _cmd_experiment(args, out),
        "devreport": lambda: _cmd_devreport(args, out),
        "ota": lambda: _cmd_ota(args, out),
        "ota-info": lambda: _cmd_ota_info(args, out),
        "summary": lambda: _cmd_summary(out),
        "federate": lambda: _cmd_federate(args, out),
        "fleet": lambda: _cmd_fleet(args, out),
        "cache": lambda: _cmd_cache(args, out),
        "registry": lambda: _cmd_registry(args, out),
        "serve": lambda: _cmd_serve(args, out),
        "lint": lambda: _cmd_lint(args, out),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
