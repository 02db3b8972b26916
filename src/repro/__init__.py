"""SNIP: Selective Event Processing for Energy Efficient Mobile Gaming.

A faithful, laptop-scale reproduction of Rengasamy et al., IISWC 2020
(DOI 10.1109/IISWC50251.2020.00035). The package provides:

* a Snapdragon-821-class SoC energy model (:mod:`repro.soc`);
* the Android event path — sensors, hub, Binder, handlers, and an
  emulator-style deterministic replay (:mod:`repro.android`);
* seven deterministic game workloads (:mod:`repro.games`) with
  stochastic user-behaviour trace generators (:mod:`repro.users`);
* the memoization baselines the paper argues against
  (:mod:`repro.memo`), a from-scratch random forest + permutation
  feature importance (:mod:`repro.ml`);
* SNIP itself — profiler, PFI selection, lookup table, device runtime,
  continuous learning (:mod:`repro.core`);
* the evaluation schemes and drivers for every paper figure/table
  (:mod:`repro.schemes`, :mod:`repro.analysis`).

Quickstart::

    from repro import CloudProfiler, SnipConfig, SnipRuntime
    from repro import create_game, generate_trace, snapdragon_821

    profiler = CloudProfiler(SnipConfig())
    package = profiler.build_package_from_sessions(
        "ab_evolution", seeds=[1, 2], duration_s=30.0)
    soc = snapdragon_821()
    runtime = SnipRuntime(soc, create_game("ab_evolution"), package.table)
    for event in generate_trace("ab_evolution", seed=7, duration_s=10.0).events:
        runtime.deliver(event)
    print(runtime.stats.coverage)
"""

from repro.analysis import EXPERIMENTS, run_experiment
from repro.core import (
    CloudProfiler,
    DeveloperOverrides,
    SnipConfig,
    SnipPackage,
    SnipRuntime,
    SnipTable,
)
from repro.games.registry import (
    GAME_CONTENT_SEED,
    GAME_NAMES,
    create_game,
    game_info,
)
from repro.schemes import (
    BaselineScheme,
    MaxCpuScheme,
    MaxIpScheme,
    NoOverheadsScheme,
    SnipScheme,
    run_scheme_session,
)
from repro.soc.soc import snapdragon_821
from repro.users.sessions import run_baseline_session
from repro.users.tracegen import generate_events, generate_trace

__version__ = "1.0.0"

__all__ = [
    "BaselineScheme",
    "CloudProfiler",
    "DeveloperOverrides",
    "EXPERIMENTS",
    "GAME_CONTENT_SEED",
    "GAME_NAMES",
    "MaxCpuScheme",
    "MaxIpScheme",
    "NoOverheadsScheme",
    "SnipConfig",
    "SnipPackage",
    "SnipRuntime",
    "SnipScheme",
    "SnipTable",
    "__version__",
    "create_game",
    "game_info",
    "generate_events",
    "generate_trace",
    "run_baseline_session",
    "run_experiment",
    "run_scheme_session",
    "snapdragon_821",
]
