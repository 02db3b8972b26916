"""The cloud profiler pipeline (paper Fig. 10, Sec. V-B).

Record events on the device -> upload -> replay on the emulator ->
dump per-event I/O -> PFI -> necessary inputs -> build the SNIP table ->
ship it back over the air. :class:`CloudProfiler` glues those stages and
:class:`SnipPackage` is the artifact that returns to the phone, carrying
the size/overhead accounting the paper reports in Sec. VII-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.android.emulator import Emulator, ProfileRecord
from repro.android.tracing import RecordedTrace
from repro.core.config import SnipConfig
from repro.core.overrides import DeveloperOverrides
from repro.core.package_cache import PackageCache, package_digest
from repro.core.pfi import PfiAnalysis, run_pfi
from repro.core.selection import SelectedInputs, select_necessary_inputs
from repro.core.table import SnipTable
from repro.errors import ProfilerError
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.users.tracegen import generate_trace

#: Calibration constant for the Sec. VII-C backend-cost estimate: the
#: paper reports ~2 days on a 48-core Xeon to process a 2-minute trace.
BACKEND_SECONDS_PER_EVENT = 86_400.0 * 2 / 9_000.0


@dataclass
class SnipPackage:
    """The over-the-air update sent back to the device.

    Only what ships and its Sec. VII-C accounting: the PFI analysis
    behind the selection stays in the cloud (readers that need it
    rebuild it with :meth:`CloudProfiler.analyze_sessions`).
    """

    game_name: str
    table: SnipTable
    selection: SelectedInputs
    profile_events: int
    uplink_bytes: int       # what the phone sent to the cloud
    full_record_bytes: int  # what a naive table would have stored
    table_bytes: int        # what actually ships back

    @property
    def shrink_factor(self) -> float:
        """How much smaller the shipped table is than the naive record
        store (the paper's 100s-of-GB -> ~600 MB point)."""
        if self.table_bytes <= 0:
            return float("inf")
        return self.full_record_bytes / self.table_bytes

    @property
    def backend_seconds(self) -> float:
        """Estimated cloud processing time (Sec. VII-C scale model)."""
        return self.profile_events * BACKEND_SECONDS_PER_EVENT


class CloudProfiler:
    """End-to-end: traces in, SNIP package out."""

    def __init__(
        self,
        config: Optional[SnipConfig] = None,
        overrides: Optional[DeveloperOverrides] = None,
        cache: Union[PackageCache, None, str] = "auto",
    ) -> None:
        """``cache`` controls package reuse for the sessions entry point.

        ``"auto"`` (the default) uses the on-disk cache under
        :func:`~repro.core.package_cache.default_cache_root`, ``None``
        disables caching for this profiler, and a
        :class:`~repro.core.package_cache.PackageCache` pins a specific
        store (tests and the CLI use this).
        """
        self.config = config or SnipConfig()
        self.overrides = overrides or DeveloperOverrides()
        self.cache = PackageCache() if cache == "auto" else (cache or None)
        self.emulator = Emulator(verify=False)

    # -- stage wrappers ------------------------------------------------------

    def replay_traces(
        self, game_name: str, traces: Sequence[RecordedTrace]
    ) -> List[ProfileRecord]:
        """Replay device recordings into profile records."""
        if not traces:
            raise ProfilerError("no traces supplied to the profiler")
        records: List[ProfileRecord] = []
        for session, trace in enumerate(traces):
            game = create_game(game_name, seed=GAME_CONTENT_SEED)
            records.extend(self.emulator.replay(game, trace, session=session))
        return records

    def analyze(self, records: Sequence[ProfileRecord]) -> PfiAnalysis:
        """Run PFI over a replayed profile."""
        return run_pfi(records, self.config)

    def select(self, analysis: PfiAnalysis) -> SelectedInputs:
        """Pick the necessary inputs (gated-coverage hill climb)."""
        return select_necessary_inputs(analysis, self.config, self.overrides)

    def analyze_sessions(
        self, game_name: str, seeds: Sequence[int], duration_s: float
    ) -> PfiAnalysis:
        """Synthesize device recordings, replay them, and run PFI.

        The cloud-side analysis a :class:`SnipPackage` does not carry,
        for the readers that need it (the developer report, Fig. 9).
        It is rebuilt on every call and never cached.
        """
        traces = [
            generate_trace(game_name, seed=seed, duration_s=duration_s)
            for seed in seeds
        ]
        return self.analyze(self.replay_traces(game_name, traces))

    # -- the whole pipeline -----------------------------------------------------

    def build_package(
        self,
        game_name: str,
        traces: Sequence[RecordedTrace],
    ) -> SnipPackage:
        """Record -> replay -> PFI -> select -> table, with accounting."""
        records = self.replay_traces(game_name, traces)
        analysis = self.analyze(records)
        selection = self.select(analysis)
        table = SnipTable.build(records, selection, self.config)
        full_record_bytes = 0
        for event_type, profile in analysis.profiles.items():
            width = sum(info.nbytes for info in profile.universe)
            full_record_bytes += width * len(profile.records)
        return SnipPackage(
            game_name=game_name,
            table=table,
            selection=selection,
            profile_events=len(records),
            uplink_bytes=sum(trace.uplink_bytes for trace in traces),
            full_record_bytes=full_record_bytes,
            table_bytes=table.total_bytes,
        )

    def build_package_from_sessions(
        self,
        game_name: str,
        seeds: Sequence[int],
        duration_s: float,
    ) -> SnipPackage:
        """Convenience: synthesize device recordings, then build.

        This entry point is a pure function of ``(game_name, config,
        overrides, seeds, duration_s)`` plus the pipeline code, so the
        result is served from the content-addressed package cache when
        one is configured; a hit skips recording, replay, and PFI
        entirely and returns an identical package.
        """
        key = None
        if self.cache is not None:
            key = package_digest(
                game_name, self.config, seeds, duration_s, self.overrides
            )
            cached = self.cache.load(key)
            if isinstance(cached, SnipPackage) and cached.game_name == game_name:
                return cached
        traces = [
            generate_trace(game_name, seed=seed, duration_s=duration_s)
            for seed in seeds
        ]
        package = self.build_package(game_name, traces)
        if key is not None:
            self.cache.store(key, package)
        return package
