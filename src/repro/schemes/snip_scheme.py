"""SNIP as an evaluation scheme: cloud profile + device runtime."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from repro.core.config import SnipConfig
from repro.core.package_cache import PackageCache
from repro.core.profiler import CloudProfiler, SnipPackage
from repro.core.runtime import SnipRuntime
from repro.errors import SchemeError
from repro.games.base import Game
from repro.schemes.base import Scheme
from repro.soc.soc import Soc

#: Session seeds used to build each game's profile (disjoint from the
#: evaluation seeds used by the benches).
DEFAULT_PROFILE_SEEDS = (1, 2, 3)
DEFAULT_PROFILE_DURATION_S = 60.0


class _SnipRunner:
    """Adapter exposing the scheme counters over :class:`SnipRuntime`."""

    def __init__(self, runtime: SnipRuntime) -> None:
        self._runtime = runtime

    def deliver(self, event) -> None:
        self._runtime.deliver(event)

    @property
    def coverage(self) -> float:
        return self._runtime.stats.coverage

    @property
    def hit_rate(self) -> float:
        return self._runtime.stats.hit_rate

    @property
    def stats(self):
        return self._runtime.stats


class SnipScheme(Scheme):
    """The full SNIP pipeline, with per-game package caching.

    ``prepare`` runs the cloud profiler once per game; subsequent
    sessions reuse the shipped table (each session gets a *fresh copy*
    of the table so online learning in one run cannot leak into the
    next). The scheme always plays its own profile: packages reach a
    registry through :func:`~repro.registry.publish.publish_candidate`.
    """

    name = "snip"

    def __init__(
        self,
        config: Optional[SnipConfig] = None,
        profile_seeds: Sequence[int] = DEFAULT_PROFILE_SEEDS,
        profile_duration_s: float = DEFAULT_PROFILE_DURATION_S,
        cache: Union[PackageCache, None, str] = "auto",
    ) -> None:
        self.config = config or SnipConfig()
        self.profile_seeds = tuple(profile_seeds)
        self.profile_duration_s = profile_duration_s
        self.cache = cache
        self._packages: Dict[str, SnipPackage] = {}

    def prepare(self, game_name: str) -> SnipPackage:
        """Build (or fetch the cached) SNIP package for a game.

        Caching is two-level: an in-memory per-scheme dict, then the
        profiler's content-addressed on-disk store (``cache``, forwarded
        to :class:`CloudProfiler`), so repeated ``prepare`` calls across
        processes reuse one profiling run.
        """
        if game_name not in self._packages:
            profiler = CloudProfiler(self.config, cache=self.cache)
            self._packages[game_name] = profiler.build_package_from_sessions(
                game_name, seeds=self.profile_seeds, duration_s=self.profile_duration_s
            )
        return self._packages[game_name]

    def package_for(self, game_name: str) -> SnipPackage:
        """The prepared package (raises if ``prepare`` never ran)."""
        try:
            return self._packages[game_name]
        except KeyError:
            raise SchemeError(
                f"SnipScheme.prepare({game_name!r}) must run before sessions"
            ) from None

    def make_runner(self, soc: Soc, game: Game) -> _SnipRunner:
        package = self.prepare(game.name)
        return _SnipRunner(
            SnipRuntime(soc, game, package.table.clone(), self.config)
        )
