"""No Overheads: SNIP with free table probes (the headroom line).

Identical decisions to SNIP, but the lookup costs — hashing, comparing
necessary inputs, loading entries — are waived. The gap between this
scheme and SNIP is exactly Fig. 11c's overhead bar.
"""

from __future__ import annotations

from repro.android.events import Event
from repro.core.runtime import SnipRuntime
from repro.core.table import TableEntry
from repro.schemes.snip_scheme import SnipScheme, _SnipRunner


class _FreeLookupRuntime(SnipRuntime):
    """SNIP runtime whose probes and entry loads cost nothing."""

    def _charge_probe(self, event: Event) -> int:
        return self.table.comparison_bytes(event.event_type)

    def _charge_hit(self, event: Event, entry: TableEntry) -> None:
        # The display still scans the frame out; the write-back is free.
        self._charge_scanout(event)


class NoOverheadsScheme(SnipScheme):
    """SNIP minus every lookup cost (scope-for-future-work line)."""

    name = "no_overheads"

    def make_runner(self, soc, game) -> _SnipRunner:
        package = self.prepare(game.name)
        return _SnipRunner(
            _FreeLookupRuntime(soc, game, package.table.clone(), self.config)
        )
