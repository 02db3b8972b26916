"""Max CPU: function-level reuse of pure CPU kernels [3, 14, 42].

The strongest possible CPU-side memoizer: every named CPU sub-function
whose ``(name, key)`` was seen before is skipped for free (we even waive
the table-capacity limits such schemes really have). What it *cannot*
do, by construction, is skip an accelerator invocation or the handler's
unstructured glue cycles — the paper's Table I scoping argument, and the
reason its energy savings stay in single digits on IP-heavy games.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.android.dispatch import charge_delivery, charge_upkeep
from repro.android.events import Event
from repro.games.base import Game
from repro.schemes.base import Scheme
from repro.soc.energy import TAG_LOOKUP
from repro.soc.soc import Soc

#: CPU cost of probing the reuse table before one sub-function call.
FUNC_LOOKUP_CYCLES = 4_000


class _MaxCpuRunner:
    """Delivers events, skipping repeated pure CPU sub-functions."""

    def __init__(self, soc: Soc, game: Game) -> None:
        self.soc = soc
        self.game = game
        self._seen: Set[Tuple] = set()
        self._avoided_cycles = 0.0
        self._executed_cycles = 0.0
        self._events = 0
        self._events_with_reuse = 0

    def deliver(self, event: Event) -> None:
        charge_delivery(self.soc, event)
        self._executed_cycles += charge_upkeep(self.soc, self.game, event)
        trace = self.game.process(event)
        self._events += 1

        big_cycles = trace.cpu_big_cycles
        little_cycles = trace.cpu_little_cycles
        reused_here = False
        for call in trace.cpu_funcs:
            if not call.reusable:
                # Inputs live in memory structures: register-granularity
                # reuse hardware cannot identify them apriori (Fig. 5b).
                if call.big:
                    big_cycles += call.cycles
                else:
                    little_cycles += call.cycles
                continue
            self.soc.cpu.execute(FUNC_LOOKUP_CYCLES, big=True, tag=TAG_LOOKUP)
            slot = (call.name, call.key)
            if slot in self._seen:
                self._avoided_cycles += call.cycles
                reused_here = True
            else:
                self._seen.add(slot)
                if call.big:
                    big_cycles += call.cycles
                else:
                    little_cycles += call.cycles
        if reused_here:
            self._events_with_reuse += 1
        if big_cycles:
            self.soc.cpu.execute(big_cycles, big=True)
        if little_cycles:
            self.soc.cpu.execute(little_cycles, big=False)
        self._executed_cycles += big_cycles + little_cycles
        if trace.memory_bytes:
            self.soc.memory.transfer(trace.memory_bytes)
        for call in trace.ip_calls:  # IP calls are out of reach
            self.soc.ip(call.ip_name).invoke(
                call.work_units, bytes_in=call.bytes_in, bytes_out=call.bytes_out
            )

    @property
    def coverage(self) -> float:
        """Cycle-weighted share of execution the reuse table skipped."""
        total = self._avoided_cycles + self._executed_cycles
        return self._avoided_cycles / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of events where at least one kernel was reused."""
        return self._events_with_reuse / self._events if self._events else 0.0


class MaxCpuScheme(Scheme):
    """Upper bound on CPU-only memoization (Table I's CPUFunc column)."""

    name = "max_cpu"

    def make_runner(self, soc: Soc, game: Game) -> _MaxCpuRunner:
        return _MaxCpuRunner(soc, game)
