"""Fig. 4: useless user events and the energy they waste.

Paper finding: 17-43% of processed user events change nothing in the
game (AB Evolution worst at 43% — drags past the catapult's maximum
stretch), and processing them wastes a substantial share of the
event-processing energy (~34% in aggregate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import pct, render_table
from repro.fleet.executors import FleetExecutor, SerialExecutor
from repro.games.registry import GAME_NAMES
from repro.users.sessions import run_baseline_session_task


@dataclass(frozen=True)
class UselessRow:
    """One game's useless-event statistics."""

    game_name: str
    useless_fraction: float
    wasted_energy_fraction: float
    user_events: int


@dataclass
class Fig4Result:
    """All seven games' useless-event statistics."""

    rows: List[UselessRow]

    def by_game(self) -> Dict[str, UselessRow]:
        """Rows keyed by game name."""
        return {row.game_name: row for row in self.rows}

    @property
    def max_useless_game(self) -> str:
        """The workload with the highest useless fraction."""
        return max(self.rows, key=lambda row: row.useless_fraction).game_name

    def to_text(self) -> str:
        """Render the figure as a table."""
        rows = [
            [row.game_name, pct(row.useless_fraction),
             pct(row.wasted_energy_fraction), row.user_events]
            for row in self.rows
        ]
        return render_table(
            ["game", "% useless events", "% energy wasted", "user events"], rows
        )


def run_fig4(
    seed: int = 1,
    duration_s: float = 60.0,
    executor: Optional[FleetExecutor] = None,
) -> Fig4Result:
    """Measure useless user events over baseline sessions."""
    executor = executor or SerialExecutor()
    results = executor.run(
        run_baseline_session_task,
        [(game_name, seed, duration_s) for game_name in GAME_NAMES],
    )
    rows = [
        UselessRow(
            game_name=result.game_name,
            useless_fraction=result.useless_user_fraction,
            wasted_energy_fraction=result.wasted_energy_fraction,
            user_events=result.user_events,
        )
        for result in results
    ]
    return Fig4Result(rows=rows)
