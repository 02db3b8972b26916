"""Fig. 9: PFI trimming — error vs. input bytes kept.

Paper finding (AB Evolution): starting from the complete input record
(100% accuracy by construction), PFI trims fields in reverse-importance
order with barely any error growth until only ~1.2 kB of necessary
inputs remain (~0.2% of the record), after which the error climbs
steeply. The necessary fields span all three input categories, with a
core of In.Event bytes surviving to the very end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import pct, render_table
from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.core.selection import TrimPoint, trimming_curve
from repro.games.base import InputCategory
from repro.units import format_bytes


@dataclass
class Fig9Result:
    """The full trimming walk plus the selected necessary inputs."""

    game_name: str
    points: List[TrimPoint]
    necessary_bytes: int
    necessary_category_bytes: Dict[InputCategory, int]
    full_record_bytes: int

    @property
    def necessary_fraction(self) -> float:
        """Necessary bytes as a fraction of the full record."""
        if self.full_record_bytes <= 0:
            return 0.0
        return self.necessary_bytes / self.full_record_bytes

    def error_at_bytes(self, bytes_kept: int) -> Optional[float]:
        """Error at the first walk point at or below a byte budget."""
        for point in self.points:
            if point.bytes_kept <= bytes_kept:
                return point.error
        return None

    def to_text(self) -> str:
        """Render sampled walk points plus the selection summary."""
        step = max(1, len(self.points) // 16)
        rows = [
            [
                format_bytes(point.bytes_kept),
                pct(point.error, 2),
                point.removed_field or "(start)",
                str(point.removed_category) if point.removed_category else "-",
            ]
            for point in self.points[::step]
        ]
        walk = render_table(["bytes kept", "error", "removed", "category"], rows)
        summary = render_table(
            ["necessary inputs", "value"],
            [
                ["bytes", format_bytes(self.necessary_bytes)],
                ["fraction of record", pct(self.necessary_fraction, 3)],
            ]
            + [
                [f"bytes ({category.value})", format_bytes(nbytes)]
                for category, nbytes in self.necessary_category_bytes.items()
            ],
        )
        return f"{walk}\n\n{summary}"


def run_fig9(
    game_name: str = "ab_evolution",
    seeds=(1, 2),
    duration_s: float = 60.0,
    config: Optional[SnipConfig] = None,
) -> Fig9Result:
    """Profile, run PFI, walk the trimming curve, and select."""
    config = config or SnipConfig()
    profiler = CloudProfiler(config)
    analysis = profiler.analyze_sessions(game_name, seeds, duration_s)
    points = trimming_curve(analysis)
    selection = profiler.select(analysis)
    full_record_bytes = sum(
        sum(info.nbytes for info in profile.universe)
        for profile in analysis.profiles.values()
    )
    return Fig9Result(
        game_name=game_name,
        points=points,
        necessary_bytes=selection.total_bytes,
        necessary_category_bytes=selection.category_breakdown(),
        full_record_bytes=full_record_bytes,
    )
