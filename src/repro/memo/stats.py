"""Shared accounting helpers for memoization tables."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.games.base import FieldWrite, OutputCategory


def weighted_coverage(
    hit_cycles: float, total_cycles: float
) -> float:
    """Execution coverage: cycle-weighted hit fraction (Fig. 6 x-axis)."""
    if total_cycles <= 0:
        return 0.0
    return hit_cycles / total_cycles


def writes_differ(
    predicted: Sequence[FieldWrite], actual: Sequence[FieldWrite]
) -> bool:
    """Whether two output sets disagree on any field value."""
    predicted_map = {write.name: write.value for write in predicted}
    actual_map = {write.name: write.value for write in actual}
    return predicted_map != actual_map


def classify_erroneous_execution(
    predicted: Sequence[FieldWrite], actual: Sequence[FieldWrite]
) -> Optional[OutputCategory]:
    """Severity class of a wrong short-circuit, or ``None`` if correct.

    Paper Sec. IV-B: a wrong ``Out.Temp`` is a transient glitch the user
    barely sees; a wrong ``Out.History`` or ``Out.Extern`` corrupts
    future executions. An erroneous execution is classified by the most
    severe category among its mismatched fields
    (Extern > History > Temp).
    """
    predicted_map = {write.name: write.value for write in predicted}
    actual_map = {write.name: write.value for write in actual}
    mismatched_names = set()
    for name in sorted(set(predicted_map) | set(actual_map)):
        if predicted_map.get(name) != actual_map.get(name):
            mismatched_names.add(name)
    if not mismatched_names:
        return None
    categories = set()
    by_name = {write.name: write.category for write in list(actual) + list(predicted)}
    # Sorted so the fold visits fields in a hash-seed-independent
    # order (membership in `categories` is order-sensitive only in
    # iteration, but the determinism lint bans unsorted set walks
    # wholesale — cheap here, and the report stays byte-stable).
    for name in sorted(mismatched_names):
        categories.add(by_name[name])
    for severe in (OutputCategory.EXTERN, OutputCategory.HISTORY, OutputCategory.TEMP):
        if severe in categories:
            return severe
    return OutputCategory.TEMP  # pragma: no cover - unreachable


def total_output_bytes(writes: Iterable[FieldWrite]) -> int:
    """Stored size of one output record."""
    return sum(write.nbytes for write in writes)

