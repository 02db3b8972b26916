"""Necessary-input selection: trim the universe down to what matters.

Two exact criteria drive everything; the PFI model only *orders* the
greedy scans, never decides:

* :func:`table_error` — training-set semantics: key every profile
  record on a field subset, predict each key's cycle-majority output,
  measure the weighted misprediction rate (Fig. 9's y-axis);
* :func:`gated_table_stats` — shipped-table semantics: the same keys
  run through the confidence gate (support + output consistency) and an
  online-warmup discount, yielding the coverage the device will really
  achieve. :func:`select_necessary_inputs` maximises this.

:func:`trimming_curve` reproduces Fig. 9 (error vs. input bytes kept as
fields are trimmed in reverse-importance order).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.android.events import EventType
from repro.core.config import SnipConfig
from repro.core.fields import FieldInfo
from repro.core.overrides import DeveloperOverrides
from repro.core.pfi import EventTypeProfile, PfiAnalysis
from repro.games.base import InputCategory, OutputCategory


def _record_key(profile: EventTypeProfile, row: int, columns: Sequence[int]) -> Tuple:
    """Hashable key of one profile row over selected feature columns."""
    features = profile.dataset.features
    return tuple(features[row, column] for column in columns)


def _signature_for_budget(profile: EventTypeProfile, row: int, ignore_temp: bool) -> Tuple:
    """Output signature used in the error check.

    With ``ignore_temp`` (developer marked Out.Temp tolerant), two
    outputs differing only in temporary fields count as equal.
    """
    trace = profile.records[row].trace
    if not ignore_temp:
        return trace.output_signature()
    return tuple(
        sorted(
            (write.name, write.category.value, write.value)
            for write in trace.writes
            if write.category is not OutputCategory.TEMP
        )
    )


def table_error(
    profile: EventTypeProfile,
    selected: Sequence[FieldInfo],
    ignore_temp: bool = False,
) -> float:
    """Cycle-weighted misprediction rate of a table keyed on ``selected``.

    Training-set semantics: every key predicts its cycle-majority
    output, however rarely it recurs. This is Fig. 9's trimming curve;
    selection itself scores subsets with :func:`gated_table_stats`,
    which also demands that a key recur across sessions.
    """
    columns = [profile.encoder.index_of(info.name) for info in selected]
    weights = profile.dataset.sample_weight
    by_key: Dict[Tuple, Counter] = defaultdict(Counter)
    for row in range(len(profile.records)):
        key = _record_key(profile, row, columns)
        by_key[key][_signature_for_budget(profile, row, ignore_temp)] += weights[row]
    total = float(weights.sum())
    if total <= 0:
        return 0.0
    correct = sum(counter.most_common(1)[0][1] for counter in by_key.values())
    return max(0.0, 1.0 - correct / total)


@dataclass(frozen=True)
class GatedStats:
    """What a confidence-gated table keyed on a field subset achieves.

    ``coverage`` is the cycle-weight share of the profile falling in
    *gated* groups (keys that recur across sessions with a consistent
    majority output) — the share the shipped table would correctly
    short-circuit. ``error`` is the share in gated groups outside the
    majority — the share it would get wrong.
    """

    coverage: float
    error: float


def _profile_codes(profile: EventTypeProfile, ignore_temp: bool) -> Tuple:
    """Cached per-profile arrays: output-signature codes, sessions, weights.

    Signatures are factorised to dense int codes once per profile (and
    per temp-tolerance mode); the gated statistics then run entirely in
    vectorised numpy, which is what makes backward selection over a
    40-field universe affordable.
    """
    cache = getattr(profile, "_gated_cache", None)
    if cache is None:
        cache = {}
        profile._gated_cache = cache  # type: ignore[attr-defined]
    if ignore_temp not in cache:
        signatures = [
            _signature_for_budget(profile, row, ignore_temp)
            for row in range(len(profile.records))
        ]
        code_of: Dict[Tuple, int] = {}
        codes = np.empty(len(signatures), dtype=np.int64)
        for row, signature in enumerate(signatures):
            codes[row] = code_of.setdefault(signature, len(code_of))
        sessions = np.asarray(
            [record.session for record in profile.records], dtype=np.int64
        )
        cache[ignore_temp] = (codes, sessions, profile.dataset.sample_weight)
    return cache[ignore_temp]


def gated_table_stats(
    profile: EventTypeProfile,
    selected: Sequence[FieldInfo],
    config: "SnipConfig",
    ignore_temp: bool = False,
) -> GatedStats:
    """Evaluate a field subset under the shipped table's confidence gate.

    Groups profile records by the selected-field key; a group passes the
    gate when it recurs at least ``table_min_count`` times and its
    majority output holds at least ``table_consistency`` of the group's
    weight. Coverage is discounted by the online-learning warmup: the
    first sightings of every key always execute fully.
    """
    sig_codes, sessions, weights = _profile_codes(profile, ignore_temp)
    n_rows = len(sig_codes)
    total = float(weights.sum())
    if total <= 0:
        return GatedStats(coverage=0.0, error=0.0)
    columns = [profile.encoder.index_of(info.name) for info in selected]
    if columns:
        matrix = profile.dataset.features[:, columns]
        _, groups = np.unique(matrix, axis=0, return_inverse=True)
    else:
        groups = np.zeros(n_rows, dtype=np.int64)
    n_groups = int(groups.max()) + 1

    group_weight = np.bincount(groups, weights=weights, minlength=n_groups)
    group_count = np.bincount(groups, minlength=n_groups)

    # Majority output weight per group: segment-sum weights over
    # (group, signature) pairs, then segment-max over groups.
    n_sigs = int(sig_codes.max()) + 1
    pair = groups.astype(np.int64) * n_sigs + sig_codes
    order = np.argsort(pair, kind="stable")
    sorted_pair = pair[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_pair[1:] != sorted_pair[:-1]))
    )
    pair_weight = np.add.reduceat(weights[order], boundaries)
    pair_group = sorted_pair[boundaries] // n_sigs
    group_starts = np.flatnonzero(
        np.concatenate(([True], pair_group[1:] != pair_group[:-1]))
    )
    majority = np.maximum.reduceat(pair_weight, group_starts)
    majority_group = pair_group[group_starts]
    majority_weight = np.zeros(n_groups, dtype=np.float64)
    majority_weight[majority_group] = majority

    supported = group_count >= max(config.table_min_count, config.online_warmup + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        consistent = np.where(
            group_weight > 0, majority_weight / group_weight, 0.0
        ) >= config.table_consistency
    gated = supported & consistent
    # Warmup discount: with online learning the first ``online_warmup``
    # occurrences of every key execute fully (they are the evidence),
    # so a key that churns rapidly earns proportionally less coverage.
    warmup = config.online_warmup
    with np.errstate(invalid="ignore", divide="ignore"):
        live_fraction = np.where(
            group_count > 0,
            np.maximum(0, group_count - warmup) / np.maximum(group_count, 1),
            0.0,
        )
    covered = float((majority_weight[gated] * live_fraction[gated]).sum())
    wrong = float(
        ((group_weight[gated] - majority_weight[gated]) * live_fraction[gated]).sum()
    )
    return GatedStats(coverage=covered / total, error=wrong / total)


@dataclass(frozen=True)
class TrimPoint:
    """One step of the Fig. 9 trimming walk."""

    bytes_kept: int
    error: float
    removed_field: Optional[str]          # None for the starting point
    removed_category: Optional[InputCategory]
    event_type: Optional[EventType]


@dataclass
class SelectedInputs:
    """The necessary inputs per event type, plus bookkeeping."""

    by_event_type: Dict[EventType, List[FieldInfo]] = field(default_factory=dict)

    def fields_for(self, event_type: EventType) -> List[FieldInfo]:
        """Selected fields for one event type (empty if type unknown)."""
        return list(self.by_event_type.get(event_type, []))

    def comparison_bytes(self, event_type: EventType) -> int:
        """Bytes compared per lookup for one event type."""
        return sum(info.nbytes for info in self.by_event_type.get(event_type, []))

    @property
    def total_bytes(self) -> int:
        """Selected bytes summed over all event types."""
        return sum(
            info.nbytes
            for fields in self.by_event_type.values()
            for info in fields
        )

    def category_breakdown(self) -> Dict[InputCategory, int]:
        """Selected bytes per input category (Fig. 9 colour-coding)."""
        totals = {category: 0 for category in InputCategory}
        for fields in self.by_event_type.values():
            for info in fields:
                totals[info.category] += info.nbytes
        return totals


def trimming_curve(
    analysis: PfiAnalysis,
    overrides: Optional[DeveloperOverrides] = None,
) -> List[TrimPoint]:
    """Walk Fig. 9: trim fields least-important-first, track error.

    Aggregates across event types by always trimming the globally
    least-important remaining field (per-type errors are combined
    weighted by each type's cycle mass).
    """
    overrides = overrides or DeveloperOverrides()
    kept: Dict[EventType, List[FieldInfo]] = {}
    trim_queue: List[Tuple[float, EventType, FieldInfo]] = []
    for event_type, profile in analysis.profiles.items():
        kept[event_type] = list(profile.universe)
        importance_of = {
            imp.name: imp.importance for imp in analysis.importances[event_type]
        }
        for info in profile.universe:
            if overrides.is_forced(event_type, info.name):
                continue
            trim_queue.append((importance_of.get(info.name, 0.0), event_type, info))
    trim_queue.sort(key=lambda item: (item[0], item[2].name))

    total_cycles = sum(p.total_cycles for p in analysis.profiles.values()) or 1.0

    def aggregate_error() -> float:
        error = 0.0
        for event_type, profile in analysis.profiles.items():
            share = profile.total_cycles / total_cycles
            error += share * table_error(
                profile, kept[event_type], overrides.tolerate_temp_errors
            )
        return error

    def bytes_kept() -> int:
        return sum(info.nbytes for fields in kept.values() for info in fields)

    points = [
        TrimPoint(
            bytes_kept=bytes_kept(),
            error=aggregate_error(),
            removed_field=None,
            removed_category=None,
            event_type=None,
        )
    ]
    for _, event_type, info in trim_queue:
        kept[event_type] = [f for f in kept[event_type] if f.name != info.name]
        points.append(
            TrimPoint(
                bytes_kept=bytes_kept(),
                error=aggregate_error(),
                removed_field=info.name,
                removed_category=info.category,
                event_type=event_type,
            )
        )
    return points


def select_necessary_inputs(
    analysis: PfiAnalysis,
    config: SnipConfig,
    overrides: Optional[DeveloperOverrides] = None,
) -> SelectedInputs:
    """Pick the necessary inputs per event type.

    Objective: maximise the confidence-gated coverage the shipped table
    will achieve (see :func:`gated_table_stats`), then shed bytes.

    The greedy runs *backward from the full input universe*, because
    output behaviour typically depends on fields conjunctively (a board
    digest only predicts a frame together with the animation slot);
    forward construction gets stuck at the empty set. Each round scans
    removable fields least-important-first and removes the first whose
    absence *improves* coverage (these are the session-unique
    fragmenters: scores, wall clocks, per-user digests); when nothing
    improves, it removes the widest field whose absence keeps coverage
    within ``config.selection_epsilon``, shedding bytes. The PFI
    importance ranking orders the scans; every decision is validated
    against exact gated statistics.
    """
    overrides = overrides or DeveloperOverrides()
    epsilon = config.selection_epsilon
    selected = SelectedInputs()
    for event_type, profile in analysis.profiles.items():
        importance_of = {
            imp.name: imp.importance for imp in analysis.importances[event_type]
        }
        ignore_temp = overrides.tolerate_temp_errors

        def coverage_of(fields: List[FieldInfo]) -> float:
            return gated_table_stats(profile, fields, config, ignore_temp).coverage

        kept: List[FieldInfo] = list(profile.universe)
        coverage = coverage_of(kept)

        def removable() -> List[FieldInfo]:
            return [
                info for info in kept
                if not overrides.is_forced(event_type, info.name)
            ]

        while len(kept) > 1:
            # Phase 1: remove the least-important field whose absence
            # improves coverage (it fragments keys without informing).
            improved = False
            for info in sorted(
                removable(),
                key=lambda f: (importance_of.get(f.name, 0.0), -f.nbytes, f.name),
            ):
                candidate = [f for f in kept if f.name != info.name]
                candidate_coverage = coverage_of(candidate)
                if candidate_coverage > coverage + 1e-12:
                    kept = candidate
                    coverage = candidate_coverage
                    improved = True
                    break
            if improved:
                continue
            # Phase 2: shed the widest field coverage can spare. When a
            # plain drop hurts, try swapping the wide field for one or
            # two narrow stand-ins (a 118 kB surface-map buffer usually
            # proxies a couple of scalar descriptor fields).
            shed = False
            for info in sorted(removable(), key=lambda f: (-f.nbytes, f.name)):
                candidate = [f for f in kept if f.name != info.name]
                if coverage_of(candidate) >= coverage - epsilon:
                    kept = candidate
                    coverage = coverage_of(kept)
                    shed = True
                    break
                if info.nbytes <= 64:
                    continue  # swap search is only worth it for wide fields
                kept_names = {f.name for f in kept}
                narrow = sorted(
                    (f for f in profile.universe
                     if f.name not in kept_names and f.nbytes < info.nbytes // 4),
                    key=lambda f: (f.nbytes, f.name),
                )[:12]
                swapped_in = None
                for first_idx, first in enumerate(narrow):
                    if coverage_of(candidate + [first]) >= coverage - epsilon:
                        swapped_in = [first]
                        break
                    for second in narrow[first_idx + 1:]:
                        if coverage_of(candidate + [first, second]) >= coverage - epsilon:
                            swapped_in = [first, second]
                            break
                    if swapped_in:
                        break
                if swapped_in:
                    kept = candidate + swapped_in
                    coverage = coverage_of(kept)
                    shed = True
                    break
            if not shed:
                break
        selected.by_event_type[event_type] = kept
    return selected
