"""PFI over replayed profiles: rank every input location's importance.

For each event type, a random forest is trained to predict the output
equivalence class from the full input record (every location in the
universe), then permutation importance ranks the locations. The ranking
*orders* the greedy trimming in :mod:`repro.core.selection`; the actual
keep/drop decisions are validated against exact table error, so a weak
model costs selection quality, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.android.emulator import ProfileRecord
from repro.android.events import EventType
from repro.core.config import SnipConfig
from repro.core.fields import (
    FieldInfo,
    input_universe,
    record_inputs,
    records_by_event_type,
)
from repro.errors import ProfilerError
from repro.ml.dataset import Dataset
from repro.ml.encoding import FeatureEncoder
from repro.ml.forest import RandomForestClassifier
from repro.ml.permutation import FeatureImportance, permutation_importance


@dataclass
class EventTypeProfile:
    """One event type's profile, encoded and ready for modelling."""

    event_type: EventType
    universe: List[FieldInfo]
    encoder: FeatureEncoder
    records: List[ProfileRecord]
    dataset: Dataset

    @property
    def total_cycles(self) -> float:
        """Cycle mass of this event type (aggregation weight)."""
        return float(sum(record.trace.total_cycles for record in self.records))


@dataclass
class PfiAnalysis:
    """PFI results for a whole profile: one entry per event type."""

    profiles: Dict[EventType, EventTypeProfile]
    importances: Dict[EventType, List[FeatureImportance]]

    def event_types(self) -> List[EventType]:
        """Event types present, heaviest (by cycles) first."""
        return sorted(
            self.profiles,
            key=lambda event_type: -self.profiles[event_type].total_cycles,
        )


def build_event_profiles(
    records: Sequence[ProfileRecord], config: SnipConfig
) -> Dict[EventType, EventTypeProfile]:
    """Group, encode, and package a profile per event type."""
    if not records:
        raise ProfilerError("profile is empty")
    profiles: Dict[EventType, EventTypeProfile] = {}
    for event_type, group in records_by_event_type(records).items():
        universe = input_universe(event_type, group)
        encoder = FeatureEncoder([info.name for info in universe])
        features = encoder.encode_records([record_inputs(r) for r in group])
        labels = [record.trace.output_class() for record in group]
        weights = [float(record.trace.total_cycles) for record in group]
        profiles[event_type] = EventTypeProfile(
            event_type=event_type,
            universe=universe,
            encoder=encoder,
            records=list(group),
            dataset=Dataset(encoder.feature_names, features, labels, weights),
        )
    return profiles


def run_pfi(records: Sequence[ProfileRecord], config: SnipConfig) -> PfiAnalysis:
    """Train per-type forests and rank input locations by importance."""
    profiles = build_event_profiles(records, config)
    importances: Dict[EventType, List[FeatureImportance]] = {}
    rng = np.random.default_rng(config.seed)
    for event_type, profile in profiles.items():
        dataset = profile.dataset
        rows = dataset.n_rows
        if rows > config.max_rows_per_type:
            keep = rng.choice(rows, size=config.max_rows_per_type, replace=False)
            features = dataset.features[keep]
            labels = dataset.labels[keep]
            weights = dataset.sample_weight[keep]
        else:
            features = dataset.features
            labels = dataset.labels
            weights = dataset.sample_weight
        # The batched tree descent and in-place PFI column swaps both
        # index this matrix heavily; one contiguous float64 copy here
        # keeps every downstream gather on the fast path.
        features = np.ascontiguousarray(features, dtype=np.float64)
        model = RandomForestClassifier(
            n_trees=config.forest_trees,
            max_depth=config.forest_depth,
            min_samples_leaf=config.forest_min_leaf,
            seed=config.seed,
        )
        model.fit(features, labels, weights, n_classes=dataset.n_classes)
        importances[event_type] = permutation_importance(
            model,
            features,
            labels,
            dataset.feature_names,
            rng=rng,
            repeats=config.pfi_repeats,
            sample_weight=weights,
        )
    return PfiAnalysis(profiles=profiles, importances=importances)
