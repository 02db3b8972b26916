"""Ablation: what the pieces of necessary-input selection contribute.

DESIGN.md calls out two selection design choices: the PFI model that
orders the greedy (forest vs. single tree vs. no model at all) and the
confidence gate. This bench quantifies both on AB Evolution.
"""

import numpy as np

from repro.core.config import SnipConfig
from repro.core.pfi import PfiAnalysis, run_pfi
from repro.core.profiler import CloudProfiler
from repro.core.selection import gated_table_stats, select_necessary_inputs
from repro.ml.permutation import FeatureImportance
from repro.users.tracegen import generate_trace


def _profile(config):
    profiler = CloudProfiler(config)
    traces = [generate_trace("ab_evolution", s, 45.0) for s in (1, 2)]
    return profiler.replay_traces("ab_evolution", traces)


def _selection_quality(analysis: PfiAnalysis, config) -> tuple:
    selection = select_necessary_inputs(analysis, config)
    coverage = 0.0
    total = 0.0
    for event_type, profile in analysis.profiles.items():
        stats = gated_table_stats(
            profile, selection.fields_for(event_type), config
        )
        coverage += stats.coverage * profile.total_cycles
        total += profile.total_cycles
    return coverage / total, selection.total_bytes


def test_ablation_pfi_model_choice(once):
    config = SnipConfig()
    records = _profile(config)

    def run_variants():
        results = {}
        # Full pipeline: forest-backed PFI ordering.
        forest = run_pfi(records, config)
        results["forest_pfi"] = _selection_quality(forest, config)
        # Single-tree PFI: cheaper, noisier ordering.
        tree_cfg = SnipConfig(forest_trees=1)
        results["single_tree_pfi"] = _selection_quality(
            run_pfi(records, tree_cfg), tree_cfg
        )
        # No model: alphabetical importance (exercise the exact-check
        # safety net without any learned ordering).
        rng = np.random.default_rng(0)
        blind = PfiAnalysis(
            profiles=forest.profiles,
            importances={
                event_type: [
                    FeatureImportance(info.name, i, rng.uniform())
                    for i, info in enumerate(profile.universe)
                ]
                for event_type, profile in forest.profiles.items()
            },
        )
        results["random_order"] = _selection_quality(blind, config)
        return results

    results = once(run_variants)
    print("\n=== Ablation: selection under different PFI models ===")
    for name, (coverage, nbytes) in results.items():
        print(f"{name:18s} gated coverage={coverage:6.1%} key bytes={nbytes}")
    # The exact-statistics check keeps every variant *correct*; the
    # learned ordering buys coverage and/or byte economy.
    assert results["forest_pfi"][0] > 0.35
    assert results["forest_pfi"][0] >= results["random_order"][0] - 0.05
