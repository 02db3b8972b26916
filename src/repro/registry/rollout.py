"""Staged fleet rollout of a registered challenger.

The registry's offline promotion pass judges candidates on profiler
metrics; this module is the online counterpart. It ships the current
champion to most of the fleet and a registered challenger to a
deterministic fraction of it (see
:func:`repro.fleet.spec.assign_cohort`), folds per-cohort metrics
through the existing fleet reducers, and then either auto-promotes the
challenger or rolls its cohort back to the champion package based on
the cohort comparison. Either verdict is recorded on the challenger's
registry entry, so rollouts leave the same audit trail as offline
promotions — and because cohort assignment, the fleet reduction, and
the decision rule are all deterministic, re-running the rollout yields
a byte-identical registry state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.config import SnipConfig
from repro.errors import PromotionError
from repro.fleet.engine import FleetEngine, FleetReport
from repro.fleet.executors import FleetExecutor
from repro.fleet.reducers import FleetTotals
from repro.fleet.spec import COHORT_CHALLENGER, COHORT_CHAMPION, FleetSpec
from repro.fleet.telemetry import TelemetryBus
from repro.registry.promotion import PromotionPolicy
from repro.registry.records import (
    STATUS_CANDIDATE,
    PromotionDecision,
    RegistryEntry,
)
from repro.registry.store import PackageRegistry

#: What the rollout concluded: the challenger took over the fleet, or
#: its cohort was rolled back to the champion package.
ACTION_PROMOTED = "promoted"
ACTION_ROLLED_BACK = "rolled_back"


@dataclass(frozen=True)
class RolloutResult:
    """One staged rollout's full outcome."""

    action: str
    decision: PromotionDecision
    report: FleetReport
    champion_version: int
    challenger_version: int

    @property
    def cohorts(self) -> Dict[str, FleetTotals]:
        """Per-cohort totals the verdict was computed from."""
        assert self.report.cohorts is not None
        return self.report.cohorts

    def to_text(self) -> str:
        """Render the verdict under the fleet report."""
        lines = [self.report.to_text()]
        lines.append(
            f"rollout verdict: challenger v{self.challenger_version} "
            f"{self.action.replace('_', ' ')} "
            f"(champion v{self.champion_version})"
        )
        for reason in self.decision.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def _cohort_score(totals: FleetTotals, policy: PromotionPolicy) -> float:
    """Rank a cohort by the policy's energy and hit-rate weights.

    Selection accuracy is a profiler-side metric (it needs ground-truth
    replays), so the online score only weighs what devices report.
    """
    return (
        policy.energy_weight * totals.savings
        + policy.hit_rate_weight * totals.hit_rate
    )


def judge_cohorts(
    challenger_version: int,
    champion_version: int,
    cohorts: Dict[str, FleetTotals],
    policy: PromotionPolicy,
) -> PromotionDecision:
    """Decide a staged rollout from its per-cohort fleet totals.

    The challenger cohort must be non-empty, clear the policy's energy
    floor, and strictly outrank the champion cohort on the weighted
    online score; anything else keeps the champion.
    """
    challenger = cohorts.get(COHORT_CHALLENGER)
    champion = cohorts.get(COHORT_CHAMPION)
    reasons: Tuple[str, ...]
    if challenger is None or challenger.devices == 0:
        return PromotionDecision(
            version=challenger_version,
            promoted=False,
            champion_version=champion_version,
            challenger_score=0.0,
            champion_score=(
                _cohort_score(champion, policy) if champion else 0.0
            ),
            reasons=(
                "challenger cohort is empty; raise challenger_fraction "
                "or the fleet size",
            ),
        )
    challenger_score = _cohort_score(challenger, policy)
    champion_score = _cohort_score(champion, policy) if champion else 0.0
    failures = []
    if challenger.savings < policy.min_energy_saved_fraction:
        failures.append(
            f"cohort energy savings {challenger.savings:.2%} below floor "
            f"{policy.min_energy_saved_fraction:.2%}"
        )
    if challenger.hit_rate < policy.min_hit_rate:
        failures.append(
            f"cohort hit rate {challenger.hit_rate:.2%} below floor "
            f"{policy.min_hit_rate:.2%}"
        )
    if failures:
        reasons = tuple(failures)
        promoted = False
    elif champion is None or champion.devices == 0:
        reasons = ("champion cohort is empty; promoting by default",)
        promoted = True
    elif challenger_score > champion_score:
        reasons = (
            f"challenger cohort outranks champion cohort "
            f"({challenger_score:.6f} > {champion_score:.6f})",
        )
        promoted = True
    else:
        reasons = (
            f"challenger cohort does not outrank champion cohort "
            f"({challenger_score:.6f} <= {champion_score:.6f})",
        )
        promoted = False
    return PromotionDecision(
        version=challenger_version,
        promoted=promoted,
        champion_version=champion_version,
        challenger_score=challenger_score,
        champion_score=champion_score,
        reasons=reasons,
    )


def _pick_challenger(
    registry: PackageRegistry,
    game_name: str,
    config: SnipConfig,
    version: Optional[int],
) -> RegistryEntry:
    state = registry.load_state(game_name, config)
    if version is not None:
        return state.entry(version)
    candidates = [
        entry_version
        for entry_version in sorted(state.entries)
        if state.entries[entry_version].status == STATUS_CANDIDATE
    ]
    if not candidates:
        raise PromotionError(
            f"no pending candidates to roll out for {game_name!r}; "
            f"publish a package first"
        )
    return state.entry(candidates[-1])


def run_staged_rollout(
    registry: PackageRegistry,
    game_name: str,
    spec: FleetSpec,
    config: Optional[SnipConfig] = None,
    policy: Optional[PromotionPolicy] = None,
    challenger_version: Optional[int] = None,
    executor: Optional[FleetExecutor] = None,
    telemetry: Optional[TelemetryBus] = None,
    checkpoint=None,
) -> RolloutResult:
    """Trial a challenger on a fleet fraction and act on the outcome.

    Resolves the champion and the challenger (default: latest
    candidate) from the registry, runs the cohort-split fleet described
    by ``spec`` (which must deal a challenger cohort), and applies the
    verdict of :func:`judge_cohorts` to the registry: auto-promote on a
    win, auto-rollback of the challenger cohort (entry rejected) on a
    loss.
    """
    config = config or SnipConfig()
    policy = policy or PromotionPolicy()
    if spec.game_name != game_name:
        raise PromotionError(
            f"spec simulates {spec.game_name!r}, not {game_name!r}"
        )
    if spec.challenger_fraction <= 0:
        raise PromotionError(
            "staged rollout needs a challenger cohort; "
            "set challenger_fraction > 0"
        )
    state = registry.load_state(game_name, config)
    champion_entry = state.champion()
    if champion_entry is None:
        raise PromotionError(
            f"no champion to roll out against for {game_name!r}; "
            f"promote one first"
        )
    challenger_entry = _pick_challenger(
        registry, game_name, config, challenger_version
    )
    if challenger_entry.version == champion_entry.version:
        raise PromotionError(
            f"version {challenger_entry.version} is already the champion"
        )
    champion_package = registry.load_package(champion_entry)
    challenger_package = registry.load_package(challenger_entry)
    spec = replace(
        spec,
        champion_digest=champion_entry.digest,
        challenger_digest=challenger_entry.digest,
    )
    engine = FleetEngine(
        spec,
        executor=executor,
        config=config,
        telemetry=telemetry,
        checkpoint=checkpoint,
        package=champion_package,
        challenger=challenger_package,
    )
    report = engine.run()
    decision = judge_cohorts(
        challenger_version=challenger_entry.version,
        champion_version=champion_entry.version,
        cohorts=report.cohorts or {},
        policy=policy,
    )
    registry.apply_decision(game_name, config, decision)
    return RolloutResult(
        action=ACTION_PROMOTED if decision.promoted else ACTION_ROLLED_BACK,
        decision=decision,
        report=report,
        champion_version=champion_entry.version,
        challenger_version=challenger_entry.version,
    )
