"""Fig. 12: continuous learning recovers from insufficient profiles.

Paper finding (AB Evolution): when the initial profile is artificially
insufficient, SNIP short-circuits with ~40% erroneous output fields for
the first few play instances, but as the cloud loop keeps re-learning
from new sessions the error collapses below 0.1% — no developer
intervention required.

Each learning cycle's table is *not* blind-shipped: the package is
published to a :class:`~repro.registry.store.PackageRegistry` and runs
the gated promotion pass, so a data-starved early table is recorded as
a rejected candidate and only cycles that clear the floors (and beat
the incumbent) become the champion. The per-cycle decisions are part of
the figure's output.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.report import pct, render_table
from repro.core.config import SnipConfig
from repro.core.learning import ContinuousLearner, EpochResult
from repro.core.profiler import SnipPackage
from repro.fleet.executors import FleetExecutor
from repro.registry.metrics import metrics_from_epoch
from repro.registry.promotion import PromotionPolicy
from repro.registry.store import PackageRegistry
from repro.service.shipping import ship_cycle


@dataclass(frozen=True)
class CycleDecision:
    """What the registry decided about one learning cycle's table."""

    epoch: int
    version: int        # registry version the cycle published (or hit)
    shipped: bool       # did this cycle's table become the champion?
    reasons: Tuple[str, ...]  # why it was not shipped (empty on ship)


@dataclass
class Fig12Result:
    """The error trajectory over learning epochs."""

    game_name: str
    epochs: List[EpochResult]
    #: Per-cycle registry verdicts, in epoch order.
    decisions: Optional[List[CycleDecision]] = None

    @property
    def initial_error(self) -> float:
        """Error of the first (data-starved) epoch."""
        return self.epochs[0].error_fraction

    @property
    def final_error(self) -> float:
        """Error after the last epoch."""
        return self.epochs[-1].error_fraction

    @property
    def converged_epoch(self) -> Optional[int]:
        """First epoch whose error crossed the confidence threshold."""
        for result in self.epochs:
            if result.confident:
                return result.epoch
        return None

    @property
    def first_shipped_epoch(self) -> Optional[int]:
        """First epoch whose table the promotion pass activated."""
        for decision in self.decisions or []:
            if decision.shipped:
                return decision.epoch
        return None

    def to_text(self) -> str:
        """Render the learning trajectory."""
        decisions = {
            decision.epoch: decision for decision in self.decisions or []
        }
        rows = [
            [
                result.epoch,
                result.training_events,
                result.table_entries,
                pct(result.hit_fraction),
                pct(result.error_fraction, 3),
                "yes" if result.confident else "no",
            ]
            + (
                [
                    "yes" if decisions[result.epoch].shipped else "no",
                ]
                if result.epoch in decisions
                else []
            )
            for result in self.epochs
        ]
        headers = [
            "epoch", "train events", "entries", "hit rate",
            "% erroneous fields", "confident",
        ]
        if decisions:
            headers.append("shipped")
        return render_table(headers, rows)


@dataclass(frozen=True)
class EpochTask:
    """One epoch's evaluation, shipped to a fleet worker."""

    game_name: str
    epoch: int
    session_duration_s: float
    initial_events: int
    ramp: float
    ungated_epochs: int
    config: Optional[SnipConfig]
    seed: int


@dataclass(frozen=True)
class EpochOutcome:
    """What an epoch worker sends back: the numbers and the table."""

    result: EpochResult
    package: SnipPackage


def _epoch_task(task: EpochTask) -> EpochOutcome:
    """Evaluate one learning epoch in isolation (picklable task).

    Every epoch's training corpus is a pure function of ``(seed,
    epoch)`` — :meth:`ContinuousLearner._epoch_seeds` — so a worker can
    rebuild the sessions of all earlier epochs locally and evaluate its
    epoch with no state from the serial loop. The per-epoch results are
    bit-identical to running the loop sequentially.
    """
    learner = ContinuousLearner(
        task.game_name,
        config=task.config,
        session_duration_s=task.session_duration_s,
        initial_events=task.initial_events,
        ramp=task.ramp,
        ungated_epochs=task.ungated_epochs,
        seed=task.seed,
    )
    for earlier in range(task.epoch):
        learner.ingest_session(earlier)
    result = learner.run_epoch(task.epoch)
    return EpochOutcome(result=result, package=learner.packages[-1])


def _publish_cycles(
    registry: PackageRegistry,
    game_name: str,
    config: SnipConfig,
    results: List[EpochResult],
    packages: List[SnipPackage],
    policy: PromotionPolicy,
) -> List[CycleDecision]:
    """Run every cycle's table through the service shipping pass.

    Delegates to :func:`repro.service.shipping.ship_cycle`: publish,
    then gated promotion unless the digest deduplicated to a version
    the registry already holds (the ``serve`` daemon, which promotes
    through the registry directly, re-judges such a version when it is
    not the champion).
    """
    decisions = []
    for result, package in zip(results, packages):
        metrics = metrics_from_epoch(
            package, result.hit_fraction, result.error_fraction
        )
        shipped = ship_cycle(
            registry, game_name, config, package, metrics, policy,
            source="fig12",
        )
        decisions.append(
            CycleDecision(
                epoch=result.epoch,
                version=shipped.version,
                shipped=shipped.shipped,
                reasons=shipped.reasons,
            )
        )
    return decisions


def run_fig12(
    game_name: str = "ab_evolution",
    epochs: int = 8,
    session_duration_s: float = 30.0,
    initial_events: int = 60,
    ramp: float = 2.2,
    ungated_epochs: int = 2,
    config: Optional[SnipConfig] = None,
    seed: int = 0,
    executor: Optional[FleetExecutor] = None,
    registry: Optional[PackageRegistry] = None,
    policy: Optional[PromotionPolicy] = None,
) -> Fig12Result:
    """Drive the continuous-learning loop and record each epoch.

    ``ungated_epochs`` reproduces the paper's artificially insufficient
    initial profile: early tables ship without the confidence gate and
    misfire heavily until real profile volume accumulates.

    With an ``executor``, the epochs are evaluated in parallel workers
    (each regenerating the earlier epochs' sessions from seeds) and the
    trajectory is reassembled in epoch order — same numbers, shorter
    wall clock.

    Every cycle's table goes through the registry's publish -> promote
    pass (an ephemeral registry when none is supplied), and the
    per-cycle verdicts land in :attr:`Fig12Result.decisions`. Because
    the epoch results and the publish order are both deterministic, a
    supplied registry ends up byte-identical however the epochs were
    scheduled.
    """
    tasks = [
        EpochTask(
            game_name=game_name,
            epoch=epoch,
            session_duration_s=session_duration_s,
            initial_events=initial_events,
            ramp=ramp,
            ungated_epochs=ungated_epochs,
            config=config,
            seed=seed,
        )
        for epoch in range(epochs)
    ]
    if executor is not None and executor.jobs > 1:
        outcomes = executor.run(_epoch_task, tasks)
        results = [outcome.result for outcome in outcomes]
        packages = [outcome.package for outcome in outcomes]
    else:
        learner = ContinuousLearner(
            game_name,
            config=config,
            session_duration_s=session_duration_s,
            initial_events=initial_events,
            ramp=ramp,
            ungated_epochs=ungated_epochs,
            seed=seed,
        )
        results = learner.run(epochs)
        packages = list(learner.packages)
    registry_config = config or SnipConfig()
    policy = policy or PromotionPolicy()
    if registry is None:
        with tempfile.TemporaryDirectory(prefix="fig12-registry-") as scratch:
            decisions = _publish_cycles(
                PackageRegistry(Path(scratch)),
                game_name,
                registry_config,
                results,
                packages,
                policy,
            )
    else:
        decisions = _publish_cycles(
            registry, game_name, registry_config, results, packages, policy
        )
    return Fig12Result(game_name=game_name, epochs=results, decisions=decisions)
