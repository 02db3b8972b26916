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

import contextlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.report import pct, render_table
from repro.core.config import SnipConfig
from repro.core.learning import EpochResult, check_ramp, run_epoch
from repro.core.profiler import SnipPackage
from repro.fleet.executors import FleetExecutor, SerialExecutor
from repro.registry.metrics import metrics_from_epoch
from repro.registry.promotion import PromotionPolicy
from repro.registry.store import PackageRegistry


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
    """One epoch's :func:`~repro.core.learning.run_epoch` arguments,
    shipped to a fleet worker."""

    game_name: str
    epoch: int
    session_duration_s: float
    initial_events: int
    ramp: float
    ungated_epochs: int
    config: Optional[SnipConfig]
    seed: int


def _epoch_task(task: EpochTask) -> Tuple[EpochResult, SnipPackage]:
    """Evaluate one learning epoch (picklable task for the executor)."""
    return run_epoch(**vars(task))


def _publish_cycles(
    registry: PackageRegistry,
    game_name: str,
    config: SnipConfig,
    outcomes: List[Tuple[EpochResult, SnipPackage]],
    policy: PromotionPolicy,
) -> List[CycleDecision]:
    """Publish every cycle's table, then run it through gated promotion.

    A digest the registry already holds is not judged again: nothing
    new can ship, and re-promoting the deduplicated entry would churn
    its recorded decision (the ``serve`` daemon does re-judge such a
    version when it is not the champion). Both branches are idempotent,
    so re-running fig12 against the same registry yields the same
    decisions and byte-identical registry state.
    """
    decisions = []
    for result, package in outcomes:
        metrics = metrics_from_epoch(
            package, result.hit_fraction, result.error_fraction
        )
        entry, created = registry.publish(
            game_name, config, package, metrics, source="fig12"
        )
        if created:
            verdict = registry.promote(
                game_name, config, version=entry.version, policy=policy
            )
            shipped, reasons = verdict.promoted, verdict.reasons
        else:
            shipped = False
            reasons = (f"identical to registered version {entry.version}",)
        decisions.append(
            CycleDecision(
                epoch=result.epoch,
                version=entry.version,
                shipped=shipped,
                reasons=reasons,
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

    Every epoch is one :func:`~repro.core.learning.run_epoch` call on
    the executor (serial by default); each regenerates the earlier
    epochs' sessions from seeds, so the trajectory is the same
    whichever executor runs it.

    Every cycle's table then goes through the registry's publish ->
    promote pass in epoch order (an ephemeral registry when none is
    supplied), and the per-cycle verdicts land in
    :attr:`Fig12Result.decisions`. A supplied registry therefore ends
    up byte-identical however many workers ran the epochs.
    """
    check_ramp(initial_events, ramp)  # before any worker starts
    executor = executor or SerialExecutor()
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
    outcomes = executor.run(_epoch_task, tasks)
    with contextlib.ExitStack() as stack:
        if registry is None:
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="fig12-registry-")
            )
            registry = PackageRegistry(Path(scratch))
        decisions = _publish_cycles(
            registry,
            game_name,
            config or SnipConfig(),
            outcomes,
            policy or PromotionPolicy(),
        )
    return Fig12Result(
        game_name=game_name,
        epochs=[result for result, _ in outcomes],
        decisions=decisions,
    )
