"""Fig. 12's publish -> promote shipping pass.

One learning cycle's table does not ship blind: it is published into
the registry (content-deduplicated) and judged by the gated promotion
pass. The fig12 batch driver ships every epoch through
:func:`ship_cycle`. The ``serve`` daemon does not use it: its publish
stage calls :meth:`PackageRegistry.publish` and its offline ship mode
calls :meth:`PackageRegistry.promote` directly. The two differ on a
candidate whose digest deduplicates to an earlier version that is not
the champion: :func:`ship_cycle` declines to re-judge it, the daemon
judges it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import SnipConfig
from repro.registry.promotion import PromotionPolicy
from repro.registry.records import PackageMetrics
from repro.registry.store import PackageRegistry


@dataclass(frozen=True)
class ShipDecision:
    """What one shipping pass concluded about a candidate package."""

    version: int        # registry version the candidate landed on (or hit)
    digest: str
    shipped: bool       # did the candidate become the champion?
    created: bool       # False when the digest deduplicated to an entry
    reasons: Tuple[str, ...]  # why it was not shipped (empty on ship)


def ship_cycle(
    registry: PackageRegistry,
    game_name: str,
    config: SnipConfig,
    package,
    metrics: PackageMetrics,
    policy: PromotionPolicy,
    source: str,
    source_digest: Optional[str] = None,
) -> ShipDecision:
    """Publish one candidate and run it through gated promotion.

    A digest the slot already holds is not re-judged: nothing new can
    ship, and re-promoting the deduplicated entry would churn its
    recorded decision. Both branches are idempotent, so replaying a
    cycle (fig12 against a reused registry) yields the same decision
    and byte-identical registry state.
    """
    entry, created = registry.publish(
        game_name,
        config,
        package,
        metrics,
        source=source,
        source_digest=source_digest,
    )
    if not created:
        # Identical table to an earlier cycle: nothing new ships.
        return ShipDecision(
            version=entry.version,
            digest=entry.digest,
            shipped=False,
            created=False,
            reasons=(f"identical to registered version {entry.version}",),
        )
    verdict = registry.promote(
        game_name, config, version=entry.version, policy=policy
    )
    return ShipDecision(
        version=entry.version,
        digest=entry.digest,
        shipped=verdict.promoted,
        created=True,
        reasons=verdict.reasons,
    )
