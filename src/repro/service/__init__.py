"""Continuous SNIP serving: the profile -> train -> ship daemon.

The batch drivers run the paper's pipeline once; this package runs it
as a *service*. Each cycle ingests device mispredict reports from a
replayable on-disk queue, re-profiles with the cached cloud profiler,
publishes the candidate into the package registry, runs the promotion
or staged-rollout pass, and ships the refreshed champion back to the
simulated fleet — whose miss reports feed the next cycle. Every cycle
is journalled in a :class:`~repro.service.ledger.CycleLedger`, so the
daemon can be killed at any point and resumed to a byte-identical
ledger (see ``docs/SERVICE.md`` for the crash-resume contract).
"""

from repro.service.daemon import ServiceConfig, ServiceResult, SnipService
from repro.service.ledger import CycleLedger
from repro.service.reports import DeviceReport, ReportBatch, ReportQueue

__all__ = [
    "CycleLedger",
    "DeviceReport",
    "ReportBatch",
    "ReportQueue",
    "ServiceConfig",
    "ServiceResult",
    "SnipService",
]
