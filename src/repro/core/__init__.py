"""SNIP: the paper's primary contribution.

Pipeline (paper Fig. 10): the device records event inputs
(:mod:`repro.android.tracing`), the cloud replays them on the emulator
(:mod:`repro.android.emulator`), PFI identifies the necessary input
fields (:mod:`repro.core.pfi`, :mod:`repro.core.selection`), a compact
lookup table is built (:mod:`repro.core.table`) and shipped back, and
the runtime short-circuits matching events (:mod:`repro.core.runtime`).
:mod:`repro.core.learning` closes the continuous-learning loop.
"""

from repro.core.config import SnipConfig
from repro.core.devreport import DeveloperReport, build_developer_report
from repro.core.federated import DeviceContribution, FederatedAggregator
from repro.core.fields import (
    FieldInfo,
    input_universe,
    record_inputs,
    records_by_event_type,
)
from repro.core.learning import EpochResult, run_epoch
from repro.core.overrides import DeveloperOverrides
from repro.core.package_cache import CacheStats, PackageCache, package_digest
from repro.core.pfi import EventTypeProfile, PfiAnalysis, run_pfi
from repro.core.profiler import CloudProfiler, SnipPackage
from repro.core.quality import QualityController, QualityReport
from repro.core.serialization import (
    dump_table,
    load_table,
    table_from_dict,
    table_to_dict,
)
from repro.core.runtime import SnipRuntime
from repro.core.selection import (
    SelectedInputs,
    TrimPoint,
    select_necessary_inputs,
    trimming_curve,
)
from repro.core.table import SnipTable

__all__ = [
    "CacheStats",
    "CloudProfiler",
    "DeveloperReport",
    "DeviceContribution",
    "FederatedAggregator",
    "QualityController",
    "QualityReport",
    "build_developer_report",
    "dump_table",
    "load_table",
    "table_from_dict",
    "table_to_dict",
    "DeveloperOverrides",
    "EpochResult",
    "EventTypeProfile",
    "FieldInfo",
    "PackageCache",
    "PfiAnalysis",
    "SelectedInputs",
    "SnipConfig",
    "SnipPackage",
    "SnipRuntime",
    "SnipTable",
    "TrimPoint",
    "input_universe",
    "package_digest",
    "record_inputs",
    "records_by_event_type",
    "run_epoch",
    "run_pfi",
    "select_necessary_inputs",
    "trimming_curve",
]
