"""Exception hierarchy for the SNIP reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors
(``TypeError``, ``KeyError`` from their own code, etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class SimulationError(ReproError):
    """The SoC / session simulation reached an invalid state."""


class PowerStateError(SimulationError):
    """An illegal power-state transition was requested on a component."""


class BatteryDepletedError(SimulationError):
    """Work was charged to a battery that has already reached 0% charge."""


class EventError(ReproError):
    """An event object is malformed or routed to the wrong handler."""


class UnknownEventTypeError(EventError):
    """An event type has no registered handler or schema."""


class GameError(ReproError):
    """A game workload violated its own rules or received bad input."""


class UnknownGameError(GameError):
    """A game name is not present in the workload registry."""


class StateError(GameError):
    """A game-state store access referenced a missing or mistyped field."""


class TraceError(ReproError):
    """A recorded event trace is malformed or cannot be replayed."""


class ReplayDivergenceError(TraceError):
    """Deterministic replay produced different outputs than the recording.

    The SNIP cloud profiler relies on the AOSP-emulator replay being
    bit-identical to the on-device execution; divergence means the
    profile would be built from wrong input/output data.
    """


class MemoizationError(ReproError):
    """A memoization table was built or queried inconsistently."""


class TableCapacityError(MemoizationError):
    """A lookup table exceeded its configured capacity budget."""


class DatasetError(ReproError):
    """An ML dataset is empty, ragged, or has mismatched labels."""


class ModelNotFittedError(ReproError):
    """Predict/importance was called on an unfitted model."""


class SelectionError(ReproError):
    """Necessary-input selection could not satisfy the error budget."""


class ProfilerError(ReproError):
    """The cloud profiling pipeline failed a stage."""


class SchemeError(ReproError):
    """An optimization scheme was applied to an incompatible session."""


class LintError(ReproError):
    """The static-analysis pass was misconfigured or hit unreadable input."""


class CacheError(ProfilerError):
    """The on-disk package cache is misconfigured or unusable."""


class RegistryError(ReproError):
    """The SnipPackage registry is missing, corrupt, or misused."""


class PromotionError(RegistryError):
    """A champion/challenger promotion or rollback request is invalid."""


class FleetError(ReproError):
    """The fleet-simulation engine failed to plan or execute a run."""


class WorkerCrashError(FleetError):
    """Fleet worker processes died more often than the retry budget allows."""


class CheckpointError(FleetError):
    """A fleet checkpoint directory is missing, corrupt, or mismatched."""


class ServiceError(ReproError):
    """The continuous-serving daemon hit an invalid state or run dir."""
