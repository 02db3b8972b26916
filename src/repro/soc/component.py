"""Hardware component base class and power-state machine.

Components expose two energy paths:

* **active energy** — charged per unit of work (cycles, bytes, frames,
  invocations) while doing something;
* **background power** — idle/sleep leakage integrated over wall time by
  :meth:`HardwareComponent.accrue_background`.

Power states follow the usual mobile-SoC ladder ``OFF < SLEEP < IDLE <
ACTIVE``. The Max-IP baseline of the paper works by pushing idle IP
blocks down to ``SLEEP`` between invocations; the state machine here is
what makes that scheme expressible.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict

from repro.errors import PowerStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.soc.energy import EnergyMeter


class ComponentGroup(enum.Enum):
    """Paper Fig. 2 groups every component into one of these buckets."""

    CPU = "cpu"
    IP = "ip"
    MEMORY = "memory"
    SENSOR = "sensor"

    def __str__(self) -> str:
        return self.value


class PowerState(enum.IntEnum):
    """Component power ladder, ordered from deepest to shallowest."""

    OFF = 0
    SLEEP = 1
    IDLE = 2
    ACTIVE = 3


#: Legal transitions: from-state -> set of to-states.
_LEGAL_TRANSITIONS: Dict[PowerState, frozenset] = {
    PowerState.OFF: frozenset({PowerState.SLEEP, PowerState.IDLE}),
    PowerState.SLEEP: frozenset({PowerState.OFF, PowerState.IDLE}),
    PowerState.IDLE: frozenset({PowerState.OFF, PowerState.SLEEP, PowerState.ACTIVE}),
    PowerState.ACTIVE: frozenset({PowerState.IDLE}),
}


class HardwareComponent:
    """Base class for everything that consumes energy on the SoC.

    Parameters
    ----------
    name:
        Unique component name within an SoC (ledger key).
    group:
        Fig. 2 accounting bucket.
    meter:
        Shared energy ledger to charge into.
    idle_power_watts / sleep_power_watts:
        Background power in the ``IDLE`` and ``SLEEP`` states. ``OFF``
        draws nothing; ``ACTIVE`` background draw equals idle draw (the
        active premium is charged per unit of work instead).
    wake_energy_joules:
        One-shot energy cost of a ``SLEEP -> IDLE`` wake-up. This is the
        cost that makes naive Max-IP sleeping non-free.
    """

    #: Counts the power-state changes of every component in the
    #: process. After construction :meth:`transition` is the only code
    #: that writes ``_state``, and it bumps this, so a
    #: :class:`~repro.soc.soc.Soc` can cache a view of its components'
    #: states and recompute it only when the epoch has moved.
    power_epoch = 0

    def __init__(
        self,
        name: str,
        group: ComponentGroup,
        meter: "EnergyMeter",
        idle_power_watts: float,
        sleep_power_watts: float = 0.0,
        wake_energy_joules: float = 0.0,
    ) -> None:
        if idle_power_watts < 0 or sleep_power_watts < 0 or wake_energy_joules < 0:
            raise ValueError(f"negative power parameter on component {name!r}")
        if sleep_power_watts > idle_power_watts:
            raise ValueError(
                f"{name!r}: sleep power ({sleep_power_watts} W) must not exceed "
                f"idle power ({idle_power_watts} W)"
            )
        self.name = name
        self.group = group
        self._meter = meter
        self.idle_power_watts = idle_power_watts
        self.sleep_power_watts = sleep_power_watts
        self.wake_energy_joules = wake_energy_joules
        self._state = PowerState.IDLE
        self._wake_count = 0

    # -- power-state machine ------------------------------------------

    @property
    def state(self) -> PowerState:
        """Current power state."""
        return self._state

    @property
    def wake_count(self) -> int:
        """How many SLEEP->IDLE wake-ups have occurred (overhead metric)."""
        return self._wake_count

    def transition(self, target: PowerState, tag: str = "event") -> None:
        """Move to ``target``, charging wake energy when leaving SLEEP."""
        if target == self._state:
            return
        legal = _LEGAL_TRANSITIONS[self._state]
        if target not in legal:
            raise PowerStateError(
                f"{self.name!r}: illegal transition {self._state.name} -> {target.name}"
            )
        if self._state == PowerState.SLEEP and target == PowerState.IDLE:
            self._wake_count += 1
            self.charge(self.wake_energy_joules, tag=tag)
        self._state = target
        HardwareComponent.power_epoch += 1

    def sleep(self, tag: str = "event") -> None:
        """Convenience: drop to SLEEP (from IDLE or ACTIVE via IDLE)."""
        if self._state == PowerState.ACTIVE:
            self.transition(PowerState.IDLE, tag=tag)
        if self._state != PowerState.SLEEP:
            self.transition(PowerState.SLEEP, tag=tag)

    def wake(self, tag: str = "event") -> None:
        """Convenience: rise to IDLE from SLEEP or OFF."""
        if self._state in (PowerState.SLEEP, PowerState.OFF):
            self.transition(PowerState.IDLE, tag=tag)

    @property
    def background_watts(self) -> float:
        """Background draw in the current power state (0 when OFF)."""
        if self._state in (PowerState.IDLE, PowerState.ACTIVE):
            return self.idle_power_watts
        if self._state == PowerState.SLEEP:
            return self.sleep_power_watts
        return 0.0

    # -- energy accounting --------------------------------------------

    def charge(self, joules: float, tag: str = "event") -> None:
        """Charge active energy to the shared meter under this component."""
        self._meter.charge(self.name, self.group, joules, tag=tag)

    def accrue_background(self, seconds: float, tag: str = "idle") -> float:
        """Integrate background (leakage) power over ``seconds``.

        Returns the joules charged so callers can assert on it.
        """
        if seconds < 0:
            raise ValueError(f"{self.name!r}: negative background interval {seconds}")
        joules = self.background_watts * seconds
        if joules > 0:
            self.charge(joules, tag=tag)
        return joules

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, state={self._state.name})"
