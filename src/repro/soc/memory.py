"""LPDDR4 memory channel model.

Memory charges per byte moved. Event processing moves its inputs and
outputs through memory (the Binder shared-memory hop, handler state
reads/writes, IP DMA buffers), so short-circuiting an event also saves
its memory traffic — the ledger makes that visible.
"""

from __future__ import annotations

from repro.soc.component import ComponentGroup, HardwareComponent
from repro.soc.energy import EnergyMeter
from repro.soc.power_profiles import MemoryProfile


class Memory(HardwareComponent):
    """A DRAM channel charging per-byte transfer energy."""

    def __init__(self, meter: EnergyMeter, profile: MemoryProfile, name: str = "dram") -> None:
        super().__init__(
            name=name,
            group=ComponentGroup.MEMORY,
            meter=meter,
            idle_power_watts=profile.idle_power_watts,
            sleep_power_watts=profile.sleep_power_watts,
        )
        self._profile = profile

    @property
    def profile(self) -> MemoryProfile:
        """The constant set this channel was built with."""
        return self._profile

    def transfer(self, num_bytes: int, tag: str = "event") -> None:
        """Move ``num_bytes`` through the channel, charging per byte."""
        self.charge(self.energy_for(num_bytes), tag=tag)

    def energy_for(self, num_bytes: int) -> float:
        """Energy that :meth:`transfer` would charge, without charging."""
        if num_bytes < 0:
            raise ValueError(f"negative transfer size: {num_bytes}")
        return num_bytes * self._profile.energy_per_byte
