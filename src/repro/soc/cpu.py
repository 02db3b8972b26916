"""Kryo-like big.LITTLE CPU cluster model.

The cluster is the unit of accounting — the paper's Fig. 2 reports "CPU"
as one bucket — but work can be steered to big or little cores, which
differ ~3x in energy per cycle. Event-handler dispatch and game logic
run on big cores; background bookkeeping (tracing, sensor batching) runs
on little cores.
"""

from __future__ import annotations

from repro.soc.component import ComponentGroup, HardwareComponent
from repro.soc.energy import EnergyMeter
from repro.soc.power_profiles import CpuProfile


class CpuCluster(HardwareComponent):
    """A 2+2 big.LITTLE CPU cluster charging cycles to the meter."""

    def __init__(self, meter: EnergyMeter, profile: CpuProfile, name: str = "cpu") -> None:
        super().__init__(
            name=name,
            group=ComponentGroup.CPU,
            meter=meter,
            idle_power_watts=profile.idle_power_watts,
            sleep_power_watts=profile.sleep_power_watts,
            wake_energy_joules=profile.wake_energy_joules,
        )
        self._profile = profile

    @property
    def profile(self) -> CpuProfile:
        """The constant set this cluster was built with."""
        return self._profile

    def execute(self, cycles: int, big: bool = True, tag: str = "event") -> None:
        """Run ``cycles`` of work, charging its energy to the meter.

        Parameters
        ----------
        cycles:
            Dynamic instruction-cycle count to retire.
        big:
            Steer to big (default) or little cores.
        tag:
            Energy-ledger tag (``"lookup"`` for SNIP table overhead).
        """
        energy = self.energy_for(cycles, big=big)
        if cycles:
            self.wake(tag=tag)
            self.charge(energy, tag=tag)

    def energy_for(self, cycles: int, big: bool = True) -> float:
        """Energy that :meth:`execute` would charge, without charging it.

        Used by schemes to reason about prospective savings.
        """
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        per_cycle = (
            self._profile.big_energy_per_cycle if big else self._profile.little_energy_per_cycle
        )
        return cycles * per_cycle
