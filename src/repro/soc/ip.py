"""Accelerator / IP block models.

Each IP block (GPU, display controller, codecs, ISP, DSP, sensor hub)
charges a fixed setup energy per invocation plus per-work-unit and
per-byte energy. Blocks can be put to sleep between invocations — that
is the entire mechanism behind the paper's Max-IP baseline [43] — at the
cost of a wake-up energy on the next invocation.
"""

from __future__ import annotations

from repro.soc.component import ComponentGroup, HardwareComponent, PowerState
from repro.soc.energy import EnergyMeter
from repro.soc.power_profiles import IpProfile


class IpBlock(HardwareComponent):
    """A domain-specific accelerator charging per-invocation energy."""

    def __init__(self, name: str, meter: EnergyMeter, profile: IpProfile) -> None:
        super().__init__(
            name=name,
            group=ComponentGroup.IP,
            meter=meter,
            idle_power_watts=profile.idle_power_watts,
            sleep_power_watts=profile.sleep_power_watts,
            wake_energy_joules=profile.wake_energy_joules,
        )
        self._profile = profile

    @property
    def profile(self) -> IpProfile:
        """The constant set this block was built with."""
        return self._profile

    def invoke(
        self,
        work_units: float,
        bytes_in: int = 0,
        bytes_out: int = 0,
        tag: str = "event",
    ) -> None:
        """Run one offloaded task on this IP block.

        Wakes the block if it was sleeping (charging wake energy under
        the same ``tag``), then charges setup + work + data-movement
        energy while the block is ACTIVE.
        """
        energy = self.energy_for(work_units, bytes_in=bytes_in, bytes_out=bytes_out)
        self.wake(tag=tag)
        if self.state == PowerState.IDLE:
            self.transition(PowerState.ACTIVE, tag=tag)
        self.charge(energy, tag=tag)
        self.transition(PowerState.IDLE, tag=tag)

    def energy_for(self, work_units: float, bytes_in: int = 0, bytes_out: int = 0) -> float:
        """Energy that :meth:`invoke` would charge, without charging it."""
        if work_units < 0 or bytes_in < 0 or bytes_out < 0:
            raise ValueError(f"{self.name!r}: negative invocation parameters")
        return (
            self._profile.setup_energy_joules
            + work_units * self._profile.energy_per_work_unit
            + (bytes_in + bytes_out) * self._profile.energy_per_byte
        )


class Gpu(IpBlock):
    """3D render and compose engine (Adreno-530-class)."""


class DisplayController(IpBlock):
    """Panel refresh and composition pipeline; work unit = one frame."""


class VideoCodec(IpBlock):
    """Hardware video encode/decode; work unit = one frame."""


class AudioCodec(IpBlock):
    """Audio DSP codec path; work unit = one buffer."""


class ImageSignalProcessor(IpBlock):
    """Camera ISP; work unit = one captured frame."""


class Dsp(IpBlock):
    """Hexagon-class general DSP used for physics/vision kernels."""


class SensorHubIp(IpBlock):
    """Low-power sensor hub core; work unit = one sensor batch."""
