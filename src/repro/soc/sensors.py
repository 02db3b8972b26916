"""Physical input sensors.

Sensors are cheap relative to the rest of the SoC — the paper's Fig. 2
shows sensors + memory below 10% of total energy, which is why the paper
argues that sensor-level optimizations (e.g. low-fidelity modes [13])
cannot move the needle. We model each sensor as a per-sample energy
charge; the *values* sensed come from the user-behaviour model, not from
the sensor object, keeping hardware and workload concerns separate.
"""

from __future__ import annotations

from repro.soc.component import ComponentGroup, HardwareComponent
from repro.soc.energy import EnergyMeter
from repro.soc.power_profiles import SensorProfile


class Sensor(HardwareComponent):
    """One physical sensor charging a fixed energy per sample."""

    def __init__(self, name: str, meter: EnergyMeter, profile: SensorProfile) -> None:
        super().__init__(
            name=name,
            group=ComponentGroup.SENSOR,
            meter=meter,
            idle_power_watts=profile.idle_power_watts,
        )
        self._profile = profile

    @property
    def profile(self) -> SensorProfile:
        """The constant set this sensor was built with."""
        return self._profile

    def sample(self, tag: str = "event") -> None:
        """Take one reading, charging the per-sample energy."""
        self.wake(tag=tag)
        self.charge(self._profile.sample_energy_joules, tag=tag)


class TouchPanel(Sensor):
    """Capacitive touch digitizer (touch / swipe / multi-touch input)."""


class Gyroscope(Sensor):
    """Rotation-rate sensor (tilt input)."""


class Accelerometer(Sensor):
    """Linear-acceleration sensor (shake / movement input)."""


class GpsReceiver(Sensor):
    """GNSS receiver — per-fix energy is orders of magnitude above MEMS."""


class CameraSensor(Sensor):
    """Image sensor feeding the ISP; per-sample = one raw frame readout."""
