"""SoC assembly: wire every component to one shared energy meter.

:func:`snapdragon_821` builds the Pixel-XL-class phone the paper
evaluates on. A :class:`Soc` is deliberately dumb — it owns components
and the battery but has no policy; sessions and schemes decide what runs
and what sleeps.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.soc.battery import Battery
from repro.soc.component import ComponentGroup, HardwareComponent, PowerState
from repro.soc.cpu import CpuCluster
from repro.soc.energy import (
    TAG_EVENT,
    TAG_IDLE,
    ColumnarMeter,
    EnergyMeter,
    EnergyReport,
    charge_key_id,
    idle_pattern_id,
)
from repro.soc.ip import (
    AudioCodec,
    DisplayController,
    Dsp,
    Gpu,
    ImageSignalProcessor,
    IpBlock,
    SensorHubIp,
    VideoCodec,
)
from repro.soc.memory import Memory
from repro.soc.power_profiles import PowerProfiles, pixel_xl_profiles
from repro.soc.sensors import (
    Accelerometer,
    CameraSensor,
    GpsReceiver,
    Gyroscope,
    Sensor,
    TouchPanel,
)

#: Canonical IP block names (keys of :attr:`Soc.ips`).
IP_GPU = "gpu"
IP_DISPLAY = "display"
IP_VIDEO_CODEC = "video_codec"
IP_AUDIO_CODEC = "audio_codec"
IP_ISP = "isp"
IP_DSP = "dsp"
IP_SENSOR_HUB = "sensor_hub"

#: Canonical sensor names (keys of :attr:`Soc.sensors`).
SENSOR_TOUCH = "touch"
SENSOR_GYRO = "gyro"
SENSOR_ACCEL = "accel"
SENSOR_GPS = "gps"
SENSOR_CAMERA = "camera"

#: Ledger name of the always-on platform draw (see :meth:`Soc.advance_time`).
PLATFORM_FLOOR = "platform_floor"

#: Every component's power state in one C-level pass: the idle-pattern
#: cache key of :meth:`Soc._power_view`.
_STATE_OF = attrgetter("_state")

#: One power-state configuration's idle accrual: the pattern id
#: (:func:`~repro.soc.energy.idle_pattern_id`) of every charge the
#: component walk would make, and the smallest of their watts (``inf``
#: when there are none).
_IdlePattern = Tuple[int, float]

#: A SoC's cached power view: the
#: :attr:`~repro.soc.component.HardwareComponent.power_epoch` it was
#: taken at, whether every component was IDLE, and the idle pattern of
#: the components' states.
_PowerView = Tuple[int, bool, _IdlePattern]


class Soc:
    """A fully-assembled phone SoC plus battery.

    All components share one :class:`EnergyMeter`; experiments read the
    meter's report after a session and optionally project battery life.
    """

    def __init__(
        self,
        meter: EnergyMeter,
        cpu: CpuCluster,
        memory: Memory,
        ips: Dict[str, IpBlock],
        sensors: Dict[str, Sensor],
        battery: Battery,
        profiles: PowerProfiles,
    ) -> None:
        self.meter = meter
        self.cpu = cpu
        self.memory = memory
        self.ips = ips
        self.sensors = sensors
        self.battery = battery
        self.profiles = profiles
        self._elapsed_seconds = 0.0
        #: A columnar meter takes charges straight into its record
        #: columns: idle accrual as one record per interval, and CPU,
        #: DRAM and IP work charged to an IDLE component without walking
        #: the component object.
        self._ledger: Optional[ColumnarMeter] = (
            meter if isinstance(meter, ColumnarMeter) else None
        )
        self._components = tuple(self.all_components().values())
        self._all_idle = (PowerState.IDLE,) * len(self._components)
        self._idle_patterns: Dict[Tuple[PowerState, ...], _IdlePattern] = {}
        self._view: _PowerView = (-1, False, (-1, math.inf))
        #: Direct charges' key ids by ``(component, tag)``: interning
        #: through :func:`charge_key_id` hashes the group enum per call.
        self._key_ids: Dict[Tuple[str, str], int] = {}

    @property
    def elapsed_seconds(self) -> float:
        """Simulated wall time advanced via :meth:`advance_time`."""
        return self._elapsed_seconds

    @property
    def columnar(self) -> bool:
        """Whether this SoC charges into a :class:`ColumnarMeter`.

        Then static charge patterns may be poured into the meter (see
        :func:`repro.android.dispatch.delivery_upkeep_pattern`), and the
        ``charge_*`` methods write IDLE components' charges directly.
        """
        return self._ledger is not None

    @property
    def idle(self) -> bool:
        """Whether every component is IDLE: none asleep, off or active.

        Static charge patterns recorded on IDLE components replay
        exactly only while this holds. Read from the cached power view
        (see :meth:`_power_view`), which is retaken only after a
        component changed power state.
        """
        view = self._view
        if view[0] != HardwareComponent.power_epoch:
            view = self._power_view()
        return view[1]

    def _power_view(self) -> _PowerView:
        """Retake the power view at the current power epoch.

        The idle pattern depends only on the tuple of power states, so
        it is cached per tuple: Max IP's sleeping blocks get their own.
        """
        states = tuple(map(_STATE_OF, self._components))
        pattern = self._idle_patterns.get(states)
        if pattern is None:
            pattern = self._idle_patterns[states] = self._idle_pattern()
        view = self._view = (
            HardwareComponent.power_epoch, states == self._all_idle, pattern
        )
        return view

    def ip(self, name: str) -> IpBlock:
        """Look up an IP block by canonical name."""
        try:
            return self.ips[name]
        except KeyError:
            raise SimulationError(f"SoC has no IP block named {name!r}") from None

    def sensor(self, name: str) -> Sensor:
        """Look up a sensor by canonical name."""
        try:
            return self.sensors[name]
        except KeyError:
            raise SimulationError(f"SoC has no sensor named {name!r}") from None

    def all_components(self) -> Dict[str, HardwareComponent]:
        """Every component keyed by name (CPU, memory, IPs, sensors)."""
        components: Dict[str, HardwareComponent] = {
            self.cpu.name: self.cpu,
            self.memory.name: self.memory,
        }
        components.update(self.ips)
        components.update(self.sensors)
        return components

    def advance_time(self, seconds: float) -> None:
        """Advance wall time, accruing background power on everything.

        The platform floor (PMIC, rails, modem standby) is charged to a
        pseudo-component so the idle-phone battery-life figure includes
        consumers we do not model individually. On a columnar SoC the
        interval is one :meth:`~repro.soc.energy.ColumnarMeter.accrue`
        record of the power view's idle pattern, which the meter expands
        into the component walk's charges when it folds.
        """
        if seconds < 0:
            raise SimulationError(f"cannot advance time by {seconds} s")
        if seconds == 0:
            return
        if self._ledger is None or not self._accrue_pattern(seconds):
            for component in self._components:
                component.accrue_background(seconds, tag=TAG_IDLE)
            self.meter.charge(
                PLATFORM_FLOOR,
                ComponentGroup.IP,
                self.profiles.platform_floor_watts * seconds,
                tag=TAG_IDLE,
            )
        self._elapsed_seconds += seconds

    def _accrue_pattern(self, seconds: float) -> bool:
        """Record the component walk's idle charges as one interval.

        The walk charges ``watts * seconds`` for every component whose
        power state draws, then the platform floor, skipping zero
        charges. Returns False, charging nothing, when any charge would
        not come out positive (a ``dt`` so small that it underflows, or
        a negative floor that must raise): the caller then walks the
        components instead.
        """
        view = self._view
        if view[0] != HardwareComponent.power_epoch:
            view = self._power_view()
        pattern_id, least = view[2]
        # ``watts * seconds`` rises with ``watts``: if the smallest
        # product is positive, every product is.
        if not least * seconds > 0:
            return False
        self._ledger.accrue(pattern_id, seconds)
        return True

    def _idle_pattern(self) -> _IdlePattern:
        """The walk's charges in the components' current power states."""
        key_ids: List[int] = []
        watts: List[float] = []
        for component in self._components:
            power = component.background_watts
            if power > 0:
                key_ids.append(charge_key_id(component.name, component.group, TAG_IDLE))
                watts.append(power)
        floor = self.profiles.platform_floor_watts
        if floor != 0:
            key_ids.append(charge_key_id(PLATFORM_FLOOR, ComponentGroup.IP, TAG_IDLE))
            watts.append(floor)
        return (
            idle_pattern_id(tuple(key_ids), tuple(watts)),
            min(watts, default=math.inf),
        )

    # -- direct charges ------------------------------------------------------

    def charge_cycles(self, cycles: int, big: bool = True, tag: str = TAG_EVENT) -> None:
        """Charge ``cycles`` of CPU work, as :meth:`CpuCluster.execute` does.

        On a columnar SoC with the cluster IDLE, the energy
        :meth:`CpuCluster.energy_for` prices goes straight into the
        meter's columns. Otherwise — a plain meter, or a cluster asleep
        that must be woken and charged for it — the cluster executes as
        usual.
        """
        cpu = self.cpu
        if self._ledger is not None and cpu.state is PowerState.IDLE:
            self._charge_direct(cpu, cpu.energy_for(cycles, big=big), tag)
        else:
            cpu.execute(cycles, big=big, tag=tag)

    def charge_transfer(self, num_bytes: int, tag: str = TAG_EVENT) -> None:
        """Charge a DRAM transfer, as :meth:`Memory.transfer` does.

        Direct on a columnar SoC while the channel is IDLE, through the
        channel otherwise.
        """
        memory = self.memory
        if self._ledger is not None and memory.state is PowerState.IDLE:
            self._charge_direct(memory, memory.energy_for(num_bytes), tag)
        else:
            memory.transfer(num_bytes, tag=tag)

    def charge_invocation(
        self,
        ip_name: str,
        work_units: float,
        bytes_in: int = 0,
        bytes_out: int = 0,
        tag: str = TAG_EVENT,
    ) -> None:
        """Charge one IP invocation, as :meth:`IpBlock.invoke` does.

        Direct on a columnar SoC while the block is IDLE, where
        ``invoke`` would neither wake it nor charge anything but the
        invocation; a sleeping block is invoked as usual, paying its
        wake-up.
        """
        block = self.ip(ip_name)
        if self._ledger is not None and block.state is PowerState.IDLE:
            joules = block.energy_for(work_units, bytes_in=bytes_in, bytes_out=bytes_out)
            self._charge_direct(block, joules, tag)
        else:
            block.invoke(work_units, bytes_in=bytes_in, bytes_out=bytes_out, tag=tag)

    def _charge_direct(self, component: HardwareComponent, joules: float, tag: str) -> None:
        slot = (component.name, tag)
        key_id = self._key_ids.get(slot)
        if key_id is None:
            key_id = self._key_ids[slot] = charge_key_id(
                component.name, component.group, tag
            )
        self._ledger.charge_id(key_id, joules, component.name)

    def report(self) -> EnergyReport:
        """Snapshot of the shared meter."""
        return self.meter.report()

    def average_watts(self) -> float:
        """Mean power over the elapsed session time."""
        if self._elapsed_seconds <= 0:
            raise SimulationError("no simulated time has elapsed")
        return self.meter.total_joules / self._elapsed_seconds


def snapdragon_821(
    profiles: Optional[PowerProfiles] = None,
    battery: Optional[Battery] = None,
    meter: Optional[EnergyMeter] = None,
) -> Soc:
    """Build the Pixel XL phone model used throughout the experiments.

    ``meter`` lets the batched session paths install a
    :class:`~repro.soc.energy.ColumnarMeter` (byte-identical folds,
    append-only hot path) without touching any component wiring.
    """
    profiles = profiles or pixel_xl_profiles()
    meter = meter if meter is not None else EnergyMeter()
    cpu = CpuCluster(meter, profiles.cpu)
    memory = Memory(meter, profiles.memory)
    ips: Dict[str, IpBlock] = {
        IP_GPU: Gpu(IP_GPU, meter, profiles.gpu),
        IP_DISPLAY: DisplayController(IP_DISPLAY, meter, profiles.display),
        IP_VIDEO_CODEC: VideoCodec(IP_VIDEO_CODEC, meter, profiles.video_codec),
        IP_AUDIO_CODEC: AudioCodec(IP_AUDIO_CODEC, meter, profiles.audio_codec),
        IP_ISP: ImageSignalProcessor(IP_ISP, meter, profiles.isp),
        IP_DSP: Dsp(IP_DSP, meter, profiles.dsp),
        IP_SENSOR_HUB: SensorHubIp(IP_SENSOR_HUB, meter, profiles.sensor_hub),
    }
    sensors: Dict[str, Sensor] = {
        SENSOR_TOUCH: TouchPanel(SENSOR_TOUCH, meter, profiles.touch),
        SENSOR_GYRO: Gyroscope(SENSOR_GYRO, meter, profiles.gyro),
        SENSOR_ACCEL: Accelerometer(SENSOR_ACCEL, meter, profiles.accel),
        SENSOR_GPS: GpsReceiver(SENSOR_GPS, meter, profiles.gps),
        SENSOR_CAMERA: CameraSensor(SENSOR_CAMERA, meter, profiles.camera),
    }
    return Soc(
        meter=meter,
        cpu=cpu,
        memory=memory,
        ips=ips,
        sensors=sensors,
        battery=battery or Battery(),
        profiles=profiles,
    )
