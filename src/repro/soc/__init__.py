"""Mobile SoC hardware substrate.

A Snapdragon-821-class system-on-chip model: CPU cluster, accelerator/IP
blocks, LPDDR4 memory, sensors, and a battery, all charging their
activity to a shared :class:`~repro.soc.energy.EnergyMeter`. The model
is an *energy accounting* simulator — SNIP's evaluation is about which
component activity is avoided, so the ledger is the ground truth every
experiment reads, and its only record: components keep no counters of
their own, and their charging methods return nothing.
"""

from repro.soc.battery import Battery
from repro.soc.component import ComponentGroup, HardwareComponent, PowerState
from repro.soc.cpu import CpuCluster
from repro.soc.energy import EnergyMeter, EnergyReport
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
from repro.soc.sensors import (
    Accelerometer,
    CameraSensor,
    GpsReceiver,
    Gyroscope,
    Sensor,
    TouchPanel,
)
from repro.soc.soc import Soc, snapdragon_821

__all__ = [
    "Accelerometer",
    "AudioCodec",
    "Battery",
    "CameraSensor",
    "ComponentGroup",
    "CpuCluster",
    "DisplayController",
    "Dsp",
    "EnergyMeter",
    "EnergyReport",
    "GpsReceiver",
    "Gpu",
    "Gyroscope",
    "HardwareComponent",
    "ImageSignalProcessor",
    "IpBlock",
    "Memory",
    "PowerState",
    "Sensor",
    "SensorHubIp",
    "Soc",
    "TouchPanel",
    "VideoCodec",
    "snapdragon_821",
]
