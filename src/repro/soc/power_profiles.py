"""Per-component power/energy constants for a Pixel-XL-class phone.

The numbers are *calibrated*, not measured: they are chosen so that the
simulated phone reproduces the paper's published characterization —
idle battery life ~20 h, heavy-game battery life ~3 h (Fig. 3), and an
energy split of <10% sensors+memory, 40–60% CPU, 34–51% IPs (Fig. 2).
Absolute joules are therefore representative of a Snapdragon 821 but not
authoritative; only the ratios matter to the experiments.

All per-unit energies are in joules; powers in watts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MICRO, MILLI, NANO


@dataclass(frozen=True)
class CpuProfile:
    """CPU cluster constants (Kryo-like 2+2 big.LITTLE)."""

    big_energy_per_cycle: float = 0.90 * NANO
    little_energy_per_cycle: float = 0.25 * NANO
    idle_power_watts: float = 0.08
    sleep_power_watts: float = 0.005
    wake_energy_joules: float = 40 * MICRO


@dataclass(frozen=True)
class IpProfile:
    """One accelerator/IP block's constants."""

    setup_energy_joules: float
    energy_per_work_unit: float
    energy_per_byte: float
    idle_power_watts: float
    sleep_power_watts: float
    wake_energy_joules: float


@dataclass(frozen=True)
class MemoryProfile:
    """LPDDR4 channel constants."""

    energy_per_byte: float = 0.12 * NANO
    idle_power_watts: float = 0.055
    sleep_power_watts: float = 0.012


@dataclass(frozen=True)
class SensorProfile:
    """One physical sensor's constants."""

    sample_energy_joules: float
    idle_power_watts: float


@dataclass(frozen=True)
class PowerProfiles:
    """The full phone constant set (see module docstring for intent)."""

    cpu: CpuProfile
    gpu: IpProfile
    display: IpProfile
    video_codec: IpProfile
    audio_codec: IpProfile
    isp: IpProfile
    dsp: IpProfile
    sensor_hub: IpProfile
    memory: MemoryProfile
    touch: SensorProfile
    gyro: SensorProfile
    accel: SensorProfile
    gps: SensorProfile
    camera: SensorProfile
    #: Always-on platform power not attributable to modelled components
    #: (PMIC, rails, modem standby). Part of the idle-phone 20 h figure.
    platform_floor_watts: float = 0.18


def pixel_xl_profiles() -> PowerProfiles:
    """Constants for the Pixel XL / Snapdragon 821 used in the paper."""
    return PowerProfiles(
        cpu=CpuProfile(),
        gpu=IpProfile(
            setup_energy_joules=60 * MICRO,
            energy_per_work_unit=0.55 * MILLI,
            energy_per_byte=0.05 * NANO,
            idle_power_watts=0.04,
            sleep_power_watts=0.004,
            wake_energy_joules=250 * MICRO,
        ),
        display=IpProfile(
            setup_energy_joules=10 * MICRO,
            energy_per_work_unit=2.2 * MILLI,  # one frame refresh
            energy_per_byte=0.01 * NANO,
            idle_power_watts=0.25,  # panel self-refresh floor while on
            sleep_power_watts=0.01,
            wake_energy_joules=2 * MILLI,
        ),
        video_codec=IpProfile(
            setup_energy_joules=30 * MICRO,
            energy_per_work_unit=1.4 * MILLI,
            energy_per_byte=0.03 * NANO,
            idle_power_watts=0.015,
            sleep_power_watts=0.002,
            wake_energy_joules=120 * MICRO,
        ),
        audio_codec=IpProfile(
            setup_energy_joules=8 * MICRO,
            energy_per_work_unit=0.25 * MILLI,
            energy_per_byte=0.01 * NANO,
            idle_power_watts=0.010,
            sleep_power_watts=0.001,
            wake_energy_joules=40 * MICRO,
        ),
        isp=IpProfile(
            setup_energy_joules=50 * MICRO,
            energy_per_work_unit=1.6 * MILLI,  # one camera frame
            energy_per_byte=0.04 * NANO,
            idle_power_watts=0.02,
            sleep_power_watts=0.002,
            wake_energy_joules=300 * MICRO,
        ),
        dsp=IpProfile(
            setup_energy_joules=15 * MICRO,
            energy_per_work_unit=0.4 * MILLI,
            energy_per_byte=0.02 * NANO,
            idle_power_watts=0.012,
            sleep_power_watts=0.001,
            wake_energy_joules=60 * MICRO,
        ),
        sensor_hub=IpProfile(
            setup_energy_joules=1 * MICRO,
            energy_per_work_unit=4 * MICRO,  # one sensor batch
            energy_per_byte=0.01 * NANO,
            idle_power_watts=0.006,
            sleep_power_watts=0.001,
            wake_energy_joules=5 * MICRO,
        ),
        memory=MemoryProfile(),
        touch=SensorProfile(sample_energy_joules=2 * MICRO, idle_power_watts=0.004),
        gyro=SensorProfile(sample_energy_joules=1.2 * MICRO, idle_power_watts=0.003),
        accel=SensorProfile(sample_energy_joules=0.8 * MICRO, idle_power_watts=0.002),
        gps=SensorProfile(sample_energy_joules=8 * MILLI, idle_power_watts=0.005),
        camera=SensorProfile(sample_energy_joules=1.5 * MILLI, idle_power_watts=0.004),
    )
