"""Tests for the power-state machine, CPU, IPs, memory, and sensors."""

import pytest

from repro.errors import PowerStateError
from repro.soc.component import ComponentGroup, HardwareComponent, PowerState
from repro.soc.cpu import CpuCluster
from repro.soc.energy import EnergyMeter
from repro.soc.ip import Gpu
from repro.soc.memory import Memory
from repro.soc.power_profiles import pixel_xl_profiles
from repro.soc.sensors import TouchPanel


@pytest.fixture()
def meter():
    return EnergyMeter()


@pytest.fixture()
def profiles():
    return pixel_xl_profiles()


def make_component(meter, **kwargs):
    defaults = dict(
        name="unit",
        group=ComponentGroup.IP,
        meter=meter,
        idle_power_watts=0.1,
        sleep_power_watts=0.01,
        wake_energy_joules=0.005,
    )
    defaults.update(kwargs)
    return HardwareComponent(**defaults)


class TestPowerStates:
    def test_starts_idle(self, meter):
        assert make_component(meter).state is PowerState.IDLE

    def test_sleep_then_wake_charges_wake_energy(self, meter):
        component = make_component(meter)
        component.sleep()
        assert component.state is PowerState.SLEEP
        component.wake()
        assert component.state is PowerState.IDLE
        assert meter.total_joules == pytest.approx(0.005)

    def test_illegal_transition_rejected(self, meter):
        component = make_component(meter)
        component.sleep()
        with pytest.raises(PowerStateError):
            component.transition(PowerState.ACTIVE)

    def test_transition_to_same_state_is_noop(self, meter):
        component = make_component(meter)
        component.transition(PowerState.IDLE)
        assert component.state is PowerState.IDLE
        assert meter.total_joules == 0.0

    def test_sleep_power_must_not_exceed_idle(self, meter):
        with pytest.raises(ValueError):
            make_component(meter, idle_power_watts=0.01, sleep_power_watts=0.02)

    def test_negative_power_rejected(self, meter):
        with pytest.raises(ValueError):
            make_component(meter, idle_power_watts=-0.1)


class TestBackgroundPower:
    def test_idle_accrual(self, meter):
        component = make_component(meter)
        component.accrue_background(10.0)
        assert meter.total_joules == pytest.approx(1.0)

    def test_sleep_accrual_is_cheaper(self, meter):
        component = make_component(meter)
        component.sleep()
        meter.reset()
        component.accrue_background(10.0)
        assert meter.total_joules == pytest.approx(0.1)

    def test_off_accrues_nothing(self, meter):
        component = make_component(meter)
        component.sleep()
        component.transition(PowerState.OFF)
        meter.reset()
        component.accrue_background(10.0)
        assert meter.total_joules == 0.0

    def test_negative_interval_rejected(self, meter):
        with pytest.raises(ValueError):
            make_component(meter).accrue_background(-1.0)


class TestCpuCluster:
    def test_execute_charges_energy(self, meter, profiles):
        cpu = CpuCluster(meter, profiles.cpu)
        cpu.execute(1_000_000, big=True)
        expected = 1_000_000 * profiles.cpu.big_energy_per_cycle
        assert meter.component_joules("cpu") == pytest.approx(expected)

    def test_little_cheaper_than_big(self, meter, profiles):
        cpu = CpuCluster(meter, profiles.cpu)
        assert cpu.energy_for(1_000, big=False) < cpu.energy_for(1_000, big=True)

    def test_zero_cycles_free(self, meter, profiles):
        cpu = CpuCluster(meter, profiles.cpu)
        cpu.execute(0)
        assert meter.total_joules == 0.0

    def test_negative_cycles_rejected(self, meter, profiles):
        cpu = CpuCluster(meter, profiles.cpu)
        with pytest.raises(ValueError):
            cpu.execute(-1)
        with pytest.raises(ValueError):
            cpu.energy_for(-1)


class TestIpBlock:
    def test_invoke_charges_setup_plus_work(self, meter, profiles):
        gpu = Gpu("gpu", meter, profiles.gpu)
        gpu.invoke(2.0, bytes_in=1000)
        expected = (
            profiles.gpu.setup_energy_joules
            + 2.0 * profiles.gpu.energy_per_work_unit
            + 1000 * profiles.gpu.energy_per_byte
        )
        assert meter.component_joules("gpu") == pytest.approx(expected)

    def test_energy_for_matches_invoke(self, meter, profiles):
        gpu = Gpu("gpu", meter, profiles.gpu)
        gpu.invoke(3.0, bytes_in=10, bytes_out=20)
        assert gpu.energy_for(3.0, bytes_in=10, bytes_out=20) == meter.component_joules(
            "gpu"
        )

    def test_zero_work_invocation_pays_setup_and_bytes(self, meter, profiles):
        gpu = Gpu("gpu", meter, profiles.gpu)
        gpu.invoke(0.0, bytes_in=1000)
        assert meter.component_joules("gpu") == pytest.approx(
            profiles.gpu.setup_energy_joules + 1000 * profiles.gpu.energy_per_byte
        )

    def test_invoke_wakes_sleeping_block(self, meter, profiles):
        gpu = Gpu("gpu", meter, profiles.gpu)
        gpu.sleep()
        meter.reset()
        gpu.invoke(1.0)
        assert meter.component_joules("gpu") == pytest.approx(
            profiles.gpu.wake_energy_joules + gpu.energy_for(1.0)
        )

    def test_block_returns_to_idle(self, meter, profiles):
        gpu = Gpu("gpu", meter, profiles.gpu)
        gpu.invoke(1.0)
        assert gpu.state is PowerState.IDLE

    def test_negative_parameters_rejected(self, meter, profiles):
        gpu = Gpu("gpu", meter, profiles.gpu)
        with pytest.raises(ValueError):
            gpu.invoke(-1.0)
        with pytest.raises(ValueError):
            gpu.invoke(1.0, bytes_in=-1)


class TestMemory:
    def test_transfer_charges_per_byte(self, meter, profiles):
        memory = Memory(meter, profiles.memory)
        memory.transfer(1_000_000)
        expected = 1_000_000 * profiles.memory.energy_per_byte
        assert meter.component_joules("dram") == pytest.approx(expected)

    def test_transfer_tracks_bytes(self, meter, profiles):
        memory = Memory(meter, profiles.memory)
        memory.transfer(100)
        memory.transfer(200)
        assert meter.component_joules("dram") == pytest.approx(
            300 * profiles.memory.energy_per_byte
        )

    def test_negative_transfer_rejected(self, meter, profiles):
        memory = Memory(meter, profiles.memory)
        with pytest.raises(ValueError):
            memory.transfer(-1)


class TestSensor:
    def test_sample_charges_fixed_energy(self, meter, profiles):
        touch = TouchPanel("touch", meter, profiles.touch)
        touch.sample()
        assert meter.component_joules("touch") == profiles.touch.sample_energy_joules

    def test_sensor_group(self, meter, profiles):
        touch = TouchPanel("touch", meter, profiles.touch)
        touch.sample()
        assert meter.group_joules(ComponentGroup.SENSOR) > 0
