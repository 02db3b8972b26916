"""Tests for the sensor hub, sensor manager, Binder, and event loop.

Each stage is a function of the SoC that leaves no record but its
charges, so every test reads the SoC's ledger.
"""

import pytest

from repro.android import binder, sensor_hub, sensor_manager
from repro.android.binder import BINDER_TRANSACTION_CYCLES
from repro.android.dispatch import EventLoop, charge_delivery, charge_trace
from repro.android.events import (
    EventType,
    make_camera_frame,
    make_frame_tick,
    make_gps,
    make_gyro,
    make_multi_touch,
    make_swipe,
    make_touch,
)
from repro.android.sensor_manager import _SYNTHESIS_CYCLES
from repro.games.registry import create_game
from repro.soc.soc import (
    IP_SENSOR_HUB,
    SENSOR_ACCEL,
    SENSOR_GYRO,
    SENSOR_TOUCH,
    snapdragon_821,
)


@pytest.fixture()
def soc():
    return snapdragon_821()


class TestSensorHub:
    def test_touch_burst_samples_touch_panel(self, soc):
        assert sensor_hub.capture(soc, make_touch(1, 2)) == 2
        assert soc.meter.component_joules(SENSOR_TOUCH) == pytest.approx(
            2 * soc.profiles.touch.sample_energy_joules
        )

    def test_gyro_burst_uses_two_sensors(self, soc):
        assert sensor_hub.capture(soc, make_gyro(0, 0, 0, 0)) == 20
        assert soc.meter.component_joules(SENSOR_GYRO) > 0
        assert soc.meter.component_joules(SENSOR_ACCEL) > 0

    def test_frame_tick_skips_sensors(self, soc):
        assert sensor_hub.capture(soc, make_frame_tick()) == 0
        assert soc.meter.total_joules == 0.0

    def test_capture_invokes_hub_ip(self, soc):
        sensor_hub.capture(soc, make_touch(1, 2))
        hub = soc.ip(IP_SENSOR_HUB)
        assert soc.meter.component_joules(IP_SENSOR_HUB) == hub.energy_for(
            1.0, bytes_in=2 * 8
        )

    def test_every_event_type_has_burst(self, soc):
        events = [
            make_touch(1, 2),
            make_swipe(0, 0, 100, 100, 1600.0, 2, 100),
            make_multi_touch(500, 1900, 600, 2000, 0, 10.0),
            make_gyro(0, 0, 0, 0),
            make_camera_frame(1, 2, 3, [0] * 25),
            make_gps(3, 4),
            make_frame_tick(),
        ]
        assert {event.event_type for event in events} == set(EventType)
        samples = {
            event.event_type: sensor_hub.capture(soc, event) for event in events
        }
        assert samples[EventType.FRAME_TICK] == 0
        assert all(count > 0 for event_type, count in samples.items()
                   if event_type is not EventType.FRAME_TICK)


class TestSensorManager:
    def test_synthesis_charges_little_cores(self, soc):
        sensor_manager.synthesize(soc, make_touch(1, 2), samples=0)
        assert soc.meter.component_joules("cpu") == soc.cpu.energy_for(
            _SYNTHESIS_CYCLES[EventType.TOUCH], big=False
        )

    def test_synthesis_cost_grows_with_samples(self, soc):
        event = make_gyro(0, 0, 0, 0)
        sensor_manager.synthesize(soc, event, samples=0)
        without_samples = soc.meter.component_joules("cpu")
        soc.meter.reset()
        sensor_manager.synthesize(soc, event, samples=20)
        with_samples = soc.meter.component_joules("cpu")
        assert with_samples == pytest.approx(
            without_samples + soc.cpu.energy_for(400 * 20, big=False)
        )


class TestBinder:
    def test_transfer_charges_ipc(self, soc):
        event = make_touch(1, 2)
        binder.transfer(soc, event)
        assert soc.meter.component_joules("cpu") == soc.cpu.energy_for(
            BINDER_TRANSACTION_CYCLES, big=False
        )
        assert soc.meter.component_joules("dram") == soc.memory.energy_for(
            2 * event.nbytes
        )


class TestChargeTrace:
    def test_charges_all_work(self, soc):
        game = create_game("colorphun")
        game.advance_engine(make_frame_tick())
        trace = game.process(make_frame_tick())
        charge_trace(soc, trace)
        big = trace.cpu_big_cycles + sum(f.cycles for f in trace.cpu_funcs if f.big)
        little = trace.cpu_little_cycles + sum(
            f.cycles for f in trace.cpu_funcs if not f.big
        )
        assert big + little == trace.total_cycles
        assert soc.meter.component_joules("cpu") == pytest.approx(
            soc.cpu.energy_for(big, big=True) + soc.cpu.energy_for(little, big=False)
        )
        assert soc.meter.component_joules("gpu") > 0

    def test_charge_delivery_full_path(self, soc):
        charge_delivery(soc, make_touch(1, 2))
        for component in (SENSOR_TOUCH, IP_SENSOR_HUB, "cpu", "dram"):
            assert soc.meter.component_joules(component) > 0, component


class TestEventLoop:
    def test_deliver_processes_and_charges(self, soc):
        game = create_game("colorphun")
        loop = EventLoop(soc, game)
        trace = loop.deliver(make_touch(700, 400, sequence=1))
        assert trace is not None
        assert soc.meter.total_joules > 0

    def test_deliver_charges_upkeep(self, soc):
        game = create_game("colorphun")
        loop = EventLoop(soc, game)
        tick = make_frame_tick(sequence=1)
        loop.deliver(tick)
        upkeep = game.upkeep_cycles_for(EventType.FRAME_TICK)
        assert soc.meter.component_joules("cpu") >= soc.cpu.energy_for(upkeep, big=True)
