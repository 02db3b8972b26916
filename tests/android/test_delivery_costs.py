"""Cost-model tests for the delivery path and upkeep accounting."""

import dataclasses
import pickle

import pytest

from repro.android.dispatch import (
    DeliveryPatterns,
    charge_delivery,
    charge_trace,
    charge_upkeep,
)
from repro.android.binder import BINDER_TRANSACTION_CYCLES
from repro.android.events import EventType, make_frame_tick, make_gyro, make_touch
from repro.android.sensor_manager import _SYNTHESIS_CYCLES
from repro.games.registry import GAME_CONTENT_SEED, create_game, fresh_game
from repro.soc.energy import ColumnarMeter
from repro.soc.power_profiles import pixel_xl_profiles
from repro.soc.soc import IP_GPU, snapdragon_821
from repro.users.tracegen import generate_trace


@pytest.fixture()
def soc():
    return snapdragon_821()


class TestDeliveryCosts:
    def test_touch_cheaper_than_gyro(self, soc):
        charge_delivery(soc, make_touch(1, 2))
        touch_cost = soc.meter.total_joules
        soc.meter.reset()
        charge_delivery(soc, make_gyro(0, 0, 0, 0))
        gyro_cost = soc.meter.total_joules
        assert gyro_cost > touch_cost  # 20 raw samples vs 2

    def test_tick_delivery_is_cheapest(self, soc):
        charge_delivery(soc, make_frame_tick())
        tick_cost = soc.meter.total_joules
        soc.meter.reset()
        charge_delivery(soc, make_touch(1, 2))
        assert tick_cost < soc.meter.total_joules

    def test_delivery_never_touches_big_cores(self, soc):
        """Delivery's CPU joules are its little-core cycles' price:
        synthesis over the 20-sample gyro burst, then the Binder hop."""
        charge_delivery(soc, make_gyro(0, 0, 0, 0))
        synthesis = _SYNTHESIS_CYCLES[EventType.GYRO] + 400 * 20
        assert soc.meter.component_joules("cpu") == (
            soc.cpu.energy_for(synthesis, big=False)
            + soc.cpu.energy_for(BINDER_TRANSACTION_CYCLES, big=False)
        )


class TestUpkeepAccounting:
    def test_upkeep_charges_cycles_and_compositor(self):
        soc = snapdragon_821()
        game = create_game("candy_crush")
        cycles = charge_upkeep(soc, game, make_frame_tick())
        assert cycles == game.upkeep_cycles_for(EventType.FRAME_TICK)
        assert soc.meter.component_joules("cpu") == soc.cpu.energy_for(cycles, big=True)
        # One compositor pass over a 128 KiB surface.
        assert soc.meter.component_joules(IP_GPU) == soc.ip(IP_GPU).energy_for(
            3.0, bytes_in=128 * 1024
        )

    def test_upkeep_advances_engine(self):
        soc = snapdragon_821()
        game = create_game("race_kings")
        charge_upkeep(soc, game, make_frame_tick())
        assert game.state.peek("track_pos") == 1

    def test_gesture_upkeep_smaller_than_tick(self):
        soc = snapdragon_821()
        game = create_game("candy_crush")
        tick_cycles = charge_upkeep(soc, game, make_frame_tick())
        swipe_cycles = charge_upkeep(
            soc, game,
            __import__("repro.android.events", fromlist=["make_swipe"])
            .make_swipe(0, 0, 100, 100, 1600.0, 2, 100),
        )
        assert swipe_cycles < tick_cycles


class TestChargeTraceFidelity:
    def test_trace_energy_matches_estimate(self):
        from repro.users.sessions import estimate_trace_energy

        soc = snapdragon_821()
        game = create_game("greenwall")
        event = make_frame_tick()
        game.advance_engine(event)
        trace = game.process(event)
        predicted = estimate_trace_energy(soc, trace)
        before = soc.meter.total_joules
        charge_trace(soc, trace)
        charged = soc.meter.total_joules - before
        # estimate_trace_energy excludes only wake transients, which a
        # fresh idle SoC does not incur here.
        assert charged == pytest.approx(predicted, rel=1e-9)


class TestDeliveryPatternProfiles:
    def test_patterns_follow_the_socs_power_profiles(self):
        """Static delivery/upkeep patterns are priced with the SoC's own
        profiles, not the default phone's."""
        defaults = pixel_xl_profiles()
        custom = dataclasses.replace(
            defaults,
            cpu=dataclasses.replace(
                defaults.cpu, big_energy_per_cycle=2 * defaults.cpu.big_energy_per_cycle
            ),
        )
        events = generate_trace("candy_crush", 1, 2.0).events

        def poured(profiles):
            soc = snapdragon_821(profiles=profiles, meter=ColumnarMeter())
            patterns = DeliveryPatterns(soc, fresh_game("candy_crush", seed=GAME_CONTENT_SEED))
            for event in events:
                patterns.charge(event)
            return soc.report()

        # Default-profile patterns first, so a pattern cache keyed
        # without the profiles would already hold the wrong prices.
        poured(defaults)
        soc = snapdragon_821(profiles=custom)
        game = create_game("candy_crush", seed=GAME_CONTENT_SEED)
        for event in events:
            charge_delivery(soc, event)
            charge_upkeep(soc, game, event)
        assert pickle.dumps(poured(custom)) == pickle.dumps(soc.report())
