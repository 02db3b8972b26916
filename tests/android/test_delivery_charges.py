"""Pinned charge sequences of the delivery path.

Every charge is recorded as ``(component, tag, joules.hex())`` in the
order the ledger receives it, so a change to the delivery stages that
moves a charge, changes a value by one bit or drops a charge fails
here. The expected values are literals, not recomputed from the power
profiles.
"""

import pytest

from repro.android.dispatch import EventLoop, delivery_upkeep_pattern
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
from repro.games.base import Game
from repro.games.registry import GAME_NAMES, create_game
from repro.soc.energy import TAG_EVENT, TAG_IDLE, TAG_LOOKUP, EnergyMeter, charge_key_id
from repro.soc.soc import snapdragon_821


class RecordingMeter(EnergyMeter):
    """A plain meter that also lists every charge it accepts."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def charge(self, component, group, joules, tag=TAG_EVENT):
        super().charge(component, group, joules, tag=tag)
        if joules:
            self.charges.append((component, tag, joules.hex()))


class SilentGame(Game):
    """Handles every event type with no upkeep and no handler work, so
    an event loop over it charges the delivery stages and nothing else."""

    name = "silent"
    handled_event_types = tuple(EventType)

    def build_state(self):
        pass

    def on_event(self, ctx):
        pass


EVENTS = {
    EventType.TOUCH: make_touch(1, 2),
    EventType.SWIPE: make_swipe(0, 0, 100, 100, 1600.0, 2, 100),
    EventType.MULTI_TOUCH: make_multi_touch(500, 1900, 600, 2000, 0, 10.0),
    EventType.GYRO: make_gyro(0, 0, 0, 0),
    EventType.CAMERA_FRAME: make_camera_frame(1, 2, 3, [0] * 25),
    EventType.GPS: make_gps(3, 4),
    EventType.FRAME_TICK: make_frame_tick(),
}

TOUCH_SAMPLE = ("touch", "event", "0x1.0c6f7a0b5ed8dp-19")
ACCEL_SAMPLE = ("accel", "event", "0x1.ad7f29abcaf48p-21")
#: The Binder transaction's little-core cycles, the same for every type.
BINDER_CPU = ("cpu", "event", "0x1.d5c31593e5fb8p-19")

DELIVERY = {
    EventType.TOUCH: [TOUCH_SAMPLE] * 2 + [
        ("sensor_hub", "event", "0x1.4f8e183e32be3p-18"),
        ("cpu", "event", "0x1.c8571c4687a3dp-20"),
        ("dram", "event", "0x1.8bd2fdda89128p-29"),
        BINDER_CPU,
        ("dram", "event", "0x1.07e1fe91b0b70p-29"),
    ],
    EventType.SWIPE: [TOUCH_SAMPLE] * 16 + [
        ("sensor_hub", "event", "0x1.4fa1560e18086p-18"),
        ("cpu", "event", "0x1.20916fff6c5c5p-17"),
        ("dram", "event", "0x1.28de3e63e6cdep-26"),
        BINDER_CPU,
        ("dram", "event", "0x1.07e1fe91b0b70p-28"),
    ],
    EventType.MULTI_TOUCH: [TOUCH_SAMPLE] * 24 + [
        ("sensor_hub", "event", "0x1.4fac54ce08c51p-18"),
        ("cpu", "event", "0x1.a013305e6c9cfp-17"),
        ("dram", "event", "0x1.a8afb5b278668p-26"),
        BINDER_CPU,
        ("dram", "event", "0x1.cdcb7d7ef5404p-29"),
    ],
    EventType.GYRO: [("gyro", "event", "0x1.421f5f40d8376p-20")] * 10
    + [ACCEL_SAMPLE] * 10
    + [
        ("sensor_hub", "event", "0x1.4fa6d56e1066cp-18"),
        ("cpu", "event", "0x1.4f8b588e368f1p-18"),
        ("dram", "event", "0x1.6ad6be0852fbap-26"),
        BINDER_CPU,
        ("dram", "event", "0x1.07e1fe91b0b70p-28"),
    ],
    EventType.CAMERA_FRAME: [("camera", "event", "0x1.89374bc6a7efap-10")]
    + [ACCEL_SAMPLE] * 4
    + [
        ("sensor_hub", "event", "0x1.4f9237c62d04fp-18"),
        ("cpu", "event", "0x1.de26916440f24p-17"),
        ("dram", "event", "0x1.5e7826197eb31p-24"),
        BINDER_CPU,
        ("dram", "event", "0x1.49da7e361ce4cp-23"),
    ],
    EventType.GPS: [
        ("gps", "event", "0x1.0624dd2f1a9fcp-7"),
        ("sensor_hub", "event", "0x1.4f8cb86634a69p-18"),
        ("cpu", "event", "0x1.3b69629a290b9p-19"),
        ("dram", "event", "0x1.49da7e361ce4cp-29"),
        BINDER_CPU,
        ("dram", "event", "0x1.8bd2fdda89128p-29"),
    ],
    # Frame ticks come from the display pipeline: no sensor, no hub.
    EventType.FRAME_TICK: [
        ("cpu", "event", "0x1.0c6f7a0b5ed8ep-21"),
        ("dram", "event", "0x1.07e1fe91b0b70p-32"),
        BINDER_CPU,
        ("dram", "event", "0x1.07e1fe91b0b70p-31"),
    ],
}

#: What each game's upkeep adds after the delivery charges: the engine
#: tick's big-core cycles, then its upkeep IP invocations.
UPKEEP = {
    ("colorphun", EventType.TOUCH): [("cpu", "event", "0x1.797cc39ffd60fp-14")],
    ("colorphun", EventType.FRAME_TICK): [
        ("cpu", "event", "0x1.d7dbf487fcb93p-9"),
        ("gpu", "event", "0x1.d36e4c6fe2697p-11"),
    ],
    ("memory_game", EventType.TOUCH): [("cpu", "event", "0x1.c4fc1df3300dfp-14")],
    ("memory_game", EventType.FRAME_TICK): [
        ("cpu", "event", "0x1.d7dbf487fcb93p-9"),
        ("gpu", "event", "0x1.43406c62c6f81p-11"),
    ],
    ("candy_crush", EventType.SWIPE): [("cpu", "event", "0x1.797cc39ffd60fp-12")],
    ("candy_crush", EventType.FRAME_TICK): [
        ("cpu", "event", "0x1.d7dbf487fcb93p-9"),
        ("gpu", "event", "0x1.c1fbf64b9a5efp-10"),
    ],
    ("greenwall", EventType.SWIPE): [("cpu", "event", "0x1.d7dbf487fcb93p-12")],
    ("greenwall", EventType.FRAME_TICK): [
        ("cpu", "event", "0x1.9ce075f6fd221p-8"),
        ("gpu", "event", "0x1.2914eb2c5ae84p-9"),
    ],
    ("ab_evolution", EventType.MULTI_TOUCH): [("cpu", "event", "0x1.1b1d92b7fe08bp-11")],
    ("ab_evolution", EventType.SWIPE): [("cpu", "event", "0x1.797cc39ffd60fp-12")],
    ("ab_evolution", EventType.TOUCH): [("cpu", "event", "0x1.797cc39ffd60fp-14")],
    ("ab_evolution", EventType.FRAME_TICK): [
        ("cpu", "event", "0x1.d7dbf487fcb93p-8"),
        ("gpu", "event", "0x1.90dabdad1d7abp-8"),
    ],
    ("chase_whisply", EventType.CAMERA_FRAME): [
        ("cpu", "event", "0x1.9ce075f6fd221p-7"),
        ("gpu", "event", "0x1.712bdb32e8a10p-9"),
        ("isp", "event", "0x1.3c620c33c7dd2p-7"),
    ],
    ("chase_whisply", EventType.GYRO): [("cpu", "event", "0x1.d7dbf487fcb93p-11")],
    ("chase_whisply", EventType.TOUCH): [("cpu", "event", "0x1.797cc39ffd60fp-14")],
    ("race_kings", EventType.MULTI_TOUCH): [("cpu", "event", "0x1.d7dbf487fcb93p-12")],
    ("race_kings", EventType.GYRO): [("cpu", "event", "0x1.d7dbf487fcb93p-12")],
    ("race_kings", EventType.TOUCH): [("cpu", "event", "0x1.797cc39ffd60fp-14")],
    ("race_kings", EventType.FRAME_TICK): [
        ("cpu", "event", "0x1.f559b3d07c84cp-7"),
        ("gpu", "event", "0x1.3378a17e1ed1dp-6"),
    ],
}


@pytest.mark.parametrize("event_type", list(EventType), ids=lambda t: t.name)
def test_delivery_charges_are_pinned(event_type):
    meter = RecordingMeter()
    soc = snapdragon_821(meter=meter)
    EventLoop(soc, SilentGame()).deliver(EVENTS[event_type])
    assert meter.charges == DELIVERY[event_type]


def test_every_game_event_type_has_a_pinned_pattern():
    assert set(UPKEEP) == {
        (name, event_type)
        for name in GAME_NAMES
        for event_type in create_game(name).handled_event_types
    }


@pytest.mark.parametrize(
    "game_name,event_type", sorted(UPKEEP, key=lambda k: (k[0], k[1].name)),
    ids=lambda value: getattr(value, "name", value),
)
def test_delivery_upkeep_pattern_is_pinned(game_name, event_type):
    soc = snapdragon_821()
    key_names = {
        charge_key_id(component.name, component.group, tag): (component.name, tag)
        for component in soc.all_components().values()
        for tag in (TAG_EVENT, TAG_LOOKUP, TAG_IDLE)
    }
    key_ids, values = delivery_upkeep_pattern(
        create_game(game_name), EVENTS[event_type], soc.profiles
    )
    charges = [
        key_names[key_id] + (joules.hex(),) for key_id, joules in zip(key_ids, values)
    ]
    assert charges == DELIVERY[event_type] + UPKEEP[(game_name, event_type)]
