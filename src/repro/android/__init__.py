"""Android-like OS event path.

Models the pipeline the paper instruments: physical sensors are sampled
by the sensor hub, the SensorManager turns raw samples into high-level
events (swipe, tilt, ...), the Binder framework copies event objects
into the app, and the app's registered handlers process them. Each hop
charges its energy to the SoC, so short-circuiting an event saves the
whole downstream chain — exactly the end-to-end scope SNIP targets.
"""

from repro.android.binder import Binder
from repro.android.dispatch import EventLoop, charge_delivery, charge_trace
from repro.android.emulator import Emulator, ProfileRecord
from repro.android.events import (
    EVENT_SCHEMAS,
    Event,
    EventFieldSpec,
    EventSchema,
    EventType,
    make_camera_frame,
    make_frame_tick,
    make_gps,
    make_gyro,
    make_multi_touch,
    make_swipe,
    make_touch,
)
from repro.android.sensor_hub import RawSample, SensorHub
from repro.android.sensor_manager import SensorManager
from repro.android.tracing import EventTracer, RecordedTrace

__all__ = [
    "Binder",
    "EVENT_SCHEMAS",
    "Event",
    "EventFieldSpec",
    "EventLoop",
    "EventSchema",
    "EventTracer",
    "EventType",
    "Emulator",
    "ProfileRecord",
    "charge_delivery",
    "charge_trace",
    "RawSample",
    "RecordedTrace",
    "SensorHub",
    "SensorManager",
    "make_camera_frame",
    "make_frame_tick",
    "make_gps",
    "make_gyro",
    "make_multi_touch",
    "make_swipe",
    "make_touch",
]
