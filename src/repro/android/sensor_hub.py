"""Sensor hub: samples physical sensors and raises interrupts.

Step 2 of the paper's Fig. 1 walkthrough. The hub runs on a low-power
core, batching raw sensor samples before waking the CPU. Each
high-level event is backed by a burst of raw samples — a swipe is a
series of touch points, a tilt a series of gyro readings — and the hub
charges the per-sample sensor energy plus its own batch-processing work.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.android.events import Event, EventType
from repro.soc.soc import (
    IP_SENSOR_HUB,
    SENSOR_ACCEL,
    SENSOR_CAMERA,
    SENSOR_GPS,
    SENSOR_GYRO,
    SENSOR_TOUCH,
    Soc,
)

#: Which physical sensors back each event type, and how many raw samples
#: one event of that type consumes. A swipe is ~16 touch samples; a tilt
#: is ~10 gyro readings; a camera frame is 1 readout plus accel context.
_SENSOR_BURSTS: Dict[EventType, Tuple[Tuple[str, int], ...]] = {
    EventType.TOUCH: ((SENSOR_TOUCH, 2),),
    EventType.SWIPE: ((SENSOR_TOUCH, 16),),
    EventType.MULTI_TOUCH: ((SENSOR_TOUCH, 24),),
    EventType.GYRO: ((SENSOR_GYRO, 10), (SENSOR_ACCEL, 10)),
    EventType.CAMERA_FRAME: ((SENSOR_CAMERA, 1), (SENSOR_ACCEL, 4)),
    EventType.GPS: ((SENSOR_GPS, 1),),
    # Vsync callbacks originate at the display pipeline, not a sensor.
    EventType.FRAME_TICK: (),
}


def capture(soc: Soc, event: Event, tag: str = "event") -> int:
    """Sample the sensors backing ``event`` and batch them on the hub.

    Returns the number of raw samples taken, which sets the downstream
    synthesis cost. Sensor sampling is *not* avoidable by SNIP — the
    paper snips processing, not sensing — so callers charge this stage
    even for short-circuited events.
    """
    samples = 0
    for sensor_name, count in _SENSOR_BURSTS[event.event_type]:
        sensor = soc.sensor(sensor_name)
        for _ in range(count):
            sensor.sample(tag=tag)
        samples += count
    if samples:
        # One hub batch per event: wake, filter, timestamp, enqueue.
        # Display-originated events (frame ticks) never touch the hub.
        soc.ip(IP_SENSOR_HUB).invoke(work_units=1.0, bytes_in=samples * 8, tag=tag)
    return samples
