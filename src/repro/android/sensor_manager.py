"""Sensor manager: raw samples -> high-level events.

The OS framework stage of the paper's Fig. 1 (step 3, first half):
interrupt handling, gesture classification (a touch series becomes a
swipe with direction/velocity), and event-object packing. This runs on
the little CPU cores and is part of the *unavoidable* per-event cost —
SNIP's lookup happens after the event object exists.
"""

from __future__ import annotations

from typing import Dict

from repro.android.events import Event, EventType
from repro.soc.soc import Soc

#: Little-core cycles to classify and pack one event, by type. Gesture
#: classification over a touch series costs more than copying one fix.
_SYNTHESIS_CYCLES: Dict[EventType, int] = {
    EventType.TOUCH: 6_000,
    EventType.SWIPE: 28_000,
    EventType.MULTI_TOUCH: 40_000,
    EventType.GYRO: 12_000,
    EventType.CAMERA_FRAME: 55_000,
    EventType.GPS: 9_000,
    EventType.FRAME_TICK: 2_000,
}


def synthesize(soc: Soc, event: Event, samples: int, tag: str = "event") -> None:
    """Charge the classification/packing cost of ``event``.

    The event's values come from the user model (the workload is the
    source of truth); this stage accounts for the OS work of producing
    them from the ``samples`` raw readings the hub captured.
    """
    # Classification cost grows mildly with the raw burst length.
    cycles = _SYNTHESIS_CYCLES[event.event_type] + 400 * samples
    soc.cpu.execute(cycles, big=False, tag=tag)
    soc.memory.transfer(event.nbytes + samples * 8, tag=tag)
