"""Binder IPC: copy event objects from the OS into the app.

Step 3 (second half) of the paper's Fig. 1: events cross the
framework/app boundary through Binder shared memory [9]. We charge one
little-core transaction cost plus the memory traffic of the event
record. Like sensing and synthesis, this cost is paid whether or not
SNIP later short-circuits the handler.
"""

from __future__ import annotations

from repro.android.events import Event
from repro.soc.soc import Soc

#: Little-core cycles per Binder transaction (marshalling + syscall).
BINDER_TRANSACTION_CYCLES = 14_000


def transfer(soc: Soc, event: Event, tag: str = "event") -> None:
    """Copy ``event`` into the app process, charging IPC costs."""
    soc.cpu.execute(BINDER_TRANSACTION_CYCLES, big=False, tag=tag)
    # The record crosses memory twice: write by the framework, read by
    # the app-side proxy.
    soc.memory.transfer(2 * event.nbytes, tag=tag)
