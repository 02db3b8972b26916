#!/usr/bin/env python3
"""Bring your own game: write a handler, profile it, snip it.

Shows the full public surface a downstream user touches to put a *new*
event-driven app under SNIP: subclass
:class:`~repro.games.base.Game`, express the handler through the traced
context, record sessions, and hand everything to the cloud profiler.

The toy app is a whack-a-mole: a mole sits in one of nine holes; taps on
the mole score, taps elsewhere do nothing (redundant processing SNIP
learns to skip).
"""

from repro import CloudProfiler, SnipConfig, SnipRuntime, snapdragon_821
from repro.android.events import EventType, make_frame_tick, make_touch
from repro.android.tracing import EventTracer
from repro.games.base import Game, HandlerContext, mix_values
from repro.games.common import play_sound, render_frame
from repro.rng import ReproRng
from repro.units import format_bytes

HOLES = 9
HOLE_W = 480
HOLE_H = 853


class WhackAMole(Game):
    """Nine holes, one mole; taps on the mole score and move it."""

    name = "whack_a_mole"
    handled_event_types = (EventType.TOUCH, EventType.FRAME_TICK)
    upkeep_cycles = {EventType.FRAME_TICK: 2_000_000, EventType.TOUCH: 100_000}
    upkeep_ip_units = {EventType.FRAME_TICK: {"gpu": 1.0}}

    def build_state(self) -> None:
        self.state.declare("mole_hole", self.seed % HOLES, 1)
        self.state.declare("score", 0, 4)
        self.state.declare("bounce", 0, 1)  # pop-up animation frames

    def on_event(self, ctx: HandlerContext) -> None:
        if ctx.trace.event_type is EventType.TOUCH:
            self._on_tap(ctx)
        else:
            self._on_tick(ctx)

    def _on_tap(self, ctx: HandlerContext) -> None:
        if ctx.ev("action") != 0:
            return
        x, y = ctx.ev("x"), ctx.ev("y")
        hole = min(HOLES - 1, (x // HOLE_W) + 3 * (y // HOLE_H))
        ctx.cpu_func("hit_test", (hole,), 50_000)
        mole = ctx.hist("mole_hole")
        if hole != mole:
            return  # whiffed tap: full processing, no change
        score = ctx.hist("score")
        ctx.out_hist("score", score + 1)
        ctx.out_hist("mole_hole", mix_values("mole", score + 1) % HOLES)
        ctx.out_hist("bounce", 6)
        play_sound(ctx, sound_id=1)

    def _on_tick(self, ctx: HandlerContext) -> None:
        ctx.ev("slot")
        mole = ctx.hist("mole_hole")
        bounce = ctx.hist("bounce")
        ctx.cpu(800_000)
        if bounce > 0:
            ctx.out_hist("bounce", bounce - 1)
        content = mix_values("scene", mole, bounce) & 0xFFFFFFFF
        render_frame(ctx, content, gpu_units=2.0, compose_cycles=2_500_000)


def record_session(seed: int, duration_s: float) -> "EventTracer":
    """A scripted user: taps at ~2 Hz, sometimes on the mole."""
    rng = ReproRng(seed)
    tracer = EventTracer(WhackAMole.name, seed=seed)
    sequence = 0
    tap_at = rng.exponential(0.5)
    ticks = int(duration_s * 60)
    for index in range(ticks):
        now = index / 60.0
        sequence += 1
        tracer.record(make_frame_tick(slot=index % 4, sequence=sequence,
                                      timestamp=now))
        if now >= tap_at:
            sequence += 1
            hole = rng.integer(0, HOLES)
            tracer.record(
                make_touch(
                    (hole % 3) * HOLE_W + 200,
                    (hole // 3) * HOLE_H + 300,
                    sequence=sequence,
                    timestamp=now,
                )
            )
            tap_at = now + rng.exponential(0.5)
    return tracer


def main() -> None:
    print("== SNIP on a custom game (whack-a-mole) ==\n")
    config = SnipConfig()
    profiler = CloudProfiler(config)
    traces = [record_session(seed, 30.0).trace for seed in (1, 2)]

    # The profiler replays recordings against a fresh game instance; for
    # custom games we drive the stages explicitly.
    records = []
    for session, trace in enumerate(traces):
        records.extend(
            profiler.emulator.replay(WhackAMole(seed=0), trace, session=session)
        )
    analysis = profiler.analyze(records)
    selection = profiler.select(analysis)
    from repro.core.table import SnipTable

    table = SnipTable.build(records, selection, config)
    print(f"profiled events: {len(records)}")
    print(f"table: {table.entry_count} entries, {format_bytes(table.total_bytes)}")
    for event_type, fields in selection.by_event_type.items():
        print(f"  necessary inputs [{event_type.value}]: "
              f"{[info.name for info in fields]}")

    # Run an unseen session under SNIP and under the plain baseline.
    def play(runtime_factory):
        soc = snapdragon_821()
        game = WhackAMole(seed=0)
        runner = runtime_factory(soc, game)
        clock = 0.0
        for event in record_session(9, 30.0).trace.events:
            if event.timestamp > clock:
                soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runner.deliver(event)
        soc.advance_time(max(0.0, 30.0 - clock))
        return soc, runner

    from repro.android.dispatch import EventLoop

    snip_soc, runtime = play(
        lambda soc, game: SnipRuntime(soc, game, table.clone(), config)
    )
    base_soc, _ = play(EventLoop)
    savings = 1 - snip_soc.meter.total_joules / base_soc.meter.total_joules
    print(f"\nhit rate: {runtime.stats.hit_rate:.1%}  "
          f"coverage: {runtime.stats.coverage:.1%}  "
          f"energy saved vs unsnipped run: {savings:.1%}")


if __name__ == "__main__":
    main()
