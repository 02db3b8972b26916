"""Tests for the game framework: context, traces, and contracts."""

import pytest

from repro.android.events import EventType, make_touch
from repro.errors import GameError
from repro.games.base import (
    ExternSource,
    Game,
    HandlerContext,
    InputCategory,
    OutputCategory,
    mix_values,
)


class ToyGame(Game):
    """Minimal game exercising every context facility."""

    name = "toy"
    handled_event_types = (EventType.TOUCH,)
    upkeep_cycles = {EventType.TOUCH: 1000}

    def build_state(self) -> None:
        self.state.declare("counter", 0, 4)
        self.state.declare("blob", 0, 2048)

    def on_event(self, ctx: HandlerContext) -> None:
        x = ctx.ev("x")
        counter = ctx.hist("counter")
        ctx.cpu(10_000)
        ctx.cpu(5_000, big=False)
        ctx.cpu_func("kernel", (x,), 20_000)
        ctx.cpu_func("walker", (counter,), 7_000, reusable=False)
        ctx.ip("gpu", 1.0, bytes_in=100, key=("draw", x))
        ctx.mem(256)
        if x > 0:
            ctx.out_hist("counter", counter + 1)
        else:
            ctx.out_hist("counter", counter)  # unchanged write
        ctx.out_temp("tile", x, 16)
        if x > 900:
            asset = ctx.extern("asset")
            ctx.out_extern("upload", asset, 64)


@pytest.fixture()
def game():
    return ToyGame(seed=3)


class TestProcessing:
    def test_unhandled_event_type_rejected(self, game):
        from repro.android.events import make_gyro

        with pytest.raises(GameError):
            game.process(make_gyro(0, 0, 0, 0))

    def test_trace_records_reads_by_category(self, game):
        trace = game.process(make_touch(100, 0))
        event_reads = trace.reads_in(InputCategory.EVENT)
        history_reads = trace.reads_in(InputCategory.HISTORY)
        assert [read.name for read in event_reads] == ["event:x"]
        assert [read.name for read in history_reads] == ["hist:counter"]

    def test_trace_records_work(self, game):
        trace = game.process(make_touch(100, 0))
        assert trace.cpu_big_cycles == 10_000
        assert trace.cpu_little_cycles == 5_000
        assert trace.func_cycles == 27_000
        assert trace.total_cycles == 42_000
        assert trace.memory_bytes == 256
        assert len(trace.ip_calls) == 1

    def test_reusability_flag_recorded(self, game):
        trace = game.process(make_touch(100, 0))
        by_name = {call.name: call for call in trace.cpu_funcs}
        assert by_name["kernel"].reusable
        assert not by_name["walker"].reusable

    def test_useful_event_changes_state(self, game):
        trace = game.process(make_touch(100, 0))
        assert not trace.useless
        assert game.state.peek("counter") == 1

    def test_useless_event_detected(self, game):
        game.process(make_touch(100, 0))  # tile now 96 (quantised)
        trace = game.process(make_touch(0, 0))
        # counter unchanged and tile changed 96 -> 0, so not useless...
        assert not trace.useless
        repeat = game.process(make_touch(0, 0))  # everything identical now
        assert repeat.useless

    def test_extern_read_charges_memory(self, game):
        trace = game.process(make_touch(1000, 0))
        extern_reads = trace.reads_in(InputCategory.EXTERN)
        assert len(extern_reads) == 1
        assert trace.memory_bytes > 1_000_000  # the 1 MB asset transit

    def test_out_extern_always_changed(self, game):
        trace = game.process(make_touch(1000, 0))
        extern_writes = trace.writes_in(OutputCategory.EXTERN)
        assert extern_writes and all(write.changed for write in extern_writes)

    def test_output_signature_stable(self, game):
        trace_a = ToyGame(seed=3).process(make_touch(100, 0))
        trace_b = ToyGame(seed=3).process(make_touch(100, 0))
        assert trace_a.output_signature() == trace_b.output_signature()
        assert trace_a.output_class() == trace_b.output_class()

    def test_input_output_byte_accounting(self, game):
        trace = game.process(make_touch(100, 0))
        assert trace.input_bytes(InputCategory.EVENT) == 2
        assert trace.input_bytes(InputCategory.HISTORY) == 4
        assert trace.output_bytes(OutputCategory.TEMP) == 16

    def test_negative_work_rejected(self, game):
        ctx = HandlerContext(
            make_touch(1, 2), game.state, game.screen, game.extern_source
        )
        with pytest.raises(GameError):
            ctx.cpu(-1)
        with pytest.raises(GameError):
            ctx.cpu_func("k", (), -1)
        with pytest.raises(GameError):
            ctx.ip("gpu", -1.0)
        with pytest.raises(GameError):
            ctx.mem(-1)

class TestApplyOutputs:
    def test_apply_replays_writes(self, game):
        trace = game.process(make_touch(100, 0))
        fresh = ToyGame(seed=3)
        fresh.apply_outputs(trace.writes)
        assert fresh.state.peek("counter") == 1
        assert fresh.screen["tile"] == 96  # quantised x

    def test_apply_ignores_extern(self, game):
        trace = game.process(make_touch(1000, 0))
        fresh = ToyGame(seed=3)
        fresh.apply_outputs(trace.writes)  # must not raise

    def test_fresh_restores_initial_conditions(self, game):
        game.process(make_touch(100, 0))
        clone = game.fresh()
        assert clone.state.peek("counter") == 0
        assert clone.seed == game.seed


class TestExternSource:
    def test_fetch_deterministic_per_seed(self):
        assert ExternSource(1).peek("k") == ExternSource(1).peek("k")
        assert ExternSource(1).peek("k") != ExternSource(2).peek("k")

    def test_payload_is_a_megabyte(self):
        _, nbytes = ExternSource(1).peek("k")
        assert nbytes == 1_048_576


class TestMixValues:
    def test_deterministic(self):
        assert mix_values("a", 1, (2, 3)) == mix_values("a", 1, (2, 3))

    def test_sensitive_to_inputs(self):
        assert mix_values("a", 1) != mix_values("a", 2)
        assert mix_values("a", 1) != mix_values("b", 1)

    def test_upkeep_defaults_to_zero(self):
        assert Game.upkeep_cycles_for(EventType.GPS) == 0
        assert Game.upkeep_ip_units_for(EventType.GPS) == {}
