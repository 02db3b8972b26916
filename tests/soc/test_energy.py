"""Tests for the energy ledger."""

import ast
import dataclasses
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.android.dispatch import charge_trace
from repro.android.events import EventType, make_frame_tick, make_gyro, make_touch
from repro.core.fields import FieldInfo
from repro.core.runtime import SnipRuntime
from repro.core.selection import SelectedInputs
from repro.core.table import SnipTable, TableEntry
from repro.errors import SimulationError
from repro.games.base import (
    CpuFuncCall,
    FieldWrite,
    InputCategory,
    IpCall,
    OutputCategory,
    ProcessingTrace,
)
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.component import ComponentGroup, PowerState
from repro.soc.energy import (
    ColumnarMeter,
    EnergyMeter,
    TAG_EVENT,
    TAG_IDLE,
    TAG_LOOKUP,
    merge_reports,
)
from repro.soc.power_profiles import pixel_xl_profiles
from repro.soc.soc import snapdragon_821


class TestCharging:
    def test_total_accumulates(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 1.0)
        meter.charge("gpu", ComponentGroup.IP, 2.0)
        assert meter.total_joules == pytest.approx(3.0)

    def test_negative_charge_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(ValueError):
            meter.charge("cpu", ComponentGroup.CPU, -0.1)

    def test_zero_charge_is_noop(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 0.0)
        assert meter.total_joules == 0.0
        assert meter.component_joules("cpu") == 0.0

    def test_component_accumulates_across_tags(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 1.0, tag=TAG_EVENT)
        meter.charge("cpu", ComponentGroup.CPU, 2.0, tag=TAG_LOOKUP)
        assert meter.component_joules("cpu") == pytest.approx(3.0)

    def test_group_and_tag_marginals(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 1.0, tag=TAG_EVENT)
        meter.charge("gpu", ComponentGroup.IP, 2.0, tag=TAG_IDLE)
        assert meter.group_joules(ComponentGroup.CPU) == pytest.approx(1.0)
        assert meter.tag_joules(TAG_IDLE) == pytest.approx(2.0)

    def test_reset_clears_everything(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 5.0)
        meter.reset()
        assert meter.total_joules == 0.0
        assert meter.report().by_component == {}


class TestReport:
    def test_report_is_snapshot(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 1.0)
        report = meter.report()
        meter.charge("cpu", ComponentGroup.CPU, 1.0)
        assert report.total_joules == pytest.approx(1.0)

    def test_group_fraction(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 3.0)
        meter.charge("gpu", ComponentGroup.IP, 1.0)
        assert meter.report().group_fraction(ComponentGroup.CPU) == pytest.approx(0.75)

    def test_group_fraction_empty_meter(self):
        assert EnergyMeter().report().group_fraction(ComponentGroup.CPU) == 0.0

    def test_tag_fraction(self):
        meter = EnergyMeter()
        meter.charge("cpu", ComponentGroup.CPU, 1.0, tag=TAG_LOOKUP)
        meter.charge("cpu", ComponentGroup.CPU, 3.0, tag=TAG_EVENT)
        assert meter.report().tag_fraction(TAG_LOOKUP) == pytest.approx(0.25)

    def test_joint_group_tag(self):
        meter = EnergyMeter()
        meter.charge("gpu", ComponentGroup.IP, 2.0, tag=TAG_LOOKUP)
        report = meter.report()
        assert report.by_group_and_tag[(ComponentGroup.IP, TAG_LOOKUP)] == pytest.approx(2.0)


class TestMerge:
    def test_merge_sums_totals(self):
        first = EnergyMeter()
        first.charge("cpu", ComponentGroup.CPU, 1.0)
        second = EnergyMeter()
        second.charge("cpu", ComponentGroup.CPU, 2.0)
        merged = merge_reports([first.report(), second.report()])
        assert merged.total_joules == pytest.approx(3.0)
        assert merged.by_component["cpu"] == pytest.approx(3.0)

    def test_merge_empty(self):
        merged = merge_reports([])
        assert merged.total_joules == 0.0

    def test_merge_preserves_disjoint_components(self):
        first = EnergyMeter()
        first.charge("cpu", ComponentGroup.CPU, 1.0)
        second = EnergyMeter()
        second.charge("gpu", ComponentGroup.IP, 2.0)
        merged = merge_reports([first.report(), second.report()])
        assert set(merged.by_component) == {"cpu", "gpu"}


# -- columnar ledger vs the scalar meter ----------------------------------

#: Every component of a ``snapdragon_821`` SoC, by ledger name.
COMPONENTS = (
    "cpu", "dram", "gpu", "display", "video_codec", "audio_codec", "isp",
    "dsp", "sensor_hub", "touch", "gyro", "accel", "gps", "camera",
)
IP_BLOCKS = COMPONENTS[2:9]

#: One event per probed type: a scan-out type, and two that are not.
EVENTS = {
    EventType.FRAME_TICK: make_frame_tick(),
    EventType.TOUCH: make_touch(3, 4),
    EventType.GYRO: make_gyro(0.1, 0.2, 0.3, 0),
}

#: Intervals down to the smallest subnormal, whose idle charges all
#: round to zero and must be skipped.
intervals = st.one_of(
    st.sampled_from([5e-324, 1e-323, 2e-310, 1e-300]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
cycles = st.integers(min_value=-2, max_value=5_000_000)
sizes = st.integers(min_value=-2, max_value=2_000_000)
ip_calls = st.builds(
    IpCall,
    ip_name=st.sampled_from(IP_BLOCKS),
    work_units=st.one_of(st.just(-1.0), st.floats(min_value=0.0, max_value=40.0)),
    bytes_in=sizes,
    bytes_out=sizes,
)
cpu_funcs = st.builds(
    CpuFuncCall, name=st.just("kernel"), key=st.just(()), cycles=cycles,
    big=st.booleans(),
)
traces = st.builds(
    ProcessingTrace,
    event_sequence=st.just(0),
    event_type=st.just(EventType.TOUCH),
    ip_calls=st.lists(ip_calls, max_size=4),
    cpu_funcs=st.lists(cpu_funcs, max_size=3),
    cpu_big_cycles=cycles,
    cpu_little_cycles=cycles,
    memory_bytes=sizes,
)
steps = st.one_of(
    st.tuples(st.just("advance"), st.one_of(intervals, st.just(-1.0))),
    # The charged components twice as often as the sensors, whose
    # power state only changes the idle pattern.
    st.tuples(
        st.sampled_from(["sleep", "wake", "off"]),
        st.sampled_from(COMPONENTS[:9] * 2 + COMPONENTS[9:]),
    ),
    st.tuples(st.just("trace"), traces),
    st.tuples(st.just("probe"), st.sampled_from(sorted(EVENTS, key=str))),
    st.tuples(
        st.just("hit"), st.sampled_from(sorted(EVENTS, key=str)),
        st.integers(min_value=0, max_value=4096),
    ),
    # The SoC's direct charges, called as the memo patterns record them.
    st.tuples(
        st.just("cycles"), cycles, st.booleans(),
        st.sampled_from([TAG_EVENT, TAG_LOOKUP]),
    ),
    st.tuples(st.just("transfer"), sizes),
    st.tuples(
        st.just("invoke"), st.sampled_from(IP_BLOCKS),
        st.one_of(st.just(-1.0), st.floats(min_value=0.0, max_value=40.0)),
        sizes, sizes,
    ),
    # Both ledgers folded midway: a later fold must not be served from
    # a stale cache.
    st.tuples(st.just("fold")),
)


@pytest.fixture(scope="module")
def probe_game():
    return create_game("candy_crush", seed=GAME_CONTENT_SEED)


def _runtime(soc, game):
    """A runtime whose table knows every probed type, for its charges."""
    selection = SelectedInputs(
        by_event_type={
            event_type: [FieldInfo(f"event:f{index}", InputCategory.EVENT, 4 + 4 * index)]
            for index, event_type in enumerate(EVENTS)
        }
    )
    return SnipRuntime(soc, game, SnipTable(selection))


def _apply(soc, runtime, step):
    """Run one step; returns the exception type it raised, or None."""
    kind = step[0]
    try:
        if kind == "advance":
            soc.advance_time(step[1])
        elif kind == "sleep":
            soc.all_components()[step[1]].sleep()
        elif kind == "wake":
            soc.all_components()[step[1]].wake()
        elif kind == "off":
            soc.all_components()[step[1]].transition(PowerState.OFF)
        elif kind == "trace":
            charge_trace(soc, step[1])
        elif kind == "probe":
            runtime._charge_probe(EVENTS[step[1]])
        elif kind == "cycles":
            soc.charge_cycles(step[1], big=step[2], tag=step[3])
        elif kind == "transfer":
            soc.charge_transfer(step[1])
        elif kind == "invoke":
            soc.charge_invocation(step[1], step[2], bytes_in=step[3], bytes_out=step[4])
        else:
            write = FieldWrite("hist:score", OutputCategory.HISTORY, 1, step[2], True)
            entry = TableEntry(writes=(write,), avg_cycles=1.0, profile_weight=1.0)
            runtime._charge_hit(EVENTS[step[1]], entry)
    except (ValueError, SimulationError) as error:
        return type(error)
    return None


def _negative(step) -> bool:
    """Whether ``step`` carries a negative quantity that must raise."""
    if step[0] in ("advance", "cycles", "transfer"):
        return step[1] < 0
    if step[0] == "invoke":
        return min(step[2:]) < 0
    if step[0] != "trace":
        return False
    trace = step[1]
    # ``charge_trace`` charges the cycle totals, sub-functions included.
    big = trace.cpu_big_cycles + sum(f.cycles for f in trace.cpu_funcs if f.big)
    little = trace.cpu_little_cycles + sum(
        f.cycles for f in trace.cpu_funcs if not f.big
    )
    return (
        big < 0
        or little < 0
        or trace.memory_bytes < 0
        or any(
            min(call.work_units, call.bytes_in, call.bytes_out) < 0
            for call in trace.ip_calls
        )
    )


def _trace(**work):
    return ProcessingTrace(event_sequence=0, event_type=EventType.TOUCH, **work)


def _same_ledger(columnar, scalar):
    assert pickle.dumps(columnar.report()) == pickle.dumps(scalar.report())
    assert columnar.meter.total_joules.hex() == scalar.meter.total_joules.hex()


class TestColumnarMatchesScalar:
    @settings(max_examples=200, deadline=None)
    @given(sequence=st.lists(steps, min_size=1, max_size=60))
    # Each non-IDLE target the direct paths must hand to the component.
    @example([("sleep", "gpu"), ("trace", _trace(ip_calls=[IpCall("gpu", 2.0, 64, 64)]))])
    @example([
        ("off", "dsp"), ("advance", 0.5), ("trace", _trace(ip_calls=[IpCall("dsp", 1.0, 0, 8)]))
    ])
    @example([("sleep", "cpu"), ("probe", EventType.TOUCH), ("advance", 0.25)])
    @example([("sleep", "cpu"), ("trace", _trace(cpu_little_cycles=1000))])
    @example([("sleep", "dram"), ("advance", 1.0), ("trace", _trace(memory_bytes=4096))])
    @example([("sleep", "display"), ("hit", EventType.FRAME_TICK, 64)])
    @example([("advance", 5e-324), ("advance", 1e-323), ("advance", 0.5)])
    # A subnormal interval walks the components between two idle
    # records, and a sleeping block gets its own idle pattern after a
    # fold was cached.
    @example([("advance", 0.5), ("advance", 5e-324), ("fold",), ("advance", 0.25)])
    @example([
        ("advance", 1.0), ("fold",), ("sleep", "gpu"), ("advance", 1.0),
        ("invoke", "gpu", 2.0, 64, 64), ("advance", 0.5),
    ])
    def test_same_steps_same_report_bytes(self, probe_game, sequence):
        scalar = snapdragon_821()
        columnar = snapdragon_821(meter=ColumnarMeter())
        sides = [(soc, _runtime(soc, probe_game)) for soc in (scalar, columnar)]
        for step in sequence:
            if step[0] == "fold":
                _same_ledger(columnar, scalar)
                continue
            outcomes = [_apply(soc, runtime, step) for soc, runtime in sides]
            assert outcomes[0] is outcomes[1], step
            if _negative(step):
                assert outcomes[0] is not None, step
        # The total alone, read before the report folds every axis and
        # after, is the report's float bit for bit.
        total_before = columnar.meter.total_joules
        report = columnar.report()
        assert total_before.hex() == report.total_joules.hex()
        assert columnar.meter.total_joules.hex() == report.total_joules.hex()
        assert pickle.dumps(report) == pickle.dumps(scalar.report())
        assert columnar.elapsed_seconds == scalar.elapsed_seconds
        assert [c.state for c in columnar.all_components().values()] == [
            c.state for c in scalar.all_components().values()
        ]

    def test_fold_orders_every_axis_by_first_charge(self):
        meter = ColumnarMeter()
        scalar = EnergyMeter()
        charges = [
            ("gpu", ComponentGroup.IP, 2.0, TAG_LOOKUP),
            ("cpu", ComponentGroup.CPU, 0.1, TAG_EVENT),
            ("gpu", ComponentGroup.IP, 0.2, TAG_EVENT),
            ("dram", ComponentGroup.MEMORY, 0.3, TAG_IDLE),
            ("cpu", ComponentGroup.CPU, 0.7, TAG_LOOKUP),
        ]
        for component, group, joules, tag in charges:
            meter.charge(component, group, joules, tag)
            scalar.charge(component, group, joules, tag)
        report = meter.report()
        assert list(report.by_component) == ["gpu", "cpu", "dram"]
        assert list(report.by_tag) == [TAG_LOOKUP, TAG_EVENT, TAG_IDLE]
        assert pickle.dumps(report) == pickle.dumps(scalar.report())

    def test_negative_and_zero_charges(self):
        meter = ColumnarMeter()
        with pytest.raises(ValueError):
            meter.charge("cpu", ComponentGroup.CPU, -0.1)
        meter.charge("cpu", ComponentGroup.CPU, 0.0)
        assert meter.report().by_component == {}


# -- one record per idle interval ----------------------------------------


class TestIdleRecords:
    def test_an_idle_interval_is_one_record(self):
        soc = snapdragon_821(meter=ColumnarMeter())
        soc.advance_time(0.5)
        assert soc.meter.record_count == 1
        # A subnormal interval underflows: the walk skips its zero charges.
        soc.advance_time(5e-324)
        assert soc.meter.record_count == 1

    def test_an_interval_with_nothing_drawing_folds_to_nothing(self):
        # Every component OFF and no platform floor: an empty pattern.
        profiles = dataclasses.replace(pixel_xl_profiles(), platform_floor_watts=0.0)
        soc = snapdragon_821(profiles=profiles, meter=ColumnarMeter())
        for component in soc.all_components().values():
            component.transition(PowerState.OFF)
        soc.advance_time(1.0)
        assert soc.meter.record_count == 1
        assert soc.meter.total_joules == 0.0
        assert pickle.dumps(soc.report()) == pickle.dumps(EnergyMeter().report())

    def test_poured_idle_records_fold_in_any_meter(self):
        source = snapdragon_821(meter=ColumnarMeter())
        source.advance_time(0.25)
        source.charge_cycles(1000)
        target = ColumnarMeter()
        target.extend(*source.meter.records_since(0))
        assert pickle.dumps(target.report()) == pickle.dumps(source.report())


class TestPowerView:
    def test_idle_turns_false_as_soon_as_a_block_sleeps(self):
        columnar = snapdragon_821(meter=ColumnarMeter())
        scalar = snapdragon_821()
        for soc in (columnar, scalar):
            soc.advance_time(0.5)
        assert columnar.idle
        for soc in (columnar, scalar):
            soc.ip("dsp").sleep()
        assert not columnar.idle
        for soc in (columnar, scalar):
            soc.advance_time(0.5)
        # The interval after the sleep accrues the sleep pattern, with
        # the component walk's bytes.
        assert columnar.meter.record_count == 2
        _same_ledger(columnar, scalar)
        columnar.ip("dsp").wake()
        assert columnar.idle

    def test_power_state_is_written_only_by_transition(self):
        # The cached view is retaken only when ``power_epoch`` moves,
        # which ``transition`` bumps; a write elsewhere would leave the
        # view stale.
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        writers = {
            (path.relative_to(root).as_posix(),) + scope
            for path in sorted(root.rglob("*.py"))
            for scope in _state_writes(ast.parse(path.read_text(encoding="utf-8")))
        }
        assert writers == {
            ("soc/component.py", "HardwareComponent", "__init__"),
            ("soc/component.py", "HardwareComponent", "transition"),
            # A handler's view of the game's state store, not a power state.
            ("games/base.py", "HandlerContext", "__init__"),
        }


def _writes_state(node) -> bool:
    """Whether ``node`` assigns an attribute named ``_state``, directly
    or through ``setattr`` with that name (or a computed one)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "setattr"
        and len(node.args) > 1
    ):
        name = node.args[1]
        return not isinstance(name, ast.Constant) or name.value == "_state"
    else:
        return False
    return any(
        isinstance(inner, ast.Attribute) and inner.attr == "_state"
        for target in targets
        for inner in ast.walk(target)
    )


def _state_writes(node, scope=(None, None)):
    """The ``(class, function)`` around every ``_state`` write in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _state_writes(child, (child.name, None))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _state_writes(child, (scope[0], child.name))
        else:
            if _writes_state(child):
                yield scope
            yield from _state_writes(child, scope)
