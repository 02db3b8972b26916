"""The registry's held-out energy measurement."""

import pytest

from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.core.runtime import SnipRuntime
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.registry.metrics import DEFAULT_EVAL_SEED, measure_energy_saved
from repro.soc.soc import snapdragon_821
from repro.users.sessions import run_baseline_session_reference
from repro.users.tracegen import generate_events

EVAL_DURATION_S = 3.0


@pytest.fixture(scope="module")
def colorphun_package():
    return CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
        "colorphun", seeds=[1], duration_s=3.0
    )


def _energy_saved_on_plain_meters(package, config, eval_seed, eval_duration_s):
    """:func:`measure_energy_saved` on scalar ``EnergyMeter`` SoCs and
    the scalar event generator."""
    soc = snapdragon_821()
    game = create_game(package.game_name, seed=GAME_CONTENT_SEED)
    runtime = SnipRuntime(soc, game, package.table.clone(), config)
    clock = 0.0
    for event in generate_events(package.game_name, eval_seed, eval_duration_s):
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runtime.deliver(event)
    if eval_duration_s > clock:
        soc.advance_time(eval_duration_s - clock)
    baseline = run_baseline_session_reference(
        package.game_name, seed=eval_seed, duration_s=eval_duration_s
    )
    return 1.0 - soc.meter.total_joules / baseline.report.total_joules


def test_energy_saved_is_the_plain_meter_float(colorphun_package):
    config = SnipConfig()
    measured = measure_energy_saved(
        colorphun_package, config, DEFAULT_EVAL_SEED, EVAL_DURATION_S
    )
    expected = _energy_saved_on_plain_meters(
        colorphun_package, config, DEFAULT_EVAL_SEED, EVAL_DURATION_S
    )
    assert 0.0 < measured < 1.0
    assert measured == expected
