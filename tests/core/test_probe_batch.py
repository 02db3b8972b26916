"""Compiled probe keys equal the uncompiled reference.

``SnipRuntime.live_key`` reads an event's key through field readers
compiled at install time, and ``session_keys`` precomputes the
state-independent keys ``deliver`` accepts. Both must match
``live_key_reference`` exactly.
"""

from __future__ import annotations

import pytest

from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.core.runtime import SnipRuntime
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_events

GAME = "candy_crush"
DURATION_S = 10.0


@pytest.fixture(scope="module")
def probe_setup():
    config = SnipConfig()
    package = CloudProfiler(config, cache=None).build_package_from_sessions(
        GAME, seeds=[1], duration_s=DURATION_S
    )
    runtime = SnipRuntime(
        snapdragon_821(),
        create_game(GAME, seed=GAME_CONTENT_SEED),
        package.table,
        config,
    )
    events = list(generate_events(GAME, seed=9, duration_s=DURATION_S))
    return runtime, package.table, events


def test_live_key_matches_reference_on_every_known_event(probe_setup):
    # candy_crush's selection reads state fields, so this is the key
    # check over history readers as well as event ones.
    runtime, table, events = probe_setup
    checked_hits = 0
    for event in events:
        if not table.knows(event.event_type):
            continue
        key = runtime.live_key(event)
        assert key == runtime.live_key_reference(event)
        checked_hits += table.lookup(event.event_type, key) is not None
    assert checked_hits > 100  # the session actually exercised the table


def test_session_keys_cover_event_only_types():
    # chase_whisply is the game whose profiled selection keeps an
    # event-only type (camera_frame) — the others key on state fields,
    # so their sessions legitimately yield no precomputable keys.
    config = SnipConfig()
    package = CloudProfiler(config, cache=None).build_package_from_sessions(
        "chase_whisply", seeds=[1], duration_s=5.0
    )
    runtime = SnipRuntime(
        snapdragon_821(),
        create_game("chase_whisply", seed=GAME_CONTENT_SEED),
        package.table,
        config,
    )
    events = list(generate_events("chase_whisply", seed=9, duration_s=5.0))
    keys = runtime.session_keys(events)
    assert len(keys) == len(events)
    produced = [key for key in keys if key is not None]
    assert produced, "no event-only keys produced for the session"
    for event, key in zip(events, keys):
        if key is not None:
            assert key == runtime.live_key_reference(event)


def test_session_keys_all_none_for_state_keyed_games(probe_setup):
    # candy_crush's selection reads state fields, so no key is valid
    # for the whole session; deliver must fall back to live reads.
    runtime, _, events = probe_setup
    assert runtime.session_keys(events) == [None] * len(events)
