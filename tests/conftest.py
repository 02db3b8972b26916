"""Shared fixtures.

Expensive artifacts (replayed profiles, SNIP packages, baseline
sessions) are built once per test session and shared; tests must treat
them as read-only. Anything a test mutates gets its own fixture.
"""

from __future__ import annotations

import os

import pytest

from repro.android.emulator import Emulator
from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.users.sessions import run_baseline_session
from repro.users.tracegen import generate_trace

#: Short but non-trivial session length for shared fixtures.
FIXTURE_DURATION_S = 30.0


@pytest.fixture(scope="session", autouse=True)
def _isolated_package_cache(tmp_path_factory):
    """Point the default package cache at a per-run tmp directory.

    Default-on caching is part of what the suite exercises (repeated
    profiles of the same fixture inputs hit it), but test runs must
    never read from or write to the developer's ``~/.cache``.
    """
    previous = os.environ.get("REPRO_SNIP_CACHE_DIR")
    os.environ["REPRO_SNIP_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("package-cache")
    )
    yield
    if previous is None:
        os.environ.pop("REPRO_SNIP_CACHE_DIR", None)
    else:
        os.environ["REPRO_SNIP_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def snip_config():
    """The default SNIP configuration."""
    return SnipConfig()


@pytest.fixture(scope="session")
def ab_trace():
    """One recorded AB Evolution session."""
    return generate_trace("ab_evolution", seed=1, duration_s=FIXTURE_DURATION_S)


@pytest.fixture(scope="session")
def ab_records(ab_trace):
    """The AB Evolution session replayed on the emulator."""
    game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
    return Emulator(verify=False).replay(game, ab_trace)


@pytest.fixture(scope="session")
def ab_package(snip_config):
    """A full SNIP package for AB Evolution (two profiled sessions)."""
    profiler = CloudProfiler(snip_config)
    return profiler.build_package_from_sessions(
        "ab_evolution", seeds=[1, 2], duration_s=FIXTURE_DURATION_S
    )


@pytest.fixture(scope="session")
def ab_analysis(snip_config):
    """The PFI analysis behind the AB package, rebuilt through the
    profiler stages from the same two recordings (packages do not
    carry it)."""
    return CloudProfiler(snip_config).analyze_sessions(
        "ab_evolution", seeds=[1, 2], duration_s=FIXTURE_DURATION_S
    )


@pytest.fixture(scope="session")
def colorphun_session():
    """One baseline Colorphun session."""
    return run_baseline_session("colorphun", seed=1, duration_s=FIXTURE_DURATION_S)

