"""Batched scheme/baseline sessions equal their scalar references.

``run_scheme_session`` and ``run_baseline_session`` assemble events in
structure-of-arrays form and account energy through the append-only
:class:`~repro.soc.energy.ColumnarMeter`; the baseline session also
replays handlers from the handler memo. The ``*_reference`` runners
play every event through the scalar path. Reports, the baseline's
Fig. 4 tallies and the schemes' short-circuit statistics must be
exactly equal — no tolerances.
"""

from __future__ import annotations

import pickle

import pytest

from repro.games.registry import GAME_NAMES
from repro.schemes import (
    BaselineScheme,
    MaxCpuScheme,
    MaxIpScheme,
    NoOverheadsScheme,
    SnipScheme,
)
from repro.schemes.base import run_scheme_session, run_scheme_session_reference
from repro.users.sessions import (
    run_baseline_session,
    run_baseline_session_reference,
)

SCHEME_CLASSES = (
    BaselineScheme,
    SnipScheme,
    MaxCpuScheme,
    MaxIpScheme,
    NoOverheadsScheme,
)


@pytest.mark.parametrize(
    "scheme_cls", SCHEME_CLASSES, ids=[cls.__name__ for cls in SCHEME_CLASSES]
)
def test_scheme_session_matches_reference(scheme_cls):
    """Same pickled bytes, and small: a run holds its ledger and
    counters, not the SoC that played it."""
    batched_scheme = scheme_cls()
    reference_scheme = scheme_cls()
    batched_scheme.prepare("candy_crush")
    reference_scheme.prepare("candy_crush")
    batched = pickle.dumps(
        run_scheme_session(batched_scheme, "candy_crush", seed=3, duration_s=5.0)
    )
    reference = pickle.dumps(
        run_scheme_session_reference(
            reference_scheme, "candy_crush", seed=3, duration_s=5.0
        )
    )
    assert batched == reference
    assert len(batched) < 2048, len(batched)


def test_baseline_session_matches_reference():
    """Same pickled bytes on every game, and small enough to ship back
    from a pool worker cheaply.

    Twenty seconds gives every game user events, useless ones among
    them, and enough of them that summing the energies another way (a
    running ``+=`` against builtin ``sum``, which compensates from
    Python 3.12 on) shows in the last bits of every game's wasted-energy
    fraction on 3.12.
    """
    for game_name in GAME_NAMES:
        memoised = pickle.dumps(run_baseline_session(game_name, seed=5, duration_s=20.0))
        reference = pickle.dumps(
            run_baseline_session_reference(game_name, seed=5, duration_s=20.0)
        )
        assert memoised == reference, game_name
        assert len(memoised) < 2048, (game_name, len(memoised))
