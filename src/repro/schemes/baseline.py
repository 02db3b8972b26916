"""Baseline: process every event fully (no optimization)."""

from __future__ import annotations

from repro.android.dispatch import EventLoop
from repro.games.base import Game
from repro.games.handler_memo import MemoBaselineLoop
from repro.schemes.base import Scheme
from repro.soc.soc import Soc


class _BaselineRunner:
    """The baseline event loop, exposing the scheme counters.

    On a columnar SoC (the one
    :func:`~repro.schemes.base.run_scheme_session` builds) the loop is
    :class:`MemoBaselineLoop`, which charges the same ledger as
    :class:`EventLoop` but runs a handler only for (state, event) pairs
    the process has not seen; the plain-meter SoC of the scalar
    reference keeps :class:`EventLoop`.
    """

    def __init__(self, soc: Soc, game: Game) -> None:
        self._loop = (
            MemoBaselineLoop(soc, game) if soc.columnar else EventLoop(soc, game)
        )

    def deliver(self, event) -> None:
        self._loop.deliver(event)

    @property
    def coverage(self) -> float:
        """Baseline short-circuits nothing."""
        return 0.0

    @property
    def hit_rate(self) -> float:
        """Baseline has no table to hit."""
        return 0.0


class BaselineScheme(Scheme):
    """Unoptimized execution: the Fig. 11 reference point."""

    name = "baseline"

    def make_runner(self, soc: Soc, game: Game) -> _BaselineRunner:
        return _BaselineRunner(soc, game)
