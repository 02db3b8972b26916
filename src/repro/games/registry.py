"""The seven-game workload catalogue (paper Sec. VI-A).

Games are listed in the paper's complexity order — the x-axis ordering
of Figs. 2 and 3, from occasional-touch Colorphun up to 3D Race Kings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Type

from repro.errors import UnknownGameError
from repro.games.ab_evolution import AbEvolution
from repro.games.base import ExternSource, Game
from repro.games.candy_crush import CandyCrush
from repro.games.chase_whisply import ChaseWhisply
from repro.games.colorphun import Colorphun
from repro.games.greenwall import Greenwall
from repro.games.memory_game import MemoryGame
from repro.games.race_kings import RaceKings
from repro.games.state import StateStore


@dataclass(frozen=True)
class GameInfo:
    """Catalogue entry: class plus characterization metadata."""

    name: str
    cls: Type[Game]
    category: str
    display_name: str
    complexity_rank: int  # Fig. 2/3 x-axis position (0 = lightest)


_CATALOGUE: Tuple[GameInfo, ...] = (
    GameInfo("colorphun", Colorphun, "simple touch", "Colorphun", 0),
    GameInfo("memory_game", MemoryGame, "simple touch", "Memory Game", 1),
    GameInfo("candy_crush", CandyCrush, "swipe", "Candy Crush", 2),
    GameInfo("greenwall", Greenwall, "swipe", "Greenwall", 3),
    GameInfo("ab_evolution", AbEvolution, "multi in.event", "AB Evolution", 4),
    GameInfo("chase_whisply", ChaseWhisply, "multi in.event", "Chase Whisply", 5),
    GameInfo("race_kings", RaceKings, "multi in.event", "Race Kings", 6),
)

GAMES: Dict[str, GameInfo] = {info.name: info for info in _CATALOGUE}

#: Game *content* (level layouts, card decks, asset bundles) is fixed by
#: the shipped app, identical for every user and session; only user
#: behaviour varies. Sessions therefore instantiate games with this
#: fixed seed, while trace/user seeds steer the behaviour models.
GAME_CONTENT_SEED = 0

#: Names in complexity order (the canonical iteration order).
GAME_NAMES: Tuple[str, ...] = tuple(info.name for info in _CATALOGUE)


def game_info(name: str) -> GameInfo:
    """Catalogue entry for ``name``."""
    try:
        return GAMES[name]
    except KeyError:
        raise UnknownGameError(
            f"unknown game {name!r}; choose from {', '.join(GAME_NAMES)}"
        ) from None


def create_game(name: str, seed: int = 0) -> Game:
    """Instantiate a fresh game by catalogue name."""
    return game_info(name).cls(seed=seed)


#: Attributes :meth:`Game.__init__` installs; a game whose constructor
#: adds anything else cannot be template-cloned and falls back to
#: :func:`create_game` (``None`` marks that case in the cache).
_BASE_GAME_ATTRS = frozenset(("seed", "state", "screen", "extern_source"))

#: ``(name, seed) -> (cls, initial state cells)`` — or ``None`` when the
#: game is not safely cloneable. Populated lazily; content is identical
#: for every instance because ``build_state`` is pure in ``seed``.
_TEMPLATE_CACHE: Dict[
    Tuple[str, int],
    Optional[Tuple[Type[Game], Tuple[Tuple[str, Any, int], ...]]],
] = {}


def fresh_game(name: str, seed: int = 0) -> Game:
    """Like :func:`create_game`, but clones a cached initial state.

    ``build_state`` regenerates the same content (dealt boards, shuffled
    decks) on every call; the per-device session loop creates games by
    the hundred thousand, so this caches one template's initial state
    cells per ``(name, seed)`` and rebuilds instances from them. Cells
    hold only immutable values (ints, strings, tuples — the state-store
    contract every game follows), so sharing them across clones is safe.
    Games whose constructors install attributes beyond the base
    :class:`~repro.games.base.Game` set are detected once and served by
    :func:`create_game` instead.
    """
    key = (name, seed)
    cached = _TEMPLATE_CACHE.get(key)
    if cached is None:
        if key in _TEMPLATE_CACHE:  # known non-cloneable
            return create_game(name, seed)
        template = create_game(name, seed)
        if set(template.__dict__) != _BASE_GAME_ATTRS:
            _TEMPLATE_CACHE[key] = None
            return template
        cells = tuple(
            (field.name, field.value, field.nbytes) for field in template.state
        )
        _TEMPLATE_CACHE[key] = (type(template), cells)
        return template
    cls, cells = cached
    game = cls.__new__(cls)
    game.seed = seed
    game.state = StateStore.from_cells(cells)
    game.screen = {}
    game.extern_source = ExternSource(seed=seed)
    return game
