"""User populations: archetypes over the base behaviour models.

The paper stresses that "users generate vastly different events/inputs"
[44] and that SNIP must tune to each user. This module adds that
population axis: a :class:`UserArchetype` rescales a game's base
behaviour (gesture tempo, precision, session length preference), and
:class:`Population` deals archetypes to user ids deterministically — so
fleet-level experiments (federated profiling, continuous learning across
users) have heterogeneous but reproducible inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.android.events import Event
from repro.android.tracing import EventTracer, RecordedTrace
from repro.rng import ReproRng
from repro.users.behavior import behavior_for
from repro.users.tracegen import assemble_columnar, assemble_events


@dataclass(frozen=True)
class UserArchetype:
    """A playing style, expressed as scalings over base behaviour.

    Attributes
    ----------
    name:
        Archetype label.
    tempo:
        Gesture-rate multiplier (>1 = more events per second), applied
        by time-compressing the generated gesture timeline.
    session_scale:
        Preferred session length relative to the nominal duration.
    """

    name: str
    tempo: float
    session_scale: float

    def __post_init__(self) -> None:
        if self.tempo <= 0 or self.session_scale <= 0:
            raise ValueError(f"archetype {self.name!r} has non-positive scales")


#: The default archetype mix: casual thumbs, average players, grinders.
DEFAULT_ARCHETYPES: Tuple[UserArchetype, ...] = (
    UserArchetype(name="casual", tempo=0.7, session_scale=0.6),
    UserArchetype(name="regular", tempo=1.0, session_scale=1.0),
    UserArchetype(name="intense", tempo=1.5, session_scale=1.3),
)


class Population:
    """A deterministic assignment of archetypes to user ids."""

    def __init__(
        self,
        archetypes: Tuple[UserArchetype, ...] = DEFAULT_ARCHETYPES,
        weights: Tuple[float, ...] = (0.4, 0.45, 0.15),
        seed: int = 0,
    ) -> None:
        if len(archetypes) != len(weights):
            raise ValueError("archetypes and weights must align")
        if not archetypes:
            raise ValueError("population needs at least one archetype")
        self.archetypes = archetypes
        self.weights = weights
        self.seed = seed
        #: Deals already drawn: a fleet device looks its archetype up
        #: twice (``run_device``, then ``iter_columnar_sessions``).
        self._archetype_cache: Dict[int, UserArchetype] = {}
        #: Normalised weights, computed once with the exact expressions
        #: ReproRng.choice uses per call — the generator sees the same
        #: ``p`` array either way, so the deal is draw-identical.
        probs = np.asarray(list(weights), dtype=float)
        total = probs.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._probs = probs / total

    def archetype_of(self, user_id: int) -> UserArchetype:
        """The archetype a user id maps to (stable across calls)."""
        cached = self._archetype_cache.get(user_id)
        if cached is None:
            rng = ReproRng(self.seed).fork(f"user:{user_id}")
            index = int(rng.generator.choice(len(self.archetypes), p=self._probs))
            cached = self._archetype_cache[user_id] = self.archetypes[index]
        return cached

    def user_gestures(
        self, game_name: str, user_id: int, session: int, duration_s: float
    ) -> List[Event]:
        """One user's gestures for one session, styled by archetype.

        Tempo is applied by generating a longer/shorter raw timeline and
        compressing it into the requested duration, which scales event
        rates without distorting the habit structure. Part of the scalar
        reference chain behind :meth:`user_trace`.
        """
        archetype = self.archetype_of(user_id)
        rng = ReproRng(self.seed).fork(f"{game_name}:{user_id}:{session}")
        raw_duration = duration_s * archetype.tempo
        events = behavior_for(game_name).gestures(rng, raw_duration)
        compressed = []
        for event in events:
            compressed.append(
                Event(
                    event.event_type,
                    event.values,
                    sequence=event.sequence,
                    timestamp=event.timestamp / archetype.tempo,
                )
            )
        return compressed

    def user_trace(
        self, game_name: str, user_id: int, session: int, duration_s: float
    ) -> RecordedTrace:
        """A full recorded session for one user (gestures + ticks).

        The effective session length follows the archetype's preference.
        The scalar reference for :meth:`iter_columnar_sessions`, built
        event by event through :class:`EventTracer`.
        """
        archetype = self.archetype_of(user_id)
        effective = duration_s * archetype.session_scale
        gestures = self.user_gestures(game_name, user_id, session, effective)
        tracer = EventTracer(game_name, seed=user_id * 10_000 + session)
        for event in assemble_events(game_name, gestures, effective):
            tracer.record(event)
        return tracer.trace

    def iter_user_traces(
        self, game_name: str, user_id: int, sessions: int, duration_s: float
    ) -> Iterator[RecordedTrace]:
        """Stream one user's recorded sessions, one trace at a time.

        :func:`~repro.fleet.work.run_device_reference` replays these;
        each trace is a pure function of ``(seed, game, user,
        session)``, equal to :meth:`user_trace` of that session.
        """
        for session in range(sessions):
            yield self.user_trace(game_name, user_id, session, duration_s)

    def iter_columnar_sessions(
        self, game_name: str, user_id: int, sessions: int, duration_s: float
    ) -> Iterator[RecordedTrace]:
        """Stream one user's recorded sessions, one trace at a time.

        The fleet's device loop and ``repro-snip federate`` consume
        this: each yielded trace is replayed and dropped before the next
        is generated, so peak memory per device is one session's events
        regardless of ``sessions``. Events are built once by
        :func:`~repro.users.tracegen.assemble_columnar` and equal those
        of :meth:`user_trace` for the same session. Tempo compression
        happens on raw ``(timestamp / tempo, event)`` pairs, reproducing
        the scalar path's float expressions exactly.
        """
        archetype = self.archetype_of(user_id)
        effective = duration_s * archetype.session_scale
        tempo = archetype.tempo
        behavior = behavior_for(game_name)
        raw_duration = effective * tempo
        for session in range(sessions):
            rng = ReproRng(self.seed).fork(f"{game_name}:{user_id}:{session}")
            raw = behavior.gestures(rng, raw_duration)
            yield assemble_columnar(
                game_name,
                [(event.timestamp / tempo, event) for event in raw],
                effective,
                seed=user_id * 10_000 + session,
            )

    def census(self, user_count: int) -> Dict[str, int]:
        """How many of the first N users land in each archetype."""
        counts: Dict[str, int] = {a.name: 0 for a in self.archetypes}
        for user_id in range(user_count):
            counts[self.archetype_of(user_id).name] += 1
        return counts
