"""Full play-cycle tests: drive each game through a complete loop.

These go beyond single-handler behaviour: they script entire gameplay
arcs (stretch -> fling -> flight -> impact -> level-up, match a whole
board, complete a lap, empty a clip) and check the cross-event
invariants the memoization machinery silently depends on.
"""

from repro.android.events import (
    make_camera_frame,
    make_frame_tick,
    make_gyro,
    make_multi_touch,
    make_swipe,
    make_touch,
)
from repro.games import ab_evolution, candy_crush, chase_whisply
from repro.games import memory_game, race_kings
from repro.games.registry import create_game


def tick(game, n=1, slot0=0):
    """Deliver n engine-advanced frame ticks."""
    last = None
    for index in range(n):
        event = make_frame_tick(slot=(slot0 + index) % 4)
        game.advance_engine(event)
        last = game.process(event)
    return last


def extern_reads(trace):
    """The names of the external assets one handler run fetched."""
    return [read.name for read in trace.reads if read.name.startswith("extern:")]


class TestAbEvolutionFullShot:
    def _launch(self, game, stretch=80):
        game.state.write("stretch", stretch)
        game.process(make_swipe(500, 1900, 500, 1200, 2000.0, 0, 100))

    def test_full_shot_cycle(self):
        game = create_game("ab_evolution")
        self._launch(game)
        # Bird flies for exactly FLIGHT_TICKS frames.
        for remaining in range(ab_evolution.FLIGHT_TICKS - 1, -1, -1):
            tick(game)
            assert game.state.peek("flight") == remaining
        # Impact resolved: some targets destroyed, score credited.
        assert game.state.peek("targets") != (1 << ab_evolution.TARGETS) - 1
        assert game.state.peek("score") > 0

    def test_level_up_after_all_birds(self):
        game = create_game("ab_evolution")
        level_up = None
        for _ in range(ab_evolution.BIRDS_PER_LEVEL):
            self._launch(game)
            for _ in range(ab_evolution.FLIGHT_TICKS):
                trace = tick(game)
                if level_up is None and game.state.peek("level") > 1:
                    level_up = trace
            if game.state.peek("level") > 1:
                break
        assert game.state.peek("level") >= 2
        # Level-up refreshed the catapult and the targets.
        assert game.state.peek("birds_left") == ab_evolution.BIRDS_PER_LEVEL
        assert game.state.peek("targets") == (1 << ab_evolution.TARGETS) - 1
        # The new layout is bigger (richer scene graph).
        assert game.state.size_of("level_layout") == ab_evolution.layout_bytes(
            game.state.peek("level")
        )
        # The level-up event fetched the next level's bundle.
        assert extern_reads(level_up) == ["extern:level_bundle_2"]

    def test_drags_resume_after_flight(self):
        game = create_game("ab_evolution")
        self._launch(game)
        for _ in range(ab_evolution.FLIGHT_TICKS):
            tick(game)
        trace = game.process(make_multi_touch(500, 1900, 600, 2000, 0, 10.0))
        assert game.state.peek("stretch") > 0
        assert not trace.useless


class TestCandyCrushLevelCycle:
    def _valid_swipe(self, game):
        """Find and play one valid move; returns its trace, or None."""
        board = game.state.peek("board")
        for cell in range(64):
            row, col = divmod(cell, 8)
            if col >= 7:
                continue
            swapped = list(board)
            swapped[cell], swapped[cell + 1] = swapped[cell + 1], swapped[cell]
            if candy_crush.find_matches(tuple(swapped)):
                # Aim at the cell centre so the 64-px capture grid cannot
                # shift the tap into the neighbouring cell.
                x = col * candy_crush.CELL_PX + 90
                y = row * candy_crush.CELL_PX + 90
                return game.process(make_swipe(x, y, x + 180, y, 1600.0, 2, 100))
        return None

    def test_valid_move_starts_cascade_and_scores(self):
        game = create_game("candy_crush")
        assert self._valid_swipe(game) is not None
        assert game.state.peek("score") > 0
        assert game.state.peek("cascade") == candy_crush.CASCADE_TICKS
        assert game.state.peek("moves_left") == candy_crush.MOVES_PER_LEVEL - 1

    def test_cascade_animation_drains(self):
        game = create_game("candy_crush")
        assert self._valid_swipe(game) is not None
        tick(game, n=candy_crush.CASCADE_TICKS)
        assert game.state.peek("cascade") == 0

    def test_level_up_fetches_assets(self):
        game = create_game("candy_crush")
        game.state.write("moves_left", 1)
        played = None
        for _ in range(40):  # boards occasionally lack an easy move
            played = self._valid_swipe(game)
            if played is not None:
                break
            tick(game)
        assert played is not None
        assert game.state.peek("level") == 2
        assert game.state.peek("moves_left") == candy_crush.MOVES_PER_LEVEL
        assert extern_reads(played) == ["extern:level_assets_2"]


class TestMemoryGameLevelCycle:
    def test_clearing_the_board_deals_next_level(self):
        game = create_game("memory_game")
        kinds = [
            memory_game.card_kind(game.state.peek(f"card_{i}")) for i in range(36)
        ]
        pairs = {}
        for cell, kind in enumerate(kinds):
            pairs.setdefault(kind, []).append(cell)
        cw, ch = memory_game.CELL_W, memory_game.CELL_H
        for kind, (first, second) in pairs.items():
            game.process(make_touch(first % 6 * cw + 40, first // 6 * ch + 40))
            game.process(make_touch(second % 6 * cw + 40, second // 6 * ch + 40))
        assert game.state.peek("level") == 2
        # Fresh deal: everything face-down again.
        faces = {
            memory_game.card_face(game.state.peek(f"card_{i}")) for i in range(36)
        }
        assert faces == {memory_game.FACE_DOWN}
        assert game.state.peek("score") == 18 * 10

    def test_mismatch_lock_expires_via_ticks(self):
        game = create_game("memory_game")
        kinds = [
            memory_game.card_kind(game.state.peek(f"card_{i}")) for i in range(36)
        ]
        other = next(i for i in range(1, 36) if kinds[i] != kinds[0])
        cw, ch = memory_game.CELL_W, memory_game.CELL_H
        game.process(make_touch(40, 40))
        game.process(make_touch(other % 6 * cw + 40, other // 6 * ch + 40))
        tick(game, n=memory_game.HIDE_TICKS)
        assert game.state.peek("hide_timer") == 0
        # Both cards flipped back; board playable again.
        trace = game.process(make_touch(40, 40))
        assert not trace.useless


class TestRaceKingsLapCycle:
    def test_full_lap(self):
        game = create_game("race_kings")
        for _ in range(race_kings.TRACK_SLOTS):
            tick(game)
        assert game.state.peek("lap") == 1
        assert game.state.peek("score") > 0
        assert game.state.peek("track_pos") == 0

    def test_nitro_cycle(self):
        game = create_game("race_kings")
        game.process(make_touch(1300, 2400))  # fire nitro
        assert game.state.peek("nitro_active") == 1
        for _ in range(race_kings.NITRO_TICKS):
            tick(game)
        assert game.state.peek("nitro_active") == 0
        assert game.state.peek("nitro_ticks") == 0
        # Recharges at the lap line.
        game.state.write("track_pos", race_kings.TRACK_SLOTS - 1)
        tick(game)
        assert game.state.peek("nitro_ready") == 1

    def test_speed_boost_under_nitro(self):
        game = create_game("race_kings")
        tick(game, n=10)  # reach cruise speed
        cruise = game.state.peek("speed")
        game.process(make_touch(1300, 2400))
        tick(game, n=5)
        assert game.state.peek("speed") > cruise


class TestChaseWhisplyHuntCycle:
    def test_aim_then_shoot_cycle(self):
        game = create_game("chase_whisply")
        ghost_x = game.state.peek("ghost_x")
        ghost_y = game.state.peek("ghost_y")
        # Tilt the phone until the reticle lands on the ghost.
        game.process(
            make_gyro(ghost_x * chase_whisply.AIM_STEP + 2.0,
                      ghost_y * chase_whisply.AIM_STEP + 2.0, 0.0, 1.0)
        )
        assert game.state.peek("ghost_visible") == 1
        game.process(make_touch(700, 1300))
        assert game.state.peek("score") == 100
        # The ghost respawned somewhere else and hid.
        assert game.state.peek("ghost_visible") == 0

    def test_clip_empties_then_reload_on_capture(self):
        game = create_game("chase_whisply")
        for expected in range(chase_whisply.MAX_AMMO - 1, -1, -1):
            game.process(make_touch(700, 1300))
            assert game.state.peek("ammo") == expected
        # Dry fire forever after.
        trace = game.process(make_touch(700, 1300))
        assert game.state.peek("ammo") == 0

    def test_scene_change_resizes_surface_map(self):
        game = create_game("chase_whisply")
        sizes = set()
        for complexity in (8, 120, 248):
            game.process(
                make_camera_frame(
                    frame_id=1, scene_complexity=complexity,
                    feature_count=complexity // 2, roi_values=[5] * 25,
                    motion_score=5.0,
                )
            )
            sizes.add(game.state.size_of("surface_map"))
        assert len(sizes) == 3  # clutter drives the map size (Fig. 7c)


class TestGreenwallWaveCycle:
    def test_combo_builds_and_resets(self):
        from repro.games.greenwall import WAVE_TICKS, fruit_position

        game = create_game("greenwall")
        # Slice through a fruit to start a combo.
        game.state.write("phase", 40)
        fx, fy = fruit_position(game.state.peek("pattern"), 0, 40)
        fx = max(0, min(1439, int(fx)))
        fy = max(0, min(2559, int(fy)))
        game.process(make_swipe(max(0, fx - 200), fy, min(1439, fx + 200), fy,
                                2000.0, 2, 80))
        assert game.state.peek("combo") > 0
        # Riding out the wave resets the combo with the next wave.
        game.state.write("phase", WAVE_TICKS)
        tick(game)
        assert game.state.peek("combo") == 0
        assert game.state.peek("wave_index") == 1

    def test_wave_patterns_cycle_through_catalogue(self):
        from repro.games.greenwall import PATTERNS, WAVE_TICKS

        game = create_game("greenwall")
        seen = set()
        for _ in range(16):
            seen.add(game.state.peek("pattern"))
            game.state.write("phase", WAVE_TICKS)
            tick(game)
        assert len(seen) > 3  # several of the shipped patterns appear
        assert all(0 <= pattern < PATTERNS for pattern in seen)


class TestColorphunScoreArc:
    def _correct_tap(self, game):
        top = game.state.peek("top_color")
        bottom = game.state.peek("bottom_color")
        y = 400 if top > bottom else 2000
        game.state.write("cooldown", 0)
        return game.process(make_touch(700, y))

    def test_score_run_with_cooldowns(self):
        from repro.games.colorphun import COOLDOWN_TICKS

        game = create_game("colorphun")
        for expected in range(1, 6):
            self._correct_tap(game)
            assert game.state.peek("score") == expected
            assert game.state.peek("cooldown") == COOLDOWN_TICKS
            tick(game, n=COOLDOWN_TICKS)
            assert game.state.peek("cooldown") == 0

    def test_colors_reroll_every_round(self):
        game = create_game("colorphun")
        seen = set()
        for _ in range(8):
            self._correct_tap(game)
            seen.add((game.state.peek("top_color"),
                      game.state.peek("bottom_color")))
        assert len(seen) > 4
