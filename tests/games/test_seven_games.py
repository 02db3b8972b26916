"""Behavioural tests for each of the seven game workloads."""

import pytest

from repro.android.events import (
    make_camera_frame,
    make_frame_tick,
    make_gyro,
    make_multi_touch,
    make_swipe,
    make_touch,
)
from repro.games import ab_evolution, candy_crush, chase_whisply
from repro.games import greenwall, memory_game, race_kings
from repro.games.registry import (
    _TEMPLATE_CACHE,
    GAME_CONTENT_SEED,
    GAME_NAMES,
    GAMES,
    create_game,
    fresh_game,
    game_info,
)
from repro.errors import UnknownGameError


class TestRegistry:
    def test_seven_games(self):
        assert len(GAME_NAMES) == 7

    def test_complexity_order(self):
        ranks = [GAMES[name].complexity_rank for name in GAME_NAMES]
        assert ranks == sorted(ranks)
        assert GAME_NAMES[0] == "colorphun"
        assert GAME_NAMES[-1] == "race_kings"

    def test_create_game_instances_match_names(self):
        for name in GAME_NAMES:
            assert create_game(name).name == name

    def test_unknown_game_rejected(self):
        with pytest.raises(UnknownGameError):
            game_info("tetris")

    def test_every_game_is_template_cloned(self):
        """``fresh_game`` clones every catalogue game from a template.

        A game whose constructor sets an attribute outside the base set
        would fall back to ``create_game`` for every session: the same
        bytes, but slower sessions, so only this test would notice.
        """
        for name in GAME_NAMES:
            game = fresh_game(name, seed=GAME_CONTENT_SEED)
            clone = fresh_game(name, seed=GAME_CONTENT_SEED)
            assert _TEMPLATE_CACHE[(name, GAME_CONTENT_SEED)] is not None, name
            assert set(clone.__dict__) == set(game.__dict__), name
            assert clone.state.snapshot() == game.state.snapshot(), name

    def test_categories_match_paper(self):
        assert game_info("colorphun").category == "simple touch"
        assert game_info("candy_crush").category == "swipe"
        assert game_info("race_kings").category == "multi in.event"


class TestColorphun:
    def test_correct_tap_scores(self):
        game = create_game("colorphun")
        top = game.state.peek("top_color")
        bottom = game.state.peek("bottom_color")
        y = 400 if top > bottom else 2000
        trace = game.process(make_touch(700, y))
        assert game.state.peek("score") == 1
        assert not trace.useless

    def test_wrong_tap_costs_life(self):
        game = create_game("colorphun")
        top = game.state.peek("top_color")
        y = 2000 if top > game.state.peek("bottom_color") else 400
        game.process(make_touch(700, y))
        assert game.state.peek("lives") == 2

    def test_game_over_resets(self):
        game = create_game("colorphun")
        top = game.state.peek("top_color")
        wrong_y = 2000 if top > game.state.peek("bottom_color") else 400
        for _ in range(3):
            game.state.write("cooldown", 0)
            game.process(make_touch(700, wrong_y))
        assert game.state.peek("lives") == 3
        assert game.state.peek("score") == 0

    def test_margin_tap_useless(self):
        game = create_game("colorphun")
        trace = game.process(make_touch(10, 400))
        assert trace.useless

    def test_touch_up_useless(self):
        game = create_game("colorphun")
        trace = game.process(make_touch(700, 400, action=1))
        assert trace.useless

    def test_cooldown_blocks_taps(self):
        game = create_game("colorphun")
        game.state.write("cooldown", 3)
        trace = game.process(make_touch(700, 400))
        assert trace.useless

    def test_static_ticks_become_useless(self):
        game = create_game("colorphun")
        game.process(make_frame_tick())
        second = game.process(make_frame_tick())
        assert second.useless


class TestMemoryGame:
    def test_first_flip_reveals(self):
        game = create_game("memory_game")
        trace = game.process(make_touch(120, 180))
        assert game.state.peek("first_pick") == 0
        assert not trace.useless

    def test_match_marks_cards(self):
        game = create_game("memory_game")
        kinds = [memory_game.card_kind(game.state.peek(f"card_{i}")) for i in range(36)]
        first = 0
        partner = next(i for i in range(1, 36) if kinds[i] == kinds[first])
        cell_w, cell_h = memory_game.CELL_W, memory_game.CELL_H
        game.process(make_touch(first % 6 * cell_w + 50, first // 6 * cell_h + 50))
        game.process(make_touch(partner % 6 * cell_w + 50, partner // 6 * cell_h + 50))
        for cell in (first, partner):
            face = memory_game.card_face(game.state.peek(f"card_{cell}"))
            assert face == memory_game.FACE_MATCHED
        assert game.state.peek("score") == 10

    def test_mismatch_schedules_hide(self):
        game = create_game("memory_game")
        kinds = [memory_game.card_kind(game.state.peek(f"card_{i}")) for i in range(36)]
        first = 0
        other = next(i for i in range(1, 36) if kinds[i] != kinds[first])
        cell_w, cell_h = memory_game.CELL_W, memory_game.CELL_H
        game.process(make_touch(50, 50))
        game.process(make_touch(other % 6 * cell_w + 50, other // 6 * cell_h + 50))
        assert game.state.peek("hide_timer") == memory_game.HIDE_TICKS

    def test_hide_timer_flips_back(self):
        game = create_game("memory_game")
        game.state.write("hide_timer", 1)
        game.state.write("hide_a", 0)
        card = game.state.peek("card_0")
        game.state.write("card_0", memory_game.card_value(
            memory_game.card_kind(card), memory_game.FACE_UP))
        game.process(make_frame_tick())
        assert memory_game.card_face(game.state.peek("card_0")) == memory_game.FACE_DOWN

    def test_tap_on_matched_card_useless(self):
        game = create_game("memory_game")
        card = game.state.peek("card_0")
        game.state.write("card_0", memory_game.card_value(
            memory_game.card_kind(card), memory_game.FACE_MATCHED))
        trace = game.process(make_touch(50, 50))
        assert trace.useless

    def test_deals_differ_per_level(self):
        assert memory_game.deal_kinds(1) != memory_game.deal_kinds(2)

    def test_deal_has_18_pairs(self):
        kinds = memory_game.deal_kinds(1)
        assert sorted(kinds) == sorted(list(range(18)) * 2)


class TestCandyCrush:
    def test_deal_board_has_no_matches(self):
        board = candy_crush.deal_board(0)
        assert candy_crush.find_matches(board) == frozenset()

    def test_find_matches_detects_rows(self):
        board = list(candy_crush.deal_board(0))
        board[0] = board[1] = board[2] = 0
        hits = candy_crush.find_matches(tuple(board))
        assert {0, 1, 2} <= hits

    def test_collapse_refills_fully(self):
        board = candy_crush.deal_board(0)
        removed = frozenset({0, 1, 2})
        refilled = candy_crush.collapse(board, removed, fill_seed=9)
        assert len(refilled) == 64
        assert all(0 <= candy < candy_crush.COLORS for candy in refilled)

    def test_slow_swipe_ignored(self):
        game = create_game("candy_crush")
        trace = game.process(make_swipe(100, 100, 300, 150, 400.0, 2, 100))
        assert trace.useless

    def test_invalid_swap_wobbles_without_board_change(self):
        game = create_game("candy_crush")
        board = game.state.peek("board")
        # Find an invalid horizontal swap.
        for cell in range(64):
            row, col = divmod(cell, 8)
            if col >= 7:
                continue
            swapped = list(board)
            swapped[cell], swapped[cell + 1] = swapped[cell + 1], swapped[cell]
            if not candy_crush.find_matches(tuple(swapped)):
                x = col * candy_crush.CELL_PX + 20
                y = row * candy_crush.CELL_PX + 20
                game.process(make_swipe(x, y, x + 100, y, 1600.0, 2, 100))
                assert game.state.peek("board") == board
                return
        pytest.skip("board had no invalid swap")

    def test_cascade_lock_blocks_swipes(self):
        game = create_game("candy_crush")
        game.state.write("cascade", 3)
        trace = game.process(make_swipe(100, 100, 300, 150, 1600.0, 2, 100))
        assert trace.useless

    def test_shimmer_cycles_with_slot(self):
        game = create_game("candy_crush")
        first = game.process(make_frame_tick(slot=0))
        game.process(make_frame_tick(slot=1))
        repeat = game.process(make_frame_tick(slot=0))
        assert repeat.output_signature() == first.output_signature()


class TestGreenwall:
    def test_fruit_positions_deterministic(self):
        assert greenwall.fruit_position(3, 1, 40) == greenwall.fruit_position(3, 1, 40)

    def test_tick_advances_phase(self):
        game = create_game("greenwall")
        game.process(make_frame_tick())
        assert game.state.peek("phase") == 1

    def test_wave_rolls_over(self):
        game = create_game("greenwall")
        game.state.write("phase", greenwall.WAVE_TICKS)
        game.process(make_frame_tick())
        assert game.state.peek("phase") == 0
        assert game.state.peek("wave_index") == 1
        assert game.state.peek("alive") == (1 << greenwall.FRUITS_PER_WAVE) - 1

    def test_slice_through_fruit_scores(self):
        game = create_game("greenwall")
        game.state.write("phase", 40)
        fx, fy = greenwall.fruit_position(game.state.peek("pattern"), 0, 40)
        fy = max(0, min(2559, int(fy)))
        fx = max(0, min(1439, int(fx)))
        trace = game.process(
            make_swipe(max(0, fx - 200), fy, min(1439, fx + 200), fy, 2000.0, 2, 80)
        )
        assert game.state.peek("score") > 0
        assert not trace.useless

    def test_whiff_is_useless(self):
        game = create_game("greenwall")
        # Slice across the very top where no fruit ever flies early on.
        trace = game.process(make_swipe(100, 0, 1300, 0, 2000.0, 2, 80))
        assert trace.useless


class TestAbEvolution:
    def test_drag_stretches_catapult(self):
        game = create_game("ab_evolution")
        game.process(make_multi_touch(500, 1900, 600, 2000, 0, 10.0))
        assert game.state.peek("stretch") == 10

    def test_drag_at_max_stretch_useless(self):
        game = create_game("ab_evolution")
        game.state.write("stretch", ab_evolution.MAX_STRETCH)
        first = game.process(make_multi_touch(500, 1900, 600, 2000, 0, 10.0))
        repeat = game.process(make_multi_touch(500, 1900, 600, 2000, 0, 12.0))
        assert repeat.useless

    def test_drag_during_flight_useless(self):
        game = create_game("ab_evolution")
        game.state.write("flight", 10)
        trace = game.process(make_multi_touch(500, 1900, 600, 2000, 0, 10.0))
        assert trace.useless

    def test_fling_launches_bird(self):
        game = create_game("ab_evolution")
        game.state.write("stretch", 80)
        game.process(make_swipe(500, 1900, 500, 1200, 2000.0, 0, 100))
        assert game.state.peek("flight") == ab_evolution.FLIGHT_TICKS
        assert game.state.peek("stretch") == 0
        assert game.state.peek("birds_left") == ab_evolution.BIRDS_PER_LEVEL - 1

    def test_weak_fling_does_not_launch(self):
        game = create_game("ab_evolution")
        game.state.write("stretch", 5)
        game.process(make_swipe(500, 1900, 500, 1200, 2000.0, 0, 100))
        assert game.state.peek("flight") == 0

    def test_flight_resolves_to_impact(self):
        game = create_game("ab_evolution")
        game.state.write("stretch", 80)
        game.process(make_swipe(500, 1900, 500, 1200, 2000.0, 0, 100))
        targets_before = game.state.peek("targets")
        for _ in range(ab_evolution.FLIGHT_TICKS):
            game.process(make_frame_tick())
        assert game.state.peek("flight") == 0
        assert game.state.peek("targets") != targets_before

    def test_layout_grows_with_level(self):
        assert ab_evolution.layout_bytes(1) < ab_evolution.layout_bytes(5)
        assert ab_evolution.layout_bytes(200) == 119_000

    def test_menu_tap_toggles(self):
        game = create_game("ab_evolution")
        game.process(make_touch(50, 50))
        assert game.state.peek("menu_open") == 1


class TestChaseWhisply:
    def _frame(self, complexity=100, motion=0.0, rois=None, **kwargs):
        return make_camera_frame(
            frame_id=1,
            scene_complexity=complexity,
            feature_count=complexity // 2,
            roi_values=rois or [5] * 25,
            motion_score=motion,
            **kwargs,
        )

    def test_camera_updates_surface_map(self):
        game = create_game("chase_whisply")
        game.process(self._frame(complexity=200))
        expected = chase_whisply.surface_map_bytes(200 // 8)
        assert game.state.size_of("surface_map") == expected

    def test_map_digest_mirrors_map(self):
        game = create_game("chase_whisply")
        game.process(self._frame())
        assert game.state.peek("map_digest") == game.state.peek("surface_map")

    def test_stable_scene_makes_useless_frames(self):
        game = create_game("chase_whisply")
        game.process(self._frame())
        repeat = game.process(self._frame())
        assert repeat.useless

    def test_gyro_wobble_within_bucket_useless(self):
        game = create_game("chase_whisply")
        game.process(make_gyro(30.0, 180.0, 0.0, 1.0))
        repeat = game.process(make_gyro(31.0, 181.0, 0.0, 1.0))
        assert repeat.useless

    def test_shot_at_visible_ghost_scores(self):
        game = create_game("chase_whisply")
        game.state.write("ghost_visible", 1)
        game.process(make_touch(700, 1300))
        assert game.state.peek("score") == 100
        assert game.state.peek("ammo") == chase_whisply.MAX_AMMO

    def test_missed_shot_spends_ammo(self):
        game = create_game("chase_whisply")
        game.process(make_touch(700, 1300))
        assert game.state.peek("ammo") == chase_whisply.MAX_AMMO - 1

    def test_dry_fire_useless_on_repeat(self):
        game = create_game("chase_whisply")
        game.state.write("ammo", 0)
        game.process(make_touch(700, 1300))
        repeat = game.process(make_touch(700, 1300))
        assert repeat.useless

    def test_surface_map_size_spread_matches_paper(self):
        # Fig. 7c: ~600 B empty room up to ~119 kB cluttered.
        assert chase_whisply.surface_map_bytes(0) == 600
        assert chase_whisply.surface_map_bytes(31) > 100_000


class TestRaceKings:
    def test_engine_advances_track(self):
        game = create_game("race_kings")
        game.advance_engine(make_frame_tick())
        assert game.state.peek("track_pos") == 1
        assert game.state.peek("scroll") == 1

    def test_lap_awards_bonus(self):
        game = create_game("race_kings")
        game.state.write("track_pos", race_kings.TRACK_SLOTS - 1)
        game.advance_engine(make_frame_tick())
        assert game.state.peek("lap") == 1
        assert game.state.peek("score") > 0
        assert game.state.peek("nitro_ready") == 1

    def test_engine_ignores_gestures(self):
        game = create_game("race_kings")
        game.advance_engine(make_touch(1, 2))
        assert game.state.peek("track_pos") == 0

    def test_tick_converges_to_cruise_speed(self):
        game = create_game("race_kings")
        for _ in range(10):
            game.advance_engine(make_frame_tick())
            game.process(make_frame_tick())
        assert game.state.peek("speed") == race_kings.SPEED_BUCKETS - 2

    def test_nitro_tap_fires_once(self):
        game = create_game("race_kings")
        game.process(make_touch(1300, 2400))
        assert game.state.peek("nitro_ticks") == race_kings.NITRO_TICKS
        repeat = game.process(make_touch(1300, 2400))
        assert repeat.useless  # recharging

    def test_nitro_timer_is_engine_driven(self):
        game = create_game("race_kings")
        game.process(make_touch(1300, 2400))
        game.advance_engine(make_frame_tick())
        assert game.state.peek("nitro_ticks") == race_kings.NITRO_TICKS - 1

    def test_tilt_deadzone(self):
        game = create_game("race_kings")
        game.process(make_gyro(0.0, 90.0, 4.0, 1.0))
        assert game.state.peek("lane") == 1
        game.process(make_gyro(0.0, 90.0, 20.0, 1.0))
        assert game.state.peek("lane") == 2

    def test_segment_of(self):
        assert race_kings.segment_of(0) == 0
        assert race_kings.segment_of(race_kings.TRACK_SLOTS - 1) == 47
