"""Tests for the game-state store."""

import pytest

from repro.errors import StateError
from repro.games.state import StateStore


@pytest.fixture()
def store():
    built = StateStore()
    built.declare("score", 0, 4)
    built.declare("layout", "blob", 1024)
    return built


class TestDeclaration:
    def test_duplicate_rejected(self, store):
        with pytest.raises(StateError):
            store.declare("score", 0, 4)

    def test_nonpositive_size_rejected(self):
        store = StateStore()
        with pytest.raises(StateError):
            store.declare("bad", 0, 0)

    def test_has(self, store):
        assert store.has("score")
        assert not store.has("missing")


class TestAccess:
    def test_read_write_roundtrip(self, store):
        store.write("score", 10)
        assert store.peek("score") == 10

    def test_unknown_read_rejected(self, store):
        with pytest.raises(StateError):
            store.peek("missing")

    def test_unknown_write_rejected(self, store):
        with pytest.raises(StateError):
            store.write("missing", 1)

    def test_resize_on_write(self, store):
        store.write("layout", "bigger", nbytes=4096)
        assert store.size_of("layout") == 4096

    def test_invalid_resize_rejected(self, store):
        with pytest.raises(StateError):
            store.write("layout", "x", nbytes=0)

    def test_peek_matches_read(self, store):
        store.write("score", 7)
        assert store.peek("score") == 7


class TestBulk:
    def test_snapshot_contents(self, store):
        snapshot = store.snapshot()
        assert snapshot["score"] == (0, 4)
        assert snapshot["layout"] == ("blob", 1024)

    def test_total_bytes(self, store):
        assert store.total_bytes() == 1028
        store.write("layout", "x", nbytes=2048)
        assert store.total_bytes() == 2052

    def test_field_names_order(self, store):
        assert store.field_names() == ("score", "layout")

    def test_len_and_iter(self, store):
        assert len(store) == 2
        assert {field.name for field in store} == {"score", "layout"}
