"""Tests for the OTA table serialization format."""

import json

import pytest

from repro.android.events import EventType
from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.core.serialization import (
    FORMAT_VERSION,
    dump_table,
    load_table,
    selection_from_dict,
    selection_to_dict,
    table_from_dict,
    table_to_dict,
)
from repro.errors import MemoizationError


@pytest.fixture(scope="module")
def small_table():
    """A table whose 1.3 kB OTA file is small enough to tear at every offset."""
    return CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
        "colorphun", seeds=[1], duration_s=3.0
    ).table


class TestSelectionRoundtrip:
    def test_roundtrip_preserves_fields(self, ab_package):
        payload = selection_to_dict(ab_package.selection)
        rebuilt = selection_from_dict(payload)
        for event_type, fields in ab_package.selection.by_event_type.items():
            assert [f.name for f in rebuilt.fields_for(event_type)] == [
                f.name for f in fields
            ]
            assert rebuilt.comparison_bytes(event_type) == \
                ab_package.selection.comparison_bytes(event_type)

    def test_payload_is_json_serialisable(self, ab_package):
        json.dumps(selection_to_dict(ab_package.selection))


class TestTableRoundtrip:
    def test_roundtrip_preserves_entries(self, ab_package):
        payload = table_to_dict(ab_package.table)
        rebuilt = table_from_dict(payload)
        assert rebuilt.entry_count == ab_package.table.entry_count
        assert rebuilt.total_bytes == ab_package.table.total_bytes
        for event_type in ab_package.table.event_types():
            original = ab_package.table._entries[event_type]
            for key, entry in original.items():
                loaded = rebuilt.lookup(event_type, key)
                assert loaded is not None
                assert loaded.writes == entry.writes
                assert loaded.avg_cycles == pytest.approx(entry.avg_cycles)

    def test_payload_is_json_serialisable(self, ab_package):
        json.dumps(table_to_dict(ab_package.table))

    def test_version_checked(self, ab_package):
        payload = table_to_dict(ab_package.table)
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(MemoizationError):
            table_from_dict(payload)

    def test_malformed_document_rejected(self):
        with pytest.raises(MemoizationError):
            table_from_dict({"format_version": FORMAT_VERSION, "oops": 1})

    def test_wrong_shape_documents_rejected(self, small_table):
        small_document = table_to_dict(small_table)
        type_name = next(iter(small_document["entries"]))
        row = small_document["entries"][type_name][0]
        wrong_shapes = [
            [],
            [small_document],
            "table",
            None,
            dict(small_document, entries=[]),
            dict(small_document, entries="entries"),
            dict(small_document, selection=[]),
            dict(small_document, selection="selection"),
            dict(small_document, selection={type_name: "fields"}),
            dict(small_document, entries={type_name: "rows"}),
            dict(small_document, entries={type_name: [dict(row, key=[7])]}),
            dict(small_document, entries={type_name: [dict(row, writes=[7])]}),
        ]
        for document in wrong_shapes:
            with pytest.raises(MemoizationError):
                table_from_dict(document)

    def test_torn_file_rejected_at_every_offset(self, small_table, tmp_path):
        path = tmp_path / "table.json"
        dump_table(small_table, str(path))
        whole = path.read_bytes()
        for offset in range(len(whole)):
            path.write_bytes(whole[:offset])
            with pytest.raises(MemoizationError):
                load_table(str(path))

    def test_file_roundtrip(self, ab_package, tmp_path):
        path = str(tmp_path / "table.json")
        nbytes = dump_table(ab_package.table, path)
        assert nbytes > 0
        loaded = load_table(path)
        assert loaded.entry_count == ab_package.table.entry_count

    def test_loaded_table_serves_lookups(self, ab_package, tmp_path):
        path = str(tmp_path / "table.json")
        dump_table(ab_package.table, path)
        loaded = load_table(path)
        event_type = EventType.FRAME_TICK
        key = next(iter(ab_package.table._entries[event_type]))
        assert loaded.lookup(event_type, key) is not None
