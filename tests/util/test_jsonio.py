"""Tests for the canonical JSON writer and the shared emit helper."""

from __future__ import annotations

import io
import json
import os

from repro.util.jsonio import canonical_dumps, emit_json, write_atomic


class TestCanonicalDumps:
    def test_sorted_indented_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": [1.5, "x"]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [1.5, "x"]}

    def test_idempotent(self):
        payload = {"z": [3, 2, 1], "a": {"nested": True}}
        assert canonical_dumps(json.loads(canonical_dumps(payload))) == (
            canonical_dumps(payload)
        )


class TestEmitJson:
    def test_stream_and_file_bytes_identical(self, tmp_path):
        payload = {"scenario": "smoke", "points": [1, 2]}
        out = io.StringIO()
        path = str(tmp_path / "x.json")
        returned = emit_json(payload, out=out, path=path)
        with open(path, encoding="utf-8") as fh:
            on_disk = fh.read()
        assert returned == out.getvalue() == on_disk == canonical_dumps(payload)

    def test_destinations_optional(self, tmp_path):
        assert emit_json({"a": 1}) == canonical_dumps({"a": 1})
        assert os.listdir(tmp_path) == []

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "x.json")
        emit_json({"a": 1}, path=path)
        assert os.path.exists(path)


class TestAtomicWrites:
    def test_write_atomic_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        write_atomic(path, "one")
        write_atomic(path, "two")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "two"
        assert os.listdir(tmp_path) == ["f.txt"]  # no temp litter

    def test_emit_json_to_a_path_round_trips(self, tmp_path):
        path = str(tmp_path / "c.json")
        text = emit_json({"k": [1, 2]}, path=path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text
