"""Tests for the canonical JSON writer and the shared emit helper."""

from __future__ import annotations

import enum
import hashlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.jsonio import (
    canonical_dumps,
    canonical_file,
    emit_json,
    sha256_hex,
    write_atomic,
    write_canonical,
)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


class _Number(float):
    pass


def _nested(depth: int):
    """``depth`` levels of lists and dicts, alternating."""
    value = "leaf"
    for level in range(depth):
        value = [value, level] if level % 2 else {"k": value, "n": level}
    return value


#: JSON values as the repo's documents hold them, and the corners the
#: encoder treats specially: non-ASCII text, NaN and +-inf, ints past
#: 64 bits, empty containers, tuples, non-``str`` dict keys (one key type
#: per dict, since the stdlib cannot sort mixed ones), subclasses of
#: ``int``/``str``/``float``, and nesting past 300 levels.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).map(lambda n: -n if n % 2 else n)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.sampled_from(list(_Level))
    | st.text().map(_Text)
    | st.floats().map(_Number)
    | st.integers(min_value=301, max_value=320).map(_nested),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.text().map(_Text), children)
    | st.dictionaries(st.integers() | st.floats() | st.booleans(), children)
    | st.dictionaries(st.none(), children),
    max_leaves=30,
)


class _Writes(io.BytesIO):
    """A binary sink that records the size of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes = []

    def write(self, data) -> int:
        self.sizes.append(len(data))
        return super().write(data)


class TestWriteCanonical:
    @settings(max_examples=200, deadline=None)
    @given(payload=JSON_VALUES)
    @example(payload={})
    @example(payload=[[], {}, "", "\u00e9\u6f22\U0001f600", 2**100, float("nan")])
    @example(payload={"a": _nested(320), "b": [(1, {2: _Level.HIGH, 2.5: _Text("x")})]})
    def test_disk_bytes_and_digest_are_canonical_dumps(self, payload):
        text = canonical_dumps(payload)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with canonical_file(path, payload) as digest:
                assert not os.path.exists(path)  # renamed only on exit
            with open(path, "rb") as fh:
                assert fh.read() == text.encode("utf-8")
            assert os.listdir(tmp) == ["doc.json"]
        assert digest == sha256_hex(text)
        out = io.StringIO()
        assert write_canonical(payload, out=out) == digest
        assert out.getvalue() == text

    def test_big_sweep_is_written_in_several_bounded_batches(self, big_sweep, tmp_path):
        payload = big_sweep.payload()
        text = canonical_dumps(payload)
        sink = _Writes()
        digest = write_canonical(payload, sink)
        assert sink.getvalue() == text.encode("utf-8")
        assert digest == sha256_hex(text)
        assert len(sink.sizes) > 10
        assert max(sink.sizes) < len(text) // 10
        path = str(tmp_path / "sweep.json")
        with canonical_file(path, payload) as on_disk:
            pass
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == on_disk == digest
        with open(big_sweep.cache_path, "rb") as fh:
            assert fh.read() == text.encode("utf-8")


class TestCanonicalDumps:
    @pytest.mark.parametrize(
        "payload", [object(), {"a": [1, {2}]}, {"a": {"b": 1, 2: 3}}, [(1, b"x")]]
    )
    def test_an_unserialisable_value_raises_the_stdlib_type_error(self, payload):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as ours:
            canonical_dumps(payload)
        assert str(ours.value) == str(stdlib.value)
        with pytest.raises(TypeError, match=re.escape(str(stdlib.value))):
            write_canonical(payload, io.BytesIO())

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
        assert out.getvalue() == on_disk == canonical_dumps(payload)
        assert returned == sha256_hex(canonical_dumps(payload))

    def test_destinations_optional(self, tmp_path):
        assert emit_json({"a": 1}) == sha256_hex(canonical_dumps({"a": 1}))
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
        digest = emit_json({"k": [1, 2]}, path=path)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == canonical_dumps({"k": [1, 2]}).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digest

    def test_failed_body_leaves_previous_version(self, tmp_path):
        path = str(tmp_path / "c.json")
        write_atomic(path, "old")
        with pytest.raises(RuntimeError):
            with canonical_file(path, {"k": 1}):
                raise RuntimeError("the ledger append failed")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "old"
        assert os.listdir(tmp_path) == ["c.json"]  # the temp file is gone
