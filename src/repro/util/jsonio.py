"""Canonical JSON rendering, SHA-256 identities and atomic file writes.

One writer serves every artifact the repo commits or caches —
``repro exp run --json`` payloads, the on-disk sweep result cache,
report and search-ledger documents, and the durable sweep-ledger
appends (:mod:`repro.exp.ledger`).  Keeping the encoding in one place
is what makes "byte-identical for identical results" a checkable
property rather than a convention.  A canonical document bound for a
file is never held whole: :func:`write_canonical` streams the encoder's
output to disk in bounded batches and hashes the bytes as it writes
them.  One reader, :func:`parse_json`, serves every document that comes
from outside the process.

>>> canonical_dumps({"b": 1, "a": [1.5, "x"]})
'{\\n  "a": [\\n    1.5,\\n    "x"\\n  ],\\n  "b": 1\\n}\\n'
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

# CPython's own SHA-256 (``_sha2`` since 3.12, ``_sha256`` before), so no
# process maps OpenSSL's libcrypto for a digest.  ``hashlib`` is reached
# only on an interpreter built without them; the digest is the same.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


def canonical_dumps(payload: Any) -> str:
    """Render ``payload`` as canonical, human-diffable JSON.

    Sorted keys, two-space indent, and a trailing newline: identical
    payloads produce identical bytes, and the files diff cleanly under
    version control.  The bytes are exactly
    ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.
    """
    return _encode(payload, 0) + "\n"


# -- the canonical encoder -------------------------------------------------------
#
# ``json.JSONEncoder`` runs its pure-Python ``_iterencode`` whenever
# ``indent`` is set (the C encoder serves only compact output), yielding
# one chunk per key, scalar and bracket.  The encoder below renders the
# same bytes a subtree at a time: exact ``dict``/``list``/``tuple``/``str``/
# ``int``/``float``/``bool``/``None`` values through comprehension joins,
# and anything else (a subclass, a non-``str`` key, an unknown type) through
# the stdlib encoder for that subtree, re-indented to its depth.  The
# re-indent is exact because an ensure-ascii string never holds a raw
# newline, and the stdlib raises its own ``TypeError`` for a value it
# cannot serialise.

_INF = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


#: How each exact scalar type renders; a subclass is not in the table.
_SCALARS: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}

#: The stdlib encoder, for the subtrees :func:`_encode` does not special-case.
_STDLIB = json.JSONEncoder(indent=2, sort_keys=True)


def _stdlib(value: Any, level: int) -> str:
    return _STDLIB.encode(value).replace("\n", "\n" + "  " * level)


def _sorted_keys(value: dict) -> Optional[List[str]]:
    """``value``'s keys in canonical order, or None if one is not a ``str``."""
    try:
        keys = sorted(value)
    except TypeError:
        return None
    for key in keys:
        if type(key) is not str:
            return None
    return keys


def _encode(value: Any, level: int) -> str:
    """``value`` rendered canonically at nesting depth ``level``, no newline."""
    render = _SCALARS.get(type(value))
    if render is not None:
        return render(value)
    kind = type(value)
    if kind is dict:
        keys = _sorted_keys(value)
        if keys is None:
            return _stdlib(value, level)
        if not keys:
            return "{}"
        outer = "\n" + "  " * level
        inner = outer + "  "
        get, quote, encode, deeper = _SCALARS.get, encode_basestring_ascii, _encode, level + 1
        body = ("," + inner).join([
            quote(key) + ": "
            + (scalar(member) if (scalar := get(type(member))) else encode(member, deeper))
            for key, member in zip(keys, map(value.__getitem__, keys))
        ])
        return f"{{{inner}{body}{outer}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        outer = "\n" + "  " * level
        inner = outer + "  "
        get, encode, deeper = _SCALARS.get, _encode, level + 1
        body = ("," + inner).join([
            scalar(member) if (scalar := get(type(member))) else encode(member, deeper)
            for member in value
        ])
        return f"[{inner}{body}{outer}]"
    return _stdlib(value, level)


#: Nesting depths whose containers are streamed element by element; each
#: element below them is rendered whole, so a sweep document streams point
#: by point and a report cell by cell.
_STREAMED_LEVELS = 2

#: Characters of encoder output joined into one write.
_BATCH_CHARS = 1 << 15


def _stream(value: Any, level: int) -> Iterator[str]:
    """``_encode(value, level)`` in pieces, split between the elements of
    every container less than :data:`_STREAMED_LEVELS` deep."""
    kind = type(value)
    streamed = level < _STREAMED_LEVELS
    keys = _sorted_keys(value) if streamed and kind is dict else None
    if keys or (streamed and (kind is list or kind is tuple) and value):
        inner = "\n" + "  " * (level + 1)
        if keys:
            heads = [encode_basestring_ascii(key) + ": " for key in keys]
            members = map(value.__getitem__, keys)
            opening, closing = "{", "}"
        else:
            heads, members = [""] * len(value), value
            opening, closing = "[", "]"
        separator = opening + inner
        for head, member in zip(heads, members):
            yield separator + head
            yield from _stream(member, level + 1)
            separator = "," + inner
        yield "\n" + "  " * level + closing
    else:
        yield _encode(value, level)


def _batches(payload: Any) -> Iterator[str]:
    """``canonical_dumps(payload)`` as text batches of about
    :data:`_BATCH_CHARS` characters; the whole text never exists."""
    batch: List[str] = []
    size = 0
    for piece in _stream(payload, 0):
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH_CHARS:
            yield "".join(batch)
            batch, size = [], 0
    batch.append("\n")
    yield "".join(batch)


def write_canonical(payload: Any, fh=None, out=None) -> str:
    """Stream ``canonical_dumps(payload)`` out in bounded batches.

    Each batch of encoder output is hashed and written as UTF-8 to the
    binary file ``fh`` and as text to the stream ``out`` (either may be
    omitted), so no copy of the whole document exists at any time.
    Returns the sha256 hex digest of the bytes, which equals
    ``sha256_hex(canonical_dumps(payload))``.

    >>> import io
    >>> fh = io.BytesIO()
    >>> write_canonical({"a": 1}, fh) == sha256_hex('{\\n  "a": 1\\n}\\n')
    True
    >>> fh.getvalue()
    b'{\\n  "a": 1\\n}\\n'
    """
    digest = _sha256()
    for text in _batches(payload):
        data = text.encode("utf-8")
        digest.update(data)
        if fh is not None:
            fh.write(data)
        if out is not None:
            out.write(text)
    return digest.hexdigest()


def compact_dumps(payload: Any) -> str:
    """Canonical *compact* JSON: sorted keys, no whitespace.

    The encoding every sha256-derived identity in the repo hashes —
    spec cache keys, per-point seeds, replicate seed sets.  It lives in
    exactly one place because a formatting tweak would silently change
    every derived seed and cache key.

    >>> compact_dumps({"b": 1, "a": [1.5, "x"]})
    '{"a":[1.5,"x"],"b":1}'
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def copy_json(value: Any) -> Any:
    """A copy of a JSON tree that shares none of its dicts and lists.

    Strings, numbers, booleans and ``None`` are immutable, so the copy
    shares them; that is what makes it cheaper than ``copy.deepcopy``.

    >>> doc = {"a": [{"b": 1}]}
    >>> copy = copy_json(doc)
    >>> copy == doc, copy["a"] is doc["a"], copy["a"][0] is doc["a"][0]
    (True, False, False)
    """
    kind = type(value)
    if kind is dict:
        return {key: copy_json(member) for key, member in value.items()}
    if kind is list:
        return [copy_json(member) for member in value]
    return value


def sha256_hex(text: str) -> str:
    """Full sha256 hex digest of ``text`` (UTF-8).

    The one SHA-256 in the package: the sweep ledger's integrity hash
    (``point_finished`` records carry the digest of their result's
    :func:`compact_dumps` encoding, ``run_finished`` the digest of the
    canonical sweep JSON), the spec cache key, every per-point and
    replicate seed, and a search document's name.

    >>> sha256_hex("")[:8]
    'e3b0c442'
    """
    return _sha256(text.encode("utf-8")).hexdigest()


def parse_json(text: str) -> Any:
    """Parse JSON that came from outside the process.

    The one reader behind every loader of external bytes (``--spec-json``,
    corpora, ledger lines, cached sweeps).  A document nested deeper than
    the interpreter's recursion limit is malformed input like any other,
    so it raises :class:`ValueError` as a syntax error does, never
    :class:`RecursionError`.

    >>> parse_json('{"a": [1]}')
    {'a': [1]}
    >>> parse_json("[" * 100000)
    Traceback (most recent call last):
        ...
    ValueError: JSON nested too deeply
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def append_durable(fh, text: str) -> None:
    """Append ``text`` to an open file and force it to stable storage.

    ``flush`` pushes the bytes out of the userspace buffer, ``fsync``
    out of the page cache — after this returns, a crash (even SIGKILL
    or power loss) cannot lose the record, nor anything written to the
    descriptor before it.  This is the write primitive behind every
    sweep-ledger *commitment*; callers own the ordering guarantee that
    a record is only *acted on* (e.g. a point marked finished) after
    its append returned.
    """
    fh.write(text)
    fh.flush()
    os.fsync(fh.fileno())


@contextmanager
def _staged(path: str, write: Callable[[Any], Any]) -> Iterator[Any]:
    """Run ``write`` on a binary temp file beside ``path``; yield what it
    returned; on a clean exit from the ``with`` body, rename the file over
    ``path``.

    The temp file (``.tmp-*.json``) is closed before the body runs and
    removed if the write or the body raises, so readers of ``path``
    never observe a half-written file and a failure leaves the previous
    version intact.  Only a process killed outright leaves it behind.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            written = write(fh)
        yield written
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-temp-then-rename)."""
    with _staged(path, lambda fh: fh.write(text.encode("utf-8"))):
        pass


def canonical_file(path: str, payload: Any) -> ContextManager[str]:
    """Context manager: stream ``payload`` canonically into a temp file
    beside ``path`` and yield the bytes' sha256 hex digest; the file is
    renamed over ``path`` when the ``with`` body exits cleanly.

    Whatever the body records about the document (the sweep ledger's
    ``run_finished`` digest) is therefore durable before the document is
    visible at ``path``.
    """
    return _staged(path, lambda fh: write_canonical(payload, fh))


def emit_json(payload: Any, out=None, path: str | None = None) -> str:
    """Render ``payload`` canonically; print to ``out``, write to ``path``.

    The one output helper behind every JSON-emitting CLI verb
    (``exp show --json``, ``exp run --json``, the ``check`` and
    ``report`` verbs) and every canonical document written to a path
    (report JSON, search documents, corpora; the sweep cache, which must
    record its digest before the rename, uses :func:`canonical_file`):
    identical payloads produce identical bytes on
    every surface, with no trailing-newline drift between the printed
    and the written form.  One streaming pass of :func:`write_canonical`
    feeds both destinations, either of which may be omitted; the sha256
    hex digest of the canonical bytes is returned regardless.
    """
    if path is None:
        return write_canonical(payload, out=out)
    with _staged(path, lambda fh: write_canonical(payload, fh, out)) as digest:
        return digest


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
