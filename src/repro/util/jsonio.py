"""Canonical JSON rendering, SHA-256 identities and atomic file writes.

One writer serves every artifact the repo commits or caches —
``repro exp run --json`` payloads, the on-disk sweep result cache,
report and search-ledger documents, and the durable sweep-ledger
appends (:mod:`repro.exp.ledger`).  Keeping the encoding in one place
is what makes "byte-identical for identical results" a checkable
property rather than a convention.  One reader, :func:`parse_json`,
serves every document that comes from outside the process.

>>> canonical_dumps({"b": 1, "a": [1.5, "x"]})
'{\\n  "a": [\\n    1.5,\\n    "x"\\n  ],\\n  "b": 1\\n}\\n'
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

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
    version control.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-temp-then-rename).

    Readers never observe a half-written file; a crash mid-write leaves
    the previous version intact.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_json(payload: Any, out=None, path: str | None = None) -> str:
    """Render ``payload`` canonically; print to ``out``, write to ``path``.

    The one output helper behind every JSON-emitting CLI verb
    (``exp show --json``, ``exp run --json``, the ``check`` and
    ``report`` verbs): identical payloads produce identical bytes on
    every surface, with no trailing-newline drift between the printed
    and the written form.  Either destination may be omitted; the
    canonical text is returned regardless.
    """
    text = canonical_dumps(payload)
    if path is not None:
        write_atomic(path, text)
    if out is not None:
        out.write(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
