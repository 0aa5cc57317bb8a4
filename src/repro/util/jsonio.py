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
from itertools import chain, islice
from typing import Any, Callable, ContextManager, Iterator

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


#: The encoder behind :func:`canonical_dumps`, run incrementally.
_CANONICAL = json.JSONEncoder(indent=2, sort_keys=True)

#: Encoder chunks (a key, a scalar, a bracket) joined into one batch.
_BATCH_CHUNKS = 4096


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
    chunks = chain(_CANONICAL.iterencode(payload), ("\n",))
    while True:
        text = "".join(islice(chunks, _BATCH_CHUNKS))
        if not text:
            return digest.hexdigest()
        data = text.encode("utf-8")
        digest.update(data)
        if fh is not None:
            fh.write(data)
        if out is not None:
            out.write(text)


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
