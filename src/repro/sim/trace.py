"""Structured event traces.

Every externally meaningful action in a run appends a :class:`TraceRecord`.
Traces power the figure reproductions (fragmentation of Figure 1, the case
classification of Figure 5), the residue-effect tests of Figure 6/7 and the
oracles of :mod:`repro.check`.  Tracing can be disabled for large benchmark
sweeps.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Sequence


def _render(key: str, value: Any) -> Any:
    """One payload entry as its emit site used to render it eagerly."""
    if key == "value":
        return repr(value)
    if value is None or isinstance(value, (str, int, float)):
        return value
    return str(value)


#: Emit sites that do not lead with ``stamp, uid``: how many payload
#: entries precede the hoisted key in the ``detail`` they always rendered.
_RENDERS_AFTER = {
    ("recovery_reissue", "uid"): 1,
    ("delivery_failed", "stamp"): 1,
    ("backpressure", "stamp"): 1,
    ("inbox_drop", "stamp"): 2,
}


class TraceRecord:
    """One traced action.

    ``stamp`` (the ``LevelStamp`` itself) and ``uid`` are first-class;
    ``extra`` is the rest of the emit site's keyword payload as passed
    (the task value, the address: objects, not renderings).  Readers
    compare these fields.  ``detail`` is the read-only rendered view
    (``str(stamp)``, ``repr(value)``), built on first access, for printing.
    """

    __slots__ = ("time", "node", "kind", "stamp", "uid", "extra", "_detail")

    def __init__(self, time: float, node: int, kind: str,
                 stamp: Any = None, uid: Any = None,
                 extra: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.node = node
        self.kind = kind
        self._detail = None
        self.stamp = stamp
        self.uid = uid
        self.extra = {} if extra is None else extra

    @property
    def detail(self) -> Dict[str, Any]:
        if self._detail is None:
            items = list(self.extra.items())
            for key, value in (("uid", self.uid), ("stamp", self.stamp)):
                if value is not None:
                    items.insert(_RENDERS_AFTER.get((self.kind, key), 0), (key, value))
            self._detail = {k: _render(k, v) for k, v in items}
        return self._detail

    def __repr__(self) -> str:
        return f"TraceRecord({self.time!r}, {self.node!r}, {self.kind!r}, {self.detail!r})"

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"t={self.time:<10.2f} node={self.node:<3} {self.kind:<22} {detail}"


#: Trace record kinds emitted by the simulator.  Kept in one place so tests
#: and analysis code never match on misspelled strings.
KINDS = (
    "task_accepted",
    "task_started",
    "task_suspended",
    "task_completed",
    "task_aborted",
    "spawn",
    "checkpoint_recorded",
    "checkpoint_dropped",
    "result_sent",
    "result_received",
    "result_duplicate",
    "result_ignored",
    "result_orphan_rerouted",
    "result_relayed",
    "result_salvaged",
    "result_unwound",
    "node_failed",
    "failure_detected",
    "recovery_reissue",
    "recovery_complete",
    "twin_created",
    "delivery_failed",
    "ack_received",
    "vote_recorded",
    "vote_decided",
    "nemesis_drop",
    "nemesis_duplicate",
    "nemesis_delay",
    "load_arrival",
    "load_tree_done",
    "inbox_drop",
    "backpressure",
)


class Trace:
    """Append-only trace with query helpers.

    **Hot-path contract:** every emit site in the simulator guards with
    ``if trace.enabled:`` *before* the call, so a disabled trace costs
    nothing; ``emit`` still self-checks ``enabled`` for callers outside
    the hot path.  An enabled trace stores the objects it is handed and
    renders nothing.  ``kind`` must be a literal member of :data:`KINDS`:
    ``tests/sim/test_trace_metrics.py`` checks every emit site statically,
    ``emit`` checks no event.  The queries (``positions``, ``of_kind``,
    ``count``, ``render``) share one index of trace positions per kind;
    ``Trace(records=...)`` indexes existing records.
    """

    __slots__ = ("enabled", "records", "_positions", "_indexed")

    def __init__(self, enabled: bool = True, records: Optional[Sequence[TraceRecord]] = None):
        self.enabled = enabled
        self.records: Sequence[TraceRecord] = [] if records is None else records
        self._positions: Dict[str, List[int]] = defaultdict(list)
        self._indexed = 0

    def emit(self, time: float, node: int, kind: str,
             stamp: Any = None, uid: Any = None, **extra: Any) -> None:
        if self.enabled:
            self.records.append(TraceRecord(time, node, kind, stamp, uid, extra))

    # -- queries -------------------------------------------------------------

    def positions(self, kind: str) -> Sequence[int]:
        """Where ``kind`` sits in the trace, in order."""
        records = self.records
        if self._indexed != len(records):
            for i in range(self._indexed, len(records)):
                self._positions[records[i].kind].append(i)
            self._indexed = len(records)
        return self._positions.get(kind, ())

    def of_kind(self, *kinds: str) -> List[TraceRecord]:
        """Records of the named kinds, in trace order."""
        if len(kinds) == 1:
            hits = self.positions(kinds[0])
        else:
            hits = sorted(i for kind in kinds for i in self.positions(kind))
        records = self.records
        return [records[i] for i in hits]

    def count(self, kind: str) -> int:
        return len(self.positions(kind))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def render(self, kinds: Optional[tuple] = None, limit: Optional[int] = None) -> str:
        """Human-readable rendering (optionally filtered)."""
        records = self.records if kinds is None else self.of_kind(*kinds)
        if limit is not None:
            records = records[:limit]
        return "\n".join(str(r) for r in records)
