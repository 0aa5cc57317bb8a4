"""Functional checkpoints and the per-processor checkpoint table (§3.2).

    "Each processor maintains a table of linked lists.  The Nth entry of
    the table contains all topmost checkpoints from the host processor to
    processor N.  [...] when processor C spawns task B2 to processor B, C
    compares the level stamp of B2 with all checkpoints in entry B.  If B2
    is a descendant of an existing functional checkpoint, C does nothing.
    Otherwise, processor C makes a checkpoint for B2 in entry B."

The *topmost invariant*: within one entry, no checkpoint's stamp is an
ancestor of another's.  Recovery then "redoes only the most ancient
ancestor and ignores the rest".

Entries are keyed by the destination processor the child was *placed on*
(known at placement-acknowledgement time under dynamic allocation).

One refinement beyond the paper's presentation: during recovery, *two
activations of the same logical task can race* (the paper's own cases
6/7), and each lineage spawns the same child stamps.  A checkpoint only
covers a new spawn if redoing it would regenerate that spawn's holder —
i.e. if the checkpoint's holder is an **instance ancestor** of the new
spawn's holder, not merely a stamp ancestor.  The ``covers`` predicate
(supplied by the policy, which can see instance genealogy) encodes this;
with ``covers=None`` the table degrades to the paper's stamp-only rule,
which is exact in the absence of racing lineages.

**Indexing.**  ``record`` runs on every placement acknowledgement and a
drop on every child result, so neither may scan an entry, probe every
destination, or build per-level containers.  Both indexes are per entry
and key on stamps themselves: the ancestors a walk steps through are the
``up`` links of the stamp in hand (the live parents' own stamps), so the
table allocates no key.

- ``by_stamp`` (per entry): exact stamp → the checkpoints recorded for
  it, one per holder, as a tuple.  The "is B2 covered?" test walks B2
  and its ancestors root-ward — O(depth) hash probes instead of O(entry)
  ``is_ancestor_of`` calls.
- ``below`` (per entry): ancestor stamp → how many checkpoints sit
  directly under it plus how many of its children have anything below
  them.  A stamp is present exactly when the entry records a proper
  descendant of it, so the reverse (subsumption) test — "does B2 cover
  recorded descendants?" — is one probe, and only a hit enumerates
  ``by_stamp``.  Insertion and removal walk root-ward and stop at the
  first ancestor that stays populated, so siblings and cousins of a
  recorded stamp cost one counter update, not one per level.

There is no table-wide index from a checkpoint to its entry: whoever
recorded it was handed the destination and keeps it (the policies store
it on the spawn record that retains the packet), so a drop goes
straight to ``drop(dest, stamp, holder)``.  ``drop_everywhere`` is for a
caller that does not know, and probes every entry.

Tables that belong to one machine share a :class:`HeldTotal`, the
running machine-wide count of retained checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from weakref import WeakSet

from repro.core.packets import TaskPacket
from repro.core.stamps import LevelStamp

#: covers(ancestor_holder_uid, descendant_holder_uid) -> bool
CoversFn = Callable[[int, int], bool]


@dataclass(frozen=True, slots=True)
class FunctionalCheckpoint:
    """A recovery point for one function application.

    ``task_uid`` names the local parent instance whose spawn record retains
    the packet; ``packet`` is the retained copy itself.
    """

    stamp: LevelStamp
    dest: int
    packet: TaskPacket
    task_uid: int


class HeldTotal:
    """Checkpoints retained by every table that shares this object.

    The tables keep ``held`` current as they record and drop, so the
    machine-wide figure is a read, not a sum over processors.  ``tables``
    (read only by ``check_invariant``) is weak: a total that owned its
    tables would tie each to the others in a reference cycle.
    """

    __slots__ = ("held", "tables")

    def __init__(self) -> None:
        self.held = 0
        self.tables: "WeakSet[CheckpointTable]" = WeakSet()


class _DestEntry:
    """One destination's checkpoints and its descendant counts."""

    __slots__ = ("by_stamp", "below")

    def __init__(self) -> None:
        self.by_stamp: Dict[LevelStamp, Tuple[FunctionalCheckpoint, ...]] = {}
        self.below: Dict[LevelStamp, int] = {}


class CheckpointTable:
    """Per-processor table of topmost functional checkpoints by destination."""

    def __init__(self, total: Optional[HeldTotal] = None) -> None:
        self._entries: Dict[int, _DestEntry] = {}
        self._total = total if total is not None else HeldTotal()
        self._total.tables.add(self)
        self._held = 0
        self.recorded = 0
        self.dropped = 0
        self.suppressed = 0  # spawns that were descendants of an entry
        self.peak_held = 0

    # -- mutation -------------------------------------------------------------

    def record(
        self,
        dest: int,
        stamp: LevelStamp,
        packet: TaskPacket,
        task_uid: int,
        covers: Optional[CoversFn] = None,
    ) -> Optional[FunctionalCheckpoint]:
        """Apply the §3.2 insertion rule for a child placed on ``dest``.

        Returns the new checkpoint, or ``None`` when a covering ancestor
        checkpoint is already recorded (the "C does nothing" case).
        ``covers`` restricts coverage to the same activation lineage (see
        module docstring); ``None`` means stamp-only coverage.
        """
        entry = self._entries.get(dest)
        if entry is None:
            entry = self._entries[dest] = _DestEntry()
        # Coverage test: walk the stamp and its proper ancestors leaf-ward
        # to root-ward; any recorded holder in the same lineage suppresses.
        by_stamp = entry.by_stamp
        if by_stamp:
            level = stamp
            while level is not None:
                recorded = by_stamp.get(level)
                if recorded:
                    for prior in recorded:
                        if covers is None or covers(prior.task_uid, task_uid):
                            self.suppressed += 1
                            return None
                level = level.up
        # A new topmost stamp can also *subsume* previously recorded
        # descendants of the same lineage (possible after recovery
        # re-placements): drop them so the invariant holds.
        below = entry.below
        if stamp in below:
            subsumed = [
                prior
                for deeper, recorded in by_stamp.items()
                if stamp.is_ancestor_of(deeper)
                for prior in recorded
                if covers is None or covers(task_uid, prior.task_uid)
            ]
            for prior in subsumed:
                self.drop(dest, prior.stamp, prior.task_uid)
        checkpoint = FunctionalCheckpoint(stamp, dest, packet, task_uid)
        by_stamp[stamp] = by_stamp.get(stamp, ()) + (checkpoint,)
        # Count the newcomer under its parent; an ancestor that was empty
        # until now becomes a populated child of *its* parent.
        level = stamp.up
        while level is not None:
            count = below.get(level, 0)
            below[level] = count + 1
            if count:
                break
            level = level.up
        self.recorded += 1
        self._total.held += 1
        self._held += 1
        if self._held > self.peak_held:
            self.peak_held = self._held
        return checkpoint

    def drop(self, dest: int, stamp: LevelStamp, task_uid: Optional[int] = None) -> bool:
        """Remove checkpoint(s) for ``stamp`` (optionally one holder's)."""
        entry = self._entries.get(dest)
        if entry is None:
            return False
        recorded = entry.by_stamp.get(stamp)
        if not recorded:
            return False
        if task_uid is None:
            doomed = recorded
        else:
            doomed = tuple(c for c in recorded if c.task_uid == task_uid)
            if not doomed:
                return False
        if len(doomed) == len(recorded):
            del entry.by_stamp[stamp]
        else:
            entry.by_stamp[stamp] = tuple(c for c in recorded if c.task_uid != task_uid)
        below = entry.below
        for _ in doomed:
            # Mirror of record(): uncount root-ward while ancestors empty.
            level = stamp.up
            while level is not None:
                count = below[level] - 1
                if count:
                    below[level] = count
                    break
                del below[level]
                level = level.up
        self._held -= len(doomed)
        self._total.held -= len(doomed)
        self.dropped += len(doomed)
        return True

    def drop_everywhere(self, stamp: LevelStamp, task_uid: Optional[int] = None) -> int:
        """Remove a stamp from every entry that records it (for a caller
        that does not know the placement; one that does calls ``drop``)."""
        return sum(self.drop(dest, stamp, task_uid) for dest in self._entries)

    # -- queries --------------------------------------------------------------

    def entry(self, dest: int) -> List[FunctionalCheckpoint]:
        """Topmost checkpoints for tasks resident on ``dest`` (sorted)."""
        entry = self._entries.get(dest)
        if entry is None:
            return []
        return sorted(
            (c for recorded in entry.by_stamp.values() for c in recorded),
            key=lambda c: (c.stamp.sort_key(), c.task_uid),
        )

    def lookup(self, stamp: LevelStamp) -> Optional[FunctionalCheckpoint]:
        for entry in self._entries.values():
            recorded = entry.by_stamp.get(stamp)
            if recorded:
                return recorded[0]
        return None

    def held(self) -> int:
        """Number of checkpoints currently retained (O(1))."""
        return self._held

    def destinations(self) -> List[int]:
        return sorted(d for d, e in self._entries.items() if e.by_stamp)

    def __iter__(self) -> Iterator[FunctionalCheckpoint]:
        for dest in sorted(self._entries):
            yield from self.entry(dest)

    def check_invariant(self) -> None:
        """Assert the per-lineage topmost invariant (stamp-only form: no
        two entries of one destination may be stamp-related *and* share a
        holder), and that every index — ``by_stamp``, ``below``, the held
        counter and the shared total — agrees with a from-scratch
        recomputation."""
        held = 0
        for dest, entry in self._entries.items():
            checkpoints = [c for recorded in entry.by_stamp.values() for c in recorded]
            for a in checkpoints:
                for b in checkpoints:
                    if a is not b and a.task_uid == b.task_uid:
                        if a.stamp == b.stamp or a.stamp.is_ancestor_of(b.stamp):
                            raise AssertionError(
                                f"topmost invariant violated in entry {dest}: "
                                f"{a.stamp} covers {b.stamp} (holder {a.task_uid})"
                            )
            for stamp, recorded in entry.by_stamp.items():
                if not recorded or any(c.stamp != stamp or c.dest != dest for c in recorded):
                    raise AssertionError(f"by_stamp index out of sync in entry {dest}")
            # below[a] = checkpoints whose parent is a, plus children of a
            # that have a recorded proper descendant.
            populated = {
                c.stamp.ancestor_at(level) for c in checkpoints for level in range(c.stamp.depth)
            }
            below: Dict[LevelStamp, int] = {}
            for child in [c.stamp for c in checkpoints] + list(populated):
                if not child.is_root:
                    below[child.parent()] = below.get(child.parent(), 0) + 1
            if entry.below != below:
                raise AssertionError(f"descendant counts out of sync in entry {dest}")
            held += len(checkpoints)
        if self._held != held:
            raise AssertionError("held counter out of sync with entries")
        if self._total.held != sum(t.held() for t in self._total.tables):
            raise AssertionError("shared held total out of sync with its tables")
