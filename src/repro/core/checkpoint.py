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
destination, or build per-level containers.  The indexes key on stamps
themselves: the ancestors a walk steps through are the ``up`` links of
the stamp in hand (the live parents' own stamps), so the table allocates
no key.

- ``by_stamp`` (per entry): exact stamp → the spawn record recorded for
  it.  The record is the checkpoint (it retains the packet, §2), so the
  table keeps no copy: recording one allocates nothing but the dict
  slot, and the holder is the instance the packet returns to
  (``record.packet.parent.instance``).  The "is B2 covered?" test walks
  B2 and its ancestors root-ward — O(depth) hash probes instead of
  O(entry) ``is_ancestor_of`` calls.
- ``more`` (per entry): stamp → the records of further holders of it,
  in recording order.  Only racing lineages (above) hold one stamp
  twice in one entry, so the map is empty in nearly every run and the
  one-holder path never reads it past an emptiness check.
- ``below`` (one per table, over every entry): ancestor stamp → how
  many checkpoints sit directly under it plus how many of its children
  have anything below them.  A stamp is present exactly when some entry
  records a proper descendant of it, so the reverse (subsumption) test —
  "does B2 cover recorded descendants?" — is one probe that no entry can
  miss, and only a hit enumerates the destination entry's ``by_stamp``
  (a hit whose descendants all sit in other entries costs that scan and
  subsumes nothing).  Insertion and removal walk root-ward and stop at
  the first ancestor that stays populated, so siblings and cousins of a
  recorded stamp cost one counter update, not one per level — and a
  spawn placed beside its kin on another processor shares their
  ancestors' counts instead of restating them per entry.

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
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional
from weakref import WeakSet

from repro.core.packets import TaskPacket
from repro.core.stamps import LevelStamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import SpawnRecord

#: covers(ancestor_holder_uid, descendant_holder_uid) -> bool
CoversFn = Callable[[int, int], bool]


@dataclass(frozen=True, slots=True)
class FunctionalCheckpoint:
    """A recovery point for one function application, as a read-only view.

    The table holds the spawn records themselves; :meth:`CheckpointTable.entry`,
    :meth:`~CheckpointTable.lookup` and iteration build one of these per
    held spawn on demand.  ``task_uid`` names the local parent instance
    whose spawn record retains the packet; ``packet`` is the retained copy
    itself.
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
    """One destination's held spawns."""

    __slots__ = ("by_stamp", "more")

    def __init__(self) -> None:
        self.by_stamp: Dict[LevelStamp, "SpawnRecord"] = {}
        self.more: Dict[LevelStamp, List["SpawnRecord"]] = {}

    def holders(self, stamp: LevelStamp, first: "SpawnRecord") -> List["SpawnRecord"]:
        """Every spawn held under ``stamp`` (``first`` is ``by_stamp``'s)."""
        # an empty map is not probed: a stamp hash is a Python-level call
        later = self.more.get(stamp) if self.more else None
        return [first] if later is None else [first, *later]


def _holder(spawn: "SpawnRecord") -> int:
    """The instance whose spawn this is: the one its packet returns to."""
    return spawn.packet.parent.instance


class CheckpointTable:
    """Per-processor table of topmost functional checkpoints by destination."""

    def __init__(self, total: Optional[HeldTotal] = None) -> None:
        self._entries: Dict[int, _DestEntry] = {}
        #: The descendant counts of every entry's stamps (module docstring).
        self._below: Dict[LevelStamp, int] = {}
        self._total = total if total is not None else HeldTotal()
        self._total.tables.add(self)
        self._held = 0
        self.dropped = 0
        self.suppressed = 0  # spawns that were descendants of an entry
        self.peak_held = 0

    # -- mutation -------------------------------------------------------------

    def record(
        self,
        dest: int,
        stamp: LevelStamp,
        spawn: "SpawnRecord",
        task_uid: int,
        covers: Optional[CoversFn] = None,
    ) -> Optional["SpawnRecord"]:
        """Apply the §3.2 insertion rule for a child placed on ``dest``.

        ``spawn`` is the spawn record retaining the child's packet under
        ``stamp``, and ``task_uid`` its holder (the instance the packet
        returns to).  Returns ``spawn``, now held, or ``None`` when a
        covering ancestor checkpoint is already recorded (the "C does
        nothing" case).  ``covers`` restricts coverage to the same
        activation lineage (see module docstring); ``None`` means
        stamp-only coverage.
        """
        entry = self._entries.get(dest)
        if entry is None:
            entry = self._entries[dest] = _DestEntry()
        # Coverage test: walk the stamp and its proper ancestors leaf-ward
        # to root-ward; any recorded holder in the same lineage suppresses.
        by_stamp, more = entry.by_stamp, entry.more
        if by_stamp:
            level = stamp
            while level is not None:
                prior = by_stamp.get(level)
                if prior is not None and (
                    covers is None
                    or covers(_holder(prior), task_uid)
                    or (more and any(covers(_holder(p), task_uid) for p in more.get(level, ())))
                ):
                    self.suppressed += 1
                    return None
                level = level.up
        # A new topmost stamp can also *subsume* previously recorded
        # descendants of the same lineage (possible after recovery
        # re-placements): drop them so the invariant holds.
        below = self._below
        if stamp in below:
            if covers is None:  # every holder of a descendant stamp goes
                subsumed = [(deeper, None) for deeper in by_stamp if stamp.is_ancestor_of(deeper)]
            else:
                subsumed = [
                    (deeper, _holder(prior))
                    for deeper, first in by_stamp.items()
                    if stamp.is_ancestor_of(deeper)
                    for prior in entry.holders(deeper, first)
                    if covers(task_uid, _holder(prior))
                ]
            for deeper, holder in subsumed:
                self.drop(dest, deeper, holder)
        # The spawn is the checkpoint: hold it, behind the holders of
        # other lineages when they already hold the stamp.
        first = by_stamp.setdefault(stamp, spawn)
        if first is not spawn:
            more.setdefault(stamp, []).append(spawn)
        # Count the newcomer under its parent; an ancestor that was empty
        # until now becomes a populated child of *its* parent.
        level = stamp.up
        while level is not None:
            count = below.get(level, 0)
            below[level] = count + 1
            if count:
                break
            level = level.up
        self._total.held += 1
        self._held += 1
        if self._held > self.peak_held:
            self.peak_held = self._held
        return spawn

    def drop(self, dest: int, stamp: LevelStamp, task_uid: Optional[int] = None) -> bool:
        """Remove checkpoint(s) for ``stamp`` (optionally one holder's)."""
        entry = self._entries.get(dest)
        if entry is None:
            return False
        by_stamp = entry.by_stamp
        first = by_stamp.get(stamp)
        if first is None:
            return False
        more = entry.more
        if not more or stamp not in more:  # one holder: the common case
            if task_uid is not None and _holder(first) != task_uid:
                return False
            del by_stamp[stamp]
            doomed = 1
        else:
            holders = [first, *more[stamp]]
            kept = [] if task_uid is None else [s for s in holders if _holder(s) != task_uid]
            doomed = len(holders) - len(kept)
            if not doomed:
                return False
            del more[stamp]
            if not kept:
                del by_stamp[stamp]
            else:
                by_stamp[stamp] = kept[0]
                if len(kept) > 1:
                    more[stamp] = kept[1:]
        below = self._below
        for _ in range(doomed):
            # Mirror of record(): uncount root-ward while ancestors empty.
            level = stamp.up
            while level is not None:
                count = below[level] - 1
                if count:
                    below[level] = count
                    break
                del below[level]
                level = level.up
        self._held -= doomed
        self._total.held -= doomed
        self.dropped += doomed
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
            (
                FunctionalCheckpoint(stamp, dest, spawn.packet, _holder(spawn))
                for stamp, first in entry.by_stamp.items()
                for spawn in entry.holders(stamp, first)
            ),
            key=lambda c: (c.stamp.sort_key(), c.task_uid),
        )

    def lookup(self, stamp: LevelStamp) -> Optional[FunctionalCheckpoint]:
        for dest, entry in self._entries.items():
            spawn = entry.by_stamp.get(stamp)
            if spawn is not None:
                return FunctionalCheckpoint(stamp, dest, spawn.packet, _holder(spawn))
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
        holder), and that every index — ``by_stamp``, ``more``, ``below``,
        the held counter and the shared total — agrees with a from-scratch
        recomputation."""
        held = 0
        stamps = []  # the stamp of every held spawn, over all entries
        for dest, entry in self._entries.items():
            checkpoints = []  # (stamp, holder) of every held spawn
            if not entry.more.keys() <= entry.by_stamp.keys() or not all(entry.more.values()):
                raise AssertionError(f"later holders out of sync in entry {dest}")
            for stamp, first in entry.by_stamp.items():
                for spawn in entry.holders(stamp, first):
                    if spawn.packet.stamp != stamp:
                        raise AssertionError(f"by_stamp index out of sync in entry {dest}")
                    checkpoints.append((stamp, _holder(spawn)))
            for i, (a, a_holder) in enumerate(checkpoints):
                for j, (b, b_holder) in enumerate(checkpoints):
                    if i != j and a_holder == b_holder and (a == b or a.is_ancestor_of(b)):
                        raise AssertionError(
                            f"topmost invariant violated in entry {dest}: "
                            f"{a} covers {b} (holder {a_holder})"
                        )
            stamps.extend(stamp for stamp, _ in checkpoints)
            held += len(checkpoints)
        # below[a] = checkpoints (of any entry) whose parent is a, plus
        # children of a that have a recorded proper descendant.
        populated = {stamp.ancestor_at(level) for stamp in stamps for level in range(stamp.depth)}
        below: Dict[LevelStamp, int] = {}
        for child in stamps + list(populated):
            if not child.is_root:
                below[child.parent()] = below.get(child.parent(), 0) + 1
        if self._below != below:
            raise AssertionError("descendant counts out of sync with the entries")
        if self._held != held:
            raise AssertionError("held counter out of sync with entries")
        if self._total.held != sum(t.held() for t in self._total.tables):
            raise AssertionError("shared held total out of sync with its tables")
