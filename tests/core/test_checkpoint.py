"""Tests for functional-checkpoint tables (paper §2, §3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import CheckpointTable, FunctionalCheckpoint, HeldTotal
from repro.core.packets import ReturnAddress, TaskPacket, WorkSpec
from repro.core.stamps import LevelStamp
from repro.sim.task import SpawnRecord


def spawn(stamp: LevelStamp, holder: int = 0) -> SpawnRecord:
    """Instance ``holder``'s spawn record for the child ``stamp``: the
    table holds these, and reads the holder off the retained packet."""
    packet = TaskPacket(
        stamp=stamp,
        work=WorkSpec(kind="apply", fn_name="f", args=(1,)),
        parent=ReturnAddress(0, holder),
    )
    return SpawnRecord(0 if stamp.is_root else stamp.last_digit, stamp, packet)


class TestInsertionRule:
    def test_record_new(self):
        table = CheckpointTable()
        s = LevelStamp.of(0)
        record = spawn(s, 7)
        assert table.record(1, s, record, task_uid=7) is record
        [cp] = table.entry(1)  # the view, built from the held record
        assert cp.stamp == s and cp.dest == 1 and cp.task_uid == 7
        assert cp.packet is record.packet
        assert table.held() == 1

    def test_descendant_suppressed(self):
        """'If B2 is a descendant of an existing functional checkpoint,
        C does nothing.'"""
        table = CheckpointTable()
        a = LevelStamp.of(0)
        table.record(1, a, spawn(a, 0), 0)
        child = a.child(3)
        assert table.record(1, child, spawn(child, 0), 0) is None
        assert table.suppressed == 1
        assert table.held() == 1

    def test_same_stamp_suppressed(self):
        table = CheckpointTable()
        s = LevelStamp.of(0)
        table.record(1, s, spawn(s, 0), 0)
        assert table.record(1, s, spawn(s, 0), 0) is None

    def test_suppression_is_per_destination(self):
        """Topmost-ness is local to one (host, destination) entry."""
        table = CheckpointTable()
        a = LevelStamp.of(0)
        child = a.child(1)
        table.record(1, a, spawn(a, 0), 0)
        assert table.record(2, child, spawn(child, 0), 0) is not None
        assert table.held() == 2

    def test_ancestor_subsumes_existing_descendants(self):
        table = CheckpointTable()
        a = LevelStamp.of(0)
        child = a.child(1)
        table.record(1, child, spawn(child, 0), 0)
        cp = table.record(1, a, spawn(a, 0), 0)
        assert cp is not None
        assert [c.stamp for c in table.entry(1)] == [a]

    def test_unrelated_coexist(self):
        table = CheckpointTable()
        for i in range(4):
            s = LevelStamp.of(i)
            table.record(1, s, spawn(s, 0), 0)
        assert table.held() == 4
        table.check_invariant()


    def test_stamp_only_coverage_reads_nothing_of_what_it_holds(self):
        """Recording, subsuming, suppressing and dropping under stamp-only
        coverage touch the stamps alone, so the table holds any object
        there (the benchmark's checkpoint kernel records bare packets)."""
        table = CheckpointTable()
        a = LevelStamp.of(0)
        child = a.child(1)
        held = object()
        assert table.record(1, child, held, 0) is held
        assert table.record(1, a, object(), 0) is not None  # subsumes the child
        assert table.record(1, child, object(), 0) is None  # covered by a
        assert table.drop_everywhere(a) == 1 and table.held() == 0


class TestDrop:
    def test_drop(self):
        table = CheckpointTable()
        s = LevelStamp.of(0)
        table.record(1, s, spawn(s, 0), 0)
        assert table.drop(1, s) is True
        assert table.held() == 0
        assert table.drop(1, s) is False

    def test_drop_everywhere(self):
        table = CheckpointTable()
        s = LevelStamp.of(0)
        table.record(1, s, spawn(s, 0), 0)
        assert table.drop_everywhere(s) == 1
        assert table.held() == 0


class TestQueries:
    def test_entry_sorted(self):
        table = CheckpointTable()
        for i in (3, 1, 2):
            s = LevelStamp.of(i)
            table.record(1, s, spawn(s, 0), 0)
        assert [c.stamp.digits for c in table.entry(1)] == [(1,), (2,), (3,)]

    def test_entry_empty_for_unknown_dest(self):
        assert CheckpointTable().entry(9) == []

    def test_lookup(self):
        table = CheckpointTable()
        s = LevelStamp.of(5)
        table.record(2, s, spawn(s, 0), 0)
        assert table.lookup(s).dest == 2
        assert table.lookup(LevelStamp.of(9)) is None

    def test_destinations(self):
        table = CheckpointTable()
        table.record(3, LevelStamp.of(0), spawn(LevelStamp.of(0), 0), 0)
        table.record(1, LevelStamp.of(1), spawn(LevelStamp.of(1), 0), 0)
        assert table.destinations() == [1, 3]

    def test_iter_and_peak(self):
        table = CheckpointTable()
        table.record(1, LevelStamp.of(0), spawn(LevelStamp.of(0), 0), 0)
        table.record(2, LevelStamp.of(1), spawn(LevelStamp.of(1), 0), 0)
        assert len(list(table)) == 2
        assert table.peak_held == 2
        table.drop(1, LevelStamp.of(0))
        assert table.peak_held == 2  # peak is sticky


# Strategy: random insertion/removal sequences must preserve the topmost
# invariant — the paper's §3.2 data-structure contract.
_stamps = st.lists(
    st.integers(min_value=0, max_value=2), min_size=0, max_size=4
).map(lambda ds: LevelStamp.of(*ds))
_ops = st.lists(
    st.tuples(st.sampled_from(["record", "drop"]), st.integers(0, 2), _stamps),
    max_size=40,
)


@given(_ops)
def test_topmost_invariant_under_random_ops(ops):
    table = CheckpointTable()
    for op, dest, stamp in ops:
        if op == "record":
            table.record(dest, stamp, spawn(stamp, 0), 0)
        else:
            table.drop(dest, stamp)
        table.check_invariant()


@given(_ops)
def test_held_matches_iteration(ops):
    table = CheckpointTable()
    for op, dest, stamp in ops:
        if op == "record":
            table.record(dest, stamp, spawn(stamp, 0), 0)
        else:
            table.drop(dest, stamp)
    assert table.held() == len(list(table))


class TestLineageAwareCoverage:
    """The instance-covers refinement: checkpoints from racing activation
    lineages must not suppress each other (the 3-fault regression)."""

    @staticmethod
    def _covers_map(edges):
        """covers(a, b) from an explicit instance-parent mapping."""

        def covers(ancestor, holder):
            uid = holder
            while uid is not None:
                if uid == ancestor:
                    return True
                uid = edges.get(uid)
            return False

        return covers

    def test_same_stamp_different_lineage_both_recorded(self):
        table = CheckpointTable()
        s = LevelStamp.of(0, 1)
        covers = self._covers_map({})  # unrelated holders
        assert table.record(3, s, spawn(s, 10), 10, covers=covers) is not None
        assert table.record(3, s, spawn(s, 20), 20, covers=covers) is not None
        assert len(table.entry(3)) == 2

    def test_same_lineage_descendant_suppressed(self):
        table = CheckpointTable()
        a = LevelStamp.of(0)
        z = a.child(1)
        covers = self._covers_map({30: 10})  # holder 30 descends from 10
        assert table.record(3, a, spawn(a, 10), 10, covers=covers) is not None
        assert table.record(3, z, spawn(z, 30), 30, covers=covers) is None
        assert table.suppressed == 1

    def test_cross_lineage_descendant_not_suppressed(self):
        table = CheckpointTable()
        a = LevelStamp.of(0)
        z = a.child(1)
        covers = self._covers_map({})  # 30 does NOT descend from 10
        assert table.record(3, a, spawn(a, 10), 10, covers=covers) is not None
        assert table.record(3, z, spawn(z, 30), 30, covers=covers) is not None
        assert len(table.entry(3)) == 2

    def test_subsumption_respects_lineage(self):
        table = CheckpointTable()
        a = LevelStamp.of(0)
        z = a.child(1)
        covers = self._covers_map({30: 10})
        table.record(3, z, spawn(z, 30), 30, covers=covers)
        # ancestor from the same lineage subsumes the descendant entry
        table.record(3, a, spawn(a, 10), 10, covers=covers)
        assert [c.stamp for c in table.entry(3)] == [a]

    def test_a_second_holder_is_held_behind_the_first(self):
        """One stamp held twice in one entry (racing lineages): the first
        holder stays ``by_stamp``'s, the later one waits in ``more``."""
        table = CheckpointTable()
        s = LevelStamp.of(0, 1)
        covers = self._covers_map({})
        first, second = spawn(s, 10), spawn(s, 20)
        table.record(3, s, first, 10, covers=covers)
        table.record(3, s, second, 20, covers=covers)
        assert table.lookup(s).task_uid == 10
        assert table.drop(3, s, task_uid=10) is True
        assert table.lookup(s).task_uid == 20 and table.lookup(s).packet is second.packet
        table.check_invariant()
        assert table.drop(3, s) is True and table.held() == 0
        table.check_invariant()

    def test_drop_by_holder(self):
        table = CheckpointTable()
        s = LevelStamp.of(0)
        covers = self._covers_map({})
        table.record(1, s, spawn(s, 10), 10, covers=covers)
        table.record(1, s, spawn(s, 20), 20, covers=covers)
        assert table.drop(1, s, task_uid=10) is True
        assert [c.task_uid for c in table.entry(1)] == [20]


class _ReferenceTable:
    """The §3.2 table read literally: each entry is a plain list, scanned
    with ``is_ancestor_of`` + ``covers`` on every operation (quadratic
    over a run).  The model :class:`CheckpointTable` must agree with."""

    def __init__(self):
        self.entries = {}  # dest -> checkpoints in recording order
        self.dropped = self.suppressed = self.peak_held = 0

    def held(self):
        return sum(len(entry) for entry in self.entries.values())

    def record(self, dest, stamp, spawn, task_uid, covers=None):
        entry = self.entries.setdefault(dest, [])
        for c in entry:
            if (c.stamp == stamp or c.stamp.is_ancestor_of(stamp)) and (
                covers is None or covers(c.task_uid, task_uid)
            ):
                self.suppressed += 1
                return None
        for c in list(entry):
            if stamp.is_ancestor_of(c.stamp) and (
                covers is None or covers(task_uid, c.task_uid)
            ):
                entry.remove(c)
                self.dropped += 1
        checkpoint = FunctionalCheckpoint(stamp, dest, spawn.packet, task_uid)
        entry.append(checkpoint)
        self.peak_held = max(self.peak_held, self.held())
        return checkpoint

    def drop(self, dest, stamp, task_uid=None):
        entry = self.entries.get(dest, [])
        doomed = [
            c
            for c in entry
            if c.stamp == stamp and (task_uid is None or c.task_uid == task_uid)
        ]
        for c in doomed:
            entry.remove(c)
            self.dropped += 1
        return bool(doomed)

    def drop_everywhere(self, stamp, task_uid=None):
        return sum(self.drop(dest, stamp, task_uid) for dest in list(self.entries))

    def entry(self, dest):
        return sorted(
            self.entries.get(dest, []),
            key=lambda c: (c.stamp.sort_key(), c.task_uid),
        )

    def lookup(self, stamp):
        for entry in self.entries.values():
            for c in entry:
                if c.stamp == stamp:
                    return c
        return None


_DESTS = (0, 1, 2)
_HOLDERS = (0, 1, 2, 3)
#: One parent object every chained stamp below hangs from.
_SHARED = LevelStamp.of(1)
_CHAINED = [_SHARED, _SHARED.child(0), _SHARED.child(1)]
_CHAINED.append(_CHAINED[1].child(1))
#: A universe small enough that random sequences keep colliding: the same
#: key under two destinations, ancestors recorded after descendants, drops
#: that hit.  Stamps built from the root and ``child()`` chains from
#: ``_SHARED`` (the same objects each time) collide by value as well as
#: by identity.
_close_stamps = st.one_of(
    st.lists(st.integers(0, 1), max_size=3).map(lambda ds: LevelStamp.of(*ds)),
    st.sampled_from(_CHAINED),
)
#: Instance genealogy: each holder's parent is a smaller uid or nobody, so
#: some holders share a lineage and others race (cf. TestLineageAwareCoverage).
_lineages = st.fixed_dictionaries(
    {uid: st.one_of(st.none(), st.integers(0, uid - 1)) for uid in _HOLDERS[1:]}
)
_maybe_holder = st.one_of(st.none(), st.sampled_from(_HOLDERS))
_table_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"), st.sampled_from(_DESTS), _close_stamps, st.sampled_from(_HOLDERS)
        ),
        st.tuples(st.just("drop"), st.sampled_from(_DESTS), _close_stamps, _maybe_holder),
        st.tuples(st.just("drop_everywhere"), st.none(), _close_stamps, _maybe_holder),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_table_ops, st.one_of(st.none(), _lineages))
def test_table_agrees_with_literal_reference(ops, lineage):
    """Model-based differential: same results, counters, listings and
    lookups as the quadratic §3.2 reference after every operation — with
    several holders, lineage-aware and stamp-only coverage, and both the
    holder-keyed and the holder-less drop paths."""
    covers = (
        None if lineage is None else TestLineageAwareCoverage._covers_map(lineage)
    )
    table, model = CheckpointTable(), _ReferenceTable()
    seen = set()
    for op, dest, stamp, uid in ops:
        seen.add(stamp)
        if op == "record":
            record = spawn(stamp, uid)
            got = table.record(dest, stamp, record, uid, covers=covers)
            want = model.record(dest, stamp, record, uid, covers=covers)
            # the table holds the record itself; the model, a checkpoint
            assert got is (None if want is None else record)
            want = got
        elif op == "drop":
            got = table.drop(dest, stamp, uid)
            want = model.drop(dest, stamp, uid)
        else:
            got = table.drop_everywhere(stamp, uid)
            want = model.drop_everywhere(stamp, uid)
        assert got == want
        for counter in ("dropped", "suppressed", "peak_held"):
            assert getattr(table, counter) == getattr(model, counter), counter
        assert table.held() == model.held()
        for d in _DESTS:
            assert table.entry(d) == model.entry(d)
        for s in seen:
            assert table.lookup(s) == model.lookup(s)
        table.check_invariant()


#: One subtree's stamps, up to four levels under ``0``, spread over four
#: destinations: the table-wide descendant index sees kin in other
#: entries on nearly every step.
_INDEX_DESTS = (0, 1, 2, 3)
_family = st.lists(st.integers(0, 1), max_size=4).map(lambda ds: LevelStamp.of(0, *ds))


@st.composite
def _index_ops(draw):
    """Random record/drop/drop_everywhere steps, plus blocks that record
    descendants first — in the ancestor's entry and in others — and their
    ancestor after them."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["record", "drop", "drop_everywhere", "late_ancestor"]))
        stamp = draw(_family)
        if kind == "late_ancestor":
            for path in draw(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=2),
                                      min_size=1, max_size=4)):
                deeper = stamp
                for digit in path:
                    deeper = deeper.child(digit)
                ops.append(("record", draw(st.sampled_from(_INDEX_DESTS)), deeper,
                            draw(st.sampled_from(_HOLDERS))))
            kind = "record"
        if kind == "record":
            uid = draw(st.sampled_from(_HOLDERS))
        else:
            uid = draw(_maybe_holder)
        dest = None if kind == "drop_everywhere" else draw(st.sampled_from(_INDEX_DESTS))
        ops.append((kind, dest, stamp, uid))
    return ops


def _held_set(checkpoints):
    return sorted((c.dest, c.stamp.sort_key(), c.task_uid) for c in checkpoints)


@settings(max_examples=300, deadline=None)
@given(_index_ops(), st.one_of(st.none(), _lineages))
def test_one_descendant_index_per_table_subsumes_what_each_entry_would(ops, lineage):
    """The descendant index ``below`` is one per table, over every entry;
    a naive table that scans each entry on its own decides the same
    suppressions and subsumptions.  Holders race (the same stamp held
    twice in one entry, the second in ``more``) whenever the lineage
    leaves them unrelated, and under stamp-only coverage they never do."""
    covers = None if lineage is None else TestLineageAwareCoverage._covers_map(lineage)
    table, model = CheckpointTable(), _ReferenceTable()
    for op, dest, stamp, uid in ops:
        if op == "record":
            record = spawn(stamp, uid)
            want = model.record(dest, stamp, record, uid, covers=covers)
            assert table.record(dest, stamp, record, uid, covers=covers) is (
                None if want is None else record
            )
        elif op == "drop":
            assert table.drop(dest, stamp, uid) == model.drop(dest, stamp, uid)
        else:
            assert table.drop_everywhere(stamp, uid) == model.drop_everywhere(stamp, uid)
        assert _held_set(table) == _held_set(
            c for d in sorted(model.entries) for c in model.entry(d)
        )
        assert table.held() == model.held()
        table.check_invariant()


class TestSharedHeldTotal:
    def test_tables_update_one_total(self):
        total = HeldTotal()
        a, b = CheckpointTable(total), CheckpointTable(total)
        s, t = LevelStamp.of(0), LevelStamp.of(1)
        a.record(1, s, spawn(s, 0), 0)
        b.record(1, s, spawn(s, 0), 0)
        b.record(2, t, spawn(t, 0), 0)
        assert (a.held(), b.held(), total.held) == (1, 2, 3)
        b.drop_everywhere(t, 0)
        a.drop(1, s)
        assert (a.held(), b.held(), total.held) == (0, 1, 1)
        a.check_invariant()
        b.check_invariant()

    def test_invariant_catches_a_drifted_total(self):
        total = HeldTotal()
        table = CheckpointTable(total)
        table.record(1, LevelStamp.of(0), spawn(LevelStamp.of(0), 0), 0)
        total.held += 1
        with pytest.raises(AssertionError, match="shared held total"):
            table.check_invariant()

    @pytest.mark.parametrize(
        "policy", ["rollback", "splice", "incremental:persist=hybrid", "reversible"]
    )
    def test_machine_total_tracks_every_table_through_recovery(self, policy):
        """The running total the peak metric reads equals the per-node sum
        (what ``_held_everywhere`` used to compute) all through a
        three-crash run, and every table's indexes stay consistent."""
        from repro.api import Experiment
        from repro.sim.failure import Fault, FaultSchedule
        from repro.sim.machine import Machine

        spec = Experiment.workload("balanced:6:2:20").policy(policy).processors(6).build()
        machine = Machine(
            spec.config(), spec.workload.build()[0](), spec.policy.build(),
            collect_trace=False,
        )
        peaks = []

        def audit():
            for node in machine.all_nodes():
                node.ft_state.table.check_invariant()
            peaks.append(machine.policy.held_total.held)

        for tick in range(1, 400):
            machine.queue.schedule(tick * 10.0, audit)
        result = machine.run(
            faults=FaultSchedule.of(Fault(150.0, 1), Fault(300.0, 2), Fault(450.0, 3))
        )
        audit()
        assert result.completed and result.verified
        assert result.metrics.tasks_reissued > 0
        assert max(peaks) <= result.metrics.checkpoint_peak_held
