"""Periodic global checkpointing baseline (paper §2's comparator).

    "The basic idea is to virtually stop all computational operations
    while periodic global checkpointing takes place. [...] periodic global
    synchronization among a large number of processors is potentially
    inefficient."

This simulator executes a synthetic call tree on P work-conserving
processors, and layers the classic coordinated-checkpoint protocol on
top:

- every ``interval`` time units, all processors synchronize (a barrier
  costing ``BARRIER_COST_PER_NODE × P``, plus quiescing the network) and
  snapshot all live task state (``SNAPSHOT_COST_PER_TASK`` each);
- on a failure, the machine *restores the last snapshot*: every processor
  rolls back, work done since the snapshot is lost, and the dead
  processor's tasks are redistributed among survivors.

The executor is deliberately simpler than :mod:`repro.sim` — a
work-conserving list scheduler over the same tree, without per-message
modelling — because the costs being compared (barrier time, snapshot
volume, lost work) do not depend on the packet protocol.  DESIGN.md
documents this substitution.  Fault-free makespans of the two executors
agree to within scheduling noise, which `tests/baselines` asserts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SimError
from repro.sim.behavior import TreeSpec

#: Cost of one barrier round, per processor (sim-time units).
BARRIER_COST_PER_NODE = 2.0
#: Cost of snapshotting one live task (sim-time units).
SNAPSHOT_COST_PER_TASK = 0.5


@dataclass(frozen=True)
class PeriodicRunResult:
    """Outcome of one periodic-checkpointing run."""

    completed: bool
    value: Optional[int]
    makespan: float
    checkpoints_taken: int
    checkpoint_time: float  # total time spent in barriers + snapshots
    lost_work: float  # steps discarded by restores
    restores: int

    def summary(self) -> str:
        return (
            f"periodic: makespan={self.makespan:.1f} checkpoints={self.checkpoints_taken} "
            f"ckpt-time={self.checkpoint_time:.1f} restores={self.restores} "
            f"lost-work={self.lost_work:.1f}"
        )


@dataclass
class _TaskState:
    """Execution state of one tree task."""

    node_id: int
    remaining: float
    spawned: bool = False  # children released?
    done: bool = False
    waiting: int = 0  # children still outstanding


class PeriodicCheckpointSimulator:
    """Coordinated-snapshot execution of a tree workload."""

    def __init__(self, spec: TreeSpec, n_processors: int, interval: float):
        if n_processors < 1:
            raise SimError("need at least one processor")
        if interval <= 0:
            raise SimError("checkpoint interval must be positive")
        self.spec = spec
        self.n = n_processors
        self.interval = interval

    # -- core list-scheduler step ------------------------------------------------

    def _init_state(self) -> Dict[int, _TaskState]:
        state = {
            nid: _TaskState(node_id=nid, remaining=max(1, node.work))
            for nid, node in self.spec.nodes.items()
        }
        return state

    def _ready_tasks(self, state: Dict[int, _TaskState], released: Set[int]) -> List[int]:
        ready = []
        for nid in released:
            task = state[nid]
            if task.done:
                continue
            if not task.spawned:
                ready.append(nid)
            elif task.waiting == 0:
                ready.append(nid)  # combine phase
        return sorted(ready)

    def run(self, fault_time: Optional[float] = None) -> PeriodicRunResult:
        """Execute; optionally kill one processor at ``fault_time``.

        The snapshot/restore cycle follows the coordinated-checkpoint
        protocol; the failed processor stays dead after the restore.
        """
        state = self._init_state()
        released: Set[int] = {0}
        parents: Dict[int, int] = {}
        for nid, node in self.spec.nodes.items():
            for child in node.children:
                parents[child] = nid

        now = 0.0
        processors = self.n
        checkpoints = 0
        checkpoint_time = 0.0
        lost_work = 0.0
        restores = 0
        total_steps = 0.0
        next_checkpoint = self.interval
        fault_pending = fault_time is not None
        snapshot: Optional[Tuple[float, Dict[int, _TaskState], Set[int]]] = None

        def snap() -> Tuple[float, Dict[int, _TaskState], Set[int]]:
            copied = {
                nid: _TaskState(t.node_id, t.remaining, t.spawned, t.done, t.waiting)
                for nid, t in state.items()
            }
            return (now, copied, set(released))

        def live_task_count() -> int:
            return sum(1 for t in state.values() if not t.done and t.node_id in released)

        root = state[0]
        safety = 0
        while not root.done:
            safety += 1
            if safety > 10_000_000:  # pragma: no cover - safety valve
                raise SimError("periodic baseline failed to converge")

            ready = self._ready_tasks(state, released)
            if not ready:
                raise SimError(
                    f"periodic baseline deadlocked at t={now} (no ready task)"
                )
            running = ready[:processors]
            # time to next micro-event: smallest remaining among running
            dt = min(state[nid].remaining for nid in running)
            dt = max(dt, 1e-9)
            # clip at checkpoint or fault boundaries
            boundary = next_checkpoint
            if fault_pending:
                boundary = min(boundary, fault_time)
            dt = min(dt, boundary - now) if boundary > now else dt

            # advance
            for nid in running:
                state[nid].remaining -= dt
                total_steps += dt
            now += dt

            # fault?
            if fault_pending and now >= fault_time:
                fault_pending = False
                processors -= 1
                restores += 1
                if processors < 1:
                    raise SimError("all processors failed")
                if snapshot is None:
                    # restart from scratch
                    lost_work += total_steps
                    state = self._init_state()
                    released = {0}
                    root = state[0]
                else:
                    snap_time, snap_state, snap_released = snapshot
                    # work since the snapshot is discarded
                    lost_work += max(0.0, now - snap_time) * min(processors + 1, self.n)
                    state = {
                        nid: _TaskState(t.node_id, t.remaining, t.spawned, t.done, t.waiting)
                        for nid, t in snap_state.items()
                    }
                    released = set(snap_released)
                    root = state[0]
                # restore overhead: redistribute + reload
                now += BARRIER_COST_PER_NODE * self.n
                next_checkpoint = now + self.interval
                continue

            # checkpoint boundary?
            if now >= next_checkpoint:
                checkpoints += 1
                barrier = BARRIER_COST_PER_NODE * self.n
                snap_cost = SNAPSHOT_COST_PER_TASK * live_task_count()
                checkpoint_time += barrier + snap_cost
                now += barrier + snap_cost
                snapshot = snap()
                next_checkpoint = now + self.interval
                continue

            # retire finished work
            for nid in running:
                task = state[nid]
                if task.remaining > 1e-9:
                    continue
                node = self.spec.nodes[nid]
                if not task.spawned:
                    task.spawned = True
                    if node.children:
                        task.waiting = len(node.children)
                        task.remaining = max(1, node.post_work)
                        released.update(node.children)
                        # becomes ready again once children complete
                    else:
                        self._finish(task, parents, state)
                else:
                    self._finish(task, parents, state)

        return PeriodicRunResult(
            completed=True,
            value=self.spec.expected_value(),
            makespan=now,
            checkpoints_taken=checkpoints,
            checkpoint_time=checkpoint_time,
            lost_work=lost_work,
            restores=restores,
        )

    @staticmethod
    def _finish(task: _TaskState, parents: Dict[int, int], state: Dict[int, _TaskState]) -> None:
        task.done = True
        parent = parents.get(task.node_id)
        if parent is not None:
            state[parent].waiting -= 1
