"""The paper's Figure 1/2/3 worked example, executable.

Figure 1 maps a call tree onto processors A, B, C, D and observes that
when B fails the tree fragments into three pieces:

    {A1, C1, C2, C3, D3}   still rooted at A1
    {A2, D1, D2, C4}       severed below B2 (rooted at orphan A2)
    {D4, D5, A5}           severed below B2 (rooted at orphan D4)

with checkpoints distributed as: A holds B1's, C holds B2's and B3's, D
holds B7's — and C4 retains B5's packet, but the topmost rule keeps B5
out of C's table entry because ancestor B2 is already recorded there
("recovery of B5 is not fruitful").

Figure 2 adds the grandparent pointers (B3 -> A1's node, D4 -> C1's node);
Figure 3 shows twin B2' inheriting D4 and A2 after C learns of B's death.

The tree below satisfies every parent/child relation the paper states:

    A1 ── B1
       └─ C1 ── B2 ── D4 ── D5 ── A5
             ├─ B3
             └─ C2 ── C3
                   └─ D3 ── B7
    with   B2 ── A2 ── D1 ── D2 ── C4 ── B5

Leaf tasks run long (400 steps) so that the fault at t=250 strikes while
every task is resident exactly as drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.config import CostModel, SimConfig
from repro.core.packets import TaskPacket
from repro.sim.behavior import TreeSpec, TreeTaskSpec
from repro.sim.failure import FaultSchedule
from repro.sim.loadbalance import Scheduler
from repro.sim.machine import Machine, RunResult
from repro.sim.workload import TreeWorkload

#: Processor letters of the figure.
PROCESSORS = {"A": 0, "B": 1, "C": 2, "D": 3}
PROCESSOR_NAMES = {v: k for k, v in PROCESSORS.items()}

#: (task name, parent name or None) in spawn order per parent.
_TREE: List[Tuple[str, Optional[str]]] = [
    ("A1", None),
    ("B1", "A1"),
    ("C1", "A1"),
    ("B2", "C1"),
    ("B3", "C1"),
    ("C2", "C1"),
    ("D4", "B2"),
    ("A2", "B2"),
    ("C3", "C2"),
    ("D3", "C2"),
    ("D5", "D4"),
    ("D1", "A2"),
    ("B7", "D3"),
    ("A5", "D5"),
    ("D2", "D1"),
    ("C4", "D2"),
    ("B5", "C4"),
]

#: Tasks whose work is long (the fault strikes mid-execution).  Leaves
#: time-slice in 30-step chunks so inner tasks queued behind them still
#: get to run and unfold the tree before the fault.
_LEAVES = {"B1", "B3", "C3", "B7", "A5", "B5"}
_LEAF_WORK = 400
_LEAF_CHUNK = 30
_INNER_WORK = 10

#: Processor of each task: its name's letter.
FIGURE1_PLACEMENT: Dict[str, int] = {name: PROCESSORS[name[0]] for name, _ in _TREE}

#: The fragments the paper lists after B fails.
EXPECTED_FRAGMENTS: Tuple[FrozenSet[str], ...] = (
    frozenset({"A1", "C1", "C2", "C3", "D3"}),
    frozenset({"A2", "D1", "D2", "C4"}),
    frozenset({"D4", "D5", "A5"}),
)

#: Checkpoint-table entry[B] per surviving processor, per the paper:
#: "command processor A to respawn B1, and command processor C to
#:  regenerate B2 and B3" (+ D holds B7's checkpoint).
EXPECTED_CHECKPOINTS: Dict[str, FrozenSet[str]] = {
    "A": frozenset({"B1"}),
    "C": frozenset({"B2", "B3"}),
    "D": frozenset({"B7"}),
}

#: Grandparent pointers Figure 2 calls out: task -> processor letter.
EXPECTED_GRANDPARENTS = {"B3": "A", "D4": "C"}


def _build() -> Tuple[TreeSpec, Dict[str, int], Dict[int, str]]:
    """Build the TreeSpec plus name<->node-id maps."""
    children: Dict[str, List[str]] = {name: [] for name, _ in _TREE}
    for name, parent in _TREE:
        if parent is not None:
            children[parent].append(name)
    ids: Dict[str, int] = {}

    def assign(name: str) -> None:
        ids[name] = len(ids)
        for child in children[name]:
            assign(child)

    assign("A1")
    nodes: Dict[int, TreeTaskSpec] = {}
    for name, _ in _TREE:
        nid = ids[name]
        is_leaf = name in _LEAVES
        nodes[nid] = TreeTaskSpec(
            node_id=nid,
            work=_LEAF_WORK if is_leaf else _INNER_WORK,
            children=tuple(ids[c] for c in children[name]),
            chunk=_LEAF_CHUNK if is_leaf else None,
        )
    names_by_id = {nid: name for name, nid in ids.items()}
    return TreeSpec(nodes), ids, names_by_id


class PinnedScheduler(Scheduler):
    """Place each figure task on its drawn processor.

    Recovery re-placements (the pinned processor is dead or excluded)
    fall back to the least-loaded survivor — recovery tasks go through
    ordinary dynamic allocation, per §3.3.

    ``pin_once`` makes each pin apply only to the *first* placement of its
    tree node; re-activations then use the dynamic fallback.  The Figure-5
    case drivers use this to keep an orphan on a congested processor while
    its twin-spawned sibling escapes to an idle one.
    """

    name = "pinned"

    def __init__(self, pin_by_tree_node: Dict[int, int], pin_once: bool = False):
        super().__init__()
        self.pin_by_tree_node = pin_by_tree_node
        self.pin_once = pin_once
        self._used: Set[int] = set()

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        alive = self._alive(exclude)
        tree_node = packet.work.tree_node
        target = self.pin_by_tree_node.get(tree_node)
        if target is not None and (not self.pin_once or tree_node not in self._used):
            if target in alive:
                if self.pin_once:
                    self._used.add(tree_node)
                return target
        return min(alive, key=lambda n: (self._load(n), n))


def pinned_machine(
    tree: TreeSpec,
    pins: Dict[int, int],
    policy,
    name: str,
    *,
    cost: CostModel = CostModel(),
    n_processors: int = 4,
    seed: int = 0,
    pin_once: bool = False,
) -> Machine:
    """A traced machine on a complete graph running ``tree`` under
    ``policy``, with tree node ``n`` placed on processor ``pins[n]``."""
    return Machine(
        SimConfig(n_processors=n_processors, topology="complete", seed=seed, cost=cost),
        TreeWorkload(tree, name),
        policy,
        scheduler=PinnedScheduler(pins, pin_once=pin_once),
    )


@dataclass
class Figure1Scenario:
    """Everything needed to run and interrogate the Figure-1 example."""

    spec: TreeSpec
    ids: Dict[str, int]
    names: Dict[int, str]
    fault_time: float = 250.0
    dead_processor: str = "B"

    def faults(self) -> FaultSchedule:
        return FaultSchedule.single(self.fault_time, PROCESSORS[self.dead_processor])

    def run(self, policy, seed: int = 0) -> Tuple[Machine, RunResult]:
        pins = {self.ids[name]: proc for name, proc in FIGURE1_PLACEMENT.items()}
        machine = pinned_machine(self.spec, pins, policy, "figure1", seed=seed)
        return machine, machine.run(faults=self.faults())

    # -- interrogation ---------------------------------------------------------

    def fragments(self) -> Tuple[FrozenSet[str], ...]:
        """Connected components of surviving tasks after B's tasks vanish.

        Pure graph computation on the drawn tree — the ground truth the
        simulated failure is checked against.
        """
        dead = PROCESSORS[self.dead_processor]
        alive_tasks = {
            name for name in self.ids if FIGURE1_PLACEMENT[name] != dead
        }
        parent_of = {name: parent for name, parent in _TREE}
        fragments: List[Set[str]] = []
        assigned: Dict[str, int] = {}
        for name, _ in _TREE:  # spawn order = topological order
            if name not in alive_tasks:
                continue
            parent = parent_of[name]
            if parent in assigned and parent in alive_tasks:
                index = assigned[parent]
                fragments[index].add(name)
                assigned[name] = index
            else:
                assigned[name] = len(fragments)
                fragments.append({name})
        return tuple(frozenset(f) for f in fragments)


def figure1_scenario() -> Figure1Scenario:
    """Construct the canonical Figure-1 scenario."""
    spec, ids, names = _build()
    return Figure1Scenario(spec=spec, ids=ids, names=names)
