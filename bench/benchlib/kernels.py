"""Single-layer kernels, timed from outside on inputs shaped like the workloads.

Each ``_kernel`` function prepares its inputs and returns a thunk; the
thunk does the work once and returns how many operations that was.
:func:`run_all` reports operations per second from the median of a few
thunk calls.  Self-contained on purpose: nothing here imports
``repro.perf``, so the benchmark does not move when that suite does.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Callable, Dict, List

from benchlib.workloads import CHAOS_NEMESIS, OPENLOOP_ARRIVALS, STORM_TREE

Thunk = Callable[[], float]

PROCESSORS = 8
REPEATS = 3
LEDGER_APPENDS = 200


def _stamps(depth: int) -> List:
    """All stamps of a balanced binary call tree, breadth-first."""
    from repro.core.stamps import LevelStamp

    stamps = [LevelStamp.root()]
    frontier = stamps
    for _ in range(depth):
        frontier = [s.child(d) for s in frontier for d in range(2)]
        stamps = stamps + frontier
    return stamps


def _events(scratch: str) -> Thunk:
    from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MESSAGE, PRIORITY_RUN, EventQueue

    n = 30_000
    priorities = (PRIORITY_MESSAGE, PRIORITY_CONTROL, PRIORITY_RUN)

    def nop() -> None:
        pass

    def thunk() -> float:
        queue = EventQueue()
        cancelled = 0
        for i in range(n):
            entry = queue.schedule(
                float((i * 7919) % 1000), nop, label="k", priority=priorities[i % 3]
            )
            if i % 10 == 0:
                queue.cancel(entry)
                cancelled += 1
        while queue.step() is not None:
            pass
        return n + cancelled + queue.events_processed

    return thunk


def _network(scratch: str) -> Thunk:
    from repro.api import WorkloadSpec
    from repro.config import SimConfig
    from repro.core.stamps import LevelStamp
    from repro.sim.machine import Machine
    from repro.sim.messages import PlacementAck

    n = 10_000
    factory, _ = WorkloadSpec.parse("balanced:1:1:1").build()

    def thunk() -> float:
        machine = Machine(SimConfig(n_processors=PROCESSORS, seed=0), factory())
        stamp = LevelStamp.of(0)
        for i in range(n):
            machine.network.send(
                PlacementAck(
                    src=i % PROCESSORS, dst=(i + 1) % PROCESSORS, stamp=stamp,
                    executor=i % PROCESSORS, instance=i,
                    parent_instance=10**9,  # no such instance: transport cost only
                )
            )
        while machine.queue.step() is not None:
            pass
        return machine.metrics.messages_total

    return thunk


def _checkpoint(scratch: str) -> Thunk:
    from repro.core.checkpoint import CheckpointTable
    from repro.core.packets import ReturnAddress, TaskPacket, WorkSpec

    stamps = _stamps(9)[1:]
    packets = [
        TaskPacket(
            stamp=s, work=WorkSpec(kind="tree", tree_node=0),
            parent=ReturnAddress(0, i), grandparent_node=0,
        )
        for i, s in enumerate(stamps)
    ]

    def thunk() -> float:
        topdown = CheckpointTable()
        for i, (stamp, packet) in enumerate(zip(stamps, packets)):
            topdown.record(i % PROCESSORS, stamp, packet, task_uid=i)
        bottomup = CheckpointTable()
        for i in range(len(stamps) - 1, -1, -1):
            bottomup.record(i % PROCESSORS, stamps[i], packets[i], task_uid=i)
        for stamp in stamps:
            bottomup.drop_everywhere(stamp)
        return 3 * len(stamps)

    return thunk


def _stamp_ops(scratch: str) -> Thunk:
    from repro.core.stamps import topmost

    stamps = _stamps(9)
    leaves = [s for s in stamps if s.depth == 9]

    def thunk() -> float:
        for leaf in leaves:
            for depth in (0, 3, 6):
                leaf.ancestor_at(depth).is_ancestor_of(leaf)
        sorted(stamps, key=lambda s: s.sort_key())
        topmost(leaves)
        return 3 * len(leaves) + len(stamps) + len(leaves)

    return thunk


def _partition(scratch: str) -> Thunk:
    from repro.faults import Partition

    model = Partition(start=100.0, duration=400.0, group=(0, 1, 2))
    model.validate(PROCESSORS)
    probes = [
        ((i * 7) % PROCESSORS, (i * 13 + 3) % PROCESSORS, float((i * 17) % 700))
        for i in range(30_000)
    ]

    def thunk() -> float:
        blocks = model.blocks
        for src, dst, now in probes:
            blocks(src, dst, now)
        return len(probes)

    return thunk


def _mutations(scratch: str) -> Thunk:
    from repro.faults import mutate_nemesis, random_nemesis

    n = 2_000

    def thunk() -> float:
        rng = random.Random(0)
        spec = random_nemesis(rng, 4)
        for _ in range(n):
            spec = mutate_nemesis(rng, spec, 4)
        return n

    return thunk


def _arrivals(scratch: str) -> Thunk:
    from repro.load import ArrivalSpec, sample_arrivals

    spec = ArrivalSpec.parse(OPENLOOP_ARRIVALS.replace("horizon=4000", "horizon=40000"))

    def thunk() -> float:
        return len(sample_arrivals(spec, 0))

    return thunk


def _parse(scratch: str) -> Thunk:
    from repro.api import ArrivalSpec, FaultSpec, NemesisSpec, PolicySpec, WorkloadSpec

    texts = (
        (WorkloadSpec, STORM_TREE),
        (PolicySpec, "incremental:persist=hybrid"),
        (NemesisSpec, CHAOS_NEMESIS),
        (ArrivalSpec, OPENLOOP_ARRIVALS),
        (FaultSpec, "0.25:1+0.45:2+0.65:3"),
    )
    n = 400

    def thunk() -> float:
        for _ in range(n):
            for cls, text in texts:
                cls.parse(text)
        return n * len(texts)

    return thunk


def _json_roundtrip(scratch: str) -> Thunk:
    from repro.api import Experiment, RunSpec

    spec = (
        Experiment.workload(STORM_TREE).policy("splice").nemesis(CHAOS_NEMESIS)
        .arrivals(OPENLOOP_ARRIVALS).fault(0.25, 1).processors(PROCESSORS).seed(0).build()
    )
    n = 500

    def thunk() -> float:
        for _ in range(n):
            RunSpec.from_json(spec.to_json())
        return n

    return thunk


def _sweep_spec(replications: int):
    from repro.exp import get_scenario, with_replications

    return with_replications(get_scenario("smoke"), replications)


def _expand(scratch: str) -> Thunk:
    from repro.exp import expand

    spec = _sweep_spec(100)

    def thunk() -> float:
        points = expand(spec)
        spec.key()
        return len(points)

    return thunk


def _ledger_writer(ledger_dir: str) -> Callable[[], str]:
    """A thunk that journals LEDGER_APPENDS copies of one real smoke point."""
    from repro.exp import LedgerWriter, run_scenario

    spec = _sweep_spec(1)
    result = run_scenario(spec, workers=1).results()[0]

    def write() -> str:
        with LedgerWriter.start(ledger_dir, spec) as writer:
            for index in range(LEDGER_APPENDS):
                writer.point_finished(index, result)
        return writer.path

    return write


def _ledger_append(scratch: str) -> Thunk:
    write = _ledger_writer(scratch)

    def thunk() -> float:
        write()
        return LEDGER_APPENDS

    return thunk


def _ledger_replay(scratch: str) -> Thunk:
    from repro.exp import replay_ledger

    path = _ledger_writer(os.path.join(scratch, "replay"))()

    def thunk() -> float:
        replay_ledger(path)
        return LEDGER_APPENDS + 1

    return thunk


def _dumps(scratch: str) -> Thunk:
    from repro.exp import run_scenario
    from repro.util.jsonio import canonical_dumps

    payload = run_scenario(_sweep_spec(25), workers=1).payload()

    def thunk() -> float:
        return len(canonical_dumps(payload)) / 1e6

    return thunk


def _aggregate(scratch: str) -> Thunk:
    from repro.exp import run_scenario
    from repro.report import aggregate_sweep

    spec = _sweep_spec(25)
    sweep = run_scenario(spec, workers=1)

    def thunk() -> float:
        return len(aggregate_sweep(sweep, spec, n_boot=1000).cells)

    return thunk


def _traced_context():
    from repro.api import Experiment, execute
    from repro.check import CheckConfig, build_context, evaluate_context

    spec = (
        Experiment.workload("balanced:5:2:10").policy("rollback").processors(4)
        .nemesis("crash:at=0.4,node=1").seed(0).build()
    )
    config = CheckConfig()
    ctx = build_context(execute(spec, collect_trace=True), config)
    return ctx, config, evaluate_context(ctx, config)


def _oracles(scratch: str) -> Thunk:
    from repro.check import evaluate_context

    ctx, config, _ = _traced_context()
    n = 20

    def thunk() -> float:
        for _ in range(n):
            evaluate_context(ctx, config)
        return n * len(ctx.records)

    return thunk


def _signatures(scratch: str) -> Thunk:
    from repro.check import signature_from_context

    ctx, _, report = _traced_context()
    n = 50

    def thunk() -> float:
        for _ in range(n):
            signature_from_context(ctx, report)
        return n

    return thunk


#: Metric name -> kernel, in ``names.KERNELS`` order.
KERNELS: Dict[str, Callable[[str], Thunk]] = {
    "sim.events.ops_per_s": _events,
    "sim.network.msgs_per_s": _network,
    "core.checkpoint.records_per_s": _checkpoint,
    "core.stamps.ops_per_s": _stamp_ops,
    "faults.partition.probes_per_s": _partition,
    "faults.generate.mutations_per_s": _mutations,
    "load.arrivals_per_s": _arrivals,
    "api.specs.parse_per_s": _parse,
    "api.specs.json_roundtrip_per_s": _json_roundtrip,
    "exp.scenario.expand_per_s": _expand,
    "exp.ledger.append_per_s": _ledger_append,
    "exp.ledger.replay_per_s": _ledger_replay,
    "util.jsonio.dumps_mb_per_s": _dumps,
    "report.aggregate.cells_per_s": _aggregate,
    "check.oracles.records_per_s": _oracles,
    "check.coverage.sigs_per_s": _signatures,
}


def run_all(scratch: str) -> Dict[str, float]:
    """Operations per second of every kernel; ``scratch`` holds the ledgers."""
    out: Dict[str, float] = {}
    for name, make in KERNELS.items():
        thunk = make(scratch)
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            ops = thunk()
            seconds.append(time.perf_counter() - start)
        out[name] = ops / statistics.median(seconds)
    return out
