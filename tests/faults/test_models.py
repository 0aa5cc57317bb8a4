"""Unit tests for the fault models, the combinator, and the spec grammar."""

from __future__ import annotations

import pytest

from repro.api import NemesisSpec
from repro.config import SimConfig
from repro.faults import (
    DROPPABLE,
    CascadingCrash,
    DetectorJitter,
    GrayFailure,
    Interception,
    MessageChaos,
    NemesisSchedule,
    Partition,
    ScheduledCrash,
    all_models,
    get_model,
)
from repro.sim.failure import FaultSchedule
from repro.sim.machine import Machine
from repro.sim.messages import PlacementAck, ResultMsg, TaskPacketMsg
from repro.workloads.trees import balanced_tree
from repro.sim.workload import TreeWorkload


def make_machine(processors=4, seed=0):
    return Machine(
        SimConfig(n_processors=processors, seed=seed),
        TreeWorkload(balanced_tree(2, 2, 5), "tiny"),
        collect_trace=False,
    )


class TestPartition:
    def model(self):
        m = Partition(start=100.0, duration=200.0, group=(0, 1))
        m.validate(4)
        return m

    def test_blocks_cross_group_inside_window_only(self):
        m = self.model()
        assert m.blocks(0, 2, 150.0) and m.blocks(3, 1, 150.0)
        assert not m.blocks(0, 1, 150.0) and not m.blocks(2, 3, 150.0)
        assert not m.blocks(0, 2, 99.0)
        assert not m.blocks(0, 2, 300.0)  # healed (end exclusive)

    def test_super_root_is_never_cut(self):
        m = self.model()
        assert not m.blocks(-1, 2, 150.0) and not m.blocks(0, -1, 150.0)

    def test_rejects_empty_full_or_unknown_groups(self):
        with pytest.raises(ValueError, match="empty"):
            Partition(0.0, 10.0, ()).validate(4)
        with pytest.raises(ValueError, match="other side"):
            Partition(0.0, 10.0, (0, 1, 2, 3)).validate(4)
        with pytest.raises(ValueError, match="unknown"):
            Partition(0.0, 10.0, (9,)).validate(4)
        with pytest.raises(ValueError, match="window"):
            Partition(10.0, 0.0, (0,)).validate(4)


class TestCascade:
    def test_always_leaves_a_survivor(self):
        machine = make_machine(processors=4)
        model = CascadingCrash(time=10.0, node=0, spread_prob=1.0, spread_delay=5.0)
        model.validate(4)
        model.arm(machine, "nemesis:0:cascade")
        # p=1 would kill everyone; the cap must hold it to n-1 victims.
        kill_events = [
            label for *_, label in machine.queue._heap if label.startswith("fault:kill")
        ]
        assert len(kill_events) == 3

    def test_victim_cap_respected(self):
        machine = make_machine(processors=4)
        model = CascadingCrash(10.0, 0, spread_prob=1.0, spread_delay=5.0, max_victims=2)
        model.arm(machine, "nemesis:0:cascade")
        kill_events = [
            label for *_, label in machine.queue._heap if label.startswith("fault:kill")
        ]
        assert len(kill_events) == 2

    def test_same_seed_same_cascade(self):
        def victims(seed):
            machine = make_machine(seed=seed)
            model = CascadingCrash(10.0, 1, spread_prob=0.5)
            model.arm(machine, "nemesis:0:cascade")
            return sorted(
                label for *_, label in machine.queue._heap if label.startswith("fault:kill")
            )

        assert victims(7) == victims(7)

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="unknown"):
            CascadingCrash(1.0, 9).validate(4)
        with pytest.raises(ValueError, match="spread_prob"):
            CascadingCrash(1.0, 0, spread_prob=1.5).validate(4)


class TestGrayFailure:
    def test_scales_only_target_node_inside_window(self):
        m = GrayFailure(node=1, start=50.0, duration=100.0, factor=4.0)
        m.validate(4)
        assert m.scale_step_time(1, 60.0, 10.0) == 40.0
        assert m.scale_step_time(2, 60.0, 10.0) == 10.0
        assert m.scale_step_time(1, 10.0, 10.0) == 10.0
        assert m.scale_step_time(1, 150.0, 10.0) == 10.0  # end exclusive

    def test_rejects_speedup_factors(self):
        with pytest.raises(ValueError, match="factor"):
            GrayFailure(1, 0.0, 10.0, factor=0.5).validate(4)


class TestMessageChaos:
    def test_droppable_classes_are_the_recoverable_ones(self):
        # Results have no retransmission path; dropping them silently
        # would make a stall unrecoverable by construction.
        assert TaskPacketMsg in DROPPABLE and PlacementAck in DROPPABLE
        assert ResultMsg not in DROPPABLE

    def test_drop_verdict_only_for_droppable_types(self):
        machine = make_machine()
        model = MessageChaos(drop=1.0)
        model.validate(4)
        model.arm(machine, "nemesis:0:chaos")
        packet_msg = TaskPacketMsg(src=0, dst=1, packet=None)
        result_msg = ResultMsg(src=0, dst=1)
        verdict = model.on_send(machine.network, packet_msg, 1, 0.0)
        assert verdict is not None and verdict.drop
        assert model.on_send(machine.network, result_msg, 1, 0.0) is None

    def test_window_gates_interference(self):
        machine = make_machine()
        model = MessageChaos(drop=1.0, start=100.0, duration=50.0)
        model.arm(machine, "nemesis:0:chaos")
        msg = TaskPacketMsg(src=0, dst=1, packet=None)
        assert model.on_send(machine.network, msg, 1, 10.0) is None
        assert model.on_send(machine.network, msg, 1, 120.0).drop
        assert model.on_send(machine.network, msg, 1, 200.0) is None

    def test_per_link_probabilities(self):
        machine = make_machine()
        model = MessageChaos(drop={(0, 1): 1.0})
        model.validate(4)
        model.arm(machine, "nemesis:0:chaos")
        assert model.on_send(machine.network, TaskPacketMsg(src=0, dst=1, packet=None), 1, 0.0).drop
        assert model.on_send(machine.network, TaskPacketMsg(src=1, dst=0, packet=None), 1, 0.0) is None

    def test_duplicate_and_reorder_verdicts(self):
        machine = make_machine()
        model = MessageChaos(duplicate=1.0, reorder=1.0, span=30.0)
        model.arm(machine, "nemesis:0:chaos")
        verdict = model.on_send(machine.network, ResultMsg(src=0, dst=1), 1, 0.0)
        assert not verdict.drop
        assert len(verdict.copies) == 1 and 0.0 <= verdict.copies[0] < 30.0
        assert 0.0 <= verdict.delay < 30.0

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="probability"):
            MessageChaos(drop=1.5).validate(4)


class TestDetectorJitter:
    def test_extra_within_bound_and_deterministic(self):
        def draws(seed):
            machine = make_machine(seed=seed)
            model = DetectorJitter(max_extra=20.0)
            model.arm(machine, "nemesis:0:jitter")
            return [model.detector_extra(1, i) for i in range(5)]

        values = draws(3)
        assert all(0.0 <= v < 20.0 for v in values)
        assert values == draws(3)

    def test_zero_extra_is_free(self):
        model = DetectorJitter(max_extra=0.0)
        assert model.detector_extra(0, 1) == 0.0


class TestNemesisSchedule:
    def test_empty_schedule_arms_nothing(self):
        machine = make_machine()
        NemesisSchedule.none().arm(machine)
        assert machine.nemesis is None
        assert machine.network.nemesis is None
        assert all(node.nemesis is None for node in machine.all_nodes())

    def test_arm_binds_every_hook_site(self):
        machine = make_machine()
        schedule = NemesisSchedule.of(GrayFailure(1, 0.0, 10.0))
        schedule.arm(machine)
        assert machine.nemesis is schedule
        assert machine.network.nemesis is schedule
        assert all(node.nemesis is schedule for node in machine.all_nodes())

    def test_composition_adds_delays_and_concatenates_copies(self):
        from repro.faults import FaultModel

        class Delayer(FaultModel):
            name = "delayer"
            intercepts_delivery = True

            def __init__(self, delay, copies=()):
                self._verdict = Interception(delay=delay, copies=copies)

            def on_send(self, network, msg, hops, now):
                return self._verdict

        machine = make_machine()
        schedule = NemesisSchedule.of(Delayer(5.0, (1.0,)), Delayer(7.0, (2.0,)))
        machine.nemesis = schedule
        msg = ResultMsg(src=0, dst=1)
        before = machine.queue.pending()
        handled = schedule.intercept_send(machine.network, msg, 1)
        assert handled
        # one primary (delayed) + two duplicate copies
        assert machine.queue.pending() == before + 3
        assert machine.metrics.nemesis_delayed == 1
        assert machine.metrics.nemesis_duplicated == 2

    def test_first_drop_wins(self):
        machine = make_machine()
        schedule = NemesisSchedule.of(
            MessageChaos(drop=1.0), MessageChaos(duplicate=1.0)
        )
        schedule.arm(machine)
        before = machine.queue.pending()
        assert schedule.intercept_send(
            machine.network, TaskPacketMsg(src=0, dst=1, packet=None), 1
        )
        assert machine.queue.pending() == before  # silently gone
        assert machine.metrics.nemesis_dropped == 1

    def test_super_root_traffic_is_exempt(self):
        machine = make_machine()
        schedule = NemesisSchedule.of(MessageChaos(drop=1.0, duplicate=1.0))
        schedule.arm(machine)
        assert not schedule.intercept_send(
            machine.network, ResultMsg(src=0, dst=-1), 1
        )

    def test_validation_happens_at_arm(self):
        machine = make_machine(processors=2)
        with pytest.raises(ValueError, match="unknown processor"):
            NemesisSchedule.of(ScheduledCrash.single(10.0, 5)).arm(machine)


def one_model(text, base_makespan=1.0):
    (model,) = NemesisSpec.parse(text).build(base_makespan)
    return model


def schedule_of(text, base_makespan=1.0):
    return NemesisSpec.parse(text).build(base_makespan)


class TestRegistryAndGrammar:
    def test_registry_names_are_pinned(self):
        assert set(all_models()) == {
            "crash", "cascade", "partition", "chaos", "grayfail", "jitter",
        }

    def test_every_model_has_example_that_parses(self):
        for info in all_models().values():
            model = one_model(info.example, base_makespan=100.0)
            assert model.name == info.name

    #: Each model's bare clause (required parameters only) beside the same
    #: object from the Python API, whose constructors keep their own defaults.
    BARE = {
        "crash": ("crash:at=0.5,node=1", lambda: ScheduledCrash.single(0.5, 1)),
        "cascade": ("cascade:at=0.5,node=1", lambda: CascadingCrash(0.5, 1)),
        "partition": (
            "partition:start=0.25,dur=0.5,group=0-1", lambda: Partition(0.25, 0.5, (0, 1))
        ),
        "chaos": ("chaos", MessageChaos),
        "grayfail": ("grayfail:node=1,start=0.25,dur=0.5", lambda: GrayFailure(1, 0.25, 0.5)),
        "jitter": ("jitter", DetectorJitter),
    }

    def test_the_bare_clauses_cover_the_registry(self):
        assert set(self.BARE) == set(all_models())

    @pytest.mark.parametrize("name", sorted(BARE))
    def test_a_bare_clause_arms_the_tables_defaults(self, name):
        # the registry's factories carry no defaults of their own, so what a
        # bare clause arms *is* the default column `faults describe` prints
        text, python_api = self.BARE[name]
        table = get_model(name).params
        (clause,) = NemesisSpec.parse(text).clauses
        assert [key for key, _ in clause.params] == [k for k, p in table.items() if p.required]
        assert vars(one_model(text)) == vars(python_api())

    def test_fraction_params_scale_with_base_makespan(self):
        model = one_model("crash:at=0.5,node=1", base_makespan=200.0)
        assert list(model.schedule)[0].time == 100.0
        part = one_model("partition:start=0.25,dur=0.5,group=0", base_makespan=400.0)
        assert part.start == 100.0 and part.end == 300.0

    def test_latency_scale_params_are_absolute(self):
        model = one_model("jitter:max=25", base_makespan=1000.0)
        assert model.max_extra == 25.0
        chaos = one_model("chaos:drop=0.1,span=40", base_makespan=1000.0)
        assert chaos.span == 40.0

    def test_composition_and_empty_spec(self):
        schedule = schedule_of(
            "crash:at=0.4,node=1+chaos:drop=0.05+jitter:max=10", 100.0
        )
        assert [m.name for m in schedule] == ["crash", "chaos", "jitter"]
        assert len(schedule_of("", 100.0)) == 0
        assert not schedule_of("  ", 100.0)

    def test_grammar_errors(self):
        from repro.errors import SpecError

        # Spec-grammar failures are structured SpecErrors (which subclass
        # ValueError); only the raw registry lookup still raises KeyError.
        with pytest.raises(SpecError, match="unknown fault model"):
            schedule_of("no-such-model:x=1")
        with pytest.raises(ValueError, match="unknown parameter"):
            schedule_of("crash:at=0.5,node=1,bogus=3")
        with pytest.raises(ValueError, match="missing parameters"):
            schedule_of("crash:at=0.5")
        with pytest.raises(ValueError, match="bad value"):
            schedule_of("crash:at=half,node=1")
        with pytest.raises(KeyError):
            get_model("nope")

    def test_node_list_values(self):
        part = one_model("partition:start=0.1,dur=0.1,group=0-2-3", 100.0)
        assert part.group == frozenset({0, 2, 3})
