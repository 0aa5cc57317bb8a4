"""Rendering identity: records carry objects, ``detail`` renders what emit used to.

Before PR 13 every emit site rendered ``str(stamp)``/``repr(value)``
into its kwargs and the record stored the strings.  Records now hold the
objects and ``TraceRecord.detail`` derives the rendering, so the view
must equal, key for key and in the same order, what eager rendering
produced.  ``_EagerTrace`` is that old behaviour kept as the reference: it
renders *at emit* with its own rule table (not ``trace._render``) and
stores the rendered dict in a record that prints like a ``TraceRecord``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.machine as machine_module
from repro.api import Experiment, execute
from repro.sim.trace import KINDS, Trace, TraceRecord

TREE = "balanced:6:2:20"
STORM = ((0.25, 1), (0.45, 2), (0.65, 3))
CHAOS = "crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40+jitter:max=25"
OPENLOOP = "poisson:rate=0.1,horizon=1500,tasks=10,cap=5,overflow=backpressure"


class _EagerRecord:
    """A record that stores its rendered dict and prints as ``TraceRecord`` does."""

    __slots__ = ("time", "node", "kind", "detail")
    __str__ = TraceRecord.__str__

    def __init__(self, time, node, kind, detail):
        self.time, self.node, self.kind, self.detail = time, node, kind, detail


class _EagerTrace(Trace):
    """The pre-PR-13 trace: strings are made when the event happens."""

    __slots__ = ()

    def emit(self, time, node, kind, **detail):
        if not self.enabled:
            return
        if "stamp" in detail:
            detail["stamp"] = str(detail["stamp"])
        if "value" in detail:
            detail["value"] = repr(detail["value"])
        if kind == "result_sent":
            detail["to"] = str(detail["to"])
        self.records.append(_EagerRecord(time, node, kind, detail))


def _storm(policy):
    builder = Experiment.workload(TREE).policy(policy).processors(8).seed(3)
    for frac, node in STORM:
        builder.fault(frac, node)
    return builder.build()


SPECS = {
    "storm-rollback": lambda: _storm("rollback"),
    "storm-splice": lambda: _storm("splice"),
    "storm-incremental": lambda: _storm("incremental:persist=hybrid"),
    "storm-reversible": lambda: _storm("reversible"),
    "chaos-splice": lambda: Experiment.workload(TREE).policy("splice")
    .nemesis(CHAOS).processors(8).seed(0).build(),
    "openloop": lambda: Experiment.workload("balanced:3:2:10").policy("rollback")
    .arrivals(OPENLOOP).processors(8).seed(3).build(),
    "lang-values": lambda: Experiment.workload("prog:tak:7:4:2").policy("splice")
    .processors(4).seed(1).fault(0.3, 1).build(),
    "replicated-votes": lambda: Experiment.workload("balanced:5:2:10")
    .policy("replicated").processors(6).seed(1).fault(0.3, 2).build(),
}


def _rows(trace):
    return [(r.time, r.node, r.kind, list(r.detail.items())) for r in trace]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_detail_view_equals_eager_rendering(name, monkeypatch):
    spec = SPECS[name]()
    lazy = execute(spec, collect_trace=True).result.trace
    monkeypatch.setattr(machine_module, "Trace", _EagerTrace)
    eager = execute(spec, collect_trace=True).result.trace
    assert type(eager) is _EagerTrace and type(lazy) is Trace
    assert len(lazy) > 500
    assert _rows(lazy) == _rows(eager)
    assert lazy.render() == eager.render()
    # the fields the oracles key on are the same data the view renders
    for r in lazy:
        assert r.detail.get("stamp") == (None if r.stamp is None else str(r.stamp))
        assert r.detail.get("uid") == r.uid
        assert not isinstance(r.stamp, str)


def test_the_suite_reaches_the_sites_that_do_not_lead_with_stamp_and_uid():
    seen = {}
    for name in ("storm-rollback", "openloop"):
        for r in execute(SPECS[name](), collect_trace=True).result.trace:
            seen.setdefault(r.kind, list(r.detail))
    assert seen["recovery_reissue"] == ["stamp", "reason", "uid"]
    assert seen["backpressure"] == ["to", "stamp"]
    assert seen["task_aborted"] == ["stamp", "uid", "reason"]


def test_inbox_drop_and_packet_loss_keep_their_key_order():
    # the two remaining odd orders, whose sites the scenarios above may miss
    stamp = object()
    trace = Trace()
    trace.emit(1.0, 0, "inbox_drop", to=3, policy="drop", stamp=stamp)
    trace.emit(2.0, 0, "delivery_failed", msg_type="task_packet_lost", stamp=stamp, dead=2)
    assert [list(r.detail) for r in trace] == [
        ["to", "policy", "stamp"], ["msg_type", "stamp", "dead"],
    ]
    assert all(r.stamp is stamp and r.detail["stamp"] == str(stamp) for r in trace)


def test_detail_is_read_only_and_rendered_once():
    trace = Trace()
    trace.emit(1.0, 0, "task_completed", stamp="0.1", uid=4, value=("a", 1))
    (record,) = trace
    assert record.extra == {"value": ("a", 1)} and record.uid == 4
    assert record.detail == {"stamp": "0.1", "uid": 4, "value": "('a', 1)"}
    assert record.detail is record.detail
    with pytest.raises(AttributeError):
        record.detail = {}


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 500), st.floats(allow_nan=False), st.text(max_size=8)
)
_STAMPS = st.lists(st.integers(0, 9), max_size=6).map(lambda d: ".".join(map(str, d)) or "ε")


@settings(max_examples=200, deadline=None)
@given(
    time=st.floats(0, 1e6),
    node=st.integers(-1, 64),
    kind=st.sampled_from(KINDS),
    stamp=st.none() | _STAMPS,
    uid=st.none() | st.integers(0, 10**6),
    rest=st.dictionaries(
        st.sampled_from(("value", "to", "reason", "dead", "work", "node", "msg_type")),
        _SCALARS, max_size=4,
    ),
)
def test_a_synthetic_record_renders_its_fields(time, node, kind, stamp, uid, rest):
    record = TraceRecord(time, node, kind, stamp, uid, dict(rest))
    head = {k: v for k, v in (("stamp", stamp), ("uid", uid)) if v is not None}
    detail = {**head, **{k: repr(v) if k == "value" else v for k, v in rest.items()}}
    assert record.detail == detail
    assert (record.stamp, record.uid, record.extra) == (stamp, uid, rest)
    assert all(f"{k}={v}" in str(record) for k, v in detail.items())
