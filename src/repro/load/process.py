"""Deterministic sampling of arrival schedules.

``sample_arrivals`` maps ``(ArrivalSpec, seed)`` to a tuple of
:class:`Arrival` records — a pure function, independent of simulator
state, so the same seed always produces the byte-identical schedule
(the property the load determinism tests pin).

Exponential gaps are drawn by inverse-CDF over ``uniform`` draws, so the
schedule depends only on the hub's uniform stream (``util/rng.py``'s
PCG64), like every other stochastic decision in the repo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.load.spec import ArrivalSpec
from repro.util.rng import RngHub

#: Named streams (off the run's root seed) used by the sampler.  Names
#: are part of the determinism contract: renaming one reshuffles every
#: open-loop schedule.
ARRIVALS_STREAM = "load:arrivals"
TREES_STREAM = "load:trees"

#: Hard cap on sampled arrivals — a backstop above the spec-level
#: expected-arrivals budget, so one unlucky draw cannot run away.
MAX_ARRIVALS = 20000


@dataclass(frozen=True)
class Arrival:
    """One scheduled task-tree injection."""

    index: int  # 0-based arrival number, in time order
    time: float  # injection time (sim-time units)
    tasks: int  # sampled tree size (task count target)
    tree_seed: int  # seed for the arrival's random tree


def _exp_gap(hub: RngHub, scale: float) -> float:
    """One exponential inter-event gap of mean ``scale`` (inverse CDF)."""
    u = hub.uniform(ARRIVALS_STREAM)
    # u in [0, 1); 1-u in (0, 1] so log never sees zero.
    return -math.log(1.0 - u) * scale


def _poisson_times(hub: RngHub, rate: float, horizon: float) -> List[float]:
    times: List[float] = []
    t = _exp_gap(hub, 1.0 / rate)
    while t < horizon and len(times) < MAX_ARRIVALS:
        times.append(t)
        t += _exp_gap(hub, 1.0 / rate)
    return times


def _bursty_times(
    hub: RngHub, rate: float, on: float, off: float, horizon: float
) -> List[float]:
    """Markov-modulated on/off arrivals.

    Alternating exponential burst/idle periods, starting in a burst at
    t=0; inside a burst, arrivals are Poisson at ``rate``.  All draws
    come from one stream in simulation order, so the schedule is a pure
    function of the seed.
    """
    times: List[float] = []
    t = 0.0
    burst_end = _exp_gap(hub, on)
    while t < horizon and len(times) < MAX_ARRIVALS:
        nxt = t + _exp_gap(hub, 1.0 / rate)
        if nxt < burst_end:
            if nxt >= horizon:
                break
            times.append(nxt)
            t = nxt
            continue
        # Burst exhausted: idle, then open the next burst.
        start = burst_end + _exp_gap(hub, off)
        burst_end = start + _exp_gap(hub, on)
        t = start
    return times


def _diurnal_times(hub: RngHub, peak: float, horizon: float) -> List[float]:
    """Triangular ramp by thinning a ``peak``-rate Poisson stream.

    The instantaneous rate is ``peak * (1 - |2t/horizon - 1|)``: zero at
    both ends, ``peak`` at mid-horizon.
    """
    times: List[float] = []
    t = _exp_gap(hub, 1.0 / peak)
    while t < horizon and len(times) < MAX_ARRIVALS:
        accept = 1.0 - abs(2.0 * t / horizon - 1.0)
        if hub.uniform(ARRIVALS_STREAM) < accept:
            times.append(t)
        t += _exp_gap(hub, 1.0 / peak)
    return times


def sample_arrivals(spec: ArrivalSpec, seed: int) -> Tuple[Arrival, ...]:
    """Sample the full arrival schedule for ``spec`` under ``seed``.

    Returns arrivals in strictly non-decreasing time order.  Tree sizes
    are uniform in ``[max(1, tasks//2), tasks + tasks//2]`` and each
    arrival gets an independent tree seed, both drawn from the
    ``load:trees`` stream.
    """
    if not spec:
        return ()
    p = spec.resolved()
    hub = RngHub(int(seed))
    if spec.process == "poisson":
        times = _poisson_times(hub, p["rate"], p["horizon"])
    elif spec.process == "bursty":
        times = _bursty_times(hub, p["rate"], p["on"], p["off"], p["horizon"])
    elif spec.process == "diurnal":
        times = _diurnal_times(hub, p["peak"], p["horizon"])
    else:  # pragma: no cover - parse() rejects unknown processes
        raise ValueError(f"unknown arrival process {spec.process!r}")
    mean_tasks = int(p["tasks"])
    lo = max(1, mean_tasks - mean_tasks // 2)
    hi = mean_tasks + mean_tasks // 2
    out = []
    for index, time in enumerate(times):
        tasks = hub.integers(TREES_STREAM, lo, hi + 1)
        tree_seed = hub.integers(TREES_STREAM, 0, 2**31)
        out.append(Arrival(index=index, time=time, tasks=tasks, tree_seed=tree_seed))
    return tuple(out)
