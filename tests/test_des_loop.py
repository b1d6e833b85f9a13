"""The inlined DES event loop against the call-per-firing reference loop.

``_des_reference.ReferenceHexNetwork`` runs the loop ``HexNetwork.run``
shipped before it inlined the firing, the broadcast and the draws.  On
randomized configurations -- every topology family, delay model, timer
policy, initial state and fault kind, with ``run(until=...)`` called in
slices -- the two must agree exactly: firings, memorized flags, pending
events, event and silent-skip counters, the observer's view and the
generator's end state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from _des_reference import ReferenceHexNetwork

from repro.adversary.delays import BiasedLinkDelays, MaxSkewDelays
from repro.adversary.runtime import HealNode, InjectFault
from repro.adversary.schedule import FaultDirective, FaultSchedule
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimerPolicy, TimingConfig
from repro.core.topology import HexGrid, NodeId
from repro.engines.des import scenario_stabilization_timeouts
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.simulation.links import (
    ConstantDelays,
    DelayModel,
    FreshUniformDelays,
    UniformRandomDelays,
)
from repro.simulation.network import HexNetwork
from repro.topologies import build_topology

TOPOLOGIES = ("cylinder", "torus", "patch", "degraded:nodes=1,links=2,seed={seed}")
DELAYS = ("fresh", "uniform", "constant", "biased", "max_skew")
TIMERS = (TimerPolicy.UNIFORM, TimerPolicy.NOMINAL)
INITIAL_STATES = ("clean", "random", "adversarial")
FAULTS = ("none", "byzantine", "crash", "fail_silent", "schedule")
OBSERVERS = ("none", "firings", "events")

#: A schedule whose materialized adversary uses every action type.
SCHEDULE = FaultSchedule(
    directives=(
        FaultDirective(kind="inject", time=20.0, fault_type="byzantine", duration=150.0),
        FaultDirective(kind="flip_behavior", time=60.0),
        FaultDirective(kind="crash", time=90.0, duration=80.0),
        FaultDirective(
            kind="intermittent_link", time=10.0, period=70.0, duty=0.5, until=300.0,
            behavior="constant_one",
        ),
        FaultDirective(
            kind="intermittent_link", time=30.0, period=50.0, duty=0.4, until=250.0,
            behavior="constant_zero",
        ),
    ),
    label="des-loop",
)

NUM_CASES = 40


class _Recorder:
    """An observer that writes down everything the network shows it."""

    def __init__(self) -> None:
        self.seen: List[Tuple] = []

    def on_firing(self, node: NodeId, time: float) -> None:
        self.seen.append(("firing", node, time))

    def on_adversary(self, time: float, action: object) -> None:
        self.seen.append(("adversary", time, action))


class _EventRecorder(_Recorder):
    def on_event(self, time: float, event: object) -> None:
        self.seen.append(("event", time, event))


def _case(case: int) -> Dict:
    """The configuration of one randomized case.

    The option lists have co-prime-ish lengths, so consecutive cases walk
    through many combinations; sizes, pulse counts and slices are drawn.
    """
    pick = np.random.default_rng([26, case])
    return {
        "seed": case,
        "topology": TOPOLOGIES[case % len(TOPOLOGIES)].format(seed=case),
        "delays": DELAYS[case % len(DELAYS)],
        "timer": TIMERS[case // 2 % len(TIMERS)],
        "initial_states": INITIAL_STATES[case % len(INITIAL_STATES)],
        "faults": FAULTS[case // 4 % len(FAULTS)],
        "observer": OBSERVERS[case // 3 % len(OBSERVERS)],
        "layers": int(pick.integers(3, 7)),
        "width": int(pick.integers(4, 7)),
        "pulses": int(pick.integers(1, 5)),
        "cuts": sorted(pick.uniform(0.0, 1.0, size=int(pick.integers(0, 4))).tolist()),
    }


def _delays(name: str, timing: TimingConfig, grid: HexGrid, rng) -> DelayModel:
    if name == "fresh":
        return FreshUniformDelays(timing, rng)
    if name == "uniform":
        return UniformRandomDelays(timing, rng)
    if name == "constant":
        return ConstantDelays(0.5 * (timing.d_min + timing.d_max))
    if name == "biased":
        return BiasedLinkDelays(timing, rng, jitter=0.5)
    return MaxSkewDelays(timing, grid.width)


def _static_faults(name: str, grid: HexGrid, rng) -> Optional[FaultModel]:
    forwarding = sorted(grid.forwarding_nodes())
    node = forwarding[int(rng.integers(0, len(forwarding)))]
    if name == "byzantine":
        fault = NodeFault.byzantine(grid, node, rng=rng)
    elif name == "crash":
        fault = NodeFault.crash(grid, node, crash_time=120.0)
    elif name == "fail_silent":
        fault = NodeFault.fail_silent(grid, node)
    else:
        return None
    return FaultModel(grid, [fault])


def _stranded_assertions(grid: HexGrid, rng) -> List[Tuple[float, object]]:
    """Actions that reach two rare paths of the loop.

    A heal in the same instant as an injection strands the node's stuck-at-1
    assertions (the stale-assertion skip), and a source that turns faulty
    mid-run stops generating pulses.
    """
    forwarding = sorted(grid.forwarding_nodes())
    node = forwarding[int(rng.integers(0, len(forwarding)))]
    behaviors = {
        destination: LinkBehavior.CONSTANT_ONE
        for destination in grid.out_neighbors(node).values()
    }
    fault = NodeFault.byzantine(grid, node, behaviors=behaviors)
    source = (0, int(rng.integers(0, grid.width)))
    return [
        (1.0, InjectFault(NodeFault.fail_silent(grid, source))),
        (40.0, InjectFault(fault)),
        (40.0, HealNode(node)),
        (200.0, HealNode(source)),
    ]


def _drive(network_cls, config: Dict, max_events: int = 5_000_000):
    """Build and run one case in the engine's draw order.

    Returns the network, its generator and the per-slice processed counts.
    """
    generator = np.random.default_rng([2013, config["seed"]])
    grid = build_topology(config["topology"], config["layers"], config["width"])
    timing = TimingConfig.paper_defaults()
    fault_model = _static_faults(config["faults"], grid, generator)
    adversary = (
        SCHEDULE.materialize(grid, generator) if config["faults"] == "schedule" else None
    )
    timeouts = scenario_stabilization_timeouts(
        Scenario.ZERO, grid.width, grid.layers, 1, timing,
        extra_hops=grid.condition2_extra_hops(),
    )
    schedule = generate_pulse_schedule(
        PulseScheduleConfig(
            scenario=Scenario.UNIFORM_DMAX,
            num_pulses=config["pulses"],
            separation=timeouts.pulse_separation,
        ),
        grid.width,
        timing,
        rng=generator,
    )
    network = network_cls(
        grid,
        timing,
        timeouts,
        _delays(config["delays"], timing, grid, generator),
        fault_model,
        generator,
        config["timer"],
        max_events=max_events,
    )
    observer = {"none": None, "firings": _Recorder, "events": _EventRecorder}[
        config["observer"]
    ]
    network.observer = observer() if observer is not None else None
    network.initialize()
    if adversary is not None:
        adversary.install(network)
        network.install_adversary(_stranded_assertions(grid, generator))
    if config["initial_states"] == "random":
        network.apply_random_initial_states()
    elif config["initial_states"] == "adversarial":
        network.apply_adversarial_initial_states()
    network.schedule_source_pulses(schedule)
    horizon = float(np.nanmax(schedule)) + (grid.layers + 4) * timing.d_max
    horizon += timeouts.t_sleep_max
    if adversary is not None:
        horizon += adversary.last_time
    processed = []
    for cut in config["cuts"] + [1.0]:
        processed.append(network.run(until=cut * horizon))
    return network, generator, processed


def _state(network: HexNetwork, generator) -> Dict:
    queue = network.queue
    nodes = list(network.grid.nodes())
    return {
        "firings": [network.firing_times(node) for node in nodes],
        "memorized": [network.memorized(node) for node in nodes],
        "pending": sorted(queue.heap),
        "now": queue.now,
        "num_processed": queue.num_processed,
        "num_scheduled": queue.num_scheduled,
        "stale_high_assertions": network.stale_high_assertions,
        "dropped_arrivals": network.dropped_arrivals,
        "observed": getattr(network.observer, "seen", None),
        "generator": generator.bit_generator.state,
    }


def test_cases_cover_every_option():
    configs = [_case(case) for case in range(NUM_CASES)]
    for key, options in (
        ("delays", DELAYS),
        ("timer", TIMERS),
        ("initial_states", INITIAL_STATES),
        ("faults", FAULTS),
        ("observer", OBSERVERS),
    ):
        assert {config[key] for config in configs} == set(options), key
    families = {config["topology"].split(":")[0] for config in configs}
    assert families == {"cylinder", "torus", "patch", "degraded"}
    assert any(len(config["cuts"]) >= 2 for config in configs)


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_inlined_loop_matches_the_reference(case):
    config = _case(case)
    network, generator, processed = _drive(HexNetwork, config)
    reference, reference_generator, reference_processed = _drive(ReferenceHexNetwork, config)
    assert processed == reference_processed
    assert sum(processed) > 0
    assert _state(network, generator) == _state(reference, reference_generator)


def _capped_state(network_cls, config: Dict) -> Dict:
    """The state a case leaves behind when it hits a 60-event cap."""
    built = []

    class Capped(network_cls):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.raises(RuntimeError, match="event cap"):
        _drive(Capped, config, max_events=60)
    return _state(built[0], built[0].rng)


@pytest.mark.parametrize("case", [0, 1, 7, 13])
def test_event_cap_raises_after_the_same_event(case):
    config = _case(case)
    state = _capped_state(HexNetwork, config)
    assert state == _capped_state(ReferenceHexNetwork, config)
    assert state["num_processed"] == 61


class _BadDelays(DelayModel):
    def __init__(self, value: float) -> None:
        self._value = value

    def delay(self, source, destination, uniform=None) -> float:
        return self._value


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("network_cls", [HexNetwork, ReferenceHexNetwork])
def test_an_invalid_delay_raises(network_cls, value, timing):
    grid = HexGrid(layers=3, width=4)
    timeouts = scenario_stabilization_timeouts(Scenario.ZERO, 4, 3, 0, timing)
    network = network_cls(
        grid, timing, timeouts, _BadDelays(value), rng=np.random.default_rng(1)
    )
    network.initialize()
    network.schedule_source_pulses(np.zeros((1, grid.width)))
    with pytest.raises(ValueError, match="delay model returned"):
        network.run()
