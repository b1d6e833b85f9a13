"""The inlined DES event loop against the call-per-firing reference loop.

``_des_reference.ReferenceHexNetwork`` runs the loop ``HexNetwork.run``
shipped before it inlined the firing, the broadcast and the draws, and
before it deferred link and sleep timers: it queues every timer.  On
randomized configurations -- every topology family, delay model, timer
policy, initial state and fault kind, with ``run(until=...)`` called in
slices -- the two must agree exactly: firings, memorized flags, live
pending events (the heap plus the deferred timers, less the entries the
handlers would ignore), scheduled-event and
silent-skip counters, the firings and adversary actions an observer sees
and the generator's end state.  The events the loop pops are the
reference's with some ``FlagExpiry`` / ``WakeUp`` events left out, so the
processed-event counts and the time of the last popped event may differ.
A wake-up or a heal drops the deferred timers it voids, where the reference
keeps them queued until they pop and are ignored.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from _des_reference import ReferenceHexNetwork

from repro.adversary.delays import BiasedLinkDelays, MaxSkewDelays
from repro.adversary.runtime import HealNode, InjectFault, SetLinkBehavior
from repro.adversary.schedule import FaultDirective, FaultSchedule
from repro.clocksource.generator import PulseScheduleConfig, generate_pulse_schedule
from repro.clocksource.scenarios import Scenario
from repro.core.parameters import TimerPolicy, TimingConfig
from repro.core.topology import Direction, HexGrid, NodeId
from repro.engines.des import scenario_stabilization_timeouts
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.simulation.links import (
    ConstantDelays,
    DelayModel,
    FreshUniformDelays,
    UniformRandomDelays,
)
from repro.simulation.network import _EXPIRY, _WAKE, _WAKE_BIT, HexNetwork
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


def _deferred_entries(network: HexNetwork) -> List[Tuple]:
    """The timers the network holds off the heap, as heap entries."""
    entries = []
    for index, bits in enumerate(network._deferred):
        if bits & _WAKE_BIT:
            entries.append((network._wake[index], network._wake_seq[index], _WAKE, index, 0))
        for slot in range(4):
            if bits >> slot & 1:
                key = (network._flags[4 * index + slot], network._flag_seq[4 * index + slot])
                entries.append(key + (_EXPIRY, index, slot))
    return entries


def _live(network: HexNetwork, entry: Tuple) -> bool:
    """Whether the ``_EXPIRY`` / ``_WAKE`` handler would act on a pending entry.

    The checks are the handlers' own: an expiry acts only while its flag is
    set with that expiry, a wake-up only while its node sleeps towards it.
    """
    time, _seq, kind, node, arg = entry
    if kind == _EXPIRY:
        return bool(network._mask[node] >> arg & 1) and abs(
            network._flags[4 * node + arg] - time
        ) <= 1e-12
    if kind == _WAKE:
        return network._ready[node] == 0 and abs(network._wake[node] - time) <= 1e-9
    return True


def _is_timer(entry: Tuple) -> bool:
    return entry[0] == "event" and type(entry[2]).__name__ in ("FlagExpiry", "WakeUp")


def _aligned(seen: List[Tuple], reference_seen: List[Tuple]) -> List[int]:
    """Where each entry of ``seen`` sits in ``reference_seen``.

    Asserts that ``seen`` is a prefix of ``reference_seen`` with only timer
    events (``FlagExpiry`` / ``WakeUp``) left out.
    """
    positions: List[int] = []
    for position, entry in enumerate(reference_seen):
        if len(positions) == len(seen):
            break
        if seen[len(positions)] == entry:
            positions.append(position)
        else:
            assert _is_timer(entry), entry
    assert len(positions) == len(seen)
    return positions


def _assert_leaves_out_timers(seen: List[Tuple], reference_seen: List[Tuple]) -> int:
    """Assert ``seen`` is ``reference_seen`` less some timer events; count them."""
    positions = _aligned(seen, reference_seen)
    rest = reference_seen[positions[-1] + 1 :] if positions else reference_seen
    assert all(_is_timer(entry) for entry in rest)
    return len(reference_seen) - len(seen)


def _state(network: HexNetwork, generator=None) -> Dict:
    """Everything the deferred timers must leave as the reference leaves it.

    The observer's list is compared by :func:`_assert_same_state`.
    """
    queue = network.queue
    nodes = list(network.grid.nodes())
    return {
        "firings": [network.firing_times(node) for node in nodes],
        "memorized": [network.memorized(node) for node in nodes],
        "pending": sorted(
            entry
            for entry in queue.heap + _deferred_entries(network)
            if _live(network, entry)
        ),
        "num_scheduled": queue.num_scheduled,
        "stale_high_assertions": network.stale_high_assertions,
        "dropped_arrivals": network.dropped_arrivals,
        "generator": generator.bit_generator.state if generator is not None else None,
    }


def _assert_same_state(network, generator, reference, reference_generator) -> None:
    assert _state(network, generator) == _state(reference, reference_generator)
    seen = getattr(network.observer, "seen", None)
    reference_seen = getattr(reference.observer, "seen", None)
    assert (seen is None) == (reference_seen is None)
    if seen is not None:
        _assert_leaves_out_timers(seen, reference_seen)


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
    assert 0 < sum(processed) <= sum(reference_processed)
    assert len(processed) == len(reference_processed)
    assert network.queue.num_processed + network.timers_deferred >= sum(reference_processed)
    _assert_same_state(network, generator, reference, reference_generator)


def test_cases_defer_timers():
    """Most timers are deferred: the loop pops fewer events than the reference."""
    deferred = popped = reference_popped = 0
    for case in range(0, NUM_CASES, 5):
        config = _case(case)
        network, _, processed = _drive(HexNetwork, config)
        deferred += network.timers_deferred
        popped += sum(processed)
        reference_popped += sum(_drive(ReferenceHexNetwork, config)[2])
    assert deferred > 0
    assert popped < reference_popped


def test_popped_events_are_the_reference_events_less_some_timers():
    """An ``on_event`` recorder sees the reference's events with timers left out."""
    left_out = 0
    for case in range(0, NUM_CASES, 4):
        config = dict(_case(case), observer="events")
        seen = _drive(HexNetwork, config)[0].observer.seen
        reference_seen = _drive(ReferenceHexNetwork, config)[0].observer.seen
        left_out += _assert_leaves_out_timers(seen, reference_seen)
    assert left_out > 0


def _capped(network_cls, config: Dict, max_events: int) -> HexNetwork:
    """The network a case leaves behind when it hits an event cap."""
    built = []

    class Capped(network_cls):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with pytest.raises(RuntimeError, match="event cap"):
        _drive(Capped, config, max_events=max_events)
    return built[0]


@pytest.mark.parametrize("case", [0, 1, 7, 13])
def test_event_cap_raises_after_the_same_event(case):
    """A capped run leaves the state of the reference stopped after the same
    last event: the reference pops the deferred timers too, so its cap is
    the position of that event in its own sequence.  The loop's cap is half
    the case's uncapped pop count."""
    config = dict(_case(case), observer="events")
    cap = sum(_drive(HexNetwork, config)[2]) // 2
    network = _capped(HexNetwork, config, cap)
    assert network.queue.num_processed == cap + 1
    events = [entry for entry in network.observer.seen if entry[0] == "event"]
    full_run = _drive(ReferenceHexNetwork, config)[0]
    reference_events = [entry for entry in full_run.observer.seen if entry[0] == "event"]
    last = _aligned(events, reference_events)[-1]
    reference = _capped(ReferenceHexNetwork, config, last)
    assert reference.queue.num_processed == last + 1
    _assert_same_state(network, network.rng, reference, reference.rng)


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


# ----------------------------------------------------------------------
# The deferred-timer rules, one scenario each.  Source (0, 0) sends to
# the receiver (1, 0) on its lower-left input; constant delays and
# nominal timers put every timer at a known time.
# ----------------------------------------------------------------------
RECEIVER = (1, 0)


def _small_network(network_cls, delays: Optional[DelayModel] = None) -> HexNetwork:
    timing = TimingConfig.paper_defaults()
    grid = HexGrid(layers=3, width=4)
    timeouts = scenario_stabilization_timeouts(Scenario.ZERO, 4, 3, 1, timing)
    network = network_cls(
        grid,
        timing,
        timeouts,
        delays if delays is not None else ConstantDelays(timing.d_max),
        timer_policy=TimerPolicy.NOMINAL,
    )
    network.initialize()
    return network


def _pulse(network: HexNetwork, columns, times=(0.0,)) -> None:
    schedule = np.full((len(times), network.grid.width), np.nan)
    for row, time in enumerate(times):
        schedule[row, list(columns)] = time
    network.schedule_source_pulses(schedule)


class _Noting:
    """An adversary action that first notes the receiver's deferred timers."""

    def __init__(self, action) -> None:
        self.action = action
        self.deferred: Optional[int] = None

    def apply(self, network: HexNetwork, time: float) -> None:
        self.deferred = network._deferred[network._index(RECEIVER)]
        self.action.apply(network, time)


def _stuck_at_one_from(grid: HexGrid, node: NodeId) -> NodeFault:
    behaviors = {
        destination: LinkBehavior.CONSTANT_ONE
        for destination in grid.out_neighbors(node).values()
    }
    return NodeFault.byzantine(grid, node, behaviors=behaviors)


def _d_and_t_link():
    timing = TimingConfig.paper_defaults()
    timeouts = scenario_stabilization_timeouts(Scenario.ZERO, 4, 3, 1, timing)
    return timing.d_max, timeouts.t_link_min


def test_stuck_at_one_link_set_between_slices_queues_the_deferred_flag():
    """The receiver's deferred link timer must re-assert the new input."""
    d, t_link = _d_and_t_link()
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        network = _small_network(network_cls)
        _pulse(network, [0])
        network.run(until=d + 1.0)
        if network_cls is HexNetwork:
            assert network._deferred[network._index(RECEIVER)]
        network.set_link_behavior(((0, 0), RECEIVER), LinkBehavior.CONSTANT_ONE, d + 1.0)
        network.run(until=d + 4.5 * t_link)
        # The input re-asserts at every expiry, so its flag stays set.
        assert Direction.LOWER_LEFT in network.memorized(RECEIVER)
        states.append(_state(network))
    assert states[0] == states[1]


@pytest.mark.parametrize(
    "columns, action_time, faulty",
    [
        # The receiver's only flag has expired, with no message since.
        ([0], "after_expiry", (0, 0)),
        # The receiver fired: its wake-up is ahead, its flags behind.
        ([0, 1, 2, 3], 30.0, (1, 1)),
    ],
)
def test_injected_stuck_at_one_settles_then_queues_the_receiver(columns, action_time, faulty):
    d, t_link = _d_and_t_link()
    if action_time == "after_expiry":
        action_time = d + t_link + 1.0
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        network = _small_network(network_cls)
        action = _Noting(InjectFault(_stuck_at_one_from(network.grid, faulty)))
        network.install_adversary([(action_time, action)])
        _pulse(network, columns)
        network.run(until=200.0)
        if network_cls is HexNetwork:
            assert action.deferred
        states.append(_state(network))
    assert states[0] == states[1]


def test_set_link_behavior_action_settles_a_due_flag_first():
    d, t_link = _d_and_t_link()
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        network = _small_network(network_cls)
        action = _Noting(SetLinkBehavior(((0, 0), RECEIVER), LinkBehavior.CONSTANT_ONE))
        network.install_adversary([(d + t_link + 1.0, action)])
        _pulse(network, [0])
        network.run(until=100.0)
        if network_cls is HexNetwork:
            assert action.deferred
        states.append(_state(network))
    assert states[0] == states[1]


class _LateDelays(DelayModel):
    """``d`` for a link's first message; every later one lands 0.5 ps early."""

    def __init__(self, d: float) -> None:
        self._d = d
        self._used = set()

    def delay(self, source, destination, uniform=None) -> float:
        if (source, destination) in self._used:
            return -5e-13
        self._used.add((source, destination))
        return self._d


def test_an_arrival_before_its_sender_sees_the_timers_the_sender_passed():
    """A timer is due when it is before the largest popped key, not before
    the arrival's own key: an arrival may land up to 1e-12 in the past."""
    d, t_link = _d_and_t_link()
    expiry = (0.0 + d) + t_link
    # The second pulse leaves 0.1 ps after the receiver's flag expires and
    # lands 0.4 ps before it.
    second = expiry + 1e-13
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        network = _small_network(network_cls, _LateDelays(d))
        _pulse(network, [0], times=(0.0, second))
        network.run(until=expiry + 0.5 * t_link)
        states.append(_state(network))
        assert network.memorized(RECEIVER) == {
            Direction.LOWER_LEFT: (second - 5e-13) + t_link
        }
    assert states[0] == states[1]


def test_memorized_is_exact_between_run_slices():
    """Timers due by ``until`` are settled when ``run`` returns."""
    d, t_link = _d_and_t_link()
    networks = [_small_network(cls) for cls in (HexNetwork, ReferenceHexNetwork)]
    for network in networks:
        _pulse(network, [0])
    for until, expected in (
        (d + 0.5 * t_link, {Direction.LOWER_LEFT: d + t_link}),
        (d + t_link, {}),
        (100.0, {}),
    ):
        for network in networks:
            network.run(until=until)
            assert network.memorized(RECEIVER) == expected
        assert _state(networks[0]) == _state(networks[1])


def _receiver_timers(network: HexNetwork, kind: int) -> List[Tuple]:
    """The receiver's pending timers of ``kind``, queued or deferred."""
    index = network._index(RECEIVER)
    return [
        entry
        for entry in network.queue.heap + _deferred_entries(network)
        if entry[2] == kind and entry[3] == index
    ]


def test_link_timers_voided_by_a_wake_up_are_dropped():
    """A flag armed late in the sleep expires after the wake-up clears it;
    the wake-up drops its timer, which the reference keeps queued as a
    stale event across a slice boundary."""
    d, _t_link = _d_and_t_link()
    networks = [_small_network(cls) for cls in (HexNetwork, ReferenceHexNetwork)]
    for network in networks:
        # The receiver fires at d and wakes at about 50.5.  The second pulse
        # sets its flags at 35 + d, to expire at about 55.5; the third one
        # arrives at 43 + d, after the wake-up, and fires it.
        _pulse(network, [0, 1], times=(0.0, 35.0, 43.0))
    for until in (52.0, 100.0):
        for network in networks:
            network.run(until=until)
        assert _state(networks[0]) == _state(networks[1])
        if until == 52.0:
            # Only the reference still holds the voided timers.
            voided = [
                [entry for entry in _receiver_timers(network, _EXPIRY) if not _live(network, entry)]
                for network in networks
            ]
            assert not voided[0] and voided[1]
    assert networks[0].firing_times(RECEIVER) == [d, 43.0 + d]


def test_heal_drops_the_timers_it_voids():
    """A heal voids the wake-up the node was sleeping towards, and drops it
    where the reference keeps it queued."""
    d, _t_link = _d_and_t_link()
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        network = _small_network(network_cls)
        network.install_adversary(
            [
                (10.0, InjectFault(NodeFault.fail_silent(network.grid, RECEIVER))),
                (12.0, HealNode(RECEIVER)),
            ]
        )
        # The receiver fires at d, then takes one flag before its old
        # wake-up time (about 50.5) and the adjacent one after it.
        schedule = np.full((2, network.grid.width), np.nan)
        schedule[0, [0, 1]] = 0.0
        schedule[1, [0, 1]] = (37.0, 44.0)
        network.schedule_source_pulses(schedule)
        slices = []
        for until in (20.0, 100.0):
            network.run(until=until)
            slices.append(_state(network))
            if until == 20.0:
                # Only the reference still holds the voided wake-up.
                wakes = _receiver_timers(network, _WAKE)
                assert len(wakes) == (network_cls is ReferenceHexNetwork)
                assert not any(_live(network, entry) for entry in wakes)
        states.append(slices)
        assert network.firing_times(RECEIVER) == [d, 44.0 + d]
    assert states[0] == states[1]


def test_a_later_flag_that_expires_first_is_settled():
    """Link timeouts are drawn, so a flag set later can expire sooner; the
    loop's skip test must not let it outlive its expiry."""
    timing = TimingConfig.paper_defaults()
    d = timing.d_max
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        grid = HexGrid(layers=3, width=4)
        timeouts = scenario_stabilization_timeouts(Scenario.ZERO, 4, 3, 1, timing)
        network = network_cls(
            grid, timing, timeouts, ConstantDelays(d), rng=np.random.default_rng(6)
        )
        network.initialize()
        # The receiver takes its right flag from (1, 1) at 2d, then its
        # lower-left one from (0, 0) 0.3 later, and never fires.
        network.set_link_behavior(((0, 1), RECEIVER), LinkBehavior.CONSTANT_ZERO, 0.0)
        schedule = np.full((1, grid.width), np.nan)
        schedule[0, [1, 2]] = 0.0
        schedule[0, 0] = d + 0.3
        network.schedule_source_pulses(schedule)
        network.run(until=2 * d + 1.0)
        flags = network.memorized(RECEIVER)
        assert flags[Direction.LOWER_LEFT] < flags[Direction.RIGHT]
        # A second lower-left message lands between the two expiries: the
        # flag it finds has expired, so it sets it afresh.
        middle = 0.5 * (flags[Direction.LOWER_LEFT] + flags[Direction.RIGHT])
        schedule[0] = np.nan
        schedule[0, 0] = middle - d
        network.schedule_source_pulses(schedule)
        network.run(until=middle + 1.0)
        assert network.memorized(RECEIVER)[Direction.LOWER_LEFT] > middle
        states.append(_state(network, network.rng))
    assert states[0] == states[1]


@pytest.mark.parametrize("initial_states", ["random", "adversarial"])
def test_initial_state_timers_are_deferred_without_a_stuck_at_one_input(initial_states):
    """With no stuck-at-1 input anywhere, no timer is ever popped, initial
    states' timers included, and the run still matches the reference."""
    for case in range(0, NUM_CASES, 8):
        config = dict(_case(case), initial_states=initial_states, faults="none", observer="events")
        network, generator, _ = _drive(HexNetwork, config)
        reference, reference_generator, _ = _drive(ReferenceHexNetwork, config)
        assert not network._high
        assert not any(_is_timer(entry) for entry in network.observer.seen)
        assert any(_is_timer(entry) for entry in reference.observer.seen)
        _assert_same_state(network, generator, reference, reference_generator)


@pytest.mark.parametrize("initial_states", ["random", "adversarial"])
def test_initial_state_timers_of_a_stuck_at_one_receiver_are_queued(initial_states):
    """A receiver with a static stuck-at-1 input gets its initial timers on
    the heap, each with its own ``(time, seq)`` key."""
    timing = TimingConfig.paper_defaults()
    states = []
    for network_cls in (HexNetwork, ReferenceHexNetwork):
        grid = HexGrid(layers=3, width=4)
        timeouts = scenario_stabilization_timeouts(Scenario.ZERO, 4, 3, 1, timing)
        network = network_cls(
            grid,
            timing,
            timeouts,
            ConstantDelays(timing.d_max),
            FaultModel(grid, [_stuck_at_one_from(grid, (0, 0))]),
            rng=np.random.default_rng(4),
        )
        network.initialize()
        if initial_states == "random":
            network.apply_random_initial_states()
        else:
            network.apply_adversarial_initial_states()
        index = network._index(RECEIVER)
        assert network.stuck_high_inputs(RECEIVER) and not network._deferred[index]
        expiries = _receiver_timers(network, _EXPIRY)
        wakes = _receiver_timers(network, _WAKE)
        assert expiries and [entry[:2] for entry in sorted(expiries)] == sorted(
            (flag, network._flag_seq[4 * index + slot])
            for slot, flag in enumerate(network._flags[4 * index : 4 * index + 4])
            if network._mask[index] >> slot & 1
        )
        # The random state lets the receiver sleep; the adversarial one
        # fires it at time 0, so its wake-up is the loop's.
        assert network._ready[index] == 0 and len(wakes) == 1
        if initial_states == "random":
            assert wakes[0][:2] == (network._wake[index], network._wake_seq[index])
        states.append((sorted(expiries + wakes), _state(network, network.rng)))
        network.run(until=200.0)
        states.append(_state(network, network.rng))
    assert states[:2] == states[2:]
