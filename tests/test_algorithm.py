"""Tests for the HEX node semantics (Algorithm 1 / Fig. 7), driven on a network.

Each case delivers trigger messages to one node of a small grid through the
public adversary hooks: a message on an in-link at time ``t`` is a
stuck-at-1 override of that link at ``t``, released again half a time unit
later, so the receiver memorizes exactly one assertion.  Timers run at the
nominal policy with round timeout values, and the node's firings and
memorized flags are read back through the network's public accessors.
"""

from __future__ import annotations

import pytest

from repro.adversary.runtime import HealNode, InjectFault, SetLinkBehavior
from repro.core.algorithm import INCOMING_DIRECTIONS, GuardKind
from repro.core.parameters import TimeoutConfig, TimingConfig
from repro.core.topology import Direction, HexGrid
from repro.faults.models import LinkBehavior, NodeFault
from repro.simulation.links import ConstantDelays
from repro.simulation.network import HexNetwork, TimerPolicy

TARGET = (2, 2)


def _network(link: float = 10.0, sleep: float = 5.0) -> HexNetwork:
    grid = HexGrid(layers=3, width=5)
    timeouts = TimeoutConfig(
        t_link_min=link, t_link_max=link, t_sleep_min=sleep, t_sleep_max=sleep,
        pulse_separation=100.0,
    )
    timing = TimingConfig.paper_defaults()
    network = HexNetwork(
        grid, timing, timeouts, ConstantDelays(timing.d_max),
        rng=None, timer_policy=TimerPolicy.NOMINAL,
    )
    network.initialize()
    return network


def send(network: HexNetwork, direction: Direction, at: float) -> None:
    """Deliver one trigger message to ``TARGET`` on its ``direction`` in-link."""
    link = (network.grid.in_neighbors(TARGET)[direction], TARGET)
    network.install_adversary(
        [
            (at, SetLinkBehavior(link, LinkBehavior.CONSTANT_ONE)),
            (at + 0.5, SetLinkBehavior(link, LinkBehavior.CORRECT)),
        ]
    )


class TestGuards:
    def test_guard_causal_directions(self):
        assert GuardKind.LEFT_TRIGGERED.causal_directions == (
            Direction.LEFT,
            Direction.LOWER_LEFT,
        )
        assert GuardKind.CENTRALLY_TRIGGERED.causal_directions == (
            Direction.LOWER_LEFT,
            Direction.LOWER_RIGHT,
        )
        assert GuardKind.RIGHT_TRIGGERED.causal_directions == (
            Direction.LOWER_RIGHT,
            Direction.RIGHT,
        )

    def test_guard_labels(self):
        assert GuardKind.LEFT_TRIGGERED.label == "left"
        assert GuardKind.CENTRALLY_TRIGGERED.label == "central"
        assert GuardKind.RIGHT_TRIGGERED.label == "right"

    def test_no_guard_with_single_message(self):
        network = _network()
        send(network, Direction.LOWER_LEFT, 0.0)
        network.run(until=1.0)
        assert list(network.memorized(TARGET)) == [Direction.LOWER_LEFT]
        network.run(until=50.0)
        assert network.firing_times(TARGET) == []

    def test_nonadjacent_pair_does_not_fire(self):
        # Left + right is NOT one of Algorithm 1's guards.
        network = _network()
        send(network, Direction.LEFT, 0.0)
        send(network, Direction.RIGHT, 1.0)
        network.run(until=50.0)
        assert network.firing_times(TARGET) == []

    @pytest.mark.parametrize(
        "pair, expected",
        [
            ((Direction.LEFT, Direction.LOWER_LEFT), GuardKind.LEFT_TRIGGERED),
            ((Direction.LOWER_LEFT, Direction.LOWER_RIGHT), GuardKind.CENTRALLY_TRIGGERED),
            ((Direction.LOWER_RIGHT, Direction.RIGHT), GuardKind.RIGHT_TRIGGERED),
        ],
    )
    def test_each_guard_fires(self, pair, expected):
        assert expected.causal_directions == pair
        network = _network()
        for direction in pair:
            send(network, direction, 0.0)
        network.run(until=50.0)
        assert network.firing_times(TARGET) == [0.0]


class TestFiring:
    def test_fire_records_time_guard_and_sleeps(self):
        network = _network()
        send(network, Direction.LOWER_LEFT, 1.0)
        send(network, Direction.LOWER_RIGHT, 2.5)
        network.run(until=7.4)
        assert network.firing_times(TARGET) == [2.5]
        # Asleep until 2.5 + T_sleep: the flags are still memorized ...
        assert network.memorized(TARGET) == {
            Direction.LOWER_LEFT: 11.0,
            Direction.LOWER_RIGHT: 12.5,
        }
        # ... and the wake-up clears them.
        network.run(until=7.5)
        assert network.memorized(TARGET) == {}

    def test_does_not_fire_while_sleeping(self):
        network = _network()
        send(network, Direction.LOWER_LEFT, 0.0)
        send(network, Direction.LOWER_RIGHT, 0.0)
        # A new message completes the left guard while the node sleeps.
        send(network, Direction.LEFT, 1.0)
        network.run(until=2.0)
        assert Direction.LEFT in network.memorized(TARGET)
        network.run(until=50.0)
        assert network.firing_times(TARGET) == [0.0]

    def test_wakeup_clears_flags(self):
        network = _network(link=100.0)
        send(network, Direction.LOWER_LEFT, 0.0)
        send(network, Direction.LOWER_RIGHT, 0.0)
        send(network, Direction.LEFT, 2.0)
        network.run(until=4.9)
        assert len(network.memorized(TARGET)) == 3
        network.run(until=5.0)
        assert network.memorized(TARGET) == {}
        # After waking with cleared flags, nothing fires.
        network.run(until=200.0)
        assert network.firing_times(TARGET) == [0.0]

    def test_stale_wakeup_is_ignored(self):
        network = _network()
        grid = network.grid
        send(network, Direction.LOWER_LEFT, 0.0)
        send(network, Direction.LOWER_RIGHT, 0.0)
        # A fault and its heal reset the node, leaving the wake-up queued
        # for t = 5 stale; the node fires again at 3 and sleeps until 8.
        network.install_adversary(
            [
                (1.0, InjectFault(NodeFault.fail_silent(grid, TARGET))),
                (2.0, HealNode(TARGET)),
            ]
        )
        send(network, Direction.LOWER_LEFT, 3.0)
        send(network, Direction.LOWER_RIGHT, 3.0)
        # Had the stale wake-up at 5 woken the node, these would fire it.
        send(network, Direction.LOWER_LEFT, 6.0)
        send(network, Direction.LOWER_RIGHT, 6.0)
        network.run(until=50.0)
        assert network.firing_times(TARGET) == [0.0, 3.0]

    def test_fire_requires_positive_sleep(self):
        with pytest.raises(ValueError):
            TimeoutConfig(
                t_link_min=10.0, t_link_max=10.0, t_sleep_min=0.0, t_sleep_max=0.0,
                pulse_separation=100.0,
            )


class TestMemoryFlags:
    def test_receive_returns_expiry(self):
        network = _network()
        send(network, Direction.LEFT, 3.0)
        network.run(until=3.1)
        assert network.memorized(TARGET) == {Direction.LEFT: 13.0}

    def test_duplicate_message_is_absorbed(self):
        network = _network()
        send(network, Direction.LEFT, 3.0)
        send(network, Direction.LEFT, 4.0)
        network.run(until=4.1)
        # The original expiry still stands.
        assert network.memorized(TARGET) == {Direction.LEFT: 13.0}

    def test_expire_flag_clears_only_matching_expiry(self):
        network = _network()
        send(network, Direction.LOWER_LEFT, 0.0)
        send(network, Direction.LOWER_RIGHT, 0.0)
        network.run(until=5.0)  # fired at 0, woke at 5 with cleared flags
        send(network, Direction.LOWER_LEFT, 6.0)
        # The first flag's expiry event at 10 must not clear the new flag.
        network.run(until=10.5)
        assert network.memorized(TARGET) == {Direction.LOWER_LEFT: 16.0}
        network.run(until=16.5)
        assert network.memorized(TARGET) == {}

    def test_expired_flag_prevents_firing(self):
        network = _network(link=2.0)
        send(network, Direction.LOWER_LEFT, 0.0)
        send(network, Direction.LOWER_RIGHT, 5.0)
        network.run(until=50.0)
        assert network.firing_times(TARGET) == []

    def test_rejects_outgoing_direction(self):
        """A message is filed under the receiver's incoming direction only."""
        network = _network()
        upper_left = network.grid.out_neighbors(TARGET)[Direction.UPPER_LEFT]
        network.set_link_behavior((TARGET, upper_left), LinkBehavior.CONSTANT_ONE, 0.0)
        network.run(until=1.0)
        assert network.memorized(TARGET) == {}
        assert list(network.memorized(upper_left)) == [Direction.LOWER_RIGHT]

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            TimeoutConfig(
                t_link_min=0.0, t_link_max=0.0, t_sleep_min=5.0, t_sleep_max=5.0,
                pulse_separation=100.0,
            )

    def test_memorized_directions_order(self):
        network = _network()
        send(network, Direction.RIGHT, 0.0)
        send(network, Direction.LEFT, 0.1)
        network.run(until=1.0)
        assert list(network.memorized(TARGET)) == [Direction.LEFT, Direction.RIGHT]


class TestInitialStateControl:
    def test_force_ready_state_with_satisfied_guard_fires(self):
        network = _network()
        network.apply_adversarial_initial_states()
        assert network.firing_times(TARGET) == [0.0]
        assert network.memorized(TARGET) == {direction: 10.0 for direction in INCOMING_DIRECTIONS}

    def test_incoming_directions_constant(self):
        assert INCOMING_DIRECTIONS == (
            Direction.LEFT,
            Direction.LOWER_LEFT,
            Direction.LOWER_RIGHT,
            Direction.RIGHT,
        )
