"""Typed views of the HEX discrete-event simulation's events.

The network queues events as flat ``(time, seq, kind, node, arg)`` heap
entries of plain numbers; these small frozen dataclasses are the form an
observer's ``on_event`` hook receives (see
:class:`repro.simulation.network.HexNetwork`), built only when the observer
defines that hook.  Events never carry behaviour.  All events
are totally ordered by their scheduled time with a monotonically increasing
sequence number as a tie-breaker (assigned by the
:class:`repro.simulation.engine.EventQueue`), which makes simulation runs fully
deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.topology import Direction, NodeId

__all__ = [
    "SourcePulse",
    "MessageArrival",
    "FlagExpiry",
    "WakeUp",
    "Event",
]


@dataclass(frozen=True)
class SourcePulse:
    """A layer-0 clock source generates (broadcasts) its ``pulse_index``-th pulse."""

    node: NodeId
    pulse_index: int


@dataclass(frozen=True)
class MessageArrival:
    """A trigger message arrives at ``destination`` on the link from ``source``.

    ``direction`` is the incoming direction under which the destination files
    the message (redundant with ``source`` but precomputed for speed).
    ``from_byzantine_high`` marks arrivals that model a stuck-at-1 link
    re-asserting itself; the network re-schedules those whenever the
    corresponding memory flag is cleared.
    """

    source: NodeId
    destination: NodeId
    direction: Direction
    from_byzantine_high: bool = False


@dataclass(frozen=True)
class FlagExpiry:
    """The link timer of ``node``'s memory flag for ``direction`` runs out.

    ``expiry`` is the absolute expiry time the flag was armed with (the
    event's own time); only a flag armed with it is cleared.  The network
    pops it only for a queued timer; most are deferred and never popped
    (see :mod:`repro.simulation.network`), as are most wake-ups.
    """

    node: NodeId
    direction: Direction
    expiry: float


@dataclass(frozen=True)
class WakeUp:
    """The sleep timer of ``node`` runs out (Fig. 7a: sleeping -> ready)."""

    node: NodeId


@dataclass(frozen=True)
class AdversaryAction:
    """A scheduled adversary mutation fires (fault injection / heal / ...).

    ``index`` points into the action table installed on the network via
    :meth:`repro.simulation.network.HexNetwork.install_adversary`; keeping the
    event itself index-only preserves the "events are pure data" discipline.
    """

    index: int


Event = Union[SourcePulse, MessageArrival, FlagExpiry, WakeUp, AdversaryAction]
