"""Per-run DES introspection: the observer installed on a :class:`HexNetwork`.

:class:`DesRunObserver` is the single hook the simulation core knows about --
``HexNetwork`` carries an ``observer`` attribute that is ``None`` by default
and, when set (by :class:`repro.engines.des.DesEngine` while observability is
enabled), receives three read-only callbacks:

* :meth:`on_event` -- every popped event, classified by type name;
* :meth:`on_firing` -- every node firing (sources and forwarding nodes);
* :meth:`on_adversary` -- every applied adversary action, classified by its
  action class (``InjectFault`` / ``HealNode`` / ...).

Classification is by ``type(...).__name__`` string, so this module imports
nothing from :mod:`repro.simulation` or :mod:`repro.adversary` -- obs sits
beside the deterministic core, never inside it.  The observer only reads the
event payloads; it never mutates network state and never draws randomness,
which is what keeps instrumented runs bit-identical to bare ones.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

__all__ = ["DesRunObserver", "first_firing_matrix_from_events"]

#: ``type(event).__name__`` -> stable event-kind label used in traces/metrics.
_EVENT_KINDS = {
    "SourcePulse": "source_pulse",
    "MessageArrival": "arrival",
    "FlagExpiry": "flag_expiry",
    "WakeUp": "wake_up",
    "AdversaryAction": "adversary",
}

#: Adversary action class name -> counter suffix.
_ADVERSARY_KINDS = {
    "InjectFault": "faults_injected",
    "HealNode": "faults_healed",
    "FlipBehavior": "behavior_flips",
    "SetLinkBehavior": "link_overrides",
}


class DesRunObserver:
    """Collects event counts (and optionally full event records) for one run.

    Parameters
    ----------
    capture_events:
        When true, every callback also appends a JSON-ready dict to
        :attr:`events` (``kind``, ``time`` and kind-specific fields).  Leave
        false to count only -- counting is cheap enough for long soak runs,
        full capture is meant for single-run introspection.
    """

    def __init__(self, capture_events: bool = False) -> None:
        self.capture_events = capture_events
        #: Event-kind -> number of occurrences (includes ``firing``).
        self.counts: Dict[str, int] = {}
        #: Captured event records (empty unless ``capture_events``).
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # network callbacks (read-only)
    # ------------------------------------------------------------------
    def on_event(self, time: float, event: Any) -> None:
        """Called by the network run loop for every popped event."""
        kind = _EVENT_KINDS.get(type(event).__name__, "other")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if not self.capture_events:
            return
        record: Dict[str, Any] = {"kind": kind, "time": float(time)}
        node = getattr(event, "node", None)
        if node is not None:
            record["node"] = list(node)
        if kind == "source_pulse":
            record["pulse_index"] = event.pulse_index
        elif kind == "arrival":
            record["source"] = list(event.source)
            record["node"] = list(event.destination)
            record["direction"] = event.direction.value
            if event.from_byzantine_high:
                record["byzantine_high"] = True
        elif kind == "flag_expiry":
            record["direction"] = event.direction.value
        self.events.append(record)

    def on_firing(self, node: Any, time: float) -> None:
        """Called whenever a node fires (source pulse or guard-triggered)."""
        self.counts["firing"] = self.counts.get("firing", 0) + 1
        if self.capture_events:
            self.events.append({"kind": "firing", "time": float(time), "node": list(node)})

    def on_adversary(self, time: float, action: Any) -> None:
        """Called after an adversary action body is applied."""
        kind = _ADVERSARY_KINDS.get(type(action).__name__, "other_actions")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.capture_events:
            describe = getattr(action, "describe", None)
            self.events.append(
                {
                    "kind": "adversary_action",
                    "time": float(time),
                    "action": kind,
                    "detail": describe() if callable(describe) else str(action),
                }
            )


def first_firing_matrix_from_events(
    events: List[Dict[str, Any]], layers: int, width: int
) -> np.ndarray:
    """Reconstruct the first-firing matrix of a run from captured events.

    The counterpart of :meth:`HexNetwork.first_firing_matrix` for offline
    analysis of a ``--trace`` file: nodes that never fired carry ``+inf``
    (faulty/absent nodes cannot be distinguished here and also carry ``inf``).
    The result plugs directly into :func:`repro.analysis.traces.wave_rows`.
    """
    times = np.full((layers + 1, width), np.inf, dtype=float)
    for event in events:
        if event.get("kind") != "firing":
            continue
        layer, column = event["node"]
        if 0 <= layer <= layers and 0 <= column < width:
            times[layer, column] = min(times[layer, column], event["time"])
    return times
