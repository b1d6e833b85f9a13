"""The vocabulary of the HEX pulse-forwarding algorithm (Algorithm 1).

The paper implements each HEX node as two cooperating asynchronous state
machines (Fig. 7):

* the **firing state machine** (Fig. 7a) cycles through
  ``READY -> (guard satisfied) -> FIRING -> SLEEPING -> READY``; the memory
  flags are cleared on the ``SLEEPING -> READY`` transition;
* one **memory-flag state machine per incoming link** (Fig. 7b) that moves from
  ``ready`` to ``memorize`` when a trigger message is received and back to
  ``ready`` after the link timeout ``T_link`` expires (or when the firing state
  machine clears it on wake-up).

The firing guard of Algorithm 1 is: trigger messages memorized from

* the **left and lower-left** neighbours (the node is then *left-triggered*), or
* the **lower-left and lower-right** neighbours (*centrally triggered*), or
* the **lower-right and right** neighbours (*right-triggered*).

This module names those pieces: :data:`INCOMING_DIRECTIONS` fixes the order
of a node's four memory flags (the flag slots of the discrete-event network)
and :class:`GuardKind` the three guards (used by the analytic solver and the
zig-zag causal analysis).  The timed state machines themselves run on flat
per-grid state in :class:`repro.simulation.network.HexNetwork`.

Since the paper folds the node's switching delay into the end-to-end link delay
bounds, firing is instantaneous: when the guard becomes satisfied at time
``t`` the node's trigger messages are sent at time ``t``.
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.core.topology import GUARD_NAMES, TRIGGER_GUARDS, Direction

__all__ = ["GuardKind", "INCOMING_DIRECTIONS"]

#: The four incoming directions a forwarding node listens to, in a fixed order
#: (used for deterministic iteration and array layouts).
INCOMING_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.LEFT,
    Direction.LOWER_LEFT,
    Direction.LOWER_RIGHT,
    Direction.RIGHT,
)


class GuardKind(enum.IntEnum):
    """Which of the three guards of Algorithm 1 caused a node to fire.

    The integer values index :data:`repro.core.topology.TRIGGER_GUARDS`.
    Following Definition 1 the node is called left-, centrally- or
    right-triggered respectively, and the two links of the satisfied guard are
    the *causal links* of the firing.
    """

    LEFT_TRIGGERED = 0
    CENTRALLY_TRIGGERED = 1
    RIGHT_TRIGGERED = 2

    @property
    def causal_directions(self) -> Tuple[Direction, Direction]:
        """The two incoming directions whose links are causal for this guard."""
        return TRIGGER_GUARDS[int(self)]

    @property
    def label(self) -> str:
        """Short human-readable label (``"left"``, ``"central"``, ``"right"``)."""
        return GUARD_NAMES[int(self)]
