"""Pulse assignment and stabilization-time estimation (Section 4.4).

The self-stabilization experiments start every node in an arbitrary state and
let the layer-0 sources generate a sequence of pulses.  Post-processing then

1. assigns each recorded firing to a pulse number (easy thanks to the large
   pulse separation ``S``: a firing belongs to pulse ``k`` if it falls into the
   window between the earliest layer-0 generation of pulse ``k`` and that of
   pulse ``k + 1``; :func:`pulse_windows`), and
2. estimates the *stabilization time* as the minimal pulse ``k`` such that from
   pulse ``k`` on every correct forwarding node fires exactly once per pulse
   and the per-layer intra- and inter-layer skews stay below the a-priori
   chosen bounds ``sigma(f, l)`` resp. ``sigma-hat(f, l) = sigma(f, l) + d+``
   (:func:`pulse_ok_flags`, :func:`stabilization_time`).

The per-layer skew bound ``sigma(f, l)`` is parameterised by the paper's
``C in {0, 1, 2, 3}`` choices (see
:func:`repro.core.bounds.stable_skew_choice`); :func:`sigma_bound` adds the
topology's lateral-trigger margin.  This module is the only place that
applies the rule: the campaign records (Figs. 18/19), the recovery
experiment and the soak's post-hoc skew series all call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.analysis.skew import inter_layer_skews, intra_layer_skews
from repro.core.bounds import stable_skew_choice
from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid
from repro.engines.base import RunResult

__all__ = [
    "PulseAssignment",
    "assign_pulses",
    "pulse_ok_flags",
    "pulse_skew_ok",
    "pulse_skew_series",
    "pulse_windows",
    "sigma_bound",
    "stabilization_time",
]


def pulse_windows(schedule: np.ndarray) -> np.ndarray:
    """The pulse-window starts of a ``(num_pulses, W)`` layer-0 schedule.

    Window ``k`` is ``[starts[k], starts[k + 1])`` with the last window
    extending to infinity; ``starts[k]`` is the earliest layer-0 generation
    time of pulse ``k``.  Raises ``ValueError`` unless the starts are strictly
    increasing.
    """
    window_starts = np.nanmin(schedule, axis=1).astype(float)
    if not np.all(np.diff(window_starts) > 0):
        raise ValueError("source schedule windows are not strictly increasing")
    return window_starts


def _windowed_firings(
    result: RunResult, window_starts: np.ndarray
) -> Iterator[Tuple[int, int, int, float]]:
    """``(layer, column, window, time)`` of every firing of a correct node.

    ``window`` is ``-1`` for firings before the first window.
    """
    fault_model = result.fault_model
    for node, firings in result.firing_times.items():
        if fault_model is not None and fault_model.is_faulty(node):
            continue
        layer, column = node
        for fire_time in firings:
            window = int(np.searchsorted(window_starts, fire_time, side="right")) - 1
            yield layer, column, window, fire_time


@dataclass
class PulseAssignment:
    """Firings of a multi-pulse run, binned by pulse number.

    Attributes
    ----------
    times:
        Array of shape ``(num_pulses, L + 1, W)``: the firing time assigned to
        each node for each pulse, or ``nan`` when the node did not fire exactly
        once within the pulse's window (faulty nodes are always ``nan``).
    counts:
        Integer array of the same shape: how many firings fell into the window
        (faulty nodes carry 0).
    window_starts:
        The window boundaries used for binning (length ``num_pulses``); window
        ``k`` is ``[window_starts[k], window_starts[k + 1])`` with the last
        window extending to infinity.
    """

    times: np.ndarray
    counts: np.ndarray
    window_starts: np.ndarray

    @property
    def num_pulses(self) -> int:
        """Number of pulses."""
        return int(self.times.shape[0])

    def spurious_firings_before_first_pulse(self) -> int:
        """Number of firings that occurred before the first pulse window.

        These stem from arbitrary initial states (nodes whose initial flags
        already satisfied a guard); they are not assigned to any pulse.
        """
        return int(self._early_firings)

    _early_firings: int = 0


def assign_pulses(result: RunResult) -> PulseAssignment:
    """Bin the firings of a multi-pulse run by pulse number.

    The window of pulse ``k`` starts at the earliest layer-0 generation time of
    pulse ``k`` (:func:`pulse_windows`; firings of layer-0 sources themselves
    are assigned by their scheduled pulse index, which is exact by
    construction).
    """
    grid: HexGrid = result.grid
    window_starts = pulse_windows(result.source_schedule)
    shape = (window_starts.size, grid.layers + 1, grid.width)
    times = np.full(shape, np.nan, dtype=float)
    counts = np.zeros(shape, dtype=int)
    early = 0

    for layer, column, pulse, fire_time in _windowed_firings(result, window_starts):
        if pulse < 0:
            early += 1
            continue
        counts[pulse, layer, column] += 1
        if counts[pulse, layer, column] == 1:
            times[pulse, layer, column] = fire_time
        else:
            # More than one firing in the window: ambiguous, drop the time.
            times[pulse, layer, column] = np.nan

    assignment = PulseAssignment(times=times, counts=counts, window_starts=window_starts)
    assignment._early_firings = early
    return assignment


def pulse_skew_ok(
    grid: HexGrid,
    pulse_times: np.ndarray,
    pulse_counts: np.ndarray,
    correct_mask: np.ndarray,
    intra_bound: Callable[[int], float],
    inter_bound: Callable[[int], float],
) -> bool:
    """Whether one pulse satisfies the per-layer skew bounds.

    Parameters
    ----------
    pulse_times, pulse_counts:
        The ``(L + 1, W)`` slices of a :class:`PulseAssignment` for one pulse.
    correct_mask:
        ``True`` where the node is correct.
    intra_bound, inter_bound:
        Per-layer bounds ``sigma(f, l)`` and ``sigma-hat(f, l)`` (callables of
        the layer index).

    A pulse qualifies if every correct forwarding node fired exactly once in
    the pulse window, every intra-layer neighbour skew of layer ``l`` is at
    most ``intra_bound(l)``, and every (absolute) inter-layer skew of layer
    ``l`` is at most ``inter_bound(l)``.
    """
    forwarding_mask = correct_mask.copy()
    forwarding_mask[0, :] = False
    if not np.all(pulse_counts[forwarding_mask] == 1):
        return False

    wrap = bool(getattr(grid, "column_wrap", True))
    intra = intra_layer_skews(pulse_times, correct_mask, wrap=wrap)
    inter = inter_layer_skews(pulse_times, correct_mask, wrap=wrap)
    for layer in range(1, grid.layers + 1):
        layer_intra = intra[layer, :]
        layer_intra = layer_intra[np.isfinite(layer_intra)]
        if layer_intra.size and float(layer_intra.max()) > intra_bound(layer) + 1e-9:
            return False
        layer_inter = np.abs(inter[layer, :, :].ravel())
        layer_inter = layer_inter[np.isfinite(layer_inter)]
        if layer_inter.size and float(layer_inter.max()) > inter_bound(layer) + 1e-9:
            return False
    return True


def pulse_skew_series(result: RunResult) -> np.ndarray:
    """Per-pulse max intra-layer firing spread of a multi-pulse run.

    The post-hoc mirror of the soak's streaming skew telemetry
    (:class:`repro.experiments.soak.SoakObserver`), so tests can check the
    two agree on runs small enough to keep the trace.  Returns an array of
    length ``num_pulses``: entry ``k`` is the largest ``max - min``
    firing-time spread across forwarding layers (``1 .. L``) with at least
    two firings of correct nodes in pulse window ``k`` (:func:`pulse_windows`),
    or ``nan`` when no layer qualifies.  Under mid-run churn the trace also
    holds a healed node's while-faulty firings, which the live observer
    skipped, so the two agree only on fault-free runs.
    """
    grid = result.grid
    window_starts = pulse_windows(result.source_schedule)
    num_pulses = window_starts.size
    shape = (num_pulses, grid.layers + 1)
    mins = np.full(shape, np.inf, dtype=float)
    maxs = np.full(shape, -np.inf, dtype=float)
    counts = np.zeros(shape, dtype=np.int64)

    for layer, _, window, fire_time in _windowed_firings(result, window_starts):
        if layer == 0 or window < 0:
            continue
        counts[window, layer] += 1
        if fire_time < mins[window, layer]:
            mins[window, layer] = fire_time
        if fire_time > maxs[window, layer]:
            maxs[window, layer] = fire_time

    series = np.full(num_pulses, np.nan, dtype=float)
    for window in range(num_pulses):
        eligible = counts[window] >= 2
        if eligible.any():
            series[window] = float(np.max(maxs[window][eligible] - mins[window][eligible]))
    return series


def sigma_bound(
    grid: HexGrid,
    timing: TimingConfig,
    choice: int,
    num_faults: int,
    layer0_spread: float = 0.0,
) -> Callable[[int], float]:
    """The per-layer stable-skew bound ``sigma(f, l)`` of a run on ``grid``.

    :func:`~repro.core.bounds.stable_skew_choice` for skew-bound choice
    ``choice``, plus the topology's lateral-trigger margin
    :meth:`~repro.core.topology.HexGrid.condition2_extra_hops` ``* d+`` (0
    on the cylinder): the sigma bounds are derived for centrally-triggered
    nodes, and rim/hole-adjacent nodes legitimately run about one ``d+``
    behind per structural obstacle -- the same margin the DES engine charges
    on its Condition 2 timeouts.
    """
    extra_skew = grid.condition2_extra_hops() * timing.d_max

    def bound(layer: int) -> float:
        return extra_skew + stable_skew_choice(
            choice, timing, grid.layers, layer, num_faults, layer0_spread=layer0_spread
        )

    return bound


def pulse_ok_flags(
    result: RunResult,
    intra_bound: Callable[[int], float],
    inter_bound: Optional[Callable[[int], float]] = None,
    assignment: Optional[PulseAssignment] = None,
) -> np.ndarray:
    """Per-pulse flags of a multi-pulse run: :func:`pulse_skew_ok` per window.

    Parameters
    ----------
    result:
        The multi-pulse run.
    intra_bound:
        The per-layer stable-skew bound ``sigma(f, l)`` (callable of the
        layer; see :func:`sigma_bound`).
    inter_bound:
        The per-layer inter-layer bound ``sigma-hat(f, l)``; defaults to
        ``sigma(f, l) + d+`` per Theorem 1's inter-layer relation.
    assignment:
        Re-use a precomputed :func:`assign_pulses` result.

    Returns
    -------
    np.ndarray
        Boolean array of length ``num_pulses``: whether each pulse window
        satisfies the bounds.  Faulty nodes are not judged; neither are
        structurally absent or unreachable ones (degraded-topology holes and
        the guard-deadlocked nodes above them), which never fire.
    """
    if inter_bound is None:
        d_max = result.timing.d_max

        def inter_bound(layer: int, _d_max: float = d_max) -> float:  # type: ignore[misc]
            return intra_bound(layer) + _d_max

    if assignment is None:
        assignment = assign_pulses(result)
    grid = result.grid
    correct_mask = (
        result.fault_model.correctness_mask()
        if result.fault_model is not None
        else np.ones(grid.shape, dtype=bool)
    )
    correct_mask &= grid.pulse_reachable_mask()

    flags = np.zeros(assignment.num_pulses, dtype=bool)
    for pulse in range(assignment.num_pulses):
        flags[pulse] = pulse_skew_ok(
            grid,
            assignment.times[pulse],
            assignment.counts[pulse],
            correct_mask,
            intra_bound,
            inter_bound,
        )
    return flags


def stabilization_time(
    result: RunResult,
    intra_bound: Callable[[int], float],
    inter_bound: Optional[Callable[[int], float]] = None,
    assignment: Optional[PulseAssignment] = None,
) -> Optional[int]:
    """Estimate the stabilization time of a multi-pulse run.

    Takes the parameters of :func:`pulse_ok_flags` and returns the 1-based
    index of the first pulse from which on *all* observed pulses satisfy the
    bounds, or ``None`` if the run did not stabilize within the observed
    pulses.  A return value of 1 means the system was within bounds from the
    very first pulse, matching the paper's reading of Figs. 18/19.
    """
    flags = pulse_ok_flags(result, intra_bound, inter_bound, assignment)
    # The stabilization time is the first pulse after the last violating pulse.
    violations = np.where(~flags)[0]
    if violations.size == 0:
        return 1
    first_stable = int(violations[-1]) + 1
    if first_stable >= flags.size:
        return None
    return first_stable + 1
