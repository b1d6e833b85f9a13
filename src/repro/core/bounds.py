"""Worst-case skew bounds and parameter formulas of Section 3.

Every analytic result of the paper's skew and resilience analysis is available
as a plain function so that experiments and tests can compare measured skews
against the corresponding guarantee:

============================  ====================================================
Paper statement               Function
============================  ====================================================
Definition 3 (skew potential) :func:`skew_potential` (on a vector of layer times)
Lemma 3                       :func:`lemma3_skew_potential_bound`
Lemma 4                       :func:`lemma4_intra_layer_bound`
Corollary 1                   :func:`corollary1_intra_layer_bound`
Theorem 1 (intra-layer)       :func:`theorem1_intra_layer_bound`,
                              :func:`theorem1_uniform_bound`
Theorem 1 (inter-layer)       :func:`theorem1_inter_layer_bounds`
Lemma 5                       :func:`lemma5_pulse_skew_bound`,
                              :func:`lemma5_triggering_window`
Theorem 2                     :func:`theorem2_stabilization_pulses`
Section 4.4 / Figs. 18-19     :func:`stable_skew_choice` (the ``C`` parameter)
============================  ====================================================

The quantity ``lambda_0 = floor(l d- / d+)`` and the identity
``l - lambda_0 = ceil(l epsilon / d+)`` (Eq. (4)) come from
:func:`repro.core.parameters.lambda0`.

A note on the constant quoted in Section 4.2: the paper states that Theorem 1
bounds the maximum intra-layer skew by 21.63 ns for scenarios (i)/(ii) with
the default parameters.  Evaluating the theorem's displayed formula
``d+ + ceil(W eps / d+) eps`` yields 11.3 ns; the quoted 21.63 ns corresponds to
``2 d+ + 2 W eps^2 / d+``, the closed form of the earlier conference version.
Both are provided (:func:`theorem1_uniform_bound` and
:func:`paper_quoted_theorem1_value`) and the discrepancy is recorded in
this docstring; all simulated skews stay far below either value.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.core.parameters import TimingConfig

__all__ = [
    "skew_potential",
    "lemma3_skew_potential_bound",
    "lemma4_intra_layer_bound",
    "corollary1_intra_layer_bound",
    "theorem1_uniform_bound",
    "theorem1_intra_layer_bound",
    "theorem1_inter_layer_bounds",
    "paper_quoted_theorem1_value",
    "lemma5_pulse_skew_bound",
    "lemma5_triggering_window",
    "theorem2_stabilization_pulses",
    "stable_skew_choice",
]


# ----------------------------------------------------------------------
# Definition 3
# ----------------------------------------------------------------------
def skew_potential(layer_times: Sequence[float], d_min: float) -> float:
    """The skew potential ``Delta_l`` of a layer (Definition 3 (ii)).

    ``Delta_l = max_{i,j} { t_{l,i} - t_{l,j} - |i - j|_W d- }`` where
    ``|i - j|_W`` is the cyclic column distance.  The result is always
    non-negative (the case ``i = j`` contributes 0).

    ``nan`` entries (faulty nodes) are ignored; if fewer than one finite entry
    remains the potential is 0 by convention.
    """
    times = np.asarray(layer_times, dtype=float)
    width = times.shape[0]
    finite = np.isfinite(times)
    if not np.any(finite):
        return 0.0
    columns = np.arange(width)
    # Pairwise cyclic distances and pairwise time differences, vectorized.
    diff = np.subtract.outer(times, times)  # diff[i, j] = t_i - t_j
    raw = np.abs(np.subtract.outer(columns, columns))
    cyc = np.minimum(raw, width - raw)
    potential = diff - cyc * d_min
    potential = np.where(np.isfinite(potential), potential, -np.inf)
    return float(max(0.0, np.max(potential)))


# ----------------------------------------------------------------------
# Lemma 3
# ----------------------------------------------------------------------
def lemma3_skew_potential_bound(timing: TimingConfig, width: int) -> float:
    """Lemma 3: for ``W > 2`` and all layers ``l >= W - 2``, ``Delta_l <= 2 (W - 2) eps``.

    The bound holds regardless of the layer-0 skew potential, which is what
    makes HEX tolerate arbitrary layer-0 skews at the cost of "losing" the
    first ``W - 2`` layers.
    """
    if width <= 2:
        raise ValueError(f"Lemma 3 requires W > 2, got {width}")
    return 2.0 * (width - 2) * timing.epsilon


# ----------------------------------------------------------------------
# Lemma 4
# ----------------------------------------------------------------------
def lemma4_intra_layer_bound(
    timing: TimingConfig,
    layer: int,
    base_layer: int = 0,
    base_skew_potential: float = 0.0,
) -> float:
    """Lemma 4: ``|t_{l,i} - t_{l,i+1}| <= d+ + ceil((l - l0) eps / d+) eps + Delta_{l0}``.

    Parameters
    ----------
    layer:
        The layer ``l`` of the two neighbouring nodes.
    base_layer:
        The reference layer ``l0 < l`` whose skew potential is known.
    base_skew_potential:
        ``Delta_{l0}``, the skew potential of the reference layer.
    """
    if layer <= base_layer:
        raise ValueError(f"layer ({layer}) must exceed base_layer ({base_layer})")
    if base_skew_potential < 0:
        raise ValueError("skew potential cannot be negative")
    depth = layer - base_layer
    ceil_term = math.ceil(depth * timing.epsilon / timing.d_max)
    return timing.d_max + ceil_term * timing.epsilon + base_skew_potential


# ----------------------------------------------------------------------
# Corollary 1
# ----------------------------------------------------------------------
def corollary1_intra_layer_bound(
    timing: TimingConfig,
    width: int,
    skew_potential_w_below: float,
) -> float:
    """Corollary 1: width-aware refinement of Lemma 4 for layers ``l >= W``.

    ``|t_{l,i} - t_{l,i+1}| <= max( d+ + ceil(W eps / d+) eps,
    Delta_{l-W} + d+ + W eps - d-/2 )``.

    Parameters
    ----------
    width:
        The grid width ``W``.
    skew_potential_w_below:
        ``Delta_{l-W}``, the skew potential of the layer ``W`` layers below.

    Notes
    -----
    The second term of the maximum follows the corollary's proof
    (``t_{l,i+1} <= t_{l,i} + Delta_{l-W} + (l - lambda_0) d+ - d-/2`` with
    ``(l - lambda_0) d+ <= W eps + d+``); the displayed statement writes it as
    ``Delta_{l-W} + d+ - W delta`` with ``delta = d-/2 - eps`` scaled per
    column.  We use the proof's (slightly weaker, unambiguous) form.
    """
    if width < 3:
        raise ValueError(f"width must be at least 3, got {width}")
    if skew_potential_w_below < 0:
        raise ValueError("skew potential cannot be negative")
    first = theorem1_uniform_bound(timing, width)
    second = skew_potential_w_below + timing.d_max + width * timing.epsilon - timing.d_min / 2.0
    return max(first, second)


# ----------------------------------------------------------------------
# Theorem 1
# ----------------------------------------------------------------------
def theorem1_uniform_bound(timing: TimingConfig, width: int) -> float:
    """The uniform Theorem 1 bound ``d+ + ceil(W eps / d+) eps``.

    This bounds the intra-layer skew of every layer when ``Delta_0 = 0`` and,
    in the general case, of every layer ``l >= 2W - 2``.
    """
    if width < 3:
        raise ValueError(f"width must be at least 3, got {width}")
    ceil_term = math.ceil(width * timing.epsilon / timing.d_max)
    return timing.d_max + ceil_term * timing.epsilon


def theorem1_intra_layer_bound(
    timing: TimingConfig,
    width: int,
    layer: int,
    layer0_skew_potential: float = 0.0,
    require_constraint: bool = True,
) -> float:
    """Theorem 1's intra-layer skew bound ``sigma_l`` for a given layer.

    Parameters
    ----------
    width, layer:
        Grid width ``W`` and the layer ``l >= 1`` of interest.
    layer0_skew_potential:
        ``Delta_0``; 0 for perfectly aligned clock sources.
    require_constraint:
        If ``True`` (default), raise when ``eps > d+/7`` -- outside this regime
        the theorem as stated does not apply.

    Returns
    -------
    float
        * ``Delta_0 = 0``: the uniform bound for every layer;
        * otherwise, for ``1 <= l <= 2W - 3``: the Lemma 4 bound
          ``d+ + ceil(l eps / d+) eps + Delta_0``;
        * for ``l >= 2W - 2``: the uniform bound.
    """
    if layer < 1:
        raise ValueError(f"layer must be >= 1, got {layer}")
    if require_constraint and not timing.satisfies_theorem1_constraint:
        raise ValueError(
            f"Theorem 1 requires eps <= d+/7 (eps={timing.epsilon}, d+={timing.d_max})"
        )
    uniform = theorem1_uniform_bound(timing, width)
    if layer0_skew_potential <= 0.0:
        return uniform
    if layer <= 2 * width - 3:
        return lemma4_intra_layer_bound(
            timing, layer, base_layer=0, base_skew_potential=layer0_skew_potential
        )
    return uniform


def theorem1_inter_layer_bounds(
    timing: TimingConfig, sigma_previous_layer: float
) -> Tuple[float, float]:
    """Theorem 1's inter-layer skew window.

    Given the intra-layer skew bound ``sigma_{l-1}`` of the layer below, the
    (signed) inter-layer skew ``t_{l,i} - t_{l-1,i}`` (and w.r.t. the
    lower-right neighbour) lies within ``[d- - sigma_{l-1}, d+ + sigma_{l-1}]``.
    """
    if sigma_previous_layer < 0:
        raise ValueError("sigma of the previous layer cannot be negative")
    return (timing.d_min - sigma_previous_layer, timing.d_max + sigma_previous_layer)


def paper_quoted_theorem1_value(timing: TimingConfig, width: int) -> float:
    """The numeric worst-case value quoted in Section 4.2 (21.63 ns).

    Computed as ``2 d+ + 2 W eps^2 / d+``; see the module docstring for why
    this differs from :func:`theorem1_uniform_bound`.
    """
    return 2.0 * timing.d_max + 2.0 * width * timing.epsilon**2 / timing.d_max


# ----------------------------------------------------------------------
# Lemma 5 (faulty case)
# ----------------------------------------------------------------------
def lemma5_pulse_skew_bound(
    timing: TimingConfig,
    layers: int,
    num_faults: int,
    layer0_spread: float = 0.0,
) -> float:
    """Lemma 5's coarse bound on the skew of a whole pulse.

    With all correct layer-0 nodes firing within ``[t_min, t_max]`` and at most
    ``f`` faulty nodes satisfying Condition 1, the pulse skew is less than
    ``(t_max - t_min) + eps L + f d+``.

    Parameters
    ----------
    layers:
        The grid length ``L``.
    num_faults:
        The number of faults ``f``.
    layer0_spread:
        ``t_max - t_min`` of the layer-0 firing times.
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if num_faults < 0:
        raise ValueError(f"num_faults must be non-negative, got {num_faults}")
    if layer0_spread < 0:
        raise ValueError(f"layer0_spread must be non-negative, got {layer0_spread}")
    return layer0_spread + timing.epsilon * layers + num_faults * timing.d_max


def lemma5_triggering_window(
    timing: TimingConfig,
    layer: int,
    num_faulty_layers_below: int,
    t_min: float,
    t_max: float,
) -> Tuple[float, float]:
    """Lemma 5's window for the firing times of correct nodes on a layer.

    All correct nodes on layer ``l`` are triggered within
    ``[t_min + l d-, t_max + (l + f_l) d+]``, where ``f_l`` is the number of
    layers ``<= l`` containing a faulty node.
    """
    if layer < 0:
        raise ValueError(f"layer must be non-negative, got {layer}")
    if num_faulty_layers_below < 0:
        raise ValueError("num_faulty_layers_below must be non-negative")
    if t_max < t_min:
        raise ValueError(f"t_max ({t_max}) must be >= t_min ({t_min})")
    lower = t_min + layer * timing.d_min
    upper = t_max + (layer + num_faulty_layers_below) * timing.d_max
    return (lower, upper)


# ----------------------------------------------------------------------
# Theorem 2 (self-stabilization)
# ----------------------------------------------------------------------
def theorem2_stabilization_pulses(layer: int) -> int:
    """Theorem 2's worst-case stabilization bound for a layer.

    Layer ``l`` is stable (with skew at most ``sigma(f)``) in all pulses
    ``k > l``; the whole grid of length ``L`` is therefore stable from pulse
    ``L + 1`` on.  The function returns the first guaranteed-stable pulse
    number ``l + 1``.
    """
    if layer < 0:
        raise ValueError(f"layer must be non-negative, got {layer}")
    return layer + 1


# ----------------------------------------------------------------------
# Section 4.4: the C parameter of the stabilization experiments
# ----------------------------------------------------------------------
def stable_skew_choice(
    choice: int,
    timing: TimingConfig,
    layers: int,
    layer: int,
    num_faults: int,
    layer0_spread: float = 0.0,
) -> float:
    """The per-layer stable-skew bound ``sigma(f, l)`` used in Figs. 18-19.

    The paper evaluates four choices ``C in {0, 1, 2, 3}``:

    * ``C = 0``: the very conservative per-layer Lemma 5 bound
      ``(t_max - t_min) + eps l + f d+``;
    * ``C in {1, 2, 3}``: the aggressive constants ``(4 - C) d+``
      (i.e. ``3 d+``, ``2 d+``, ``1 d+``).
    """
    if choice not in (0, 1, 2, 3):
        raise ValueError(f"C must be one of 0..3, got {choice}")
    if not 0 <= layer <= layers:
        raise ValueError(f"layer {layer} out of range [0, {layers}]")
    if choice == 0:
        return layer0_spread + timing.epsilon * layer + num_faults * timing.d_max
    return (4 - choice) * timing.d_max
