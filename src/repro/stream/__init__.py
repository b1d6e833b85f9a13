"""Bounded-memory streaming accumulators (``repro.stream``).

The observability substrate for runs that never fit in memory: incremental
count/mean/variance via Welford's algorithm, exact min/max, order
statistics bit-identical to NumPy's (:mod:`repro.stream.exact`), and
epsilon-approximate quantiles via a Greenwald-Khanna sketch with a
documented worst-case rank-error bound (see
:class:`~repro.stream.quantiles.GKSketch`).  Everything serializes exactly
to JSON and back, so soak checkpoints resume without statistical drift.

This package is a dependency-free leaf in the layer DAG (NumPy only):
``analysis``, ``obs``, ``campaign``, ``experiments`` and ``bench`` may all
import it without cycles.  It never draws randomness and never reads wall
clocks -- accumulator state is a pure function of the observation sequence.
"""

import importlib

#: Exported name -> submodule, loaded on first access (``exact`` alone is on
#: the sweep path).
_EXPORTS = {
    "GKSketch": "quantiles",
    "StreamSummary": "summary",
    "StreamingMoments": "moments",
    "StreamingQuantiles": "quantiles",
    "exact_median": "exact",
    "exact_quantiles": "exact",
    "interpolated_quantile": "quantiles",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


__all__ = list(_EXPORTS)
