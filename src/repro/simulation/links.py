"""Link delay models.

The paper's testbench supports "both random delays (uniform within [d-, d+])
and deterministic delays" for every individual link.  The classes here cover
both, plus per-link tables for the hand-crafted worst-case constructions of
Figs. 5 and 17.

All models implement the :class:`repro.core.pulse_solver.LinkDelayProvider`
protocol (``rng`` and ``delay(source, destination, uniform=None)``) and
additionally a ``sample(source, destination, uniform=None)`` method used by
the discrete-event simulator for each individual message:

* for :class:`UniformRandomDelays` the per-link delay is drawn lazily once and
  then cached, so the analytic solver and the discrete-event simulator observe
  *identical* delays for the same run -- this is what makes the engine
  cross-validation tests exact;
* :class:`FreshUniformDelays` instead draws a fresh delay for every message,
  modelling per-message jitter in long multi-pulse runs.  It says so through
  :meth:`DelayModel.message_draw_bounds`: each of its delays is the next
  ``uniform(d-, d+)`` draw, so the DES event loop reads that draw from the
  run's stream itself rather than calling ``sample`` per message.

A model that draws names its generator in :attr:`DelayModel.rng`; the
solver (and the DES, when that is the run's generator) passes the
``uniform`` of a :class:`~repro.core.draws.DrawStream` over it to ``delay``
/ ``sample``, and the model draws through that.  Deterministic models
ignore ``uniform``.

Every model reports a lower bound of its delays through
:meth:`DelayModel.min_delay` (``d-`` for the random models, the value or
the table's minimum for the deterministic ones); the solver fires every node
whose candidate lies within that bound of the earliest one in one step.

A model whose next ``n`` per-link queries would simply take the next ``n``
draws of ``uniform(low, high)`` says so through
:meth:`DelayModel.block_draw_bounds`.  :class:`UniformRandomDelays` does
while it has drawn nothing, so the solver reads one block of draws in its
query order instead of calling ``delay`` per link, and hands the model the
float64 block with :meth:`UniformRandomDelays.adopt_block`.  The model
fills its per-link cache from it lazily, on the first read, into exactly the
dict the per-link queries would have built.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.core.draws import Uniform
from repro.core.parameters import TimingConfig
from repro.core.topology import HexGrid, LinkId, NodeId

__all__ = [
    "DelayModel",
    "ConstantDelays",
    "TableDelays",
    "UniformRandomDelays",
    "FreshUniformDelays",
]


class DelayModel(abc.ABC):
    """Base class of all link delay models."""

    #: The generator the model draws from; ``None`` for deterministic models.
    rng: Optional[np.random.Generator] = None

    @abc.abstractmethod
    def delay(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        """The (stable) delay of the link; ``uniform`` stands in for :attr:`rng`."""

    def sample(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        """The delay of one particular message on the link.

        Defaults to the stable per-link delay; models with per-message jitter
        override this.  ``uniform`` is as for :meth:`delay`.
        """
        return self.delay(source, destination, uniform)

    def min_delay(self) -> Optional[float]:
        """A lower bound of every delay the model returns; ``None`` if unknown.

        The solver's sweep fires every node whose candidate lies within this
        bound of the earliest one in one step, so a larger bound means fewer
        steps.  The sweep does not trust it: a delay below it, or a message
        that lands inside the window it was sent from, raises an error.
        """
        return None

    def block_draw_bounds(self) -> Optional[Tuple[float, float]]:
        """``(low, high)`` if the next link queries take consecutive draws.

        Non-``None`` promises that the ``k``-th query of a distinct link
        returns the ``k``-th ``uniform(low, high)`` draw, so a caller may
        read the draws in one block and hand them over with ``adopt_block``.
        Defaults to ``None``: query link by link.
        """
        return None

    def message_draw_bounds(self) -> Optional[Tuple[float, float]]:
        """``(low, high)`` if every :meth:`sample` is the next ``uniform(low, high)``.

        Non-``None`` promises that ``sample(source, destination, uniform)``
        returns ``uniform(low, high)`` and does nothing else, whatever the
        link, so a caller holding the stream over :attr:`rng` may take that
        draw itself instead of calling :meth:`sample`.  Defaults to ``None``.
        """
        return None

    def validate_against(self, timing: TimingConfig, grid: HexGrid) -> bool:
        """Check that every link delay of ``grid`` lies within ``[d-, d+]``.

        Mainly used in tests and when loading hand-crafted delay tables.
        """
        for source, destination in grid.links():
            value = self.delay(source, destination)
            if not (timing.d_min - 1e-12 <= value <= timing.d_max + 1e-12):
                return False
        return True


class ConstantDelays(DelayModel):
    """Every link has the same fixed delay.

    Useful for analytic sanity checks (e.g. with delay ``d+`` everywhere a
    fault-free wave is perfectly synchronous within each layer).
    """

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"link delay must be positive, got {value}")
        self._value = float(value)

    @property
    def value(self) -> float:
        """The constant delay."""
        return self._value

    def delay(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        return self._value

    def min_delay(self) -> Optional[float]:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ConstantDelays({self._value})"


class TableDelays(DelayModel):
    """Per-link delays from an explicit table, with a default for unlisted links.

    Used by the deterministic worst-case constructions (Figs. 5 and 17), where
    specific links are made fast (``d-``) or slow (``d+``).
    """

    def __init__(self, table: Mapping[LinkId, float], default: float) -> None:
        if default <= 0:
            raise ValueError(f"default link delay must be positive, got {default}")
        for link, value in table.items():
            if value <= 0:
                raise ValueError(f"link delay must be positive, got {value} for {link}")
        self._table: Dict[LinkId, float] = dict(table)
        self._default = float(default)

    @property
    def default(self) -> float:
        """The delay of links not listed in the table."""
        return self._default

    def set(self, source: NodeId, destination: NodeId, value: float) -> None:
        """Set the delay of a single link."""
        if value <= 0:
            raise ValueError(f"link delay must be positive, got {value}")
        self._table[(source, destination)] = float(value)

    def delay(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        return self._table.get((source, destination), self._default)

    def min_delay(self) -> Optional[float]:
        return min(self._default, min(self._table.values(), default=self._default))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TableDelays({len(self._table)} entries, default={self._default})"


class UniformRandomDelays(DelayModel):
    """Per-link delays drawn uniformly from ``[d-, d+]``, lazily, then cached.

    Every directed link gets exactly one delay per model instance; repeated
    queries return the same value.  This matches the paper's single-pulse
    experiments (each run draws one delay per link) and guarantees that the
    analytic solver and the discrete-event simulator agree exactly when given
    the same model instance.

    Until the first draw, :meth:`block_draw_bounds` offers ``[d-, d+]``: the
    solver then reads its delays as one block in query order and hands it
    over with :meth:`adopt_block`, and the first read of the cache settles
    it into the dict the per-link queries would have built (same links,
    values and insertion order).
    """

    def __init__(self, timing: TimingConfig, rng: np.random.Generator) -> None:
        self._timing = timing
        self.rng = rng
        self._links: Dict[LinkId, float] = {}
        # An adopted block not yet settled into ``_links``.
        self._block: Optional[Tuple[Callable[[], Iterable[LinkId]], np.ndarray]] = None

    @property
    def timing(self) -> TimingConfig:
        """The delay bounds the model draws from."""
        return self._timing

    @property
    def _cache(self) -> Dict[LinkId, float]:
        """The per-link delays drawn so far, in draw order."""
        if self._block is not None:
            links, values = self._block
            self._block = None
            self._links = dict(zip(links(), values.tolist()))
        return self._links

    def min_delay(self) -> Optional[float]:
        return self._timing.d_min

    def block_draw_bounds(self) -> Optional[Tuple[float, float]]:
        if self._links or self._block is not None:
            return None
        return (self._timing.d_min, self._timing.d_max)

    def adopt_block(self, links: Callable[[], Iterable[LinkId]], values: np.ndarray) -> None:
        """Take ``values[k]`` as the delay of the ``k``-th link of ``links()``.

        The values are the model's first draws, read as one float64 block in
        query order (see :meth:`block_draw_bounds`); the links must be
        distinct.  ``links`` is called, and the block converted to Python
        floats, on the first read of the cache.
        """
        if self.block_draw_bounds() is None:
            raise RuntimeError("a block can only be adopted before any delay is drawn")
        self._block = (links, values)

    def sample(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        key = (source, destination)
        value = self._links.get(key)
        if value is None:
            cache = self._cache
            value = cache.get(key)
            if value is None:
                draw = uniform if uniform is not None else self.rng.uniform
                value = float(draw(self._timing.d_min, self._timing.d_max))
                cache[key] = value
        return value

    delay = sample

    def materialize(self, grid: HexGrid) -> Dict[LinkId, float]:
        """Draw (and cache) delays for *all* links of a grid and return them."""
        return {link: self.delay(*link) for link in grid.links()}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"UniformRandomDelays([{self._timing.d_min}, {self._timing.d_max}], "
            f"{len(self._cache)} cached)"
        )


class FreshUniformDelays(DelayModel):
    """Delays drawn uniformly from ``[d-, d+]`` independently for every message.

    ``delay`` returns a fresh draw as well (so the model is *not* stable); use
    :class:`UniformRandomDelays` when the analytic solver needs to see the same
    delays as the simulator.
    """

    def __init__(self, timing: TimingConfig, rng: np.random.Generator) -> None:
        self._timing = timing
        self.rng = rng

    @property
    def timing(self) -> TimingConfig:
        """The delay bounds the model draws from."""
        return self._timing

    def sample(
        self, source: NodeId, destination: NodeId, uniform: Optional[Uniform] = None
    ) -> float:
        draw = uniform if uniform is not None else self.rng.uniform
        return float(draw(self._timing.d_min, self._timing.d_max))

    delay = sample

    def min_delay(self) -> Optional[float]:
        return self._timing.d_min

    def message_draw_bounds(self) -> Optional[Tuple[float, float]]:
        return (self._timing.d_min, self._timing.d_max)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FreshUniformDelays([{self._timing.d_min}, {self._timing.d_max}])"
