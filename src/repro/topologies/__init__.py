"""Pluggable grid topologies: one protocol, one spec grammar, one registry.

Mirrors the :mod:`repro.engines` pattern for the *shape* axis of a run:

* :class:`~repro.topologies.base.Topology` -- the protocol the simulation
  stack consumes (:class:`~repro.core.topology.HexGrid` is the reference
  implementation);
* :class:`~repro.topologies.base.TopologySpec` -- canonical
  ``family[:key=value,...]`` spec strings that ride inside
  :class:`~repro.engines.base.RunSpec` and sweep as campaign axes;
* the registry -- :func:`register_topology` / :func:`get_topology` /
  :func:`available_topologies` / :func:`build_topology`.

Built-in families: ``cylinder`` (the paper's grid, byte-identical to the
historical :class:`HexGrid`), ``torus`` (both axes wrap), ``patch`` (open
column boundary, reduced-degree rim) and ``degraded`` (seeded punctured
nodes / severed links on any base).  Every family but the cylinder imports
its module on its first build.

>>> from repro.core.topology import Direction
>>> from repro.topologies import build_topology
>>> torus = build_topology("torus", layers=4, width=5)
>>> torus.in_neighbors((0, 0))[Direction.LOWER_LEFT]
(4, 0)
"""

import importlib
from typing import Callable

from repro.core.topology import HexGrid
from repro.topologies.base import (
    Topology,
    TopologyFamily,
    TopologySpec,
    available_topologies,
    build_topology,
    canonical_topology,
    condition1_fault_capacity,
    get_topology,
    register_topology,
    topology_column_wrap,
    unregister_topology,
    validate_topology,
)

__all__ = [
    "TopologyFamily",
    "TopologySpec",
    "register_topology",
    "unregister_topology",
    "get_topology",
    "available_topologies",
    "build_topology",
    "canonical_topology",
    "validate_topology",
    "topology_column_wrap",
    "condition1_fault_capacity",
    "DEFAULT_TOPOLOGY",
]

#: The default topology of every spec that does not name one: the paper's
#: cylinder.  Specs carrying this value are canonically serialized *without*
#: a topology field, so pre-topology content keys stay byte-identical.
DEFAULT_TOPOLOGY = "cylinder"



def _lazy_builder(module: str, attribute: str) -> Callable[..., Topology]:
    """A builder that imports ``module`` on its first call, so registering a
    family costs no import and a run loads only the topologies it builds."""

    def build(layers: int, width: int, **params) -> Topology:
        return getattr(importlib.import_module(module), attribute)(layers, width, **params)

    return build


# Built-in registrations.  ``replace=True`` keeps repeated imports (e.g. a
# reloaded module in an interactive session) idempotent.
register_topology(
    TopologyFamily(
        name="cylinder",
        builder=HexGrid,
        description="the paper's cylindric hex grid (column axis wraps)",
        min_layers=1,
        min_width=3,
        dimension_rationale="every node needs four distinct in-neighbours",
    ),
    replace=True,
)
register_topology(
    TopologyFamily(
        name="torus",
        builder=_lazy_builder("repro.topologies.torus", "HexTorus"),
        description="hex torus: both axes wrap, no boundary layers",
        min_layers=2,
        min_width=3,
        dimension_rationale=(
            "with L=1 the layer wrap makes lower and upper neighbours coincide"
        ),
    ),
    replace=True,
)
register_topology(
    TopologyFamily(
        name="patch",
        builder=_lazy_builder("repro.topologies.patch", "HexPatch"),
        description="bounded planar patch: open column boundary, reduced-degree rim",
        min_layers=1,
        min_width=4,
        dimension_rationale=(
            "with W=3 every node is a rim node and one fault can cut the patch"
        ),
    ),
    replace=True,
)
register_topology(
    TopologyFamily(
        name="degraded",
        builder=_lazy_builder("repro.topologies.degraded", "DegradedGrid"),
        description="seeded punctured-node / severed-link damage on any base topology",
        min_layers=1,
        min_width=3,
        dimension_rationale="bounds of the base family apply on top",
        param_defaults={"base": "cylinder", "nodes": 0, "links": 0, "seed": 0},
    ),
    replace=True,
)
