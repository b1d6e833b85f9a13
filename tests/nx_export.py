"""networkx exports of a grid, for cross-checking graph metrics in tests.

networkx is a test-only dependency (the ``test`` extra); the library itself
never imports it.
"""

from __future__ import annotations

import networkx as nx

from repro.core.topology import HexGrid


def to_networkx(grid: HexGrid) -> nx.DiGraph:
    """The directed communication graph of ``grid`` as a :class:`networkx.DiGraph`.

    Node attributes: ``layer``, ``column``.  Edge attribute: ``direction``
    (the :class:`~repro.core.topology.Direction` of the destination as seen
    from the source, i.e. the direction the message travels).
    """
    graph = nx.DiGraph(layers=grid.layers, width=grid.width)
    for layer, column in grid.nodes():
        graph.add_node((layer, column), layer=layer, column=column)
    for node in grid.nodes():
        for direction, neighbor in grid.out_neighbors(node).items():
            graph.add_edge(node, neighbor, direction=direction.value)
    return graph


def to_undirected_networkx(grid: HexGrid) -> nx.Graph:
    """The undirected communication graph of ``grid``."""
    return to_networkx(grid).to_undirected()
