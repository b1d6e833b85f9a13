"""Tests for the cylindric hexagonal grid topology (Fig. 1 semantics)."""

from __future__ import annotations

import networkx as nx
import pytest
from nx_export import to_networkx, to_undirected_networkx

from repro.core.topology import TRIGGER_GUARDS, Direction, HexGrid


class TestConstruction:
    def test_dimensions(self, small_grid):
        assert small_grid.layers == 6
        assert small_grid.width == 5
        assert small_grid.shape == (7, 5)
        assert small_grid.num_nodes == 35
        assert small_grid.dimensions.num_forwarding_nodes == 30

    def test_rejects_too_few_layers(self):
        with pytest.raises(ValueError):
            HexGrid(layers=0, width=5)

    def test_rejects_too_narrow_grid(self):
        with pytest.raises(ValueError):
            HexGrid(layers=3, width=2)

    def test_equality_and_hash(self):
        assert HexGrid(3, 4) == HexGrid(3, 4)
        assert HexGrid(3, 4) != HexGrid(3, 5)
        assert hash(HexGrid(3, 4)) == hash(HexGrid(3, 4))

    def test_node_iteration_order_and_count(self, small_grid):
        nodes = list(small_grid.nodes())
        assert len(nodes) == small_grid.num_nodes
        assert nodes[0] == (0, 0)
        assert nodes[-1] == (6, 4)
        assert nodes == sorted(nodes)

    def test_forwarding_nodes_exclude_layer0(self, small_grid):
        forwarding = list(small_grid.forwarding_nodes())
        assert all(layer > 0 for layer, _ in forwarding)
        assert len(forwarding) == 30

    def test_layer_nodes(self, small_grid):
        assert small_grid.layer_nodes(2) == [(2, c) for c in range(5)]
        assert small_grid.source_nodes() == [(0, c) for c in range(5)]
        with pytest.raises(ValueError):
            small_grid.layer_nodes(7)


class TestNodeHelpers:
    def test_wrap_column(self, small_grid):
        assert small_grid.wrap_column(5) == 0
        assert small_grid.wrap_column(-1) == 4
        assert small_grid.wrap_column(12) == 2

    def test_contains(self, small_grid):
        assert small_grid.contains((0, 0))
        assert small_grid.contains((6, 9))  # column wraps
        assert not small_grid.contains((7, 0))

    def test_validate_node_wraps_column(self, small_grid):
        assert small_grid.validate_node((3, 7)) == (3, 2)
        assert small_grid.validate_node((3, -1)) == (3, 4)

    def test_validate_node_rejects_bad_layer(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.validate_node((7, 0))
        with pytest.raises(ValueError):
            small_grid.validate_node((-1, 0))

    def test_node_index_roundtrip(self, small_grid):
        for node in small_grid.nodes():
            assert small_grid.node_from_index(small_grid.node_index(node)) == node
        with pytest.raises(ValueError):
            small_grid.node_from_index(small_grid.num_nodes)


class TestNeighbors:
    def test_paper_neighbour_definitions(self, small_grid):
        # Fig. 1: node (l, i) has lower-left (l-1, i), lower-right (l-1, i+1),
        # upper-left (l+1, i-1), upper-right (l+1, i).
        node = (3, 2)
        assert small_grid.neighbor(node, Direction.LEFT) == (3, 1)
        assert small_grid.neighbor(node, Direction.RIGHT) == (3, 3)
        assert small_grid.neighbor(node, Direction.LOWER_LEFT) == (2, 2)
        assert small_grid.neighbor(node, Direction.LOWER_RIGHT) == (2, 3)
        assert small_grid.neighbor(node, Direction.UPPER_LEFT) == (4, 1)
        assert small_grid.neighbor(node, Direction.UPPER_RIGHT) == (4, 2)

    def test_column_wraparound(self, small_grid):
        assert small_grid.neighbor((2, 0), Direction.LEFT) == (2, 4)
        assert small_grid.neighbor((2, 4), Direction.RIGHT) == (2, 0)
        assert small_grid.neighbor((2, 4), Direction.LOWER_RIGHT) == (1, 0)
        assert small_grid.neighbor((2, 0), Direction.UPPER_LEFT) == (3, 4)

    def test_layer0_has_no_in_neighbours(self, small_grid):
        assert small_grid.in_neighbors((0, 2)) == {}
        assert small_grid.neighbor((0, 2), Direction.LEFT) is None
        assert small_grid.neighbor((0, 2), Direction.LOWER_LEFT) is None

    def test_layer0_out_neighbours_are_upper_only(self, small_grid):
        out = small_grid.out_neighbors((0, 2))
        assert set(out) == {Direction.UPPER_LEFT, Direction.UPPER_RIGHT}
        assert out[Direction.UPPER_RIGHT] == (1, 2)

    def test_top_layer_has_no_upper_neighbours(self, small_grid):
        out = small_grid.out_neighbors((6, 1))
        assert set(out) == {Direction.LEFT, Direction.RIGHT}
        assert small_grid.neighbor((6, 1), Direction.UPPER_LEFT) is None

    def test_interior_node_has_four_in_and_four_out(self, small_grid):
        assert len(small_grid.in_neighbors((3, 2))) == 4
        assert len(small_grid.out_neighbors((3, 2))) == 4
        assert len(small_grid.all_neighbors((3, 2))) == 6

    def test_neighbour_relation_is_consistent(self, small_grid):
        # If b is in direction d of a, then a is in direction d.opposite of b.
        for node in small_grid.nodes():
            for direction, neighbor in small_grid.all_neighbors(node).items():
                assert small_grid.neighbor(neighbor, direction.opposite) == node

    def test_direction_between(self, small_grid):
        assert small_grid.direction_between((3, 1), (3, 2)) == Direction.LEFT
        assert small_grid.direction_between((2, 3), (3, 2)) == Direction.LOWER_RIGHT
        with pytest.raises(ValueError):
            small_grid.direction_between((1, 1), (4, 4))

    def test_upper_neighbours_reciprocate_lower(self, small_grid):
        node = (2, 3)
        upper_right = small_grid.neighbor(node, Direction.UPPER_RIGHT)
        assert small_grid.neighbor(upper_right, Direction.LOWER_LEFT) == node
        upper_left = small_grid.neighbor(node, Direction.UPPER_LEFT)
        assert small_grid.neighbor(upper_left, Direction.LOWER_RIGHT) == node


class TestDirections:
    def test_incoming_outgoing_classification(self):
        assert Direction.LEFT.is_incoming and Direction.LEFT.is_outgoing
        assert Direction.LOWER_LEFT.is_incoming and not Direction.LOWER_LEFT.is_outgoing
        assert Direction.UPPER_RIGHT.is_outgoing and not Direction.UPPER_RIGHT.is_incoming

    def test_opposites_are_involutions(self):
        for direction in Direction:
            assert direction.opposite.opposite is direction

    def test_trigger_guards_match_algorithm1(self):
        assert TRIGGER_GUARDS == (
            (Direction.LEFT, Direction.LOWER_LEFT),
            (Direction.LOWER_LEFT, Direction.LOWER_RIGHT),
            (Direction.LOWER_RIGHT, Direction.RIGHT),
        )


class TestLinks:
    def test_link_count(self, small_grid):
        # Every forwarding node has 4 outgoing links except the top layer (2);
        # every layer-0 node has 2 outgoing links.
        expected = 5 * 2 + 5 * 5 * 4 + 5 * 2  # sources + layers 1..5 + top layer
        # layers 1..6 are forwarding; top layer (6) has only 2 outgoing links.
        expected = 5 * 2 + 5 * 5 * 4 + 5 * 2
        assert small_grid.num_links() == expected

    def test_incoming_and_outgoing_links_are_consistent(self, small_grid):
        all_links = set(small_grid.links())
        for node in small_grid.nodes():
            for link in small_grid.outgoing_links(node):
                assert link in all_links
            for source, destination in small_grid.incoming_links(node):
                assert destination == node
                assert (source, destination) in all_links

    def test_every_forwarding_node_has_four_incoming_links(self, small_grid):
        for node in small_grid.forwarding_nodes():
            assert len(small_grid.incoming_links(node)) == 4


class TestDistances:
    def test_cyclic_column_distance(self, small_grid):
        assert small_grid.cyclic_column_distance(0, 4) == 1
        assert small_grid.cyclic_column_distance(0, 2) == 2
        assert small_grid.cyclic_column_distance(3, 3) == 0

    def test_hop_distance_to_self_is_zero(self, small_grid):
        assert small_grid.hop_distance((3, 2), (3, 2)) == 0

    def test_hop_distance_to_neighbours_is_one(self, small_grid):
        node = (3, 2)
        for neighbor in small_grid.all_neighbors(node).values():
            assert small_grid.hop_distance(node, neighbor) == 1

    def test_hop_distance_is_symmetric(self, small_grid):
        pairs = [((1, 0), (4, 3)), ((0, 2), (6, 2)), ((2, 4), (5, 1))]
        for a, b in pairs:
            assert small_grid.hop_distance(a, b) == small_grid.hop_distance(b, a)

    def test_hop_distance_matches_networkx_shortest_path(self, small_grid):
        graph = to_undirected_networkx(small_grid)
        for a, b in [((1, 0), (4, 3)), ((0, 0), (6, 4)), ((2, 1), (2, 3)), ((5, 4), (1, 2))]:
            expected = nx.shortest_path_length(graph, a, b)
            assert small_grid.hop_distance(a, b) == expected


class TestNetworkxExport:
    def test_node_and_edge_counts(self, small_grid):
        graph = to_networkx(small_grid)
        assert graph.number_of_nodes() == small_grid.num_nodes
        assert graph.number_of_edges() == small_grid.num_links()

    def test_edge_attributes_carry_direction(self, small_grid):
        graph = to_networkx(small_grid)
        assert graph.edges[(2, 1), (3, 1)]["direction"] == Direction.UPPER_RIGHT.value

    def test_graph_metadata(self, small_grid):
        graph = to_networkx(small_grid)
        assert graph.graph["layers"] == 6
        assert graph.graph["width"] == 5

    def test_undirected_graph_is_connected(self, small_grid):
        assert nx.is_connected(to_undirected_networkx(small_grid))


class TestLazyNeighborTables:
    """The neighbour tables build on first accessor use, not at construction.

    The dense array engine never consults the tables (its plans come from
    vectorized boundary rules), so construction must stay O(1) -- that is
    what keeps million-node grids instant to build.
    """

    def test_construction_defers_table_build(self):
        grid = HexGrid(layers=4, width=4)
        assert grid._all_tables is None
        # First accessor builds them once; results match the raw rule.
        neighbors = grid.in_neighbors((1, 0))
        assert grid._all_tables is not None
        assert neighbors[Direction.LOWER_LEFT] == (0, 0)
        assert list(neighbors) == [
            Direction.LEFT,
            Direction.RIGHT,
            Direction.LOWER_LEFT,
            Direction.LOWER_RIGHT,
        ]

    def test_million_node_grid_constructs_instantly(self):
        import time

        start = time.perf_counter()
        grid = HexGrid(layers=1000, width=1000)
        elapsed = time.perf_counter() - start
        assert grid.num_nodes == 1001000
        assert elapsed < 1.0
        assert grid._all_tables is None
