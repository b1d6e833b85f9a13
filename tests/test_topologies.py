"""Tests of the pluggable topology subsystem (registry, families, threading)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.skew import inter_layer_skews, intra_layer_skews
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, RunTask, SweepSpec
from repro.cli import main
from repro.core.parameters import TimingConfig
from repro.core.topology import Direction, HexGrid
from repro.engines import RunSpec, get_engine
from repro.faults.placement import check_condition1, place_faults
from repro.simulation.links import UniformRandomDelays
from repro.topologies import (
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
from repro.topologies.degraded import DegradedGrid
from repro.topologies.patch import HexPatch
from repro.topologies.torus import HexTorus


# ----------------------------------------------------------------------
# registry & spec grammar
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_topologies()
        for name in ("cylinder", "torus", "patch", "degraded"):
            assert name in names

    def test_unknown_topology_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            get_topology("moebius")
        message = str(excinfo.value)
        assert "unknown topology 'moebius'" in message
        for name in available_topologies():
            assert name in message

    def test_register_and_unregister_custom_family(self):
        family = TopologyFamily(
            name="unit-test-family", builder=HexGrid, description="test"
        )
        try:
            register_topology(family)
            assert "unit-test-family" in available_topologies()
            assert isinstance(build_topology("unit-test-family", 3, 4), HexGrid)
        finally:
            unregister_topology("unit-test-family")
        assert "unit-test-family" not in available_topologies()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_topology(get_topology("cylinder"))
        register_topology(get_topology("cylinder"), replace=True)  # idempotent

    def test_cylinder_builds_plain_hexgrid(self):
        grid = build_topology("cylinder", 5, 6)
        assert type(grid) is HexGrid
        assert grid == HexGrid(5, 6)

    def test_spec_string_round_trip_and_default_dropping(self):
        assert canonical_topology("torus") == "torus"
        assert canonical_topology("degraded") == "degraded"
        assert canonical_topology("degraded:base=cylinder") == "degraded"
        assert canonical_topology("degraded:nodes=0,links=0") == "degraded"
        assert (
            canonical_topology("degraded:seed=7, nodes=2")
            == "degraded:nodes=2,seed=7"
        )
        spec = TopologySpec.parse("degraded:nodes=2,seed=7")
        assert TopologySpec.parse(spec.to_string()) == spec

    def test_malformed_and_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="malformed topology parameter"):
            TopologySpec.parse("degraded:nodes")
        with pytest.raises(ValueError, match="unknown parameter"):
            build_topology("degraded:holes=3", 5, 6)
        with pytest.raises(ValueError, match="non-empty"):
            TopologySpec.parse("  ")

    def test_dimension_validation_is_actionable(self):
        with pytest.raises(ValueError, match="layers >= 2"):
            validate_topology("torus", 1, 8)
        with pytest.raises(ValueError, match="width >= 4"):
            validate_topology("patch", 5, 3)
        # Degraded inherits the base family's bounds.
        with pytest.raises(ValueError, match="layers >= 2"):
            validate_topology("degraded:base=torus", 1, 8)
        with pytest.raises(ValueError, match="cannot degrade"):
            validate_topology("degraded:base=degraded", 5, 6)

    def test_column_wrap_flags(self):
        assert topology_column_wrap("cylinder")
        assert topology_column_wrap("torus")
        assert not topology_column_wrap("patch")
        assert not topology_column_wrap("degraded:base=patch,nodes=1")
        assert topology_column_wrap("degraded:nodes=1")


# ----------------------------------------------------------------------
# family structure
# ----------------------------------------------------------------------
class TestFamilies:
    @pytest.mark.parametrize(
        "spec", ["cylinder", "torus", "patch", "degraded:nodes=3,links=4,seed=9"]
    )
    def test_in_out_symmetry_and_directions(self, spec):
        grid = build_topology(spec, 5, 6)
        for node in grid.nodes():
            for direction, neighbor in grid.out_neighbors(node).items():
                assert direction.is_outgoing
                assert node in grid.in_neighbors(neighbor).values()
                assert grid.direction_between(node, neighbor).is_incoming
            for direction, neighbor in grid.in_neighbors(node).items():
                assert direction.is_incoming
                assert node in grid.out_neighbors(neighbor).values()

    def test_cached_tables_match_raw_rule(self):
        grid = HexGrid(4, 5)
        for node in grid.nodes():
            layer, column = node
            for direction in Direction:
                assert grid.neighbor(node, direction) == grid._raw_neighbor(
                    layer, column, direction
                )

    def test_torus_wraps_both_axes(self):
        torus = HexTorus(4, 5)
        assert torus.in_neighbors((0, 0))[Direction.LOWER_LEFT] == (4, 0)
        assert torus.in_neighbors((0, 0))[Direction.LOWER_RIGHT] == (4, 1)
        assert torus.out_neighbors((4, 2))[Direction.UPPER_RIGHT] == (0, 2)
        # Sources still have no intra-layer links and never listen laterally.
        assert Direction.LEFT not in torus.in_neighbors((0, 0))
        # Layer distance wraps.
        assert torus.node_distance((0, 0), (4, 0)) == 1

    def test_patch_rim_degrees(self):
        patch = HexPatch(4, 5)
        rim_right = patch.in_neighbors((2, 4))
        assert set(rim_right) == {Direction.LEFT, Direction.LOWER_LEFT}
        rim_left = patch.in_neighbors((2, 0))
        assert set(rim_left) == {
            Direction.RIGHT,
            Direction.LOWER_LEFT,
            Direction.LOWER_RIGHT,
        }
        with pytest.raises(ValueError, match="does not wrap|out of range"):
            patch.validate_node((2, 7))
        assert patch.cyclic_column_distance(0, 4) == 4
        assert not patch.column_wrap

    def test_degraded_damage_is_seed_deterministic(self):
        first = DegradedGrid(6, 6, nodes=3, links=4, seed=9)
        second = build_topology("degraded:links=4,nodes=3,seed=9", 6, 6)
        assert first == second
        assert first.punctured_nodes() == second.punctured_nodes()
        assert first.severed_links() == second.severed_links()
        other = build_topology("degraded:links=4,nodes=3,seed=10", 6, 6)
        assert first != other

    def test_degraded_structure_consistency(self):
        grid = DegradedGrid(6, 6, nodes=3, links=4, seed=9)
        punctured = set(grid.punctured_nodes())
        assert len(punctured) == 3
        assert all(node[0] > 0 for node in punctured)  # sources never punctured
        assert punctured.isdisjoint(set(grid.nodes()))
        assert punctured.isdisjoint(set(grid.forwarding_nodes()))
        mask = grid.presence_mask()
        assert int((~mask).sum()) == 3
        for node in punctured:
            assert not mask[node]
        links = set(grid.links())
        for link in grid.severed_links():
            assert link not in links
        assert grid.num_present_nodes == grid.num_nodes - 3
        assert grid.condition2_extra_hops() == 3 + 4

    def test_degraded_damage_caps_are_actionable(self):
        with pytest.raises(ValueError, match="more hole than fabric"):
            DegradedGrid(3, 4, nodes=12)
        with pytest.raises(ValueError, match="disconnects the fabric"):
            DegradedGrid(3, 4, links=1000)

    @pytest.mark.parametrize(
        "spec,dims",
        [
            ("cylinder", (4, 5)),
            ("torus", (4, 5)),
            ("torus", (2, 3)),
            ("patch", (4, 5)),
            ("patch", (3, 7)),
        ],
    )
    def test_hop_distance_matches_networkx(self, spec, dims):
        import networkx as nx
        from nx_export import to_undirected_networkx

        grid = build_topology(spec, *dims)
        lengths = dict(nx.all_pairs_shortest_path_length(to_undirected_networkx(grid)))
        for a in grid.nodes():
            for b in grid.nodes():
                assert grid.hop_distance(a, b) == lengths[a][b], (a, b)

    def test_pulse_reachable_mask_flags_guard_deadlocks(self):
        # Holes (3,1) and (3,3) leave (4,1)/(4,2) only guards referencing
        # each other: structurally silent, not merely slow.
        grid = build_topology("degraded:nodes=2,seed=1", 5, 6)
        assert grid.punctured_nodes() == [(3, 1), (3, 3)]
        reachable = grid.pulse_reachable_mask()
        assert not reachable[4, 1] and not reachable[4, 2] and not reachable[5, 1]
        assert grid.presence_mask()[4, 1]  # present but unreachable
        for spec in ("cylinder", "torus", "patch"):
            intact = build_topology(spec, 5, 6)
            assert np.array_equal(intact.pulse_reachable_mask(), intact.presence_mask())

    def test_identity_distinguishes_families(self):
        assert HexGrid(4, 5) != HexTorus(4, 5)
        assert HexTorus(4, 5) != HexPatch(4, 5)
        assert hash(HexGrid(4, 5)) != hash(HexTorus(4, 5))
        assert HexTorus(4, 5) == HexTorus(4, 5)


# ----------------------------------------------------------------------
# Condition 1 capacity & placement hardening
# ----------------------------------------------------------------------
class TestCondition1Capacity:
    @pytest.mark.parametrize("spec", ["cylinder", "torus", "patch"])
    def test_greedy_capacity_is_placeable(self, spec):
        grid = build_topology(spec, 6, 6)
        capacity = condition1_fault_capacity(grid)
        assert capacity >= 1
        placed = place_faults(grid, capacity, np.random.default_rng(0))
        assert len(placed) == capacity
        assert check_condition1(grid, placed)

    def test_placement_failure_names_capacity_and_topology(self):
        grid = HexPatch(2, 4)
        capacity = condition1_fault_capacity(grid)
        with pytest.raises(RuntimeError) as excinfo:
            place_faults(grid, 8, np.random.default_rng(0), max_attempts=5)
        message = str(excinfo.value)
        assert "HexPatch" in message
        assert f"hosts {capacity} fault(s)" in message

    def test_placement_respects_degraded_holes(self):
        grid = DegradedGrid(6, 6, nodes=4, seed=3)
        placed = place_faults(grid, 2, np.random.default_rng(1))
        assert set(placed).isdisjoint(set(grid.punctured_nodes()))
        assert check_condition1(grid, placed)


# ----------------------------------------------------------------------
# RunSpec integration & content-key stability
# ----------------------------------------------------------------------
class TestRunSpecIntegration:
    def test_default_topology_omitted_from_canonical_json(self):
        spec = RunSpec(kind="single_pulse", layers=6, width=5, scenario="iii", entropy=42)
        assert "topology" not in spec.to_json_dict()
        explicit = RunSpec(
            kind="single_pulse", layers=6, width=5, scenario="iii", entropy=42,
            topology="cylinder",
        )
        assert spec.key() == explicit.key()
        # Pinned pre-topology content key: if this changes, every cached
        # cylinder record in existing stores is orphaned.
        assert spec.key() == "73f0a907effa500effaa0071ed73a57f"

    def test_topology_spec_round_trip(self):
        spec = RunSpec(
            kind="single_pulse", layers=6, width=6, scenario="iii", entropy=7,
            topology="degraded:seed=3,nodes=2",
        )
        assert spec.topology == "degraded:nodes=2,seed=3"  # canonicalised
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.key() == spec.key()
        assert json.loads(spec.to_json())["topology"] == "degraded:nodes=2,seed=3"

    def test_invalid_pairings_fail_at_spec_construction(self):
        with pytest.raises(ValueError, match="layers >= 2"):
            RunSpec(layers=1, width=8, topology="torus")
        with pytest.raises(ValueError, match="unknown topology"):
            RunSpec(topology="moebius")

    def test_make_grid_builds_family(self):
        assert isinstance(RunSpec(topology="torus", layers=4, width=5).make_grid(), HexTorus)
        assert RunSpec(layers=4, width=5).topology_family() == "cylinder"

    def test_clocktree_rejects_non_cylinder(self):
        spec = RunSpec(kind="single_pulse", layers=6, width=5, topology="torus", entropy=1)
        with pytest.raises(ValueError, match="does not support topology"):
            get_engine("clocktree").run(spec)

    @pytest.mark.parametrize("engine", ["solver", "des"])
    @pytest.mark.parametrize(
        "topology", ["torus", "patch", "degraded:nodes=2,links=2,seed=5"]
    )
    def test_hex_engines_run_all_families(self, engine, topology):
        spec = RunSpec(
            kind="single_pulse", layers=6, width=6, scenario="iii", entropy=11,
            topology=topology,
        )
        result = get_engine(engine).run(spec)
        assert result.trigger_times.shape == (7, 6)
        # Structurally absent nodes carry nan and are masked out.
        grid = spec.make_grid()
        presence = grid.presence_mask()
        assert np.all(np.isnan(result.trigger_times[~presence]))
        assert not result.correct_mask[~presence].any()

    def test_run_task_round_trip_keeps_topology(self):
        cell = SweepSpec(layers=6, width=6, engine="solver", topology="torus", runs=1)
        task = CampaignSpec(name="t", seed=1, cells=(cell,)).tasks()[0]
        assert task.topology == "torus"
        assert task.to_run_spec().topology == "torus"
        assert task.to_json_dict()["topology"] == "torus"
        # Cylinder tasks keep their historical payload (no topology key).
        plain = CampaignSpec(
            name="t", seed=1, cells=(SweepSpec(layers=6, width=6, runs=1),)
        ).tasks()[0]
        assert "topology" not in plain.to_json_dict()
        assert isinstance(plain, RunTask)


# ----------------------------------------------------------------------
# solver-vs-DES agreement on the new topologies
# ----------------------------------------------------------------------
class TestSolverDesAgreementOnTopologies:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        layers=st.integers(min_value=2, max_value=5),
        width=st.integers(min_value=4, max_value=6),
        topology=st.sampled_from(["torus", "patch"]),
    )
    def test_shared_delays_agree_exactly(self, seed, layers, width, topology):
        """With one shared per-link delay model the two semantics coincide on
        the torus and the open-boundary patch, exactly as on the cylinder."""
        timing = TimingConfig.paper_defaults()
        grid = build_topology(topology, layers, width)
        rng = np.random.default_rng(seed)
        layer0 = rng.uniform(0.0, timing.d_max, size=width)
        delays = UniformRandomDelays(timing, rng)
        solver = get_engine("solver").single_pulse(
            grid, timing, layer0, rng=rng, delays=delays
        )
        des = get_engine("des").single_pulse(
            grid, timing, layer0, rng=np.random.default_rng(seed + 1), delays=delays
        )
        assert solver.all_correct_triggered() and des.all_correct_triggered()
        np.testing.assert_allclose(
            solver.trigger_times, des.trigger_times, rtol=0.0, atol=1e-9
        )


# ----------------------------------------------------------------------
# campaign sweeps over the topology axis
# ----------------------------------------------------------------------
class TestTopologyCampaigns:
    def _spec(self):
        cell = SweepSpec(
            layers=6, width=6, scenario="iii", engine="solver",
            topology=("cylinder", "torus", "patch", "degraded:nodes=2,seed=4"),
            runs=2, seed_salt=0,
        )
        return CampaignSpec(name="topo-sweep", seed=17, cells=(cell,))

    def test_axis_covers_all_topologies(self):
        result = CampaignRunner(self._spec()).run()
        seen = {record.params.get("topology", "cylinder") for record in result.records}
        assert seen == {"cylinder", "torus", "patch", "degraded:nodes=2,seed=4"}

    def test_serial_parallel_resumed_bit_identity(self, tmp_path):
        spec = self._spec()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        store = str(tmp_path / "store")
        CampaignRunner(spec, store=store).run()
        resumed = CampaignRunner(spec, store=store, resume=True).run()
        assert resumed.cached == spec.num_tasks and resumed.executed == 0
        lines = [record.canonical_json() for record in serial.records]
        assert lines == [record.canonical_json() for record in parallel.records]
        assert lines == [record.canonical_json() for record in resumed.records]

    def test_clocktree_topology_pairing_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="does not support topology"):
            SweepSpec(engine=("solver", "clocktree"), topology=("cylinder", "torus"))
        # Cylinder-only cells and hex-engine cells stay valid.
        SweepSpec(engine=("solver", "clocktree"), topology="cylinder")
        SweepSpec(engine=("solver", "des"), topology=("cylinder", "torus"))

    def test_degenerate_dimension_pairing_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="layers >= 2"):
            SweepSpec(layers=(1, 6), width=6, engine="solver", topology="torus")

    def test_cylinder_cell_payload_unchanged(self):
        cell = SweepSpec(layers=6, width=6, runs=2)
        assert "topology" not in cell.to_json_dict()
        swept = SweepSpec(layers=6, width=6, runs=2, topology=("cylinder", "torus"))
        assert swept.to_json_dict()["topology"] == ["cylinder", "torus"]
        assert SweepSpec.from_json_dict(swept.to_json_dict()) == swept

    def test_multi_pulse_stabilizes_on_all_topologies(self):
        """Stabilization analysis must be topology-aware: wrap-pair skews,
        punctured holes and guard-deadlocked nodes are excluded, and the
        sigma bounds carry the lateral-trigger margin."""
        for topology in ("cylinder", "torus", "patch", "degraded:nodes=2,seed=1"):
            cell = SweepSpec(
                layers=5, width=6, kind="multi_pulse", num_pulses=4, runs=1,
                topology=topology,
            )
            task = CampaignSpec(name="s", seed=5, cells=(cell,)).tasks()[0]
            from repro.campaign.runner import execute_task_batch

            record = execute_task_batch([task])[0]
            assert np.isfinite(record.stabilization_time), topology

    def test_mixed_topology_pooling_uses_per_record_wrap(self):
        """pooled_statistics over a patch+cylinder record list must drop the
        wrap pair only for the patch records."""
        from repro.campaign.records import pooled_statistics

        result = CampaignRunner(self._spec()).run()
        by_topology = {
            record.params.get("topology", "cylinder"): record
            for record in result.records
        }
        mixed = [by_topology["patch"], by_topology["cylinder"]]
        pooled = pooled_statistics(mixed)
        # Per-record pooling == concatenation of the per-topology sample sets;
        # verify against pooling each record alone.
        alone = [pooled_statistics([record]) for record in mixed]
        assert pooled.intra_max == pytest.approx(
            max(stats.intra_max for stats in alone)
        )

    def test_patch_statistics_drop_wrap_pair(self):
        result = CampaignRunner(self._spec()).run()
        for record in result.records:
            if record.params.get("topology") == "patch":
                assert record.column_wrap() is False
                times = record.trigger_matrix()
                wrapped = intra_layer_skews(times, wrap=True)
                open_boundary = intra_layer_skews(times, wrap=False)
                assert np.all(np.isnan(open_boundary[:, -1]))
                assert np.isfinite(wrapped[1:, -1]).any()
                inter = inter_layer_skews(times, wrap=False)
                assert np.all(np.isnan(inter[:, -1, 1]))
                break
        else:  # pragma: no cover - sweep always contains a patch point
            pytest.fail("no patch record found")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTopologyCli:
    def test_cli_topologies_lists_families(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("cylinder", "torus", "patch", "degraded"):
            assert name in out
        assert "Condition-1 capacity" in out

    def test_cli_topologies_json(self, capsys):
        assert main(["topologies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert set(by_name) >= {"cylinder", "torus", "patch", "degraded"}
        assert "clocktree" in by_name["cylinder"]["engines"]
        assert "clocktree" not in by_name["torus"]["engines"]
        assert by_name["torus"]["num_links"] > by_name["cylinder"]["num_links"]

    def test_cli_engines_json_reports_topologies(self, capsys):
        assert main(["engines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["solver"]["supported_topologies"] == ["*"]
        assert by_name["clocktree"]["supported_topologies"] == ["cylinder"]

    def test_cli_sweep_rejects_bad_topology(self, capsys):
        assert main(["sweep", "--topology", "moebius", "--runs", "1"]) == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_cli_topology_list_binds_params_to_preceding_spec(self):
        from repro.cli import _topology_list

        assert _topology_list("cylinder,torus") == ["cylinder", "torus"]
        assert _topology_list("cylinder,degraded:nodes=2,seed=3,patch") == [
            "cylinder",
            "degraded:nodes=2,seed=3",
            "patch",
        ]

    def test_cli_simulate_on_torus(self, capsys):
        assert (
            main(
                ["simulate", "--layers", "5", "--width", "5", "--topology", "torus",
                 "--runs", "2", "--seed", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "torus grid" in out
