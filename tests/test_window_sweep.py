"""The window sweep against the heap sweep it replaced, bit for bit.

``_heap_reference.heap_solve_single_pulse`` is the Dijkstra heap sweep the
solver shipped before; the window sweep of ``repro.core.pulse_solver`` must
reproduce it exactly: trigger times, guards, work counters, the generator's
end state and the order in which the delay model cached its draws.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from _heap_reference import heap_solve_single_pulse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.delays import BiasedLinkDelays, MaxSkewDelays
from repro.core.parameters import TimingConfig
from repro.core.pulse_solver import PulseRun, solve_pulse_batch, solve_single_pulse
from repro.core.topology import HexGrid
from repro.engines import RunSpec, get_engine
from repro.faults.models import FaultModel, LinkBehavior, NodeFault
from repro.faults.placement import place_faults
from repro.simulation.links import (
    ConstantDelays,
    DelayModel,
    FreshUniformDelays,
    TableDelays,
    UniformRandomDelays,
)
from repro.topologies import build_topology

TIMING = TimingConfig.paper_defaults()

FAMILIES = ("cylinder", "torus", "patch", "degraded:nodes=4,links=6,seed={seed}")
FAULTS = ("none", "byzantine", "fail_silent", "crash", "links")
DELAYS = ("uniform-block", "uniform-drawn", "fresh", "constant", "table", "max_skew", "biased")
LAYER0 = ("equal", "random", "skewed")


def _grid(family: str, layers: int, width: int, seed: int) -> HexGrid:
    return build_topology(family.format(seed=seed), layers, width)


def _faults(grid: HexGrid, kind: str, seed: int):
    if kind == "none":
        return None
    rng = np.random.default_rng(seed)
    if kind == "links":
        model = FaultModel(grid, [])
        links = list(grid.links())
        for pick in rng.choice(len(links), size=min(4, len(links)), replace=False):
            behavior = LinkBehavior.CONSTANT_ONE if pick % 2 else LinkBehavior.CONSTANT_ZERO
            model.add_link_fault(links[pick], behavior)
        return model
    positions = place_faults(grid, 2, rng)
    if kind == "byzantine":
        faults = [NodeFault.byzantine(grid, node, rng=rng) for node in positions]
    elif kind == "fail_silent":
        faults = [NodeFault.fail_silent(grid, node) for node in positions]
    else:
        faults = [NodeFault.crash(grid, node, crash_time=0.0) for node in positions]
    return FaultModel(grid, faults)


def _delays(grid: HexGrid, kind: str, seed: int):
    """A delay model of ``kind`` over a fresh generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    if kind in ("uniform-block", "uniform-drawn"):
        model = UniformRandomDelays(TIMING, rng)
        if kind == "uniform-drawn":
            # One link drawn already: the sweep then queries link by link.
            model.delay(*next(iter(grid.links())))
            assert model.block_draw_bounds() is None
        return model
    if kind == "fresh":
        return FreshUniformDelays(TIMING, rng)
    if kind == "constant":
        return ConstantDelays(TIMING.d_min + (TIMING.d_max - TIMING.d_min) * (seed % 3) / 2)
    if kind == "table":
        table = TableDelays({}, default=TIMING.d_max)
        for source, destination in grid.links():
            if (source[1] + destination[0] + seed) % 3 == 0:
                table.set(source, destination, TIMING.d_min)
        return table
    if kind == "max_skew":
        return MaxSkewDelays(TIMING, grid.width)
    return BiasedLinkDelays(TIMING, rng)


def _layer0(grid: HexGrid, kind: str, seed: int) -> np.ndarray:
    if kind == "equal":
        return np.zeros(grid.width)
    spread = TIMING.d_max if kind == "random" else 5 * TIMING.d_max
    return np.random.default_rng(seed + 1).uniform(0.0, spread, grid.width)


def _cache(model):
    for name in ("_cache", "_bias"):
        if hasattr(model, name):
            return list(getattr(model, name).items())
    return None


def _assert_same(ours, ours_delays, theirs, theirs_delays):
    assert np.array_equal(ours.trigger_times, theirs.trigger_times, equal_nan=True)
    assert np.array_equal(ours.guards, theirs.guards)
    assert np.array_equal(ours.correct_mask, theirs.correct_mask)
    assert np.array_equal(ours.layer0_times, theirs.layer0_times, equal_nan=True)
    assert ours.work == theirs.work
    assert _cache(ours_delays) == _cache(theirs_delays)
    if theirs_delays.rng is not None:
        assert ours_delays.rng.bit_generator.state == theirs_delays.rng.bit_generator.state


class TestMatchesTheHeapSweep:
    @given(
        family=st.sampled_from(FAMILIES),
        fault=st.sampled_from(FAULTS),
        delay=st.sampled_from(DELAYS),
        layer0=st.sampled_from(LAYER0),
        layers=st.integers(min_value=4, max_value=9),
        width=st.integers(min_value=5, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_single_runs(self, family, fault, delay, layer0, layers, width, seed):
        grid = _grid(family, layers, width, seed)
        faults = _faults(grid, fault, seed)
        times = _layer0(grid, layer0, seed)
        ours_delays, theirs_delays = _delays(grid, delay, seed), _delays(grid, delay, seed)
        ours = solve_single_pulse(grid, times, ours_delays, faults)
        theirs = heap_solve_single_pulse(grid, times, theirs_delays, faults)
        _assert_same(ours, ours_delays, theirs, theirs_delays)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_mixed_batch_matches_run_by_run(self, family):
        """Every fault kind and delay model in one lock-step batch."""
        grid = _grid(family, 12, 8, 5)
        runs, ours_delays, theirs = [], [], []
        for seed, (fault, delay) in enumerate(itertools.product(FAULTS, DELAYS)):
            faults, times = _faults(grid, fault, seed), _layer0(grid, LAYER0[seed % 3], seed)
            ours_delays.append(_delays(grid, delay, seed))
            runs.append(PulseRun(times, ours_delays[-1], faults))
            theirs_delays = _delays(grid, delay, seed)
            theirs.append(
                (heap_solve_single_pulse(grid, times, theirs_delays, faults), theirs_delays)
            )
        for ours, delays, (reference, reference_delays) in zip(
            solve_pulse_batch(grid, runs), ours_delays, theirs
        ):
            _assert_same(ours, delays, reference, reference_delays)


class _LoggedConstant(ConstantDelays):
    """Constant delays that log the order of their queries."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.queries = []

    def delay(self, source, destination, uniform=None):
        self.queries.append((source, destination))
        return super().delay(source, destination, uniform)


class TestWindowEdges:
    @pytest.mark.parametrize("family", ["cylinder", "torus", "patch"])
    def test_candidates_exactly_on_the_window_end(self, family):
        """Equal sources and constant delays put layer l + 1 on ``T + d-`` exactly."""
        grid = _grid(family, 10, 7, 0)
        ours, theirs = _LoggedConstant(TIMING.d_min), _LoggedConstant(TIMING.d_min)
        solution = solve_single_pulse(grid, np.zeros(grid.width), ours)
        reference = heap_solve_single_pulse(grid, np.zeros(grid.width), theirs)
        _assert_same(solution, ours, reference, theirs)
        assert ours.queries == theirs.queries
        if family == "cylinder":
            # Layer l fires at d- added l times: the window end of layer l - 1.
            expected = np.cumsum([0.0] + [TIMING.d_min] * grid.layers)[:, None]
            assert np.array_equal(solution.trigger_times, np.broadcast_to(expected, grid.shape))

    def test_a_provider_without_a_bound_gets_windows_of_ties(self):
        class Unbounded:
            rng = None

            def delay(self, source, destination, uniform=None):
                return 1.0 + (source[1] * 7 + destination[1] * 3) % 5 / 4

        grid = HexGrid(layers=8, width=6)
        ours = solve_single_pulse(grid, np.zeros(grid.width), Unbounded())
        theirs = heap_solve_single_pulse(grid, np.zeros(grid.width), Unbounded())
        assert np.array_equal(ours.trigger_times, theirs.trigger_times)
        assert np.array_equal(ours.guards, theirs.guards)
        assert ours.work == theirs.work

    def test_a_delay_below_the_bound_raises(self):
        class Lying(ConstantDelays):
            def delay(self, source, destination, uniform=None):
                return self.value / 2 if destination == (3, 2) else self.value

        with pytest.raises(ValueError, match="min_delay"):
            solve_single_pulse(HexGrid(layers=5, width=5), np.zeros(5), Lying(2.0))

    @pytest.mark.parametrize("batched", [False, True])
    def test_delays_that_round_away_raise_instead_of_looping(self, batched):
        """``100 + 1e-15`` is 100: the window of ties at 100 gets messages that
        land inside it, which the sweep cannot order."""
        grid = HexGrid(layers=4, width=5)
        runs = [PulseRun(np.full(grid.width, 100.0), ConstantDelays(1e-15))]
        if batched:
            runs.append(PulseRun(np.zeros(grid.width), ConstantDelays(1.0)))
        with pytest.raises(ValueError, match="advance"):
            solve_pulse_batch(grid, runs)

    def test_firing_times_too_large_for_the_block_draws_raise(self):
        grid = HexGrid(layers=4, width=5)
        delays = UniformRandomDelays(TIMING, np.random.default_rng(1))
        assert delays.block_draw_bounds() is not None
        with pytest.raises(ValueError, match="advance"):
            # The spacing of doubles at 2**60 is 256: every delay rounds away.
            solve_single_pulse(grid, np.full(grid.width, 2.0**60), delays)

    def test_tiny_delays_that_still_advance_match_the_heap(self):
        grid = HexGrid(layers=6, width=5)
        ours, theirs = _LoggedConstant(1e-15), _LoggedConstant(1e-15)
        solution = solve_single_pulse(grid, np.zeros(grid.width), ours)
        reference = heap_solve_single_pulse(grid, np.zeros(grid.width), theirs)
        _assert_same(solution, ours, reference, theirs)
        assert ours.queries == theirs.queries

    def test_runs_of_a_batch_must_not_share_a_generator(self):
        grid = HexGrid(layers=3, width=4)
        rng = np.random.default_rng(1)
        runs = [PulseRun(np.zeros(4), UniformRandomDelays(TIMING, rng)) for _ in range(2)]
        with pytest.raises(ValueError, match="share a generator"):
            solve_pulse_batch(grid, runs)

    def test_a_failing_run_rewinds_every_stream(self):
        class FailsAfterDraws(DelayModel):
            def __init__(self, rng, draws):
                self.rng, self._left = rng, draws

            def delay(self, source, destination, uniform=None):
                if self._left == 0:
                    raise LookupError("no delay for this link")
                self._left -= 1
                return uniform(1.0, 2.0)

        grid = HexGrid(layers=30, width=10)
        good = UniformRandomDelays(TIMING, np.random.default_rng(1))
        failing = FailsAfterDraws(np.random.default_rng(2), 5)
        runs = [PulseRun(np.zeros(grid.width), model) for model in (good, failing)]
        with pytest.raises(LookupError):
            solve_pulse_batch(grid, runs)
        for model, draws in ((failing, 5), (good, 2 * grid.width)):
            # The failure comes as the sources fire: the block run has read
            # the delays of its sources' links and hands back the rest.
            replay = np.random.default_rng(1 if model is good else 2)
            replay.random(draws)
            assert model.rng.bit_generator.state == replay.bit_generator.state

    def test_non_finite_source_times_are_rejected(self):
        grid = HexGrid(layers=3, width=4)
        with pytest.raises(ValueError, match="finite"):
            solve_single_pulse(grid, [0.0, np.inf, 0.0, 0.0], ConstantDelays(1.0))


def _specs(count: int, **overrides):
    base = dict(layers=20, width=10, scenario="iii", entropy=2013)
    base.update(overrides)
    return [RunSpec(run_index=index, **base) for index in range(count)]


def _mixed_specs():
    """A chunk mixing grids, delay models and fault kinds."""
    cells = [
        ("cylinder", "default", 0, None),
        ("torus", "default", 2, "byzantine"),
        ("cylinder", "fresh", 2, "fail_silent"),
        ("patch", "constant", 0, None),
        ("cylinder", "default", 2, "byzantine"),
        ("degraded:nodes=3,links=4,seed=2", "biased", 1, "fail_silent"),
        ("torus", "max_skew", 0, None),
        ("cylinder", "default", 0, None),
    ]
    return [
        RunSpec(
            layers=10 if topology == "torus" else 12,
            width=8,
            topology=topology,
            scenario=("i", "ii", "iii", "iv")[index % 4],
            num_faults=faults,
            fault_type=fault_type,
            delay_model=delay_model,
            entropy=7,
            run_index=index,
        )
        for index, (topology, delay_model, faults, fault_type) in enumerate(cells)
    ]


class TestRunBatchComposition:
    """``run_batch`` results do not depend on the batch a spec ran in."""

    @staticmethod
    def _key(result):
        solution = result.solution
        return (
            result.trigger_times.tobytes(),
            result.correct_mask.tobytes(),
            result.layer0_times.tobytes(),
            solution.guards.tobytes(),
            tuple(sorted(solution.work.items())),
        )

    @pytest.mark.parametrize("faults", [0, 2])
    def test_batch_sizes_1_5_32(self, faults):
        engine = get_engine("solver")
        specs = _specs(32, num_faults=faults, fault_type="byzantine" if faults else None)
        alone = [self._key(engine.run(spec)) for spec in specs]
        for size in (1, 5, 32):
            batched = [
                self._key(result)
                for start in range(0, len(specs), size)
                for result in engine.run_batch(specs[start : start + size])
            ]
            assert batched == alone

    def test_same_grid_specs_share_one_lock_step_sweep(self, monkeypatch):
        import repro.engines.solver as solver_engine

        sizes = []
        sweep = solver_engine.solve_pulse_batch

        def counted(grid, runs, *args, **kwargs):
            sizes.append(len(runs))
            return sweep(grid, runs, *args, **kwargs)

        monkeypatch.setattr(solver_engine, "solve_pulse_batch", counted)
        get_engine("solver").run_batch(_specs(12) + _specs(3, width=8) + _specs(4)[2:])
        assert sorted(sizes) == [3, 14]

    def test_a_chunk_mixing_grids_and_delay_models(self):
        engine = get_engine("solver")
        specs = _mixed_specs()
        alone = [self._key(engine.run(spec)) for spec in specs]
        assert [self._key(result) for result in engine.run_batch(specs)] == alone
        assert [self._key(result) for result in engine.run_batch(specs[::-1])] == alone[::-1]
