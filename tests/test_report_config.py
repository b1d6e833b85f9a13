"""Tests for the experiment configuration and the report formatting helpers."""

from __future__ import annotations

import pytest

from repro.experiments.config import DEFAULT_RUNS, PAPER_RUNS, ExperimentConfig
from repro.experiments.report import format_kv, format_table


class TestExperimentConfig:
    def test_default_matches_paper_grid(self):
        config = ExperimentConfig()
        assert (config.layers, config.width) == (50, 20)
        assert config.runs == DEFAULT_RUNS
        assert config.timing.d_max == pytest.approx(8.197)

    def test_paper_configuration(self):
        config = ExperimentConfig.paper()
        assert config.runs == PAPER_RUNS
        assert (config.layers, config.width) == (50, 20)

    def test_quick_configuration_is_smaller(self):
        quick = ExperimentConfig.quick()
        assert quick.layers < 50 and quick.width < 20
        assert quick.runs < DEFAULT_RUNS

    def test_with_runs_and_seed(self):
        config = ExperimentConfig().with_runs(7).with_seed(123)
        assert config.runs == 7 and config.seed == 123

    def test_make_grid(self):
        grid = ExperimentConfig.quick().make_grid()
        assert grid.layers == 20 and grid.width == 10

    def test_spawn_rngs_are_independent_and_reproducible(self):
        config = ExperimentConfig(seed=5)
        first = config.spawn_rngs(3, salt=1)
        second = config.spawn_rngs(3, salt=1)
        other_salt = config.spawn_rngs(3, salt=2)
        for a, b in zip(first, second):
            assert a.uniform() == b.uniform()
        assert first[0].uniform() != other_salt[0].uniform()
        # Different children of the same spawn produce different streams.
        fresh = config.spawn_rngs(2, salt=1)
        assert fresh[0].uniform() != fresh[1].uniform()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(layers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(width=2)
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(num_pulses=0)


class TestReportFormatting:
    def test_format_table_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", 7]],
            precision=2,
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text and "7" in text

    def test_format_table_handles_nan(self):
        text = format_table(["x"], [[float("nan")]])
        assert "nan" in text

    def test_format_kv(self):
        text = format_kv({"alpha": 1.0, "beta": "x"}, title="Summary")
        assert text.splitlines()[0] == "Summary"
        assert "alpha" in text and "beta" in text
