"""Tests for repro.checks: the contract-enforcing static analysis pass."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.checks import load_builtin_rules
from repro.checks.contentkeys import (
    GOLDEN_SPECS,
    OMISSION_MANIFESTS,
    OmissionManifest,
    golden_key_findings,
    omission_findings,
)
from repro.checks.findings import Finding
from repro.checks.layering import LAYER_DAG, package_of
from repro.checks.registry import (
    CheckContext,
    available_rules,
    get_rule,
    register_rule,
    run_checks,
    unregister_rule,
)
from repro.checks.schemas import SCHEMA_PATTERN, SCHEMAS, schema
from repro.checks.source import scan_package
from repro.cli import main

load_builtin_rules()


def make_tree(root: Path, files: dict) -> Path:
    """Write a fixture package tree: ``{"simulation/bad.py": source}``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def findings_of(report, rule):
    return [finding for finding in report.findings if finding.rule == rule]


# ----------------------------------------------------------------------
# framework: source model, waivers, findings
# ----------------------------------------------------------------------
class TestFramework:
    def test_scan_package_module_names(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "__init__.py": "",
                "simulation/__init__.py": "",
                "simulation/bad.py": "x = 1\n",
            },
        )
        modules = {m.module: m for m in scan_package(tmp_path)}
        assert set(modules) == {"repro", "repro.simulation", "repro.simulation.bad"}
        assert modules["repro.simulation.bad"].rel_path == "simulation/bad.py"
        assert modules["repro.simulation.bad"].package_relative() == "simulation.bad"

    def test_waivers_parse_only_from_comments(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "simulation/mod.py": (
                    '"""Docs mention # repro: allow-import[not a waiver]."""\n'
                    "import json  # repro: allow-import[ real reason ]\n"
                    'text = "# repro: allow-random[also not a waiver]"\n'
                )
            },
        )
        [module] = scan_package(tmp_path)
        assert len(module.waivers) == 1
        assert module.waivers[0].tag == "import"
        assert module.waivers[0].reason == "real reason"
        assert module.waivers[0].line == 2

    def test_waiver_at_prefers_same_line(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "simulation/mod.py": (
                    "import json  # repro: allow-import[first]\n"
                    "import math  # repro: allow-import[second]\n"
                )
            },
        )
        [module] = scan_package(tmp_path)
        assert module.waiver_at(2, "import").reason == "second"
        assert module.waiver_at(1, "import").reason == "first"
        assert module.waiver_at(3, "import").reason == "second"  # line above
        assert module.waiver_at(2, "random") is None

    def test_finding_format_and_sorting(self):
        finding = Finding(rule="L001", severity="error", path="a.py", line=3, message="m")
        assert finding.format() == "a.py:3: L001 m"
        with pytest.raises(ValueError):
            Finding(rule="X", severity="fatal", path="a.py", line=1, message="m")
        with pytest.raises(ValueError):
            Finding(rule="X", severity="error", path="a.py", line=0, message="m")
        unsorted = [
            Finding(rule="B", severity="error", path="b.py", line=1, message="m"),
            Finding(rule="A", severity="error", path="a.py", line=9, message="m"),
            Finding(rule="Z", severity="error", path="a.py", line=2, message="m"),
        ]
        ordered = sorted(unsorted, key=Finding.sort_key)
        assert [f.path for f in ordered] == ["a.py", "a.py", "b.py"]

    def test_registry_lookup_and_reserved_ids(self):
        assert get_rule("L001").name == "layering-dag"
        with pytest.raises(ValueError, match="unknown rule"):
            get_rule("X999")
        with pytest.raises(ValueError, match="reserved"):
            register_rule(id="W001", name="bad")(lambda context: [])
        with pytest.raises(ValueError, match="already registered"):
            register_rule(id="L001", name="dup")(lambda context: [])
        register_rule(id="T900", name="test-rule")(lambda context: [])
        try:
            assert get_rule("T900").severity == "error"
        finally:
            unregister_rule("T900")


# ----------------------------------------------------------------------
# layering rules
# ----------------------------------------------------------------------
class TestLayering:
    def test_known_bad_import_is_found(self, tmp_path):
        make_tree(
            tmp_path,
            {"simulation/bad.py": "import json\nfrom repro.obs import get_logger\n"},
        )
        report = run_checks(root=tmp_path, rule_ids=["L001"])
        [finding] = findings_of(report, "L001")
        assert finding.path == "simulation/bad.py"
        assert finding.line == 2
        assert "obs" in finding.message
        assert report.exit_code() == 1

    def test_allowed_edges_and_foundation_leaf(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "engines/ok.py": (
                    "from repro.core.topology import HexGrid\n"
                    "from repro.obs import get_logger\n"
                    "from repro.checks.schemas import schema\n"
                ),
                "core/ok.py": "from repro.checks.schemas import schema\n",
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["L001"])
        assert report.clean

    def test_relative_imports_resolve_inside_package(self, tmp_path):
        make_tree(tmp_path, {"simulation/mod.py": "from . import engine\n"})
        report = run_checks(root=tmp_path, rule_ids=["L001"])
        assert report.clean

    def test_waiver_with_reason_moves_finding_aside(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "simulation/bad.py": (
                    "from repro.obs import get_logger  # repro: allow-import[legacy]\n"
                )
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["L001"])
        assert report.clean
        [waived] = report.waived
        assert waived.waived and waived.waiver_reason == "legacy"

    def test_empty_reason_keeps_finding_and_adds_w001(self, tmp_path):
        make_tree(
            tmp_path,
            {"simulation/bad.py": "from repro.obs import x  # repro: allow-import[]\n"},
        )
        report = run_checks(root=tmp_path, rule_ids=["L001"])
        assert {f.rule for f in report.findings} == {"L001", "W001"}

    def test_stale_waiver_flagged_only_on_full_runs(self, tmp_path):
        make_tree(
            tmp_path,
            {"core/ok.py": "import json  # repro: allow-import[nothing wrong here]\n"},
        )
        full = run_checks(root=tmp_path)
        assert [f.rule for f in full.findings] == ["W002"]
        subset = run_checks(root=tmp_path, rule_ids=["L001"])
        assert subset.clean

    def test_undeclared_package_is_flagged(self, tmp_path):
        make_tree(tmp_path, {"newpkg/mod.py": "x = 1\n", "newpkg/other.py": "y = 2\n"})
        report = run_checks(root=tmp_path, rule_ids=["L002"])
        [finding] = findings_of(report, "L002")  # one finding per package, not per file
        assert "newpkg" in finding.message

    def test_package_of(self):
        assert package_of("repro.engines.base") == "engines"
        assert package_of("repro.checks.schemas") == "checks.schemas"
        assert package_of("repro.checks.layering") == "checks"
        assert package_of("repro") == ""

    def test_dag_covers_the_real_tree(self):
        from repro.checks.registry import default_root

        for module in scan_package(default_root()):
            package = package_of(module.module)
            assert package in LAYER_DAG or package == "checks.schemas", module.module


# ----------------------------------------------------------------------
# determinism rules
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_global_random_calls_are_found(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/bad.py": (
                    "import random\n"
                    "import numpy as np\n"
                    "x = random.random()\n"
                    "np.random.seed(0)\n"
                    "rng = np.random.default_rng()\n"
                )
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["D001"])
        lines = sorted(f.line for f in findings_of(report, "D001"))
        assert lines == [1, 3, 4, 5]

    def test_seeded_generators_pass(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "core/ok.py": (
                    "import numpy as np\n"
                    "rng = np.random.default_rng(42)\n"
                    "seq = np.random.SeedSequence(entropy=1)\n"
                    "value = rng.random()\n"
                )
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["D001"])
        assert report.clean

    def test_wall_clock_outside_allowlist(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "simulation/bad.py": "import time\nnow = time.time()\n",
                "obs/fine.py": "import time\nnow = time.perf_counter()\n",
                "bench/fine.py": "import time\nnow = time.monotonic()\n",
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["D002"])
        [finding] = findings_of(report, "D002")
        assert finding.path == "simulation/bad.py"

    def test_json_dumps_needs_sort_keys(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "campaign/mixed.py": (
                    "import json\n"
                    "a = json.dumps({})\n"
                    "b = json.dumps({}, sort_keys=True)\n"
                    "c = json.dumps({}, indent=2)\n"
                )
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["D003"])
        assert sorted(f.line for f in findings_of(report, "D003")) == [2, 4]

    def test_float_equality_only_in_hot_paths(self, tmp_path):
        source = "def f(x):\n    return x == 0.5 or x != float('inf')\n"
        make_tree(
            tmp_path,
            {"simulation/network.py": source, "analysis/slow.py": source},
        )
        report = run_checks(root=tmp_path, rule_ids=["D004"])
        [finding] = findings_of(report, "D004")
        assert finding.path == "simulation/network.py"


# ----------------------------------------------------------------------
# content-key stability rules
# ----------------------------------------------------------------------
class TestContentKeys:
    def test_real_manifests_are_clean(self):
        context = CheckContext(root=Path("."), modules=[])
        assert list(omission_findings(context, OMISSION_MANIFESTS())) == []

    def test_serialized_default_field_is_flagged(self):
        class Leaky:
            def to_json_dict(self):
                return {"layers": 50, "topology": "cylinder"}  # default leaked

        manifest = OmissionManifest(
            name="Leaky",
            anchor="engines/base.py",
            build_default=Leaky,
            omitted=("topology",),
        )
        context = CheckContext(root=Path("."), modules=[])
        [finding] = omission_findings(context, [manifest])
        assert finding.rule == "K001"
        assert "topology" in finding.message

    def test_dropped_non_default_field_is_flagged(self):
        class Dropper:
            def to_json_dict(self):
                return {"layers": 50}

        manifest = OmissionManifest(
            name="Dropper",
            anchor="campaign/spec.py",
            build_default=Dropper,
            omitted=("topology",),
            probes={"topology": Dropper},  # non-default still missing
        )
        context = CheckContext(root=Path("."), modules=[])
        [finding] = omission_findings(context, [manifest])
        assert finding.rule == "K001"
        assert "drops non-default" in finding.message

    def test_golden_corpus_matches(self):
        assert list(golden_key_findings(GOLDEN_SPECS())) == []

    def test_changed_golden_key_is_flagged(self):
        corpus = {"fake-spec": (lambda: "0" * 32, "f" * 32)}
        [finding] = golden_key_findings(corpus)
        assert finding.rule == "K002"
        assert "fake-spec" in finding.message

    def test_broken_golden_spec_is_flagged(self):
        def broken():
            raise TypeError("unexpected keyword argument")

        [finding] = golden_key_findings({"broken-spec": (broken, "0" * 32)})
        assert finding.rule == "K002"
        assert "no longer constructs" in finding.message


# ----------------------------------------------------------------------
# artifact-schema rules
# ----------------------------------------------------------------------
class TestSchemas:
    def test_registry_lookup(self):
        assert schema("trace") == "hex-repro/trace/v1"
        with pytest.raises(KeyError, match="unknown artifact schema"):
            schema("nonexistent")
        for key, value in SCHEMAS.items():
            match = SCHEMA_PATTERN.match(value)
            assert match is not None and match.group("name") == key

    def test_duplicated_schema_string_is_flagged(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "campaign/dup.py": (
                    '"""Prose may mention hex-repro/trace/v1 freely."""\n'
                    'SCHEMA = "hex-repro/run-record/v1"\n'
                )
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["S001"])
        [finding] = findings_of(report, "S001")
        assert finding.line == 2

    def test_waived_literal_is_allowed(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "cli.py": (
                    'EXAMPLE = "hex-repro/trace/v1"'
                    "  # repro: allow-schema-literal[help example]\n"
                )
            },
        )
        report = run_checks(root=tmp_path, rule_ids=["S001"])
        assert report.clean and len(report.waived) == 1

    def test_malformed_registry_is_flagged(self, monkeypatch):
        import repro.checks.artifacts as artifacts

        monkeypatch.setitem(SCHEMAS, "bogus", "hex-repro/other-name/v1")
        context = CheckContext(root=Path("."), modules=[])
        findings = list(artifacts.check_schema_registry(context))
        assert any("bogus" in f.message for f in findings)


class TestGoldenManifests:
    """``S003``: the four golden corpora of a source checkout."""

    @staticmethod
    def _checkout(tmp_path: Path) -> Path:
        """A fake checkout with four valid one-entry manifests; the package root."""
        from repro.checks.artifacts import GOLDEN_MANIFESTS

        (tmp_path / "pyproject.toml").write_text("", encoding="utf-8")
        package = make_tree(tmp_path / "src" / "repro", {"__init__.py": ""})
        data = tmp_path / "tests" / "data"
        data.mkdir(parents=True)
        for file_name, (name, entries) in GOLDEN_MANIFESTS.items():
            payload = {"schema": schema(name), entries: {"cell": "digest"}}
            (data / file_name).write_text(json.dumps(payload), encoding="utf-8")
        return package

    def test_real_checkout_is_checked_and_clean(self):
        from repro.checks.artifacts import checkout_of
        from repro.checks.registry import default_root

        assert checkout_of(default_root()) is not None
        assert run_checks(rule_ids=["S003"]).clean

    def test_valid_fake_checkout_is_clean(self, tmp_path):
        assert run_checks(root=self._checkout(tmp_path), rule_ids=["S003"]).clean

    @pytest.mark.parametrize(
        "damage, message",
        [
            (None, "is missing"),
            ("{", "does not parse"),
            ('["cells"]', "is not a JSON object"),
            ('{"schema": "hex-repro/golden-solver/v1", "records": {"k": "v"}}', "carries schema"),
            ('{"schema": "hex-repro/golden-des/v1", "cells": {}}', "pins no 'cells'"),
        ],
    )
    def test_missing_or_malformed_manifest_is_found(self, tmp_path, damage, message):
        package = self._checkout(tmp_path)
        manifest = tmp_path / "tests" / "data" / "golden_des.json"
        if damage is None:
            manifest.unlink()
        else:
            manifest.write_text(damage, encoding="utf-8")
        report = run_checks(root=package, rule_ids=["S003"])
        [finding] = findings_of(report, "S003")
        assert finding.path == "../../tests/data/golden_des.json"
        assert message in finding.message
        assert report.exit_code() == 1

    def test_a_tree_outside_a_checkout_has_no_manifests_to_check(self, tmp_path):
        make_tree(tmp_path, {"core/ok.py": "x = 1\n"})
        assert run_checks(root=tmp_path, rule_ids=["S003"]).clean


# ----------------------------------------------------------------------
# end-to-end over the real tree, and the CLI verb
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_real_tree_is_clean(self):
        report = run_checks()
        assert report.findings == [], report.render()
        assert all(finding.waiver_reason for finding in report.waived)
        assert report.exit_code() == 0

    def test_all_rule_families_registered(self):
        ids = {rule.id for rule in available_rules()}
        assert {
            "L001", "L002", "D001", "D002", "D003", "D004", "K001", "K002", "S001", "S002", "S003"
        } <= ids

    def test_cli_check_clean(self, capsys):
        assert main(["check"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_check_json_document(self, capsys, tmp_path):
        out_file = tmp_path / "findings.json"
        assert main(["check", "--json", "--out", str(out_file)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == schema("check-findings")
        assert document["findings"] == []
        assert document["waived"]
        assert json.loads(out_file.read_text()) == document

    def test_cli_check_list_and_rule_selection(self, capsys):
        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        assert "L001" in out and "layering-dag" in out
        assert main(["check", "--rule", "S002"]) == 0
        assert main(["check", "--rule", "NOPE"]) == 2  # unknown rule -> CLI error

    def test_cli_check_fails_on_bad_tree(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "simulation/bad.py": "from repro.obs import x\n",
                "core/rand.py": "import random\nv = random.random()\n",
            },
        )
        assert main(["check", "--root", str(tmp_path), "--rule", "L001", "--rule", "D001"]) == 1
        out = capsys.readouterr().out
        assert "simulation/bad.py:1: L001" in out
        assert "core/rand.py:2: D001" in out
