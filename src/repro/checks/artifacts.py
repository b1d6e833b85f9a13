"""Artifact-schema rules: one registry, zero scattered version strings.

Every persistent artifact the toolchain writes self-describes with a
``"hex-repro/<name>/v<N>"`` schema string.  Those strings are load-bearing --
readers dispatch on them -- so they must be declared exactly once, in
:mod:`repro.checks.schemas`, and referenced through :func:`~.schemas.schema`.

``S001`` flags any schema-shaped string constant in executable code outside
the registry module (docstrings are exempt: prose may name formats freely).
``S002`` validates the registry itself: every entry well-formed, names
matching their keys, and no two entries colliding on one string.  ``S003``
checks the golden output corpora of a source checkout: each manifest under
``tests/data/`` exists, parses, carries its registered schema and pins at
least one entry.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterator, Optional

from repro.checks.findings import Finding
from repro.checks.registry import CheckContext, register_rule
from repro.checks.schemas import SCHEMA_PATTERN, SCHEMAS, schema

__all__ = ["GOLDEN_MANIFESTS", "SCHEMA_REGISTRY_MODULE", "checkout_of"]

#: The one module allowed to spell schema strings out.
SCHEMA_REGISTRY_MODULE = "checks/schemas.py"

#: The golden corpora: manifest file under ``tests/data/`` -> its registered
#: schema name and the key of its pinned entries.
GOLDEN_MANIFESTS = {
    "golden_solver.json": ("golden-solver", "cells"),
    "golden_campaign.json": ("golden-campaign", "records"),
    "golden_des.json": ("golden-des", "cells"),
    "golden_stabilization.json": ("golden-stabilization", "sections"),
}


@register_rule(
    id="S001",
    name="schema-single-source",
    severity="error",
    waiver="schema-literal",
    doc=(
        "Artifact schema strings (hex-repro/<name>/v<N>) are declared exactly "
        "once, in repro.checks.schemas, and referenced via schema(name); a "
        "literal anywhere else can drift from the registry when a version "
        "bumps.  Docstrings are exempt.  Waive deliberate literals (e.g. help "
        "text showing example output) with # repro: allow-schema-literal[reason]."
    ),
)
def check_schema_literals(context: CheckContext) -> Iterator[Finding]:
    """Flag schema-shaped string constants outside the registry module."""
    for module in context.modules:
        if module.rel_path == SCHEMA_REGISTRY_MODULE:
            continue
        documentation = module.documentation_lines()
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            if not SCHEMA_PATTERN.match(node.value):
                continue
            if node.lineno in documentation:
                continue
            yield Finding(
                rule="S001",
                severity="error",
                path=module.rel_path,
                line=node.lineno,
                message=(
                    f"schema string {node.value!r} spelled out here; declare it "
                    "once in repro.checks.schemas and reference it via "
                    "schema(name) so version bumps cannot drift"
                ),
            )


@register_rule(
    id="S002",
    name="schema-registry-valid",
    severity="error",
    doc=(
        "The schema registry itself must stay coherent: every value matches "
        "hex-repro/<name>/v<N>, the <name> component equals its registry key, "
        "and no two keys map to one string.  Not waivable: a malformed "
        "registry breaks every reader that dispatches on schema strings."
    ),
)
def check_schema_registry(context: CheckContext) -> Iterator[Finding]:
    """Validate the registry entries themselves."""

    def finding(message: str) -> Finding:
        return Finding(
            rule="S002",
            severity="error",
            path=SCHEMA_REGISTRY_MODULE,
            line=1,
            message=message,
        )

    seen: dict = {}
    for key in sorted(SCHEMAS):
        value = SCHEMAS[key]
        match = SCHEMA_PATTERN.match(value)
        if match is None:
            yield finding(
                f"registry entry {key!r} = {value!r} does not match "
                "hex-repro/<name>/v<N>"
            )
            continue
        if match.group("name") != key:
            yield finding(
                f"registry key {key!r} does not match its schema name "
                f"{match.group('name')!r} in {value!r}"
            )
        if value in seen:
            yield finding(
                f"registry keys {seen[value]!r} and {key!r} both declare "
                f"{value!r}; schema strings must be unique"
            )
        seen.setdefault(value, key)


def checkout_of(root: Path) -> Optional[Path]:
    """The source checkout a package scanned at ``<checkout>/src/<package>``
    lives in (the directory holding ``pyproject.toml``); ``None`` for any
    other tree, such as an installed package."""
    package = Path(root).resolve()
    checkout = package.parent.parent
    if package.parent.name == "src" and (checkout / "pyproject.toml").is_file():
        return checkout
    return None


def _manifest_problem(path: Path, expected_schema: str, entries: str) -> Optional[str]:
    """What is wrong with one golden manifest, or ``None``."""
    if not path.is_file():
        return "is missing"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ValueError) as error:
        return f"does not parse: {error}"
    if not isinstance(payload, dict):
        return "is not a JSON object"
    if payload.get("schema") != expected_schema:
        return f"carries schema {payload.get('schema')!r}, not {expected_schema!r}"
    pinned = payload.get(entries)
    if not isinstance(pinned, (dict, list)) or not pinned:
        return f"pins no {entries!r}"
    return None


@register_rule(
    id="S003",
    name="golden-manifests-valid",
    severity="error",
    doc=(
        "In a source checkout (the package under src/ next to pyproject.toml), "
        "the golden output corpora tests/data/golden_{solver,campaign,des,"
        "stabilization}.json must exist, parse as JSON, carry their registered "
        "schema and pin at least one entry; a missing or emptied manifest "
        "would let its replay test check nothing.  Not waivable."
    ),
)
def check_golden_manifests(context: CheckContext) -> Iterator[Finding]:
    """Validate the four golden manifests of the checkout being scanned."""
    checkout = checkout_of(context.root)
    if checkout is None:
        return
    for file_name, (name, entries) in sorted(GOLDEN_MANIFESTS.items()):
        path = checkout / "tests" / "data" / file_name
        problem = _manifest_problem(path, schema(name), entries)
        if problem is not None:
            yield Finding(
                rule="S003",
                severity="error",
                path=f"../../tests/data/{file_name}",
                line=1,
                message=f"golden manifest {file_name} {problem}",
            )
