"""Contract-enforcing static analysis for the reproduction codebase.

``repro.checks`` is the repo's own linter: a small AST-visitor framework plus
rule registry (mirroring :mod:`repro.engines` / :mod:`repro.topologies`) that
enforces the contracts the test suite cannot see -- the layering DAG,
determinism hygiene, content-key stability and the single-source artifact
schema registry.  ``hex-repro check`` runs it; CI runs it as a blocking gate.

Rule bodies live in their family modules and self-register on import;
:func:`load_builtin_rules` imports them all (idempotently), mirroring
``repro.bench.load_builtin_suites``.  The rule engine lives in
:mod:`repro.checks.registry`, :mod:`repro.checks.source` and
:mod:`repro.checks.findings`; this package imports none of them, because
:mod:`repro.checks.schemas` is the one runtime-facing piece: a
dependency-free registry of artifact schema strings that every layer may
import.
"""

__all__ = ["load_builtin_rules"]


def load_builtin_rules() -> None:
    """Import every built-in rule module (registering its rules); idempotent."""
    from repro.checks import artifacts, contentkeys, determinism, layering  # noqa: F401
