"""Single source of truth for artifact schema version strings.

Every JSON artifact this project emits carries a ``hex-repro/<name>/v<N>``
schema string so consumers can sniff what they are reading and reject
documents from a different era.  Those strings are *contracts*: two modules
spelling the same schema differently (or bumping a version in one place but
not another) silently forks the artifact format.  This registry therefore
declares each schema exactly once; every producer and consumer references it
from here, and the ``S001`` static-analysis rule (:mod:`repro.checks.artifacts`)
rejects schema literals anywhere else in the source tree.

This module is deliberately dependency-free (it imports nothing from
``repro``) so that foundation layers -- :mod:`repro.adversary`,
:mod:`repro.campaign`, :mod:`repro.obs`, :mod:`repro.bench` -- can import it
without inverting the layer DAG enforced by :mod:`repro.checks.layering`:
``checks.schemas`` is pinned as a foundation leaf importable from anywhere,
while the rest of :mod:`repro.checks` sits at the top of the stack.
"""

from __future__ import annotations

import re
from typing import Dict

__all__ = ["SCHEMA_PATTERN", "SCHEMAS", "schema"]

#: What a well-formed schema string looks like.  The middle component must
#: equal the registry key, so registry lookups and sniffed documents agree on
#: the artifact's name.
SCHEMA_PATTERN = re.compile(r"^hex-repro/(?P<name>[a-z][a-z0-9-]*)/v(?P<version>[0-9]+)$")

#: The registry: artifact name -> its current schema version string.
#:
#: Bumping a version here is a *deliberate* format change: every producer and
#: consumer picks it up at once, and the S002 rule keeps the table well-formed.
SCHEMAS: Dict[str, str] = {
    # campaign run records (one JSONL line per executed RunTask)
    "run-record": "hex-repro/run-record/v1",
    # declarative dynamic fault schedules (repro.adversary)
    "fault-schedule": "hex-repro/fault-schedule/v1",
    # observability span/event traces (repro.obs, JSONL)
    "trace": "hex-repro/trace/v1",
    # observability metrics snapshots (repro.obs)
    "metrics": "hex-repro/metrics/v1",
    # one benchmark suite's BENCH_<suite>.json artifact (repro.bench)
    "bench-suite": "hex-repro/bench-suite/v1",
    # `hex-repro check --json` findings documents (repro.checks)
    "check-findings": "hex-repro/check-findings/v1",
    # resumable soak-run checkpoints (repro.experiments.soak)
    "soak": "hex-repro/soak/v1",
    # the golden output corpora of the test suite (tests/data/golden_*.json)
    "golden-solver": "hex-repro/golden-solver/v1",
    "golden-campaign": "hex-repro/golden-campaign/v1",
    "golden-des": "hex-repro/golden-des/v1",
    "golden-stabilization": "hex-repro/golden-stabilization/v1",
}


def schema(name: str) -> str:
    """The registered schema string of one artifact name.

    Raises
    ------
    KeyError
        With the known names listed, when ``name`` is not registered.
    """
    try:
        return SCHEMAS[name]
    except KeyError:
        raise KeyError(
            f"unknown artifact schema {name!r}; registered names: "
            f"{', '.join(sorted(SCHEMAS))}"
        ) from None
