"""Parallel sweep and Monte Carlo campaign orchestration.

This subsystem turns the one-off serial loops of the experiment harness into
a reusable pipeline::

    spec (declarative sweep)  ->  tasks (seeded runs)  ->  records  ->  analysis

* :mod:`repro.campaign.spec` -- declarative :class:`SweepSpec` /
  :class:`CampaignSpec` grids with deterministic per-run seed derivation via
  ``numpy.random.SeedSequence`` spawn keys.
* :mod:`repro.campaign.runner` -- :class:`CampaignRunner` executes the
  expanded :class:`RunTask` list in-process or on a ``multiprocessing`` pool;
  results are independent of worker count and completion order.
* :mod:`repro.campaign.records` -- flat, JSON-serializable
  :class:`RunRecord` results plus the pooled aggregation helpers that feed
  :mod:`repro.analysis`.
* :mod:`repro.campaign.store` -- a content-addressed JSONL cache making
  interrupted campaigns resumable and repeat invocations instant.
* :mod:`repro.campaign.progress` -- throttled progress/ETA reporting.
* :mod:`repro.campaign.cli` -- the ``hex-repro sweep`` verb.

The per-table/per-figure experiments (``repro.experiments``) and the
``hex-repro sweep`` / ``hex-repro simulate`` CLI run on top of this package;
see ``DESIGN.md`` at the repository root for the subsystem inventory.

Quickstart
----------
>>> from repro.campaign import CampaignSpec, SweepSpec, CampaignRunner
>>> spec = CampaignSpec(
...     name="demo",
...     seed=7,
...     cells=(SweepSpec(layers=10, width=8, scenario=("i", "iii"), runs=3),),
... )
>>> result = CampaignRunner(spec, workers=1).run()
>>> len(result.records)
6
"""

from __future__ import annotations

# The sweep verb loads with the package, so a process that has built a
# campaign spec has loaded every module its sweep runs (DESIGN.md "Start-up").
from repro.campaign import cli  # noqa: F401
from repro.campaign.records import RunRecord, pooled_statistics
from repro.campaign.runner import CampaignRunner, execute_task_batch
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.campaign.store import CampaignStore

__all__ = [
    "CampaignSpec",
    "SweepSpec",
    "RunRecord",
    "CampaignRunner",
    "CampaignStore",
    "execute_task_batch",
    "pooled_statistics",
]
