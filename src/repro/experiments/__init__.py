"""Per-table / per-figure experiment harness (Section 4).

Every table and figure of the paper's evaluation has a module here exposing a
``run(...)`` function that regenerates the corresponding rows/series, plus a
``PAPER_*`` constant with the values reported in the paper for comparison.
The shared machinery lives in

* :mod:`repro.experiments.config` -- canonical parameters (50x20 grid, the
  paper's delay bounds, 250 runs) and scaled-down defaults;
* :mod:`repro.experiments.single_pulse` -- campaign specs of seeded
  single-pulse run sets, one point per scenario, with optional fault
  injection (Tables 1-3, Figs. 8-12, Theorem 1);
* :mod:`repro.experiments.stability` -- the campaign cell of one multi-pulse
  stabilization data point (Figs. 18-19);
* :mod:`repro.experiments.report` -- plain-text rendering of rows and
  paper-vs-measured comparisons.

Every Monte Carlo experiment runs as one campaign (:mod:`repro.campaign`):
it builds one ``CampaignSpec``, runs it once and reads each data point's
records, so its ``run`` takes ``workers`` and its output is identical for
any worker count.  ``clocktree``, ``fig05``, ``fig13``, ``fig14``,
``fig17`` and ``recovery`` run no campaign and take no ``workers``.

:data:`EXPERIMENTS` maps experiment identifiers (``"table1"``, ``"fig15"``,
...) to their modules; the command-line interface iterates over it.
"""

from __future__ import annotations

import importlib
from typing import Dict

__all__ = ["EXPERIMENTS", "load_experiment"]

#: Identifier -> module path of every reproducible experiment.
EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "table3": "repro.experiments.table3",
    "fig05": "repro.experiments.fig05",
    "fig08": "repro.experiments.fig08",
    "fig09": "repro.experiments.fig09",
    "fig10": "repro.experiments.fig10",
    "fig11": "repro.experiments.fig11",
    "fig12": "repro.experiments.fig12",
    "fig13": "repro.experiments.fig13",
    "fig14": "repro.experiments.fig14",
    "fig15": "repro.experiments.fig15",
    "fig16": "repro.experiments.fig16",
    "fig17": "repro.experiments.fig17",
    "fig18": "repro.experiments.fig18",
    "fig19": "repro.experiments.fig19",
    "theorem1": "repro.experiments.theorem1",
    "clocktree": "repro.experiments.clocktree_comparison",
    "ablation-faults": "repro.experiments.ablation_faulttype",
    "recovery": "repro.experiments.recovery",
    "topology-scaling": "repro.experiments.topology_scaling",
}


def load_experiment(name: str):
    """Import and return the module of an experiment by identifier."""
    key = name.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return importlib.import_module(EXPERIMENTS[key])
